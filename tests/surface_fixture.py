"""A module for the guards of ``test_package_surface.py`` to run on: ``drive``
calls ``A.to_json`` but not ``B.to_json``, reads ``Record.read``, serializes
``Summary`` with ``asdict`` and reads ``Record.unread`` only through ``==``.
It also calls ``scale``, which reads ``values`` itself and ``factor`` only
in a comprehension, and never reads ``unused``.

``asdict`` reads every field of the record it is given, so the field that
is only serialized sits in a dataclass of its own.
"""

from dataclasses import asdict, dataclass


@dataclass
class Record:
    read: int
    unread: int


@dataclass
class Summary:
    serialized: int


class A:
    def to_json(self) -> dict:
        record = Record(read=1, unread=2)
        same = record == Record(read=1, unread=2)  # a read in a dunder method
        return asdict(Summary(serialized=record.read if same else 0))


class B:
    def to_json(self) -> dict:
        return {}


def scale(values: list[int], factor: int, unused: int) -> list[int]:
    return [factor * v for v in values]


def drive() -> None:
    A().to_json()
    scale([1], 2, 3)
