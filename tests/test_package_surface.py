"""Every function and method ``src/tbptt`` defines runs, and every field of
its dataclasses is read, in one in-process pass of the CLI over its
subcommands. A function that only tests call is a test oracle or fixture
and belongs in ``tests/helpers.py``; a field that nothing reads is carried
for nothing and goes.

``unreached`` runs the pass under ``sys.setprofile``, which sees the code
object of every Python function as it is called, so two classes' methods
of one name count apart. A class-level ``__getattribute__`` on each
dataclass sees every field read, ``dataclasses.asdict`` included, so a
field that is only serialized counts as read; a read by a dunder method,
such as the record's own checks, ``==`` or hash, does not.

``unread_parameters`` reads the bytecode instead: a parameter of a function
or method that neither its code object nor a nested one (a closure or, before
Python 3.12, a comprehension) loads is passed for nothing and goes.
``surface_fixture`` holds one unused method, one unread field and one unread
parameter, which the guards must find.
"""

import dataclasses
import dis
import inspect
import sys
from types import CodeType, ModuleType

import surface_fixture
from tbptt import analysis, autodiff, benchmark, cli, data, linalg, rng, rnn_core, training

PACKAGE = [analysis, autodiff, benchmark, cli, data, linalg, rng, rnn_core, training]


def definitions(module: ModuleType) -> dict[CodeType, str]:
    """The code object of every module-level function of ``module``, and of
    every non-dunder method, property or static method of its classes, with
    its qualified name."""
    found = {}
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # imported, or not a function or class
        members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
        for attr, member in members:
            if attr and attr.startswith("__") and attr.endswith("__"):
                continue
            if isinstance(member, property):
                member = member.fget
            elif isinstance(member, staticmethod):
                member = member.__func__
            member = inspect.unwrap(member) if callable(member) else member
            if inspect.isfunction(member):
                found[member.__code__] = f"{module.__name__}.{name}" + (f".{attr}" if attr else "")
    return found


def field_reader(cls: type, read: set):
    """A ``__getattribute__`` for ``cls`` that adds (cls, field name) to
    ``read`` for each field read outside a dunder method."""
    names = {f.name for f in dataclasses.fields(cls)}
    original = cls.__getattribute__

    def __getattribute__(self, name):
        if name in names and not sys._getframe(1).f_code.co_name.startswith("__"):
            read.add((cls, name))
        return original(self, name)

    return __getattribute__


def unreached(modules: list[ModuleType], drive) -> list[str]:
    """Call ``drive()`` and return, by qualified name, every function and
    method of ``modules`` that did not run and every dataclass field that
    was not read."""
    defined = {}
    for module in modules:
        defined |= definitions(module)
    classes = [cls for module in modules for cls in vars(module).values()
               if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__]

    for module in modules:  # a cached function's body runs only on a miss
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) == module.__name__ and hasattr(obj, "cache_clear"):
                obj.cache_clear()

    ran, read = set(), set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    hooked = []
    previous = sys.getprofile()
    try:
        for cls in classes:
            hook = field_reader(cls, read)
            hooked.append((cls, vars(cls).get("__getattribute__")))
            cls.__getattribute__ = hook
        sys.setprofile(profile)
        drive()
    finally:
        sys.setprofile(previous)
        for cls, own in reversed(hooked):
            if own is None:
                del cls.__getattribute__
            else:
                cls.__getattribute__ = own
    unrun = [name for code, name in defined.items() if code not in ran]
    unread = [f"{cls.__module__}.{cls.__qualname__}.{f.name}"
              for cls in classes for f in dataclasses.fields(cls) if (cls, f.name) not in read]
    return sorted(unrun + unread)


def loaded_names(code: CodeType) -> set[str]:
    """The local, cell and free variables that ``code`` or a code object
    nested in it loads."""
    names = set()
    for ins in dis.get_instructions(code):
        # LOAD_FAST_AND_CLEAR saves a name an inlined comprehension shadows
        if (ins.opname.startswith("LOAD_FAST") and ins.opname != "LOAD_FAST_AND_CLEAR"
                or ins.opname in ("LOAD_DEREF", "LOAD_CLASSDEREF")):
            names.update(ins.argval if isinstance(ins.argval, tuple) else [ins.argval])
    for const in code.co_consts:
        if isinstance(const, CodeType):
            names |= loaded_names(const)
    return names


def unread_parameters(modules: list[ModuleType]) -> list[str]:
    """Every parameter, but ``self`` and ``cls``, of the functions and
    methods of ``modules`` that no code loads, as ``qualified.name(param)``."""
    unread = []
    for module in modules:
        for code, name in definitions(module).items():
            count = (code.co_argcount + code.co_kwonlyargcount
                     + bool(code.co_flags & inspect.CO_VARARGS)
                     + bool(code.co_flags & inspect.CO_VARKEYWORDS))
            loaded = loaded_names(code)
            unread += [f"{name}({param})" for param in code.co_varnames[:count]
                       if param not in ("self", "cls") and param not in loaded]
    return sorted(unread)


def cli_pass(out):
    """Every subcommand and mode, small: synth with validation and test
    series; train as linear/zero/adam, elman/stateful/sgd and lstm/bptt; a
    sweep with a test series whose m = 6 > N - 1 cell gets an error row;
    and a benchmark of all three variants on the default linear cell, whose
    ``coupled`` iterations take the chunked scan and whose ``tbptt`` and
    ``unconstrained`` iterations take the window pass."""

    def run(*argv):
        assert cli.main(["--out", str(out), *map(str, argv)]) == 0, argv

    run("synth", "--T", 60, "--T-val", 10, "--T-test", 30, "--seed", 5)
    (series,) = (out / "synth").iterdir()
    train, test = series / "train.csv", series / "test.csv"
    few = ["--N", 10, "--m", 2, "--epochs", 2]
    run("train", "--data", train, "--cell", "linear", "--mode", "zero", "--opt", "adam", *few)
    run("train", "--data", train, "--cell", "elman", "--mode", "stateful", "--opt", "sgd", *few)
    run("train", "--data", train, "--cell", "lstm", "--d-h", 2, "--mode", "bptt", "--epochs", 2)
    run("sweep", "--data", train, "--test", test, "--N-list", "5,10", "--m-list", "0,3,6",
        "--epochs", 2, "--batch", 4)
    run("benchmark", "--data", train, "--N", 10, "--m-list", "0,3", "--restarts", 2,
        "--iters", 20)


def test_every_function_runs_and_every_field_is_read(tmp_path):
    offenders = unreached(PACKAGE, lambda: cli_pass(tmp_path))
    assert not offenders, (
        "never run or read in a pass of the CLI over its subcommands: " + ", ".join(offenders))


def test_guard_finds_the_fixture_method_and_field_nothing_uses():
    assert unreached([surface_fixture], surface_fixture.drive) == [
        "surface_fixture.B.to_json", "surface_fixture.Record.unread"]


def test_every_parameter_is_read():
    offenders = unread_parameters(PACKAGE)
    assert not offenders, "parameters that no code reads: " + ", ".join(offenders)


def test_guard_finds_the_fixture_parameter_nothing_reads():
    assert unread_parameters([surface_fixture]) == ["surface_fixture.scale(unused)"]
