"""Every name ``src/tbptt`` defines is used by the package or by the
benchmark harness in ``perfbench``. A name that only tests call is a test
oracle or fixture and belongs in ``tests/helpers.py``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tbptt"
HARNESS = ROOT / "perfbench"


def parse(directory: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(directory.glob("*.py"))}


def definitions(module: ast.Module):
    """(qualified name, bare name) of every module-level function and class,
    and of every method that is not a dunder."""
    for node in module.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def references(module: ast.Module) -> set[str]:
    """Identifiers read as names or attributes, or imported, in ``module``;
    docstrings and other strings do not count."""
    found = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
            if node.asname:
                found.add(node.asname)
    return found


def target_references(module: ast.Module) -> set[str]:
    """Every part of the dotted strings in the harness's ``TARGETS`` table,
    which names the functions and methods it wraps."""
    found = set()
    for node in module.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)):
            for const in ast.walk(node.value):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    found.update(const.value.split("."))
    return found


def unreached(package: Path, harness: Path) -> list[str]:
    package_modules, harness_modules = parse(package), parse(harness)
    used = set()
    for module in (*package_modules.values(), *harness_modules.values()):
        used |= references(module)
    for module in harness_modules.values():
        used |= target_references(module)
    return [f"{module_name}.{qualname}"
            for module_name, module in package_modules.items()
            for qualname, name in definitions(module) if name not in used]


def test_every_package_name_is_reached_outside_the_tests():
    offenders = unreached(PACKAGE, HARNESS)
    assert not offenders, (
        "defined in src/tbptt but used by neither src/tbptt nor perfbench: "
        + ", ".join(offenders))
