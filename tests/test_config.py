"""Source-level rules: every numerical threshold of the library is a named
constant in config.py, every function a module exports is used by the
library itself, and every cross-check has its row in README."""

import ast
import importlib
from pathlib import Path

import pytest

import fidsus

PACKAGE = Path(fidsus.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# verify.py holds the published contract thresholds of its checks, each
# printed next to its result, so it keeps its literals.
EXEMPT = {"config.py", "verify.py"}


def _small_literals_in_comparisons(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Constant)
                    and isinstance(sub.value, float)
                    and 0.0 < abs(sub.value) < 1e-3
                ):
                    yield sub.lineno, ast.unparse(node)


def test_no_comparison_uses_a_small_float_literal():
    """A tolerance written inline in a comparison escapes config.py."""
    found = [
        f"{path.name}:{line}: {text}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in EXEMPT
        for line, text in _small_literals_in_comparisons(ast.parse(path.read_text()))
    ]
    assert not found, "thresholds outside config.py:\n" + "\n".join(found)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_function_feeds_the_library(module):
    """An export only tests call is a second copy of something or dead code:
    each function in a module's __all__ (every public function when it has
    none) must be referenced by library code outside __init__.py.  For
    fidelity the reference must come from another module too (a report,
    sweep, CLI command or verify check)."""
    mod = importlib.import_module(f"fidsus.{module}")
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    exported = getattr(mod, "__all__", None)
    functions = {
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and (node.name in exported if exported is not None else node.name[0] != "_")
    }
    skipped = {"__init__.py", "fidelity.py"} if module == "fidelity" else {"__init__.py"}
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name in skipped:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(functions - used) == []


def test_the_guard_sees_an_inline_tolerance():
    source = "if abs(x) > 1e-12 * scale or y < -1e-10:\n    pass\n"
    assert len(list(_small_literals_in_comparisons(ast.parse(source)))) == 2


def _raised_check_names(tree):
    """(literal check names, lines passing a computed name) of every
    CrossCheckError(...) and check_agreement(...) call in a module."""
    names, computed = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")
        if func not in ("CrossCheckError", "check_agreement"):
            continue
        first = node.args[0] if node.args else None
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            names.add(first.value)
        else:
            computed.append(node.lineno)
    return names, computed


def _readme_cross_checks():
    """The check names in the first column of README's cross-check table."""
    lines = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip().startswith("| check |"))
    names = set()
    for line in lines[start + 2:]:
        if not line.strip().startswith("|"):
            break
        names.add(line.split("|")[1].strip().strip("`"))
    return names


def test_every_cross_check_has_a_readme_row():
    """Every check name the library raises is a row of README's table of
    cross-checks, and every row is raised somewhere.  Only the agreement
    rule itself passes on a name it was given."""
    raised, computed = set(), {}
    for path in sorted(PACKAGE.glob("*.py")):
        names, lines = _raised_check_names(ast.parse(path.read_text()))
        raised |= names
        if lines:
            computed[path.name] = len(lines)
    assert computed == {"errors.py": 1}
    assert raised == _readme_cross_checks()


def test_the_cross_check_scan_sees_both_call_forms():
    source = (
        'check_agreement("a", x, y, tol, ("p", "q"))\n'
        'raise errors.CrossCheckError("b", "message")\n'
        "raise CrossCheckError(check, message)\n"
    )
    assert _raised_check_names(ast.parse(source)) == ({"a", "b"}, [3])
