"""Source-level rules: every numerical threshold of the library is a named
constant in config.py, and every function fidsus.fidelity exports is used
by the library itself."""

import ast
from pathlib import Path

import fidsus
import fidsus.fidelity

PACKAGE = Path(fidsus.__file__).resolve().parent
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


def test_every_fidelity_function_feeds_the_library():
    """An export only tests call is a second copy of something or dead code:
    each function in fidsus.fidelity.__all__ must be referenced by a module
    other than fidelity.py and __init__.py (a report, sweep, CLI command or
    verify check)."""
    tree = ast.parse((PACKAGE / "fidelity.py").read_text())
    exported = set(fidsus.fidelity.__all__)
    functions = {
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in exported
    }
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name in ("fidelity.py", "__init__.py"):
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
