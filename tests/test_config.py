"""Every numerical threshold of the library is a named constant in config.py."""

import ast
from pathlib import Path

import fidsus

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


def test_the_guard_sees_an_inline_tolerance():
    source = "if abs(x) > 1e-12 * scale or y < -1e-10:\n    pass\n"
    assert len(list(_small_literals_in_comparisons(ast.parse(source)))) == 2
