"""No floating-point arithmetic in the package.

Every value the package computes is an exact rational. This walks the
syntax tree of each module under src/ and reports any float or complex
literal and any call to float() or round(); naming the float type, as in
an isinstance check that refuses floats, is allowed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FORBIDDEN_CALLS = ("float", "round")


def float_uses(src: Path) -> list[str]:
    """`path:line: what` for each float literal or float-making call."""
    found = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                what = f"{type(node.value).__name__} literal {node.value!r}"
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in FORBIDDEN_CALLS
            ):
                what = f"call to {node.func.id}()"
            else:
                continue
            found.append(f"{path.relative_to(src)}:{node.lineno}: {what}")
    return found


def test_no_floats_in_the_package():
    assert float_uses(ROOT / "src") == []


def test_the_check_sees_planted_floats(tmp_path):
    package = tmp_path / "jobmarket"
    package.mkdir()
    (package / "lib.py").write_text(
        "def refuse(x):\n"
        "    return isinstance(x, float)\n\n\n"
        "def bad(x):\n"
        "    half = 0.5\n"
        "    z = 2j\n"
        "    return float(x) + round(x, 2) + half + z\n"
    )
    assert float_uses(tmp_path) == [
        "jobmarket/lib.py:6: float literal 0.5",
        "jobmarket/lib.py:7: complex literal 2j",
        "jobmarket/lib.py:8: call to float()",
        "jobmarket/lib.py:8: call to round()",
    ]
