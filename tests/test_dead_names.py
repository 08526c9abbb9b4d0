"""Every public top-level function and class in the package has a user.

A name counts as used when some module under src/, tests/ or bench/
(package __init__ files aside) refers to it: as a name, an attribute, an
imported name, or an identifier string such as the (module, name) pairs of
bench/spans.py. The console-script entry point in pyproject.toml counts too.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sources(root: Path):
    for top in ("src", "tests", "bench"):
        for path in sorted((root / top).rglob("*.py")):
            if path.name != "__init__.py":
                yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _references(tree: ast.AST) -> set[str]:
    refs: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(p.isidentifier() for p in parts):
                refs.update(parts)
    return refs


def unreferenced(root: Path) -> list[str]:
    """Public top-level definitions of the package that nothing refers to."""
    package = root / "src" / "jobmarket"
    defined: list[tuple[str, str]] = []
    refs: set[str] = set()
    for path, tree in _sources(root):
        refs |= _references(tree)
        if path.parent == package:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    if not node.name.startswith("_"):
                        defined.append((path.stem, node.name))
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    refs.update(re.findall(r'"jobmarket\.\w+:(\w+)"', pyproject))
    return [f"{module}.{name}" for module, name in defined if name not in refs]


def test_no_dead_public_names():
    assert unreferenced(ROOT) == []


def test_the_check_sees_a_planted_dead_name(tmp_path):
    for top in ("tests", "bench"):
        (tmp_path / top).mkdir()
    package = tmp_path / "src" / "jobmarket"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .lib import dead\n")
    (package / "lib.py").write_text(
        "def used():\n    pass\n\n\ndef dead():\n    pass\n\n\n"
        "def traced():\n    pass\n\n\ndef entry():\n    pass\n\n\n"
        "def _private():\n    pass\n\n\nclass Unused:\n    pass\n"
    )
    (tmp_path / "tests" / "test_lib.py").write_text(
        "import jobmarket.lib as lib\n\nlib.used()\n"
    )
    (tmp_path / "bench" / "spans.py").write_text('TRACED = (("lib", "traced"),)\n')
    (tmp_path / "pyproject.toml").write_text('jobmarket = "jobmarket.lib:entry"\n')
    assert unreferenced(tmp_path) == ["lib.dead", "lib.Unused"]
