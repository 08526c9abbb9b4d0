"""Every public name of the package has a user outside the test suite.

The public names are the top-level functions and classes of the modules
under src/jobmarket/ (package __init__ files aside) and the methods and
properties of those classes; a leading underscore makes a name private.
A name counts as used when some module under src/ or bench/ (package
__init__ files aside) refers to it: as a name, an attribute, an imported
name, or an identifier string such as the (module, name) pairs of
bench/spans.py. The console-script entry point in pyproject.toml counts
too. A reference from tests/ does not: code that only tests reach belongs
in tests/. Methods are matched by name alone, like top-level names.

ALLOWED names are kept without a user in src/ or bench/ because the
documentation offers them.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: README documents demand_set, and acceptance criterion 5 checks it
ALLOWED = frozenset({"demand_set"})


def _sources(root: Path):
    for top in ("src", "bench"):
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


def _public_names(module: str, tree: ast.Module):
    """(qualified name, name) of each public definition and public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name


def unreferenced(root: Path) -> list[str]:
    """Public names of the package that nothing in src/ or bench/ refers to."""
    package = root / "src" / "jobmarket"
    defined: list[tuple[str, str]] = []
    refs: set[str] = set(ALLOWED)
    for path, tree in _sources(root):
        refs |= _references(tree)
        if path.parent == package:
            defined.extend(_public_names(path.stem, tree))
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    refs.update(re.findall(r'"jobmarket\.\w+:(\w+)"', pyproject))
    return [qualified for qualified, name in defined if name not in refs]


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
        "def tested():\n    pass\n\n\ndef demand_set():\n    pass\n\n\n"
        "def _private():\n    pass\n\n\nclass Unused:\n    pass\n\n\n"
        "class Kept:\n"
        "    def called(self):\n        pass\n\n"
        "    @property\n    def read(self):\n        pass\n\n"
        "    def idle(self):\n        pass\n\n"
        "    def _helper(self):\n        pass\n"
    )
    (package / "cli.py").write_text(
        "from .lib import Kept, used\n\nused()\nKept().called()\nKept().read\n"
    )
    (tmp_path / "tests" / "test_lib.py").write_text(
        "import jobmarket.lib as lib\n\nlib.tested()\nlib.Kept().idle()\n"
    )
    (tmp_path / "bench" / "spans.py").write_text('TRACED = (("lib", "traced"),)\n')
    (tmp_path / "pyproject.toml").write_text('jobmarket = "jobmarket.lib:entry"\n')
    assert unreferenced(tmp_path) == ["lib.dead", "lib.tested", "lib.Unused", "lib.Kept.idle"]
