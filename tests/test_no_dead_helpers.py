"""Every private module-level helper of the package is used somewhere in it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pepslab"


def _helpers_and_uses(paths):
    """Module-level ``_name`` defs and classes per file, and every name the package reads."""
    helpers, used = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                helpers.append((path.name, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(n for n in (node.name, node.asname) if n)
    return helpers, used


def test_every_private_helper_is_referenced():
    helpers, used = _helpers_and_uses(sorted(SRC.glob("*.py")))
    assert helpers
    dead = [f"{module}:{name}" for module, name in helpers if name not in used]
    assert not dead, f"helpers defined but never referenced: {dead}"


def test_a_helper_left_behind_is_caught(tmp_path):
    (tmp_path / "a.py").write_text("def _kept():\n    return 1\n\n\ndef _left():\n    return 2\n")
    (tmp_path / "b.py").write_text("from .a import _kept\n\n\nclass _Used:\n    pass\n\n\n"
                                   "x = _Used()\n")
    helpers, used = _helpers_and_uses(sorted(tmp_path.glob("*.py")))
    assert [name for _, name in helpers if name not in used] == ["_left"]
