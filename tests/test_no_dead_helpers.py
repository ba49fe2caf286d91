"""Every private module-level helper of the package is used somewhere in it, every
public module-level function and class is named somewhere in the package, its
tests or its benchmark, every private module-level constant is read somewhere
in it, every parameter of every function is read in that function's body, and
no product of dims is taken in int64."""

import ast
import collections
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pepslab"


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


def _names(node):
    """How often each name is read, imported or taken as an attribute under ``node``."""
    count = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            count[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            count[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            count.update(n.split(".")[-1] for n in (sub.name, sub.asname) if n)
    return count


def _unnamed_public_defs(package, roots):
    """``module:name`` of each public module-level function or class of ``package``
    that no file under ``roots`` names outside its own definition."""
    named, defs = collections.Counter(), []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            named.update(_names(tree))
            if path.parent == package:
                defs += [(path.name, node.name, _names(node)[node.name]) for node in tree.body
                         if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                         and not node.name.startswith("_")]
    return [f"{module}:{name}" for module, name, own in defs if named[name] == own]


def test_every_public_def_is_named():
    defs = _unnamed_public_defs(SRC, [ROOT / "src", ROOT / "tests", ROOT / "pepsbench"])
    assert not defs, f"public functions or classes nothing names: {defs}"


def test_a_public_def_left_behind_is_caught(tmp_path):
    pkg, tests = tmp_path / "src" / "pkg", tmp_path / "tests"
    pkg.mkdir(parents=True)
    tests.mkdir()
    (pkg / "a.py").write_text("def kept():\n    return 1\n\n\n"
                              "def left(n):\n    return left(n - 1) if n else 0\n\n\n"
                              "class Used:\n    pass\n")
    (pkg / "b.py").write_text("from .a import Used\n")
    (tests / "test_a.py").write_text("import pkg.a\n\n\ndef test_kept():\n"
                                     "    assert pkg.a.kept() == 1\n")
    # a recursive call is no use from outside
    assert _unnamed_public_defs(pkg, [tmp_path / "src", tests]) == ["a.py:left"]


def _unread_constants(paths):
    """``module:NAME`` of each module-level private constant (``_NAME = ...``) the package never reads.

    A read is a load of the name, or of an attribute so named (``tz._NAME``);
    the assignment itself, and any later store, is no read.
    """
    constants, read = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                for name in ast.walk(target):
                    if (isinstance(name, ast.Name) and name.id.startswith("_")
                            and not name.id.startswith("__")):
                        constants.append((path.name, name.id))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.update(n for n in (node.name, node.asname) if n)
    return [f"{module}:{name}" for module, name in constants if name not in read]


def test_every_private_constant_is_read():
    unread = _unread_constants(sorted(SRC.glob("*.py")))
    assert not unread, f"private constants never read: {unread}"


def test_a_constant_left_behind_is_caught(tmp_path):
    (tmp_path / "a.py").write_text("_KEPT = 1\n_LEFT = 2\n_A, _B = range(2)\n_C: int = 3\n\n\n"
                                   "def f():\n    global _LEFT\n    _LEFT = _KEPT + _B\n")
    (tmp_path / "b.py").write_text("from . import a\n\nx = a._C\n")
    assert _unread_constants(sorted(tmp_path.glob("*.py"))) == ["a.py:_LEFT", "a.py:_A"]


def _unread_parameters(paths):
    """``module:function(parameter)`` for each parameter its function's body never reads.

    A parameter counts as read when its name is loaded anywhere in the body,
    nested functions included. ``self`` and ``cls`` are left out.
    """
    unread = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
                body = node.body if isinstance(node.body, list) else [node.body]
                read = {n.id for stmt in body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                name = getattr(node, "name", "<lambda>")
                unread += [f"{path.name}:{name}({p})" for p in params
                           if p not in read and p not in ("self", "cls")]
    return unread


def test_every_parameter_is_read():
    unread = _unread_parameters(sorted(SRC.glob("*.py")))
    assert not unread, f"parameters never read: {unread}"


def test_a_parameter_left_behind_is_caught(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _cuts(legs, order, closures):\n"
        "    return [legs[v] for v in order]\n\n\n"
        "class _Env:\n"
        "    def boundary(self, forward, cut, *, scan=False):\n"
        "        def seen(i):\n"
        "            return i + cut\n"
        "        return seen if forward else (lambda k, unused: k)\n")
    assert _unread_parameters([tmp_path / "a.py"]) == [
        "a.py:_cuts(closures)", "a.py:boundary(scan)", "a.py:<lambda>(unused)"]


def _int64_products(paths):
    """``module:line`` of each ``prod`` call given an int64 ``dtype``.

    ``np.prod(dims, dtype=np.int64)`` wraps past 2**63 without a word (2**66
    reads 0), so a guard compared against it passes work it should refuse;
    ``math.prod`` is exact. A float product, such as ``np.prod(diff)``, is
    left alone.
    """
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "prod":
                # np.int64, int64 or "int64"
                dtypes = [ast.unparse(kw.value).strip("'\"") for kw in node.keywords
                          if kw.arg == "dtype"]
                if any(d.split(".")[-1] == "int64" for d in dtypes):
                    found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_product_of_dims_in_int64():
    found = _int64_products(sorted(SRC.glob("*.py")))
    assert not found, f"np.prod(..., dtype=np.int64) wraps past 2**63; use math.prod: {found}"


def test_an_int64_product_is_caught(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\n\n\n"
        "def size(dims):\n"
        "    return int(np.prod(dims, dtype=np.int64))\n\n\n"
        "def weight(diff):\n"
        "    return 1.0 / np.prod(diff)\n\n\n"
        "def count(dims):\n"
        "    return np.prod(dims, dtype='int64')\n")
    assert sorted(_int64_products([tmp_path / "a.py"])) == ["a.py:13", "a.py:5"]
