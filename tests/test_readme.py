"""The README's Python examples run as written."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    # the quick start (peps_norms, patch_nev, decide_nev) and the circuit
    # example run in one namespace, as a reader would paste them; each block's
    # last expression is kept, and the circuit example's pair agrees
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    namespace, last = {}, []
    for i, block in enumerate(blocks):
        name = f"README.md python block {i}"
        tree = ast.parse(block, filename=name)
        tail = tree.body.pop()
        exec(compile(tree, name, "exec"), namespace)
        last.append(eval(compile(ast.Expression(tail.value), name, "eval"), namespace))
    assert last[0] in ("accept", "reject", "undetermined")
    simulated, contracted = last[1]
    assert contracted == pytest.approx(simulated, abs=1e-12)
