"""The README's Python examples and command lines run as written."""

import ast
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import pepslab as pl
from pepslab.circuits import circuit_to_json, random_circuit
from pepslab.cli import main
from pepslab.network import observable_to_json
from pepslab.tiling import tileset_to_json

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


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    # the Command line section's block, line by line through cli.main, in a
    # directory holding the four files it names; each line must exit 0 with
    # one JSON document on stdout
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("pepslab ")]
    assert len(lines) >= 9
    net = pl.random_network(3, 3, bond_dim=2, delta=0.8, seed=7)
    site = net.graph.vertex_at(1, 1)
    obs = pl.observable_from_matrix((site,), np.diag([1.0] * 8 + [-1.0] * 8))
    readme4 = pl.WangTileSet(2, ((0, 0, 0, 1), (0, 1, 1, 0), (1, 0, 0, 0), (1, 1, 0, 1)))
    docs = {"net.json": pl.network_to_json(net), "obs.json": observable_to_json(obs),
            "circ.json": circuit_to_json(random_circuit(4, 3, seed=1)),
            "tiles.json": tileset_to_json(readme4)}
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code = main(shlex.split(line)[1:])
        out, err = capsys.readouterr()
        assert code == 0, f"{line}: {err}"
        assert isinstance(json.loads(out), dict), line
