"""Per-layer spans recorded from outside the package.

The tracer wraps the public functions through which one pepslab module calls
another. Modules import each other's functions by name (``tiling.peps_norm``,
``cli.nev_report``), so every module binding of a function is replaced, each
with a wrapper that remembers the module it was called through. A few methods
(``Tensor.__init__``, ``Observable.matrix``, ``ParentHamiltonian.matvec`` and
``to_dense``) are wrapped on their classes. Nothing under ``src/`` changes.

Spans stay in memory as ``[name, via, start, end, parent, job, error]`` and
are written out by :meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter
from typing import Any, Callable

# Home module -> functions whose every module binding is wrapped.
FUNCTIONS = {
    "backend": ("matmul", "count_tilings"),
    "tensor": ("contract",),
    "contraction": ("double_layer", "peps_norm", "nev_report", "peps_nev", "decide_nev",
                    "patch_nev"),
    "network": ("random_network", "network_from_json", "assemble_state_vector"),
    "hamiltonian": ("parent_hamiltonian", "spectrum_report"),
    "embed": ("compile_circuit", "build_site_tensor", "readout_observable"),
    "channels": ("kraus_orthonormal_completion",),
    "sim": ("run_noisy_circuit", "apply_noisy_cell", "postselected_expectation",
            "expectation_value"),
    "tiling": ("tiling_count_via_norm", "count_tilings_exhaustive", "extrapolate_norm_to_zero"),
    "cli": ("main",),
}

# (home module, class, method) wrapped on the class itself.
METHODS = (
    ("tensor", "Tensor", "__init__"),
    ("network", "Observable", "matrix"),
    ("hamiltonian", "ParentHamiltonian", "matvec"),
    ("hamiltonian", "ParentHamiltonian", "to_dense"),
)


def _flops(args, kwargs, result) -> int:
    (m, k), n = args[0].shape, args[1].shape[1]
    return 8 * m * k * n


def _states(args, kwargs, result) -> int:
    ts, rows, cols = args[:3]
    return ts.count ** (rows * cols)


# Computed quantity attached to a span: matmul flops (8*m*k*n for complex),
# contract output entries, bytes held by a new Tensor, enumerated states.
EXTRAS: dict[str, Callable[[tuple, dict, Any], int]] = {
    "backend.matmul": _flops,
    "tensor.contract": lambda args, kwargs, result: result.size,
    "tensor.Tensor.__init__": lambda args, kwargs, result: 16 * args[0].data.size,
    "tiling.count_tilings_exhaustive": _states,
}

NAME, VIA, START, END, PARENT, JOB, ERROR, EXTRA = range(8)

# Counters a later claim may rest on only if they repeat exactly.
EXACT_COUNTERS = ("backend.matmul_flops", "contraction.peak_entries",
                  "contraction.double_layer_calls", "tensor.contract_calls",
                  "hamiltonian.matvec_calls", "tiling.exhaustive_states")

CONTRACTION_ENTRY = ("contraction.peps_norm", "contraction.nev_report", "contraction.peps_nev",
                     "contraction.decide_nev", "contraction.patch_nev")


class Tracer:
    """Installs span-recording wrappers into the loaded pepslab modules."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: str = "setup"
        self._restore: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: str, via: str) -> Callable:
        spans, stack, extra = self.spans, self.stack, EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, via, 0.0, 0.0, stack[-1] if stack else -1, self.job, None, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "pepslab" or name.startswith("pepslab.")}
        for home, names in FUNCTIONS.items():
            for fname in names:
                fn = getattr(modules[f"pepslab.{home}"], fname)
                for mod_name, mod in modules.items():
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._replace(mod, attr, self._wrap(fn, f"{home}.{fname}", mod_name))
        for home, cls_name, method in METHODS:
            cls = getattr(modules[f"pepslab.{home}"], cls_name)
            fn = vars(cls)[method]
            self._replace(cls, method, self._wrap(fn, f"{home}.{cls_name}.{method}", home))

    def _replace(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path: str, facts: dict) -> None:
        fields = ["name", "via", "start", "end", "parent", "job", "error", "computed"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"facts": facts, "fields": fields, "spans": self.spans}, fh)

    def self_times(self) -> list[float]:
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own


def counters(tracer: Tracer, jobs: set[str]) -> dict[str, float]:
    """Totals over the spans of ``jobs``: calls, self seconds, computed sums and peaks."""
    own = tracer.self_times()
    out: dict[str, float] = {}
    refused: set[str] = set()

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for s, self_s in zip(tracer.spans, own):
        if s[JOB] not in jobs:
            continue
        name = s[NAME]
        add(f"{name}:calls", 1)
        add(f"{name}:self_s", self_s)
        add(f"{name}:extra", s[EXTRA])
        add(f"{name}@{s[VIA]}:calls", 1)
        if name == "tensor.contract":
            out["contraction.peak_entries"] = max(out.get("contraction.peak_entries", 0),
                                                  s[EXTRA])
        if s[ERROR] == "GuardExceeded" and name.startswith("contraction."):
            refused.add(s[JOB])
    out["contraction.refusals"] = len(refused)
    return out


def layer_metrics(total: dict[str, float], jobs: int, setup: dict[str, float],
                  job_seconds: float) -> dict[str, float]:
    """Per-layer metrics per job (``peak_entries`` is the run's peak)."""
    def get(key: str) -> float:
        return total.get(key, 0.0)

    def per_job(key: str) -> float:
        return get(key) / jobs

    matmul_s = get("backend.matmul:self_s")
    return {
        "contraction.double_layer_calls": per_job("contraction.double_layer:calls"),
        "contraction.double_layer_s": per_job("contraction.double_layer:self_s"),
        "contraction.self_s": sum(get(f"{n}:self_s") for n in CONTRACTION_ENTRY) / jobs,
        "contraction.peak_entries": get("contraction.peak_entries"),
        "contraction.refusals": per_job("contraction.refusals"),
        "tensor.contract_calls": per_job("tensor.contract:calls"),
        "tensor.contract_s": per_job("tensor.contract:self_s"),
        "tensor.init_calls": per_job("tensor.Tensor.__init__:calls"),
        "tensor.init_s": per_job("tensor.Tensor.__init__:self_s"),
        "tensor.copy_bytes": per_job("tensor.Tensor.__init__:extra"),
        "backend.matmul_calls": per_job("backend.matmul:calls"),
        "backend.matmul_s": matmul_s / jobs,
        "backend.matmul_flops": per_job("backend.matmul:extra"),
        "backend.matmul_gflops": get("backend.matmul:extra") / matmul_s / 1e9 if matmul_s else 0.0,
        "backend.matmul_share": matmul_s / job_seconds,
        "backend.count_tilings_s": per_job("backend.count_tilings:self_s"),
        "tiling.exhaustive_states": per_job("tiling.count_tilings_exhaustive:extra"),
        "tiling.count_via_norm_s": per_job("tiling.tiling_count_via_norm:self_s"),
        "tiling.extrapolate_s": per_job("tiling.extrapolate_norm_to_zero:self_s"),
        "tiling.norm_calls": per_job("contraction.peps_norm@pepslab.tiling:calls"),
        "network.random_network_s": setup.get("network.random_network:self_s", 0.0),
        "network.from_json_s": per_job("network.network_from_json:self_s"),
        "network.assemble_state_vector_s": per_job("network.assemble_state_vector:self_s"),
        "network.observable_matrix_calls": per_job("network.Observable.matrix:calls"),
        "hamiltonian.parent_hamiltonian_s": per_job("hamiltonian.parent_hamiltonian:self_s"),
        "hamiltonian.matvec_calls": per_job("hamiltonian.ParentHamiltonian.matvec:calls"),
        "hamiltonian.matvec_s": per_job("hamiltonian.ParentHamiltonian.matvec:self_s"),
        "hamiltonian.to_dense_s": per_job("hamiltonian.ParentHamiltonian.to_dense:self_s"),
        "hamiltonian.spectrum_self_s": per_job("hamiltonian.spectrum_report:self_s"),
        "embed.compile_circuit_s": per_job("embed.compile_circuit:self_s"),
        "embed.build_site_tensor_calls": per_job("embed.build_site_tensor:calls"),
        "channels.completion_s": per_job("channels.kraus_orthonormal_completion:self_s"),
        "sim.run_noisy_circuit_s": per_job("sim.run_noisy_circuit:self_s"),
        "sim.apply_noisy_cell_calls": per_job("sim.apply_noisy_cell:calls"),
        "sim.apply_noisy_cell_s": per_job("sim.apply_noisy_cell:self_s"),
        "sim.postselected_expectation_s": per_job("sim.postselected_expectation:self_s"),
        "cli.main_s": per_job("cli.main:self_s"),
    }


def exact_counters(total: dict[str, float]) -> dict[str, int]:
    """The exact counters of one pass, as integers."""
    return {
        "backend.matmul_flops": int(total.get("backend.matmul:extra", 0)),
        "contraction.peak_entries": int(total.get("contraction.peak_entries", 0)),
        "contraction.double_layer_calls": int(total.get("contraction.double_layer:calls", 0)),
        "tensor.contract_calls": int(total.get("tensor.contract:calls", 0)),
        "hamiltonian.matvec_calls": int(total.get("hamiltonian.ParentHamiltonian.matvec:calls", 0)),
        "tiling.exhaustive_states": int(total.get("tiling.count_tilings_exhaustive:extra", 0)),
    }


def non_repeating(per_pass: list[dict[str, int]]) -> list[str]:
    """Exact counters whose value differs between passes."""
    return [k for k in EXACT_COUNTERS if len({p[k] for p in per_pass}) > 1]
