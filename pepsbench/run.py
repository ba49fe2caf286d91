"""pepslab benchmark: seeded job workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 pepsbench/run.py --workload grid --seed 1 --seconds 20 --trace 0
    python3 pepsbench/run.py --workload all --seed 1      # every workload in turn
    python3 pepsbench/run.py --smoke                      # the benchmark's own test

Each run starts fresh interpreters. ``EXTRA_SETUPS`` of them only set up (import
pepslab, build the inputs, write the CLI files, run one warm-up job per kind)
and the last one also measures; ``setup_s`` is the median set-up time. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``. The
line before it holds the details: machine facts, per-job medians, failures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
# As in workloads.py; this parent process does not import numpy or pepslab.
WORKLOADS = ("grid", "circuit", "spectrum", "tiling")
EXTRA_SETUPS = 4
RUN_TIMEOUT_S = 170.0

# Machine-speed normalization. Identical work on the small shared machine the
# benchmark was defined on ran up to 1.7x slower in some minutes than in
# others. The measuring worker times a fixed numpy-only probe before every
# timed job, and jobs_per_s and job_p50_s are scaled to the speed at which the
# probe takes PROBE_REF_S: a time t measured while the probe took p on average
# is reported as t * PROBE_REF_S / p. The raw values are in the details line.
# Set-up time moved much less than the probe between fast and slow minutes,
# so setup_s is reported raw.
PROBE_REF_S = 1.1e-3

# The worker pins BLAS to one thread: runs on a small shared machine are
# steadier, and the kernels' reduction order does not depend on the core count.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "passed_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "contraction.double_layer_calls": "count",
    "contraction.double_layer_s": "s",
    "contraction.self_s": "s",
    "contraction.peak_entries": "count",
    "contraction.refusals": "count",
    "tensor.contract_calls": "count",
    "tensor.contract_s": "s",
    "tensor.init_calls": "count",
    "tensor.init_s": "s",
    "tensor.copy_bytes": "bytes",
    "backend.matmul_calls": "count",
    "backend.matmul_s": "s",
    "backend.matmul_flops": "flop",
    "backend.matmul_gflops": "GFLOP/s",
    "backend.matmul_share": "ratio",
    "backend.count_tilings_s": "s",
    "tiling.exhaustive_states": "count",
    "tiling.count_via_norm_s": "s",
    "tiling.extrapolate_s": "s",
    "tiling.norm_calls": "count",
    "network.random_network_s": "s",
    "network.from_json_s": "s",
    "network.assemble_state_vector_s": "s",
    "network.observable_matrix_calls": "count",
    "hamiltonian.parent_hamiltonian_s": "s",
    "hamiltonian.matvec_calls": "count",
    "hamiltonian.matvec_s": "s",
    "hamiltonian.to_dense_s": "s",
    "hamiltonian.spectrum_self_s": "s",
    "embed.compile_circuit_s": "s",
    "embed.build_site_tensor_calls": "count",
    "channels.completion_s": "s",
    "sim.run_noisy_circuit_s": "s",
    "sim.apply_noisy_cell_calls": "count",
    "sim.apply_noisy_cell_s": "s",
    "sim.postselected_expectation_s": "s",
    "cli.main_s": "s",
    "cli.nev_ratio": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.counters_repeat": "bool",
}


class BenchError(RuntimeError):
    """A worker failed, timed out, or printed no result."""


def _worker(root: str, workload: str, seed: int, seconds: float, mode: str, smoke: bool,
            deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time and its result (None in setup mode)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--out", os.path.join(HERE, "out")]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, **WORKER_ENV)
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    timed_out = threading.Event()

    def kill() -> None:
        timed_out.set()
        proc.kill()

    killer = threading.Timer(max(1.0, deadline - perf_counter()), kill)
    killer.daemon = True
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        # A killed worker leaves its input files behind.
        shutil.rmtree(os.path.join(HERE, "out", f"inputs-{proc.pid}"), ignore_errors=True)
    if timed_out.is_set():
        raise BenchError(f"{workload} worker timed out")
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    if mode == "setup":
        return setup_s, None
    lines = [line for line in rest.splitlines() if line.strip()]
    if not lines:
        raise BenchError(f"{workload} worker printed no result")
    return setup_s, json.loads(lines[-1])


def measure(root: str, workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """One benchmark run of ``workload``: the details and the result object of its last line."""
    deadline = perf_counter() + RUN_TIMEOUT_S
    setups = [_worker(root, workload, seed, seconds, "setup", smoke, deadline)[0]
              for _ in range(0 if smoke else EXTRA_SETUPS)]
    setup_s, res = _worker(root, workload, seed, seconds, "trace" if trace else "run", smoke,
                           deadline)
    setups.append(setup_s)
    untraced = res["untraced"]
    raw = {
        "jobs_per_s": (res["passed_frac"] * untraced["jobs"] / untraced["passes"]
                       / statistics.median(untraced["pass_s"])),
        "job_p50_s": untraced["job_p50_s"],
    }
    speed = res["probe_s"] / PROBE_REF_S
    if trace:
        layers = res["trace"]["layers"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {
            "jobs_per_s": raw["jobs_per_s"] * speed,
            "job_p50_s": raw["job_p50_s"] / speed,
            "passed_frac": res["passed_frac"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    details = {k: v for k, v in res.items() if k not in ("attempted", "failed")}
    details.update(raw=raw, setup_s=setups)
    result = {"correct": not res["unexpected"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    return {"details": details, "result": result}


def smoke(root: str) -> int:
    """One job per kind on every workload: names, units, checks and exact counters."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in WORKLOADS:
        found = []
        runs = [measure(root, workload, 1, 0, trace, smoke=True) for trace in (False, True, True)]
        for group, run in (("end_to_end", runs[0]), ("per_layer", runs[1])):
            got = run["result"]["metrics"]
            for metric in spec[group]:
                if got.get(metric["name"], {}).get("unit") != metric["unit"]:
                    found.append(f"{group} metric {metric['name']} missing or "
                                 f"not in {metric['unit']}")
        found += [line for run in runs for line in run["details"]["unexpected"]]
        first, second = (r["details"]["trace"]["exact_counters"] for r in runs[1:])
        flagged = sorted({k for k in first if first[k] != second[k]}
                         | set(runs[1]["details"]["trace"]["non_repeating"]))
        print(f"{workload}: {'ok' if not found else 'FAILED'}; exact counters {first}; "
              f"not repeating between runs: {', '.join(flagged) or 'none'}", flush=True)
        problems += [f"{workload}: {line}" for line in found]
    for line in problems:
        print(f"smoke: {line}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run one job per kind on every workload and check the metric names")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pepslab", "__init__.py")):
        print("pepsbench: run from the repository root (src/pepslab not found)", file=sys.stderr)
        return 2
    if args.seed < 0 or (args.seconds <= 0 and not args.smoke):
        parser.error("--seed must be >= 0 and --seconds > 0")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    try:
        if args.smoke:
            return smoke(root)
        if args.workload is None:
            parser.error("--workload is required")
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            run = measure(root, workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(run["details"]), flush=True)
            print(json.dumps(run["result"]), flush=True)
    except BenchError as exc:
        print(f"pepsbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
