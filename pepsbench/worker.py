"""One benchmark process: set up a workload, then time it in whole passes.

Started by ``run.py`` with the repository's ``src`` on ``sys.path``. It builds
the workload's inputs, runs one untimed warm-up job per job kind, and prints
``READY``; ``run.py`` times set-up from process start to that line. In
``setup`` mode it stops there. Otherwise it runs the job list in whole passes
until ``--seconds`` have elapsed (closed loop, one client), checks every
output outside the timed region, and prints one JSON summary as its last line.
Before every untraced job it times a fixed numpy-only probe of the machine's
speed, which ``run.py`` uses to scale the job times. In ``trace`` mode half of
the time is untraced and half traced.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import pepslab  # noqa: E402

import tracing as tr  # noqa: E402
import workloads  # noqa: E402

if not os.path.abspath(pepslab.__file__).startswith(os.path.join(ROOT, "src", "")):
    sys.exit(f"pepslab was imported from {pepslab.__file__}, not from {ROOT}/src")


def machine_facts() -> dict:
    """What a timing depends on besides the code: versions, BLAS, backend, cores."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pepslab_backend": pepslab.backend_name(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((4, 4, 4, 4)) + 1j * _RNG.standard_normal((4, 4, 4, 4))
_BIG = _RNG.standard_normal((128, 64)) + 1j * _RNG.standard_normal((128, 64))


def probe() -> float:
    """Seconds for a fixed numpy-only probe of the machine's current speed.

    It mixes what pepslab spends its time on: small-array copies, transposes
    and finiteness checks, and one complex GEMM.
    """
    start = perf_counter()
    for _ in range(60):
        t = np.ascontiguousarray(np.transpose(np.array(_SMALL), (2, 0, 3, 1))).reshape(16, 16)
        np.all(np.isfinite(t))
        t @ t
    _BIG @ _BIG.T
    return perf_counter() - start


def probe_time(samples: list[float]) -> float:
    """Mean probe time without the slowest tenth, which are preemptions."""
    kept = sorted(samples)[:max(1, len(samples) - len(samples) // 10)]
    return statistics.mean(kept)


def run_passes(jobs_for_pass, seconds: float, min_passes: int, tracer=None):
    """Whole passes until ``seconds`` have elapsed; ``jobs_for_pass(p)`` gives pass p's jobs.

    Returns one ``(job, latency, output, error)`` per execution, the time of
    each pass (the sum of its job latencies), and one probe time per job.
    """
    records, walls, probes = [], [], []
    start = perf_counter()
    while len(walls) < min_passes or perf_counter() - start < seconds:
        p = len(walls)
        if tracer is not None:
            tracer.job = "setup"
        jobs = jobs_for_pass(p)
        wall = 0.0
        for i, job in enumerate(jobs):
            if tracer is None:
                probes.append(probe())
            else:
                tracer.job = f"p{p}.j{i}"
            t0 = perf_counter()
            try:
                out, err = job.run(), None
            except Exception as exc:  # a failed job is recorded, and the loop goes on
                out, err = None, f"{type(exc).__name__}: {exc}"
            latency = perf_counter() - t0
            wall += latency
            records.append((job, latency, out, err))
        walls.append(wall)
    return records, walls, probes


def verify(records) -> tuple[int, list[str], list[str]]:
    """Check every output; return the failure count, the failures, and those
    that no known failure explains."""
    failed, seen, unexpected = 0, [], []
    for job, _, out, err in records:
        if err is None:
            try:
                err = job.verify(out)
            except Exception as exc:  # a check that cannot run is a failed check
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is None:
            continue
        failed += 1
        line = f"{job.name}: {err}"
        if line not in seen:
            seen.append(line)
            if job.known_failure is None:
                unexpected.append(line)
    return failed, seen, unexpected


def summarize(records, walls) -> dict:
    by_job: dict[str, list[float]] = {}
    for job, lat, _, _ in records:
        by_job.setdefault(job.name, []).append(lat)
    return {
        "passes": len(walls),
        "jobs": len(records),
        "pass_s": walls,
        "job_p50_s": statistics.median(lat for _, lat, _, _ in records),
        "job_median_s": {name: statistics.median(v) for name, v in by_job.items()},
    }


def tail(latencies: list[float]) -> dict | None:
    """Highest whole percentile with at least ten jobs beyond it, if any."""
    n = len(latencies)
    ordered = sorted(latencies)
    for pct in (99, 95, 90, 75, 50):
        k = int(np.ceil(pct / 100 * n))
        if n - k >= 10:
            return {"percentile": pct, "jobs": n, "latency_s": ordered[k - 1]}
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="one job per kind, one pass (two traced passes)")
    parser.add_argument("--out", required=True, help="directory for spans and input files")
    args = parser.parse_args(argv)

    workdir = os.path.join(args.out, f"inputs-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: str) -> int:
    def build(input_set: int) -> list:
        jobs = workloads.build(args.workload, args.seed, workdir, input_set)
        return workloads.first_of_each_kind(jobs) if args.smoke else jobs

    first = build(0)
    for job in workloads.first_of_each_kind(first):
        try:
            job.run()
        except Exception:  # the timed passes record this job's failure
            pass
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    seconds = 0 if args.smoke else args.seconds
    if args.mode == "trace":
        records, walls, probes = run_passes(lambda p: first, seconds / 2, 1)
    elif args.workload in workloads.FRESH_INPUTS:
        records, walls, probes = run_passes(lambda p: build(p) if p else first, seconds, 1)
    else:
        records, walls, probes = run_passes(lambda p: first, seconds, 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, failures, unexpected = verify(records)
    result = {"facts": machine_facts(), "workload": args.workload, "seed": args.seed,
              "peak_rss_mb": peak_rss_mb, "untraced": summarize(records, walls),
              "tail": tail([lat for _, lat, _, _ in records]),
              "passed_frac": (len(records) - failed) / len(records),
              "attempted": len(records), "failed": failed, "probe_s": probe_time(probes)}
    if args.mode == "trace":
        traced_records, result["trace"] = _traced(args, lambda: build(0), seconds / 2,
                                                  result["untraced"])
        t_failed, t_failures, t_unexpected = verify(traced_records)
        result["attempted"] += len(traced_records)
        result["failed"] += t_failed
        failures += [f for f in t_failures if f not in failures]
        unexpected += [f for f in t_unexpected if f not in unexpected]
    result.update(failures=failures, unexpected=unexpected,
                  known_failures={j.name: j.known_failure for j in first if j.known_failure})
    print(json.dumps(result), flush=True)
    return 0


def _traced(args, build, seconds: float, untraced: dict):
    """Traced passes over one input set, built under tracing; layer metrics per job."""
    tracer = tr.Tracer()
    tracer.install()
    try:
        tracer.job = "setup"
        jobs = build()
        records, walls, _ = run_passes(lambda p: jobs, seconds, 2, tracer)
    finally:
        tracer.uninstall()
    n = len(jobs)
    per_pass = [tr.exact_counters(tr.counters(tracer, {f"p{p}.j{i}" for i in range(n)}))
                for p in range(len(walls))]
    total = tr.counters(tracer, {f"p{p}.j{i}" for p in range(len(walls)) for i in range(n)})
    layers = tr.layer_metrics(total, len(records), tr.counters(tracer, {"setup"}),
                              sum(lat for _, lat, _, _ in records))
    medians = untraced["job_median_s"]
    layers["cli.nev_ratio"] = (medians["cli_nev_6x6"] / medians["nev_6x6"]
                               if "cli_nev_6x6" in medians and "nev_6x6" in medians else 0.0)
    untraced_pass_s = statistics.median(untraced["pass_s"])
    layers["trace.overhead_frac"] = statistics.median(walls) / untraced_pass_s - 1
    flagged = tr.non_repeating(per_pass)
    layers["trace.counters_repeat"] = 0.0 if flagged else 1.0

    spans_path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.json")
    tracer.dump(spans_path, machine_facts())
    return records, {"layers": layers, "exact_counters": per_pass[0], "non_repeating": flagged,
                     "spans": len(tracer.spans), "spans_file": os.path.relpath(spans_path, ROOT)}


if __name__ == "__main__":
    sys.exit(main())
