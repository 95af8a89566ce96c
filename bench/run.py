"""Benchmark for the gcm package.

Run one workload (the form ``BENCHMARK.json`` names)::

    python3 bench/run.py --workload grouped-inmem --seed 2004 --seconds 25 --trace 0

or every workload, untraced and then traced, each in its own process::

    python3 bench/run.py

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
repetition. See ``bench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

#: BLAS is pinned through the process environment before numpy is first
#: imported; threadpoolctl is not installed everywhere the benchmark runs.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOAD_NAMES = ("grouped-inmem", "baselines-inmem", "file-stream", "cv-sweep")
#: Set-up runs this often per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Traced repetitions per traced run; their counters must agree.
TRACED_REPEATS = 2
E2E_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
    "group_auc": "1",
}
LIMITS = (
    "file reads come from the page cache, which the benchmark does not drop",
    "working sets are smaller than 4x the last-level cache, so MB/s figures "
    "are computed throughput, not memory or disk bandwidth",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=("all",) + WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=2004)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measuring time; after the second repetition, one "
                        "starts only if it is expected to end within it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", type=float, default=1.0,
                   help="scale factor on every draw's group counts")
    return p.parse_args(argv)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_facts(args, datasets) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "datasets": datasets,
        "limits": list(LIMITS),
    }


def measure(workload, state, rec, seconds: float):
    """Closed loop: one repetition at a time until the time is spent."""
    deadline = time.perf_counter() + seconds
    first = True
    while True:
        rec.start_repetition()
        started = time.perf_counter()
        workload.repetition(state, rec, first=first)
        now = time.perf_counter()
        # The first repetition may hold once-per-run calls, so its length
        # does not predict the next one's.
        if rec.failed or now >= deadline or (
                not first and now + (now - started) > deadline):
            return
        first = False


def _number(fn):
    """A metric value, or None when failed operations left nothing to measure."""
    try:
        return float(fn())
    except (KeyError, TypeError, statistics.StatisticsError):
        return None


def untraced_run(workload, args, workdir):
    from tracing import clock
    from workloads import Recorder

    rec = Recorder()
    setup_times = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # release the previous draw before making the next
        started = clock()
        state = workload.setup(args.seed, args.size, workdir)
        setup_times.append(clock() - started)
    measure(workload, state, rec, args.seconds)
    values = {
        "setup_s": statistics.median(setup_times),
        "train_s": _number(lambda: workload.train_s(rec)),
        "eval_s": _number(lambda: rec.median_call(workload.eval_op)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "group_auc": _number(lambda: state["group_auc"]),
    }
    details = {"repetitions": len(rec.reps), "setup_runs_s": setup_times,
               "objective": _number(lambda: state["objective"])}
    for label, op in workload.detail_ops.items():
        details[label] = _number(lambda op=op: rec.median_call(op))
    details["wall_median_s"] = {op: statistics.median(times)
                                for op, times in rec.wall.items()}
    if not any(values[k] for k in ("train_s", "eval_s")):
        rec.failures.append("no timed operation completed")
    return values, E2E_UNITS, rec, state, details


def traced_run(workload, args, workdir):
    from workloads import Recorder
    import tracing

    rec = Recorder()
    state = workload.setup(args.seed, args.size, workdir)
    rec.start_repetition()
    workload.repetition(state, rec)
    reference = rec.rep_seconds(0)
    state = None

    tracer = tracing.Tracer()
    rec.tracer = tracer
    prefix = f"{workload.name}:{args.seed}:"
    with tracing.installed(tracer):
        tracer.run_id = prefix + "setup"
        with tracer.span("setup"):
            state = workload.setup(args.seed, args.size, workdir)
        for k in range(1, TRACED_REPEATS + 1):
            tracer.run_id = f"{prefix}traced-{k}"
            rec.start_repetition()
            workload.repetition(state, rec)

    def spans_of(*phases):
        return tracing.select(tracer.spans, {prefix + p for p in phases})

    values = tracing.layer_metrics(spans_of("setup", "traced-1"))
    counts = [tracing.layer_metrics(spans_of(f"traced-{k}"))
              for k in range(1, TRACED_REPEATS + 1)]
    for name in tracing.COUNTERS:
        seen = [c[name] for c in counts]
        if len(set(seen)) > 1:
            rec.failures.append(f"counter {name} differs between traced "
                                f"repetitions: {seen}")
    traced = rec.rep_seconds(1)
    values["data_io.stream_peak_mb"] = 0.0
    values.update(workload.layer_extras(state))
    values["trace.overhead_frac"] = traced / reference - 1.0
    path = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-spans.jsonl")
    tracer.write_jsonl(path)
    details = {"spans": len(tracer.spans), "spans_file": os.path.relpath(path, ROOT),
               "untraced_s": reference, "traced_s": traced,
               "calls": tracing.call_summary(spans_of("traced-1"))}
    return values, tracing.LAYER_UNITS, rec, state, details


def run_workload(args) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
    try:
        run = traced_run if args.trace else untraced_run
        values, units, rec, state, details = run(workload, args, workdir)
        datasets = workload.rows_and_bytes(state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("facts: " + json.dumps(run_facts(args, datasets)))
    print("details: " + json.dumps(details))
    for failure in rec.failures:
        print(f"failed: {failure}")
    return {
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": values[k], "unit": unit}
                    for k, unit in units.items()},
    }


def run_all(args) -> dict:
    """Each workload untraced, then traced, each in a process of its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", str(args.size)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  check=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                if line.startswith("failed: ") or (
                        line.startswith("facts: ") and not rows):
                    print(f"{name}: {line}")
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                merged["metrics"][f"{name}/{metric}"] = entry
                rows.append((name, "traced" if trace else "e2e", metric,
                             entry["value"], entry["unit"]))
    for name, kind, metric, value, unit in rows:
        shown = "-" if value is None else f"{value:.6g}"
        print(f"{name:16} {kind:6} {metric:42} {shown:>14} {unit}")
    return merged


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gcm", "__init__.py")):
        print(f"bench: no gcm package under {os.path.relpath(SRC)}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
