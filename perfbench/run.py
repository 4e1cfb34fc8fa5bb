"""Benchmark of the numpy DLRM: end-to-end throughput, or a per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload dot_many_tables --seed 1 --seconds 20 --trace 0

``--trace 0`` times training and inference with nothing instrumented and
prints the end-to-end metrics; ``--trace 1`` also times a window with
per-layer spans and prints the per-layer metrics (see ``layers.py``).
``--workload all`` runs every workload, each in a fresh process.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any failed output check marks every operation
of the run failed and makes the exit code 1.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported: pools sized
# to the host made run-to-run throughput swing by a quarter on two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import pathlib
import platform
import subprocess
import sys
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("dot_many_tables", "mlp_wide", "tiered_zipf", "hybrid_w2")


def fingerprint() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    OUT.mkdir(exist_ok=True)
    host = fingerprint()
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    try:
        res = workloads.run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace), OUT)
    except Exception:
        traceback.print_exc()
        emit(False, 1, 1, {})
        return 1
    for line in res.notes:
        print(line)
    for name, ok, detail in res.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    if not args.trace:
        for name, (value, unit) in res.metrics.items():
            print(f"{name:24} {value:14.4f} {unit}")
    failed = 0 if res.correct else res.attempted
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in res.metrics.items()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "checks": res.checks,
              "notes": res.notes, "metrics": metrics}
    path = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    emit(res.correct, res.attempted, failed, metrics)
    return 0 if res.correct else 1


def stop_helpers() -> None:
    """Stop every process ``multiprocessing`` started for this run and wait
    for each to end.

    ``run_hybrid``'s shared-memory shards start the resource-tracker
    process, which otherwise outlives the run by a moment: it only exits
    once it sees this interpreter's end of its pipe close.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    gc.collect()  # run pending finalizers that would message the tracker
    resource_tracker._resource_tracker._stop()  # closes the pipe, waitpid()s


def run_all(args) -> int:
    """Each workload in a fresh interpreter; metrics keyed ``workload/metric``."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {}
        correct &= proc.returncode == 0 and result.get("correct", False)
        attempted += result.get("attempted", 1)
        failed += result.get("failed", 1)
        for key, value in result.get("metrics", {}).items():
            metrics[f"{name}/{key}"] = value
    emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    finally:
        stop_helpers()


if __name__ == "__main__":
    sys.exit(main())
