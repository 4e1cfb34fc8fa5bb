"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload mlp_wide --runs 10 --seconds 20

Runs ``run.py`` once per seed, each in a fresh process, and prints for every
metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread: the distance between the quartiles as a share of the median.  With
``BENCHMARK.json`` present, it also prints each end-to-end metric's bound
and whether the spread stays below a third of it.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {}
    if SPEC.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(SPEC.read_text())["end_to_end"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        wall = time.perf_counter() - t0
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = proc.returncode == 0 and result["correct"]
        print(f"seed {seed}: exit {proc.returncode} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"wall={wall:.1f}s",
              flush=True)
        if not ok:
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"{'metric':26} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  unit")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        line = f"{name:26} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f}  {units[name]}"
        if name in bounds:
            verdict = "ok" if spread < bounds[name] / 3 else "WIDE"
            line += f"  bound {bounds[name]} {verdict}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
