"""Run one workload of the benchmark once per seed and summarise.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload keyed_ingest --seeds 1-10 --seconds 25 [--trace 1]

For each metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a
share of the median, then writes every run's result to
``perfbench/out/spread-<workload>-trace<t>.json``.  Runs are
sequential; a run that fails stops the sweep.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    results = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        results.append({"seed": seed, **json.loads(proc.stdout.strip().splitlines()[-1])})
        print(f"seed {seed}: ok", flush=True)

    print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        print(f"{name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} {share:8.3f}")
    out = HERE / "out" / f"spread-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
