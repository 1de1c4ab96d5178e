"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload keyed_ingest --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the workload again with spans on and reports the
per-layer split instead.  Every metric name and unit comes from
``BENCHMARK.json`` at the checkout root.  The log lines come first; the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only for a run whose correctness gates passed.  A
run that cannot be measured validly (a tail percentile without ten
samples beyond it, a saturated open loop, a missing program) exits
non-zero without printing a result.  ``--smoke`` shrinks every
workload so a pass takes seconds; it is for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("keyed_ingest", "long_stream", "served_window")


def load_program() -> dict:
    """Put the checkout's ``src`` first on the import path and return
    the environment child processes need to import the same tree."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}/repro")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def specs(workload: str, smoke: bool):
    import inproc
    import served

    if workload == "keyed_ingest":
        spec = inproc.KEYED
        return inproc, replace(spec, keys=8, records=8 * 500, batch=20, query_every=5) if smoke else spec
    if workload == "long_stream":
        spec = inproc.LONG
        small = replace(spec, records=400_000, batch=2_000, gate_records=20_000)
        return inproc, small if smoke else spec
    spec = served.SPEC
    return served, replace(spec, batch=100, rate=2_000.0, last_n=200) if smoke else spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = load_program()
    sys.path.insert(0, str(HERE))
    from measure import InvalidRun

    module, spec = specs(args.workload, args.smoke)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    try:
        outcome = module.run(spec, args.seed, args.seconds, bool(args.trace), env, out_dir)
    except InvalidRun as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 3

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = outcome.per_layer if args.trace else outcome.end_to_end
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 4
    for failure in outcome.failures:
        print(f"perfbench: correctness gate failed: {failure}", file=sys.stderr)
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
