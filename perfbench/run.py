"""Benchmark of the ASDF reproduction: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fleet50-cpuhog --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ledger of a traced run (spans and ledger
are written under ``.perfbench/traces``).  Each metric is printed on
its own line with its unit and sample count; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when the program's outputs passed every check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("fleet50-cpuhog", "table2-n10", "live8-tcp")


def scrub_environment() -> None:
    """Drop every ``ASDF_*`` override, for us and every child we start."""
    for name in [n for n in os.environ if n.startswith("ASDF_")]:
        del os.environ[name]


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    import workloads

    if name == "fleet50-cpuhog":
        return workloads.run_fleet(ROOT, seed, seconds, trace)
    if name == "table2-n10":
        return workloads.run_table2(ROOT, seed, seconds, trace)
    return workloads.run_live(ROOT, seed, seconds, trace)


def report(result, expected: list) -> dict:
    """Print one line per metric, then the JSON result line."""
    missing = [m["name"] for m in expected if m["name"] not in result.metrics]
    for name in missing:
        result.fail_check(f"metric {name} was not measured")
    for note in result.notes:
        print(f"# {note}")
    for spec in expected:
        if spec["name"] not in result.metrics:
            continue
        value, unit = result.metrics[spec["name"]]
        samples, note = result.samples[spec["name"]]
        suffix = f"; {note}" if note else ""
        print(f"{spec['name']:<30} {value:>14.6g} {unit:<9} "
              f"n={samples}{suffix}")
    doc = {
        "correct": bool(result.correct),
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            spec["name"]: {"value": result.metrics[spec["name"]][0],
                           "unit": result.metrics[spec["name"]][1]}
            for spec in expected if spec["name"] in result.metrics
        },
    }
    print(json.dumps(doc), flush=True)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's output digests as the "
                             "reference for its workload and seed")
    args = parser.parse_args(argv)

    scrub_environment()
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    spec = benchmark_spec()
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]

    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    if args.record_reference and result.digests and result.correct:
        import checks

        checks.record_reference(args.workload, args.seed, result.digests)
    doc = report(result, expected)
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
