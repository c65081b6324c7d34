"""Self-test of the benchmark on shrunk variants of its workloads.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py

Checks that every metric named in ``BENCHMARK.json`` is produced by
the untraced and the traced run of each workload, that the output
check rejects a tampered reference and an earlier run that disagrees,
and that the live workload leaves no child process and no state
directory behind.  Everything it writes stays under
``.perfbench/selftest``.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import copy
import glob
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7

SHRUNK = {
    "fleet": {"nodes": 6, "duration_s": 240.0, "inject_s": 120.0,
              "fault": "CPUHog"},
    "table2": {"nodes": 4, "duration_s": 180.0,
               "faults": ["CPUHog", "HADOOP-1036"], "jobs": 2},
    "live": {"nodes": 3, "interval_s": 0.25},
}


def child_pids() -> list:
    """Live processes whose parent is this process."""
    me = str(os.getpid())
    found = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat, encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me and fields[0] != "Z":
            found.append(int(stat.split("/")[2]))
    return found


def main() -> int:
    run.scrub_environment()
    spec = run.benchmark_spec()
    root = os.path.join(ROOT, ".perfbench", "selftest")
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    def names_present(result, trace: bool, label: str) -> None:
        wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
        missing = [n for n in wanted if n not in result.metrics]
        expect(not missing, f"{label} trace={int(trace)} prints every metric"
               + (f" (missing {missing})" if missing else ""))
        expect(result.attempted >= 1, f"{label} trace={int(trace)} counts "
               "attempted operations")

    for trace in (False, True):
        fleet = workloads.run_fleet(root, SEED, 0.1, trace, SHRUNK["fleet"],
                                    workload="selftest-fleet")
        names_present(fleet, trace, "fleet")
        table2 = workloads.run_table2(root, SEED, 0.1, trace,
                                      SHRUNK["table2"],
                                      workload="selftest-table2")
        names_present(table2, trace, "table2")
        live = workloads.run_live(root, SEED, 3.0, trace, SHRUNK["live"],
                                  workload="selftest-live")
        names_present(live, trace, "live")
        expect(not glob.glob(os.path.join(root, ".perfbench", "live-*")),
               f"live trace={int(trace)} removes its state directory")
        expect(not child_pids(),
               f"live trace={int(trace)} leaves no child process")
    expect(any("self-time sum" in note for note in fleet.notes)
           and not any("miss run_until" in note for note in fleet.notes),
           "fleet layer self times add up to the run_until wall time")
    expect(bool(glob.glob(os.path.join(root, ".perfbench", "traces",
                                       "*.spans.jsonl.gz"))),
           "traced runs write their spans")

    digests = dict(fleet.digests)
    good = {"selftest-fleet": {str(SEED): digests}}
    tampered = copy.deepcopy(good)
    key = sorted(digests)[0]
    value = tampered["selftest-fleet"][str(SEED)][key]
    tampered["selftest-fleet"][str(SEED)][key] = (
        ("0" if value[0] != "0" else "1") + value[1:])
    bad, _ = checks.check_digests("selftest-fleet", SEED, digests, root, good)
    expect(not bad, "output check accepts the matching reference")
    bad, notes = checks.check_digests("selftest-fleet", SEED, digests, root,
                                      tampered)
    expect(bad == [key] and any("mismatch" in n for n in notes),
           "output check rejects a tampered reference")
    rerun = workloads.run_fleet(root, SEED, 0.1, False, SHRUNK["fleet"],
                                reference=tampered, workload="selftest-fleet")
    expect(any("reference mismatch" in n for n in rerun.notes)
           and not rerun.correct,
           "a workload run fails against a tampered reference")
    flipped = {k: v[::-1] for k, v in digests.items()}
    first, _ = checks.check_digests("selftest-agree", SEED, digests, root, {})
    second, _ = checks.check_digests("selftest-agree", SEED, flipped, root, {})
    expect(not first and second, "without a reference, two runs must agree")

    shutil.rmtree(root, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
