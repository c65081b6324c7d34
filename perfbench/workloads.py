"""The three benchmark workloads, driven through public ``repro`` calls.

Each workload function sets up several times (``setup_s`` is the
median), measures whole units of work until the requested seconds are
used (at least one unit), checks the program's outputs and returns a
:class:`Result`.  With ``trace=True`` it instead measures one unit with
the layer wrappers off and one with them on, and returns the per-layer
ledger of the traced unit plus the tracing overhead.

No implementation knob (``engine``, ``fleet_knn``, ``warm``, ``codec``)
is set here, so a change of a default is measured as it ships.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import checks
import ledger as ledgers
from hostspeed import HostSpeed, scaled_setup

#: Set-ups made per measured run; ``setup_s`` reports their median.
#: Models train for the runner's default length (``run_scenario``'s
#: ``min(300 s, duration)``): no training length is set here either.
SETUPS = 3

#: Step between the seeds of a run's set-ups (see ``setup_seeds``).
SETUP_SEED_STEP = 100_003


@dataclass
class Result:
    """What one workload run reports."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Per metric: the number of samples behind it, and a note.
    samples: Dict[str, Tuple[int, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    notes: List[str] = field(default_factory=list)
    #: Output digests the checks compared (recorded as references).
    digests: Dict[str, str] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, samples: int,
            note: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        self.samples[name] = (int(samples), note)

    def fail_check(self, note: str) -> None:
        self.correct = False
        self.notes.append(note)


def tail(values: List[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten values beyond it.

    Returns ``(value, percentile, count)``; with ten values or fewer
    there is no such percentile and the maximum is returned as p100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def put_rounds(result: Result, deployments: List[List[float]],
               raw: List[float]) -> None:
    """Round latency: the median over every round, and the tail of each
    deployment's rounds (median over deployments).

    ``deployments`` holds scaled round times, ``raw`` the same rounds
    unscaled.  Taking the tail per deployment keeps its percentile the
    same whether a run measured one deployment or a matrix of them.
    """
    rounds = [r for one in deployments for r in one]
    tails = [tail(one) for one in deployments]
    _, pct, n = tails[0]
    result.put("round_p50_ms", statistics.median(rounds) * 1e3, "ms",
               len(rounds), f"raw {statistics.median(raw) * 1e3:.3f} ms")
    result.put("round_tail_ms",
               statistics.median(t[0] for t in tails) * 1e3, "ms", n,
               f"p{pct:.2f} of each deployment's {n} rounds, "
               f"median of {len(tails)} deployment(s)")


def put_setup(result: Result, setups: List[Tuple[float, float]]) -> None:
    """``setups`` holds (raw, scaled) seconds per set-up."""
    result.put("setup_s", statistics.median(s for _, s in setups), "s",
               len(setups), "median of set-ups; raw median "
               f"{statistics.median(r for r, _ in setups):.3f} s")


def put_speed(result: Result, speed: HostSpeed) -> None:
    result.notes.append(
        f"host speed: calibration kernel median "
        f"{statistics.median(speed.samples) * 1e3:.3f} ms over "
        f"{len(speed.samples)} samples; times are scaled by "
        f"{speed.scale():.3f} to the reference host")


def setup_seeds(seed: int, count: int) -> List[int]:
    """The run's seed, then seeds derived from it for the other set-ups.

    Training time depends on the inputs (k-means iterates until it
    converges), so set-ups over several inputs give a median that moves
    less from seed to seed.  Only the run's own seed is measured.
    """
    return [seed + k * SETUP_SEED_STEP for k in range(count)]


def units(seconds: float, run_unit: Callable[[], Any]) -> List[Any]:
    """Run whole units while the next one is expected to fit."""
    started = time.perf_counter()
    done = [run_unit()]
    while True:
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(done) > seconds:
            return done
        done.append(run_unit())


@contextlib.contextmanager
def tracing(root: str, workload: str, seed: int):
    """Layer wrappers installed for the ``with`` body; spans written after.

    The recorder records only while its ``active`` flag is set, so the
    body switches it on around the measured unit alone.
    """
    stale = os.path.join(ledgers.trace_dir(root), f"{workload}-seed{seed}.*")
    for path in glob.glob(stale):
        os.remove(path)
    recorder = ledgers.SpanRecorder()
    ledgers.install_layer_wrappers(recorder)
    try:
        yield recorder
    finally:
        recorder.active = False
        recorder.uninstall()
    if recorder.spans:
        recorder.write(os.path.join(
            ledgers.trace_dir(root), f"{workload}-seed{seed}.spans.jsonl.gz"))


def _write_ledger(root: str, workload: str, seed: int, ledger: dict,
                  metrics: Dict[str, Tuple[float, str]]) -> None:
    path = os.path.join(ledgers.trace_dir(root),
                        f"{workload}-seed{seed}.ledger.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"ledger": ledger,
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()}},
                  fh, indent=1, sort_keys=True)


def _overhead_pct(plain: float, traced: float) -> float:
    return (traced - plain) / plain * 100.0 if plain > 0 else 0.0


# --------------------------------------------------------------------------
# Shared accounting of an in-process deployment (sim fleet, runner tasks)
# --------------------------------------------------------------------------


def deployment_channels(handles) -> Dict[str, list]:
    """The deployment's RPC channels grouped by Table 4 RPC type."""
    return {
        "sadc": list(handles.sadc_channels.values()),
        "hl-tt": list(handles.hl_tt_channels.values()),
        "hl-dn": list(handles.hl_dn_channels.values()),
    }


def deployment_counters(handles) -> Dict[str, float]:
    """Cumulative counters of a deployment, differenced around a unit."""
    channels = [c for group in deployment_channels(handles).values()
                for c in group]
    daemons = (list(handles.sadc_daemons.values())
               + list(handles.hl_tt_daemons.values())
               + list(handles.hl_dn_daemons.values()))
    logs = list(handles.hl_tt_daemons.values()) + list(
        handles.hl_dn_daemons.values())
    return {
        "rpc_bytes": float(sum(c.counter.tx_payload + c.counter.rx_payload
                               for c in channels)),
        "daemon_cpu_s": sum(d.meter.cpu_seconds for d in daemons),
        "log_lines": float(sum(d.rpc_stats()["lines_parsed"] for d in logs)),
    }


def counter_delta(after: Dict[str, float], before: Dict[str, float]
                  ) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in after}


def put_deployment_costs(result: Result, node_s: float, run_until_cpu_s: float,
                         counters: Dict[str, float], rounds: int,
                         scale: float) -> None:
    """CPU and bytes per monitored node-second.

    Everything runs in one process here: the node side is the CPU the
    in-process collection daemons meter inside their RPC handlers, the
    central side is the rest of ``run_until``.  Every CPU time is
    multiplied by ``scale``, the host-speed factor of the rounds that
    spent it (weighted by their CPU).
    """
    run_until_cpu_s *= scale
    daemon = counters["daemon_cpu_s"] * scale
    result.put("asdf_cpu_ms_per_node_s", run_until_cpu_s * 1e3 / node_s, "ms",
               rounds, "process CPU inside run_until")
    result.put("central_cpu_ms_per_node_s",
               (run_until_cpu_s - daemon) * 1e3 / node_s, "ms", rounds,
               "run_until CPU outside the daemons' handlers")
    result.put("node_cpu_ms_per_node_s", daemon * 1e3 / node_s, "ms", rounds,
               "CPU metered by sadc_rpcd and hadoop_log_rpcd handlers")
    result.put("rpc_bytes_per_node_s", counters["rpc_bytes"] / node_s, "B",
               rounds, "frame bytes of every in-process RPC channel")


# --------------------------------------------------------------------------
# fleet50-cpuhog: the lock-step simulated deployment
# --------------------------------------------------------------------------

FLEET = {"nodes": 50, "duration_s": 600.0, "inject_s": 300.0,
         "fault": "CPUHog"}


def fleet_setup(seed: int, nodes: int, duration_s: float, inject_s: float,
                fault: str, model=None):
    """Train (unless ``model`` is given), build the cluster, deploy ASDF.

    Mirrors ``run_scenario``'s set-up step by step, but keeps the loop
    in the benchmark so each call into the core can be timed.
    """
    from repro.experiments.runner import ModelCache
    from repro.experiments.scenario import ScenarioConfig, deploy_asdf
    from repro.faults import FaultSpec, make_fault
    from repro.hadoop.cluster import HadoopCluster
    from repro.workloads.gridmix import generate_workload

    config = ScenarioConfig(num_slaves=nodes, duration_s=duration_s,
                            seed=seed, fault_name=fault,
                            inject_time=inject_s)
    if model is None:
        _, model = ModelCache().get(config)
    cluster = HadoopCluster(config.cluster_config())
    for spec in generate_workload(config.workload_config()).jobs:
        cluster.schedule_job(spec)
    faulty = config.default_faulty_node(cluster.slave_names)
    make_fault(fault).arm(cluster, FaultSpec(node=faulty,
                                             inject_time=inject_s))
    handles = deploy_asdf(cluster, model, config)
    return config, model, cluster, handles, faulty


def fleet_outputs(handles) -> Dict[str, Any]:
    """Alarm streams, window decisions and Table 4 byte totals."""
    from repro.analysis.metrics import WindowDecision

    core = handles.core
    alarms, decisions = {}, {}
    for sink, label in (("BlackBoxAlarm", "blackbox"),
                        ("WhiteBoxAlarm", "whitebox"),
                        ("CombinedAlarm", "combined")):
        module = core.instance(sink)
        alarms[label] = [[a.time, a.node, a.source] for a in module.alarms]
        decisions[label] = [
            [d.node, d.window_start, d.window_end, d.alarmed]
            for s in module.received if isinstance(s.value, list)
            for d in s.value if isinstance(d, WindowDecision)
        ]
    table4 = {
        kind: [sum(getattr(c.counter, f) for c in group)
               for f in ("tx_payload", "rx_payload", "tx_wire", "rx_wire")]
        for kind, group in deployment_channels(handles).items()
    }
    return {"alarms": alarms, "decisions": decisions, "table4": table4}


def fleet_unit(seed: int, spec: dict, model, recorder=None) -> dict:
    """Deploy on a fresh cluster and run the lock-step loop to the end."""
    config, _, cluster, handles, faulty = fleet_setup(seed, model=model,
                                                      **spec)
    core = handles.core
    before = deployment_counters(handles)
    runs_before = core.scheduler.total_runs
    # Raw round times, and the same scaled to the reference host speed
    # sampled between rounds (outside the timed calls).
    rounds: List[float] = []
    scaled: List[float] = []
    cpu_s = cpu_n = wall_n = 0.0
    raised = 0
    speed = HostSpeed()
    speed.sample()
    if recorder is not None:
        recorder.active = True
    started = time.perf_counter()
    try:
        while cluster.time < config.duration_s - 1e-9:
            s0 = time.perf_counter()
            cluster.step(1.0)
            t0 = time.perf_counter()
            c0 = time.process_time()
            core.run_until(cluster.time)
            c1 = time.process_time()
            t1 = time.perf_counter()
            rounds.append(t1 - t0)
            speed.maybe_sample()
            scale = speed.scale_now()
            scaled.append((t1 - t0) * scale)
            cpu_s += c1 - c0
            cpu_n += (c1 - c0) * scale
            wall_n += (t1 - s0) * scale
    except Exception as exc:  # noqa: BLE001 - a raising round is a failure
        raised = 1
        print(f"fleet round raised: {type(exc).__name__}: {exc}")
    finally:
        wall_s = time.perf_counter() - started - speed.spent_s
        if recorder is not None:
            recorder.active = False
    outputs = fleet_outputs(handles)
    counters = counter_delta(deployment_counters(handles), before)
    runs = core.scheduler.total_runs - runs_before
    core.close()
    return {"rounds": rounds, "scaled": scaled, "cpu_s": cpu_s,
            "cpu_n": cpu_n, "wall_s": wall_s, "wall_n": wall_n, "speed": speed,
            "raised": raised, "planned": int(round(config.duration_s)),
            "outputs": outputs, "counters": counters, "faulty": faulty,
            "inject_s": config.inject_time, "nodes": config.num_slaves,
            "runs": runs}


def _check_fleet(result: Result, root: str, seed: int, done: List[dict],
                 reference: Optional[dict], workload: str) -> None:
    first = done[0]
    digests = {key: checks.digest(first["outputs"][key])
               for key in ("alarms", "decisions", "table4")}
    for unit in done[1:]:
        again = {key: checks.digest(unit["outputs"][key]) for key in digests}
        if again != digests:
            result.fail_check("repeated units of one seed disagree")
    bad, notes = checks.check_digests(workload, seed, digests, root,
                                      reference)
    result.notes += notes
    if bad:
        result.correct = False
    # The detector finds a CPUHog with a balanced accuracy near 80%
    # (EXPERIMENTS.md, Figure 7(a)), so a correct program misses the
    # hog on some seeds (seed 16 here).  A miss fails the run where
    # the seed's reference recorded the indictment, and is reported
    # elsewhere; every node must have its windows judged either way.
    recorded = checks.has_reference(workload, seed, reference)
    for unit in done:
        judged = {d[0] for d in unit["outputs"]["decisions"]["blackbox"]}
        if len(judged) != unit["nodes"]:
            result.fail_check(f"black-box windows judged for {len(judged)} "
                              f"of {unit['nodes']} nodes")
        indicted = [a for a in unit["outputs"]["alarms"]["combined"]
                    if a[1] == unit["faulty"] and a[0] >= unit["inject_s"]]
        if indicted:
            continue
        if recorded:
            result.fail_check(f"{unit['faulty']} (faulted) never indicted")
        else:
            result.notes.append(f"{unit['faulty']} (faulted) never indicted: "
                                "a detection miss on a seed without a "
                                "reference")
    result.digests = digests


def run_fleet(root: str, seed: int, seconds: float, trace: bool,
              spec: Optional[dict] = None, reference: Optional[dict] = None,
              workload: str = "fleet50-cpuhog") -> Result:
    spec = dict(FLEET if spec is None else spec)
    result = Result()
    setups, model = [], None
    for s in setup_seeds(seed, 1 if trace else SETUPS):
        (_, trained, _, handles, _), raw, scaled = scaled_setup(
            lambda: fleet_setup(s, **spec))
        setups.append((raw, scaled))
        handles.core.close()
        if model is None:
            model = trained
    if trace:
        plain = fleet_unit(seed, spec, model)
        with tracing(root, workload, seed) as recorder:
            traced = fleet_unit(seed, spec, model, recorder)
        done = [plain, traced]
    else:
        done = units(seconds, lambda: fleet_unit(seed, spec, model))
    for unit in done:
        result.attempted += unit["planned"]
        # A round is late when it took longer than the one-second
        # collection interval it monitors; rounds a raise cut off fail.
        late = sum(1 for r in unit["rounds"] if r > 1.0)
        result.failed += unit["planned"] - len(unit["rounds"]) + late
    _check_fleet(result, root, seed, done, reference, workload)
    if trace:
        ledger = recorder.ledger()
        counters = traced["counters"]
        rounds = len(traced["rounds"])
        gap = ledgers.self_time_gap(ledger, sum(traced["rounds"]))
        if gap > 0.10:
            result.fail_check(
                f"layer self times miss run_until wall by {gap:.1%}")
        result.notes.append(f"self-time sum vs run_until wall: {gap:.2%} apart")
        spans_runs = sum(
            e["count"] for n, e in ledger["layers"].items()
            if n.startswith("modules.")
        )
        if spans_runs != traced["runs"]:
            result.fail_check(
                f"module spans {spans_runs} != scheduler runs {traced['runs']}")
        extra = {
            "inproc_bytes": counters["rpc_bytes"],
            "log_lines": counters["log_lines"],
            "bytes_per_node_round": counters["rpc_bytes"]
            / (traced["nodes"] * rounds),
            "overhead_pct": _overhead_pct(plain["wall_s"], traced["wall_s"]),
        }
        metrics = ledgers.layer_metrics(ledger, extra)
        _write_ledger(root, workload, seed, ledger, metrics)
        for name, (value, unit) in metrics.items():
            result.put(name, value, unit, rounds)
        return result
    rounds = [r for unit in done for r in unit["rounds"]]
    wall = sum(unit["wall_s"] for unit in done)
    wall_n = sum(unit["wall_n"] for unit in done)
    node_s = sum(unit["nodes"] * len(unit["rounds"]) for unit in done)
    counters = {key: sum(unit["counters"][key] for unit in done)
                for key in done[0]["counters"]}
    speed = HostSpeed()
    speed.samples = [k for unit in done for k in unit["speed"].samples]
    put_speed(result, speed)
    put_setup(result, setups)
    result.put("node_s_per_s", node_s / wall_n, "node-s/s", len(rounds),
               f"{len(done)} unit(s), {wall:.2f} s raw, "
               f"{node_s / wall:.1f} raw")
    put_rounds(result, [unit["scaled"] for unit in done], rounds)
    cpu_s = sum(u["cpu_s"] for u in done)
    put_deployment_costs(result, node_s, cpu_s, counters, len(rounds),
                         sum(u["cpu_n"] for u in done) / cpu_s)
    return result


# --------------------------------------------------------------------------
# table2-n10: the Table 2 matrix through the experiments runner
# --------------------------------------------------------------------------

TABLE2 = {"nodes": 10, "duration_s": 600.0, "faults": None, "jobs": 2}


class TaskProbe:
    """Per-task accounting inside the runner's workers.

    Installed in the benchmark process before ``run_tasks`` forks its
    pool, so every worker inherits it.  Around each task it times every
    ``FptCore.run_until`` call (wall and CPU, raw and scaled by the
    host speed sampled between calls), differences the deployment's
    counters, and writes one JSON record into ``out_dir``; a traced
    run adds the task's span ledger.
    """

    def __init__(self, out_dir: str,
                 recorder: Optional[ledgers.SpanRecorder] = None,
                 spans_prefix: str = "") -> None:
        self.out_dir = out_dir
        self.recorder = recorder
        self.spans_prefix = spans_prefix
        self._task: Optional[dict] = None
        self._restore: List[Tuple[Any, str, Any]] = []
        self._written = 0

    def _patch(self, owner, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        from repro.core.fptcore import FptCore
        from repro.experiments import runner, scenario

        probe = self

        def deploy(original):
            def deploy_asdf(*args, **kwargs):
                handles = original(*args, **kwargs)
                if probe._task is not None:
                    probe._task["handles"] = handles
                    probe._task["before"] = deployment_counters(handles)
                return handles
            return deploy_asdf

        def run_until(original):
            def timed(core, end_time):
                task = probe._task
                if task is None:
                    return original(core, end_time)
                t0 = time.perf_counter()
                c0 = time.process_time()
                try:
                    return original(core, end_time)
                finally:
                    cpu = time.process_time() - c0
                    wall = time.perf_counter() - t0
                    speed = task["speed"]
                    speed.maybe_sample()
                    scale = speed.scale_now()
                    task["cpu_s"] += cpu
                    task["cpu_n"] += cpu * scale
                    task["rounds"].append(wall)
                    task["scaled"].append(wall * scale)
            return timed

        def run_scenario(original):
            def probed(config, *args, **kwargs):
                speed = HostSpeed()
                speed.sample()
                probe._task = {"rounds": [], "scaled": [], "cpu_s": 0.0,
                               "cpu_n": 0.0, "speed": speed,
                               "handles": None}
                recorder = probe.recorder
                if recorder is not None:
                    recorder.reset()
                    recorder.active = True
                try:
                    result = original(config, *args, **kwargs)
                finally:
                    if recorder is not None:
                        recorder.active = False
                    task, probe._task = probe._task, None
                probe._dump(config, task)
                return result
            return probed

        self._patch(scenario, "deploy_asdf", deploy)
        self._patch(FptCore, "run_until", run_until)
        self._patch(runner, "run_scenario", run_scenario)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _dump(self, config, task: dict) -> None:
        handles = task["handles"]
        counters = counter_delta(deployment_counters(handles), task["before"])
        record = {
            "fault": config.fault_name, "seed": config.seed,
            "nodes": config.num_slaves, "rounds": task["rounds"],
            "scaled": task["scaled"], "cpu_s": task["cpu_s"],
            "cpu_n": task["cpu_n"], "kernel": task["speed"].samples,
            "kernel_spent_s": task["speed"].spent_s, "counters": counters,
            "ledger": self.recorder.ledger() if self.recorder else None,
        }
        self._written += 1
        name = f"task-{os.getpid()}-{self._written}"
        if self.recorder is not None:
            self.recorder.write(f"{self.spans_prefix}{name}.spans.jsonl.gz")
        path = os.path.join(self.out_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)

    def collect(self) -> List[dict]:
        records = []
        for path in sorted(glob.glob(os.path.join(self.out_dir, "task-*.json"))):
            with open(path, encoding="utf-8") as fh:
                records.append(json.load(fh))
            os.remove(path)
        return records


def table2_setup(seed: int, nodes: int, duration_s: float, faults):
    """Build the matrix and train its models through the model cache."""
    from repro.experiments.runner import ModelCache, table2_matrix
    from repro.experiments.scenario import ScenarioConfig

    base = ScenarioConfig(num_slaves=nodes, duration_s=duration_s, seed=seed)
    tasks = (table2_matrix(base) if faults is None
             else table2_matrix(base, faults=faults))
    cache = ModelCache()
    for task in tasks:
        cache.get(task.config)
    return tasks, cache


def table2_unit(root: str, tasks, cache, jobs: int, recorder=None,
                spans_prefix: str = "") -> dict:
    """One ``run_tasks`` call over the whole matrix."""
    from repro.experiments.runner import run_tasks

    out_dir = os.path.join(root, ".perfbench", f"tasks-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    probe = TaskProbe(out_dir, recorder, spans_prefix)
    probe.install()
    try:
        started = time.perf_counter()
        report = run_tasks(tasks, jobs=jobs, model_cache=cache)
        wall_s = time.perf_counter() - started
    finally:
        probe.uninstall()
    records = probe.collect()
    shutil.rmtree(out_dir, ignore_errors=True)
    return {"report": report, "wall_s": wall_s, "records": records}


def _indicts_faulted(payload: dict) -> bool:
    truth = payload["truth"]
    return any(a["node"] == truth["faulty_node"]
               and a["time"] >= truth["inject_time"]
               for a in payload["alarms"]["combined"])


def _check_table2(result: Result, root: str, seed: int, tasks,
                  done: List[dict], reference: Optional[dict],
                  workload: str) -> None:
    expected_ids = sorted(task.task_id for task in tasks)
    first = done[0]["report"]
    digests = {r.task.task_id: checks.digest(r.canonical_json())
               for r in first.results}
    for unit in done:
        report = unit["report"]
        got = sorted(r.task.task_id for r in report.results)
        if got != expected_ids:
            result.fail_check(f"runner returned tasks {got}")
        again = {r.task.task_id: checks.digest(r.canonical_json())
                 for r in report.results}
        if again != digests:
            result.fail_check("repeated matrices of one seed disagree")
        if len(unit["records"]) != len(tasks):
            result.fail_check(
                f"{len(unit['records'])} task probe records for "
                f"{len(tasks)} tasks")
        # Table 2's detection rate is below 100% per fault, and 600 s
        # runs on 10 slaves miss some faults on some seeds, so the
        # matrix as a whole must indict a faulted node.
        if not any(_indicts_faulted(item.payload) for item in report.results):
            result.fail_check("no task indicted its faulted node")
    indicted = sum(_indicts_faulted(item.payload) for item in first.results)
    result.notes.append(f"faulted node indicted in {indicted} of "
                        f"{len(first.results)} tasks")
    bad, notes = checks.check_digests(workload, seed, digests, root,
                                      reference)
    result.notes += notes
    if bad:
        result.correct = False
        # A task whose result differs from the reference failed.
        result.failed += len(bad) * len(done)
    result.digests = digests


def run_table2(root: str, seed: int, seconds: float, trace: bool,
               spec: Optional[dict] = None, reference: Optional[dict] = None,
               workload: str = "table2-n10") -> Result:
    spec = dict(TABLE2 if spec is None else spec)
    jobs = spec.pop("jobs")
    result = Result()
    setups, built = [], []
    for s in setup_seeds(seed, 1 if trace else SETUPS):
        out, raw, scaled = scaled_setup(lambda: table2_setup(s, **spec))
        built.append(out)
        setups.append((raw, scaled))
    tasks, cache = built[0]
    if trace:
        plain = table2_unit(root, tasks, cache, jobs)
        with tracing(root, workload, seed) as recorder:
            traced = table2_unit(root, tasks, cache, jobs, recorder,
                                 os.path.join(ledgers.trace_dir(root),
                                              f"{workload}-seed{seed}."))
        done = [plain, traced]
    else:
        done = units(seconds, lambda: table2_unit(root, tasks, cache, jobs))
    for unit in done:
        result.attempted += len(tasks)
        result.failed += max(0, len(tasks) - len(unit["report"].results))
    _check_table2(result, root, seed, tasks, done, reference, workload)
    if trace:
        report = traced["report"]
        records = traced["records"]
        ledger = ledgers.merge_ledgers([r["ledger"] for r in records])
        rounds = sum(len(r["rounds"]) for r in records)
        rpc_bytes = sum(r["counters"]["rpc_bytes"] for r in records)
        node_rounds = sum(r["nodes"] * len(r["rounds"]) for r in records)
        extra = {
            "inproc_bytes": rpc_bytes,
            "log_lines": sum(r["counters"]["log_lines"] for r in records),
            "bytes_per_node_round": rpc_bytes / node_rounds,
            "task_wall_s": report.task_wall_s,
            "task_cpu_s": report.cpu_s,
            "utilisation": report.task_wall_s / (report.jobs * report.wall_s),
            "model_trainings": float(cache.trainings),
            "train_s": setups[-1][0],
            "overhead_pct": _overhead_pct(plain["wall_s"], traced["wall_s"]),
        }
        metrics = ledgers.layer_metrics(ledger, extra)
        _write_ledger(root, workload, seed, ledger, metrics)
        for name, (value, unit) in metrics.items():
            result.put(name, value, unit, rounds)
        return result
    records = [r for unit in done for r in unit["records"]]
    rounds = [x for r in records for x in r["rounds"]]
    # The workers' calibration samples ran on the pool's clock: take
    # their share out of the matrix wall time, then scale it.
    speed = HostSpeed()
    speed.samples = [k for r in records for k in r["kernel"]]
    spent = sum(r["kernel_spent_s"] for r in records) / jobs
    wall = sum(unit["wall_s"] for unit in done) - spent
    node_s = sum(r["nodes"] * len(r["rounds"]) for r in records)
    counters = {key: sum(r["counters"][key] for r in records)
                for key in records[0]["counters"]}
    put_speed(result, speed)
    put_setup(result, setups)
    result.put("node_s_per_s", node_s / (wall * speed.scale()), "node-s/s",
               len(records), f"{len(done)} matrix run(s), {wall:.2f} s raw, "
               f"{node_s / wall:.1f} raw")
    put_rounds(result, [r["scaled"] for r in records], rounds)
    cpu_s = sum(r["cpu_s"] for r in records)
    put_deployment_costs(result, node_s, cpu_s, counters, len(rounds),
                         sum(r["cpu_n"] for r in records) / cpu_s)
    return result


# --------------------------------------------------------------------------
# live8-tcp: node hosts over loopback TCP, polled by an in-process central
# --------------------------------------------------------------------------

LIVE = {"nodes": 8, "interval_s": 0.25}

#: How long a set-up may take before every node is sampling.
LIVE_READY_S = 60.0

#: How long to keep polling, after the measured window, for the
#: indictment of the injected node (as ``repro cluster drive`` does).
LIVE_DETECT_S = 30.0

#: How long a node host may take to exit on SIGTERM before it is
#: killed.  Its RPC servers stop one poll interval apart, which would
#: add seconds per set-up to every run without being measured.
STOP_GRACE_S = 0.5

#: Step of the live rounds' offsets within their slots (see live_unit).
GOLDEN = (5 ** 0.5 - 1) / 2

#: Least idle time before the next due round that a host-speed
#: sample may use.
MIN_GAP_S = 0.02

#: Poll period while waiting for the first samples: short, so that
#: ``setup_s`` is not rounded up to the round interval.
READY_POLL_S = 0.02


def proc_cpu_s(pid: int) -> float:
    """utime + stime of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class LiveDeployment:
    """One node-host process plus a ``CentralDaemon`` built here."""

    def __init__(self, root: str, seed: int, nodes: int, interval_s: float,
                 tag: str) -> None:
        from repro.cluster.central import CentralDaemon
        from repro.cluster.launcher import ClusterLauncher, node_name

        self.state_dir = os.path.join(root, ".perfbench",
                                      f"live-{os.getpid()}-{tag}")
        shutil.rmtree(self.state_dir, ignore_errors=True)
        self.launcher = ClusterLauncher(self.state_dir, nodes=nodes,
                                        interval_s=interval_s, seed=seed)
        self.names = [node_name(i) for i in range(1, nodes + 1)]
        self.interval_s = interval_s
        self.central = None
        self.host = self.launcher.spawn_host(list(range(1, nodes + 1)))
        self.central = CentralDaemon(self.state_dir, interval_s=interval_s)

    def wait_sampling(self) -> None:
        deadline = time.perf_counter() + LIVE_READY_S
        while time.perf_counter() < deadline:
            if self.host.poll() is not None:
                raise RuntimeError("node host exited during set-up")
            self.central.round()
            peers = self.central.stats_obj().get("nodes", {})
            if all(peers.get(n, {}).get("samples", 0) > 0 for n in self.names):
                return
            time.sleep(READY_POLL_S)
        raise RuntimeError("nodes never started sampling")

    def close(self) -> None:
        if self.central is not None:
            self.central.close()
        self.launcher.shutdown(grace_s=STOP_GRACE_S)
        shutil.rmtree(self.state_dir, ignore_errors=True)


def _peer_totals(central) -> Tuple[int, int]:
    peers = central.stats_obj().get("nodes", {}).values()
    return (sum(p.get("samples", 0) for p in peers),
            sum(p.get("rpc_bytes_sent", 0) + p.get("rpc_bytes_received", 0)
                for p in peers))


def _indicted_after(central, node: str, since_wall: float
                    ) -> Optional[float]:
    """Seconds from ``since_wall`` to the first alarm on ``node``."""
    times = [a["time_wall"] for a in central.stats_obj().get("alarms", [])
             if a.get("node") == node and a.get("time_wall", 0.0) >= since_wall]
    return min(times) - since_wall if times else None


def quiet_target(central, names: List[str], seed: int) -> str:
    """The node to inject on: a seeded choice among the nodes the central
    is not flagging at the moment.

    A node that already deviates from its peers (a busy Hadoop slave
    among idle ones) stays in one anomalous streak while the hog runs,
    and a streak alarms once, when it starts: before the injection.
    """
    peers = central.stats_obj().get("nodes", {})
    quiet = [n for n in names if peers.get(n, {}).get("streak", 0) == 0]
    pool = quiet or names
    return pool[seed % len(pool)]


def live_unit(dep: LiveDeployment, seconds: float, seed: int,
              recorder=None) -> dict:
    """Drive ``round()`` open-loop for ``seconds``; cpuhog at half time."""
    from repro.cluster.load import FLEET_TICK_S

    central = dep.central
    interval = dep.interval_s
    count = max(12, int(round(seconds / interval)))
    samples0, bytes0 = _peer_totals(central)
    node_cpu0 = proc_cpu_s(dep.host.pid)
    cpu0 = time.process_time()
    latencies, scaled, busy, late = [], [], [], []
    failed = 0
    speed = HostSpeed()
    speed.sample()
    injected_wall = target = detected_s = None
    if recorder is not None:
        recorder.active = True
    # Each round is due at its own offset within its slot: the node
    # host samples on its own 0.25 s clock, and a fixed phase between
    # the two loops would decide, per run, whether rounds collide with
    # sampling work.  The offsets step by the golden ratio from a
    # seeded start, so they cover the slot evenly and every run has
    # about the same share of colliding rounds (independent random
    # offsets let that share, and with it the tail, vary by run).
    phase = random.Random(seed).random()
    start = time.perf_counter()
    for i in range(count):
        due = start + (i + (phase + i * GOLDEN) % 1.0) * interval
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        if i == count // 2:
            target = quiet_target(central, dep.names, seed)
            central.enqueue({"action": "inject", "node": target,
                             "kind": "cpuhog", "intensity": 1.0})
            injected_wall = time.time()
        errors = central.poll_errors
        began = time.perf_counter()
        try:
            central.round()
            raised = False
        except Exception as exc:  # noqa: BLE001 - a raising round is a failure
            raised = True
            print(f"live round raised: {type(exc).__name__}: {exc}")
        end = time.perf_counter()
        latencies.append(end - due)
        busy.append(end - began)
        late.append(max(0.0, began - due))
        if raised or central.poll_errors > errors or end - due > interval:
            failed += 1
        # Sample the host speed in the idle gap, unless the next round
        # is due too soon for the sample to stay out of its way.
        if start + (i + 1) * interval - time.perf_counter() > MIN_GAP_S:
            speed.sample()
        scaled.append((end - due) * speed.scale_now())
        # The stats keep only the latest alarms: look after every round.
        if target is not None and detected_s is None:
            detected_s = _indicted_after(central, target, injected_wall)
    wall_s = time.perf_counter() - start
    if recorder is not None:
        recorder.active = False
    cpu_s = time.process_time() - cpu0 - speed.spent_cpu_s
    node_cpu_s = proc_cpu_s(dep.host.pid) - node_cpu0
    samples1, bytes1 = _peer_totals(central)
    # The central indicts by deviation from the peer median, so a hog
    # on a node whose peers are busy too can go unseen for a while:
    # keep polling, unmeasured, until the indictment or a timeout.
    deadline = time.perf_counter() + LIVE_DETECT_S
    while detected_s is None and time.perf_counter() < deadline:
        time.sleep(interval)
        central.round()
        detected_s = _indicted_after(central, target, injected_wall)
    # A node host samples its fleet slice no faster than the fleet
    # ticks, so each delivered window covers one sampling period.
    sample_period = max(dep.launcher.sample_interval_s, FLEET_TICK_S)
    return {"latencies": latencies, "scaled": scaled, "speed": speed,
            "busy": busy, "late": late,
            "sample_period": sample_period,
            "failed": failed, "rounds": count, "wall_s": wall_s,
            "cpu_s": cpu_s, "node_cpu_s": node_cpu_s,
            "samples": samples1 - samples0, "bytes": bytes1 - bytes0,
            "detected_s": detected_s, "target": target}


def run_live(root: str, seed: int, seconds: float, trace: bool,
             spec: Optional[dict] = None, workload: str = "live8-tcp"
             ) -> Result:
    spec = dict(LIVE if spec is None else spec)
    nodes, interval = spec["nodes"], spec["interval_s"]
    result = Result()
    setups: List[float] = []

    def deploy(tag: str) -> LiveDeployment:
        def start() -> LiveDeployment:
            dep = LiveDeployment(root, seed, nodes, interval, tag)
            try:
                dep.wait_sampling()
            except BaseException:
                dep.close()
                raise
            return dep

        dep, raw, scaled = scaled_setup(start)
        setups.append((raw, scaled))
        return dep

    def measured(tag: str, recorder=None) -> dict:
        """A fresh deployment per measured unit: an injected node stays
        indicted after its fault is cleared, so units do not share one."""
        dep = deploy(tag)
        try:
            return live_unit(dep, seconds, seed, recorder)
        finally:
            dep.close()

    if trace:
        plain = measured("plain")
        with tracing(root, workload, seed) as recorder:
            traced = measured("traced", recorder)
        done = [plain, traced]
    else:
        for k in range(SETUPS - 1):
            deploy(str(k)).close()
        done = [measured("measured")]
    for unit in done:
        result.attempted += unit["rounds"]
        result.failed += unit["failed"]
        if unit["detected_s"] is None:
            result.fail_check(
                f"{unit['target']} (cpuhog) not indicted after injection")
        else:
            result.notes.append(f"{unit['target']} (cpuhog) indicted "
                                f"{unit['detected_s']:.2f} s after injection")
    if trace:
        ledger = recorder.ledger()
        rounds = traced["rounds"]
        extra = {
            "bytes_per_node_round": traced["bytes"] / (nodes * rounds),
            "samples_per_round": traced["samples"] / rounds,
            "late_ms": statistics.mean(traced["late"]) * 1e3,
            "overhead_pct": _overhead_pct(statistics.median(plain["busy"]),
                                          statistics.median(traced["busy"])),
        }
        metrics = ledgers.layer_metrics(ledger, extra)
        _write_ledger(root, workload, seed, ledger, metrics)
        for name, (value, unit) in metrics.items():
            result.put(name, value, unit, rounds)
        return result
    unit = done[0]
    node_s = nodes * unit["wall_s"]
    rounds = unit["rounds"]
    # The node host shares the machine: its CPU is scaled by the speed
    # the central process sampled over the same window.
    scale = unit["speed"].scale()
    cpu_s, node_cpu_s = unit["cpu_s"] * scale, unit["node_cpu_s"] * scale
    put_speed(result, unit["speed"])
    put_setup(result, setups)
    result.put("node_s_per_s", unit["samples"] * unit["sample_period"]
               / unit["wall_s"], "node-s/s", unit["samples"],
               "sampled node-seconds delivered per wall-second, unscaled")
    put_rounds(result, [unit["scaled"]], unit["latencies"])
    result.put("asdf_cpu_ms_per_node_s",
               (cpu_s + node_cpu_s) * 1e3 / node_s, "ms",
               rounds, "central process + node host")
    result.put("central_cpu_ms_per_node_s", cpu_s * 1e3 / node_s,
               "ms", rounds, "benchmark process hosting the central")
    result.put("node_cpu_ms_per_node_s", node_cpu_s * 1e3 / node_s,
               "ms", rounds, "node host, /proc/<pid>/stat")
    result.put("rpc_bytes_per_node_s", unit["bytes"] / node_s, "B", rounds,
               "central per-peer frame bytes")
    return result
