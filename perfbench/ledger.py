"""Span recording from outside the program, and the per-layer ledger.

The benchmark never edits ``repro``: a traced run wraps the public calls
at each layer boundary at runtime (:meth:`SpanRecorder.wrap`) and keeps
one span per call in memory -- name, start, end, parent span and round
id.  A layer's *self* time is its busy time minus the time its child
spans cover.  Ledgers are plain sums and counts, so ledgers recorded in
forked runner workers merge with the parent's by addition.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span names of one online round: its root is one of these.
ROUND_ROOTS = ("core.run_until", "central.round")

#: Module types the ledger reports one by one; every other registered
#: type (print, alarm_union, csv_writer, scoreboard, ...) is a sink.
MODULE_TYPES = (
    "sadc", "hadoop_log", "knn", "knnfleet", "ibuffer",
    "analysis_bb", "analysis_wb",
)

Span = Tuple[str, float, float, int, int]


class SpanRecorder:
    """In-memory spans for calls wrapped with :meth:`wrap`.

    Recording happens only while :attr:`active` is set, so set-up work
    (model training, deployment) stays out of the ledger even though it
    runs the same wrapped code.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counters: Dict[str, float] = {}
        self.active = False
        self.round_id = 0
        self._stack: List[int] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def wrap(self, owner: Any, attr: str, name: str,
             on_result: Optional[Callable[["SpanRecorder", Any], None]] = None,
             ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = owner.__dict__[attr]
        recorder = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        ends_round = name in ROUND_ROOTS

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return original(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, recorder.round_id)
                if ends_round and not stack:
                    recorder.round_id += 1
            if on_result is not None:
                on_result(recorder, result)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()
        self.round_id = 0

    def ledger(self) -> Dict[str, Any]:
        """Per-span-name busy/self/count sums plus round accounting.

        A ``None`` entry is a span still open; it has no end yet.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        layers: Dict[str, Dict[str, float]] = {}
        window_rounds = set()
        roots: List[Tuple[int, float]] = []
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, parent, round_id = span
            entry = layers.setdefault(
                name, {"count": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            entry["count"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += (end - start) - child[index]
            if name.startswith("modules.analysis_"):
                window_rounds.add(round_id)
            if name in ROUND_ROOTS and parent < 0:
                roots.append((round_id, end - start))
        return {
            "layers": layers,
            "counters": dict(self.counters),
            "window_rounds": len(window_rounds),
            "window_round_s": sum(
                duration for round_id, duration in roots
                if round_id in window_rounds
            ),
        }

    def write(self, path: str) -> None:
        """Write every span as gzipped JSON lines (names interned)."""
        names: Dict[str, int] = {}
        origin = min((s[1] for s in self.spans if s is not None), default=0.0)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            rows = []
            for span in self.spans:
                if span is None:
                    continue
                name, start, end, parent, round_id = span
                code = names.setdefault(name, len(names))
                rows.append(
                    f"[{code},{(start - origin) * 1e6:.1f},"
                    f"{(end - start) * 1e6:.1f},{parent},{round_id}]"
                )
            fh.write(json.dumps({
                "format": "perfbench-spans/1",
                "fields": ["name", "start_us", "dur_us", "parent", "round"],
                "names": sorted(names, key=names.get),
            }) + "\n")
            fh.write("\n".join(rows))
            fh.write("\n")


def merge_ledgers(ledgers: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum ledgers recorded in different processes."""
    merged: Dict[str, Any] = {
        "layers": {}, "counters": {}, "window_rounds": 0, "window_round_s": 0.0,
    }
    for ledger in ledgers:
        for name, entry in ledger["layers"].items():
            into = merged["layers"].setdefault(
                name, {"count": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            for key, value in entry.items():
                into[key] += value
        for name, value in ledger["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0.0) + value
        merged["window_rounds"] += ledger["window_rounds"]
        merged["window_round_s"] += ledger["window_round_s"]
    return merged


def _count_samples(recorder: SpanRecorder, sample: Any) -> None:
    if sample is not None:
        recorder.count("sysstat.samples")


def _count_poll(recorder: SpanRecorder, outcomes: Any) -> None:
    rtts = [o.rtt_s for o in outcomes.values() if o.rtt_s is not None]
    recorder.count("poller.errors", sum(1 for o in outcomes.values() if not o.ok))
    recorder.count("poller.rtt_max_s", max(rtts) if rtts else 0.0)


def install_layer_wrappers(recorder: SpanRecorder) -> None:
    """Wrap the public call into every layer the ledger reports."""
    from repro.cluster.central import CentralDaemon
    from repro.core.fptcore import FptCore
    from repro.hadoop.cluster import HadoopCluster
    from repro.modules import STANDARD_MODULES
    from repro.rpc.daemons import HadoopLogDaemon, SadcDaemon
    from repro.rpc.inproc import InprocChannel
    from repro.rpc.poller import MultiPoller
    from repro.sim.vec import VecProcFS
    from repro.sysstat.procfs import SimProcFS
    from repro.sysstat.sadc import Sadc

    recorder.wrap(HadoopCluster, "step", "hadoop.step")
    recorder.wrap(SimProcFS, "snapshot", "sysstat.snapshot")
    recorder.wrap(VecProcFS, "snapshot", "sysstat.snapshot")
    recorder.wrap(Sadc, "collect", "sysstat.collect", _count_samples)
    recorder.wrap(InprocChannel, "call", "rpc.inproc")
    recorder.wrap(SadcDaemon, "rpc_sample", "daemon.sadc")
    recorder.wrap(HadoopLogDaemon, "rpc_collect", "daemon.hadoop_log")
    recorder.wrap(FptCore, "run_until", "core.run_until")
    for module_class in STANDARD_MODULES:
        if "run" in module_class.__dict__:
            kind = module_class.type_name
            label = kind if kind in MODULE_TYPES else "sinks"
            recorder.wrap(module_class, "run", f"modules.{label}")
    recorder.wrap(MultiPoller, "poll", "poller.poll", _count_poll)
    recorder.wrap(CentralDaemon, "round", "central.round")


def layer_metrics(ledger: Dict[str, Any], extra: Dict[str, float]
                  ) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics (value, unit) of one traced run.

    ``extra`` carries the numbers that come from the program's own
    accounting rather than from spans (byte counters, log lines, the
    runner's ``EngineReport``, generator lateness, trace overhead).
    A layer the workload bypasses has no spans and reads 0.
    """
    layers = ledger["layers"]
    counters = ledger["counters"]

    def count(name: str) -> int:
        return int(layers.get(name, {}).get("count", 0))

    def per_call(name: str, key: str, scale: float) -> float:
        calls = count(name)
        return layers[name][key] / calls * scale if calls else 0.0

    rounds = count("core.run_until")
    module_runs = sum(
        count(f"modules.{kind}") for kind in MODULE_TYPES + ("sinks",)
    )
    inproc_calls = count("rpc.inproc")
    polls = count("poller.poll")
    metrics: Dict[str, Tuple[float, str]] = {
        "hadoop.step_ms": (per_call("hadoop.step", "busy_s", 1e3), "ms"),
        "sysstat.snapshot_us": (
            per_call("sysstat.snapshot", "busy_s", 1e6), "us"),
        "sysstat.collect_self_us": (
            per_call("sysstat.collect", "self_s", 1e6), "us"),
        "sysstat.samples": (counters.get("sysstat.samples", 0.0), "count"),
        "rpc.inproc.self_us": (per_call("rpc.inproc", "self_s", 1e6), "us"),
        "rpc.inproc.calls": (float(inproc_calls), "count"),
        "rpc.inproc.bytes_per_call": (
            extra.get("inproc_bytes", 0.0) / inproc_calls
            if inproc_calls else 0.0, "B"),
        "daemon.sadc.self_us": (per_call("daemon.sadc", "self_s", 1e6), "us"),
        "daemon.hadoop_log.busy_us": (
            per_call("daemon.hadoop_log", "busy_s", 1e6), "us"),
        "hadoop_log.lines": (extra.get("log_lines", 0.0), "count"),
    }
    for kind in MODULE_TYPES + ("sinks",):
        name = f"modules.{kind}"
        metrics[f"{name}.self_us"] = (per_call(name, "self_s", 1e6), "us")
        metrics[f"{name}.runs"] = (float(count(name)), "count")
    metrics.update({
        "core.self_ms": (
            layers["core.run_until"]["self_s"] / rounds * 1e3
            if rounds else 0.0, "ms"),
        "core.runs_per_round": (
            module_runs / rounds if rounds else 0.0, "count"),
        "core.window_round_ms": (
            ledger["window_round_s"] / ledger["window_rounds"] * 1e3
            if ledger["window_rounds"] else 0.0, "ms"),
        "runner.task_wall_s": (extra.get("task_wall_s", 0.0), "s"),
        "runner.task_cpu_s": (extra.get("task_cpu_s", 0.0), "s"),
        "runner.utilisation": (extra.get("utilisation", 0.0), "ratio"),
        "runner.model_trainings": (extra.get("model_trainings", 0.0), "count"),
        "runner.train_s": (extra.get("train_s", 0.0), "s"),
        "poller.poll_ms": (per_call("poller.poll", "busy_s", 1e3), "ms"),
        "poller.rtt_max_ms": (
            counters.get("poller.rtt_max_s", 0.0) / polls * 1e3
            if polls else 0.0, "ms"),
        "poller.errors": (counters.get("poller.errors", 0.0), "count"),
        "rpc.bytes_per_node_round": (
            extra.get("bytes_per_node_round", 0.0), "B"),
        "central.self_ms": (per_call("central.round", "self_s", 1e3), "ms"),
        "central.samples_per_round": (
            extra.get("samples_per_round", 0.0), "count"),
        "round.late_ms": (extra.get("late_ms", 0.0), "ms"),
        "trace.overhead_pct": (extra.get("overhead_pct", 0.0), "%"),
    })
    return metrics


def self_time_gap(ledger: Dict[str, Any], run_until_wall_s: float) -> float:
    """Relative gap between the layers' summed self time and the wall
    time of the ``run_until`` calls they ran under."""
    total = sum(
        entry["self_s"] for name, entry in ledger["layers"].items()
        if name != "hadoop.step"
    )
    if run_until_wall_s <= 0:
        return 1.0
    return abs(total - run_until_wall_s) / run_until_wall_s


def trace_dir(root: str) -> str:
    path = os.path.join(root, ".perfbench", "traces")
    os.makedirs(path, exist_ok=True)
    return path
