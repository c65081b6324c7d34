"""Parallel experiment engine: fan ``run_scenario`` tasks across workers.

The paper's evaluation (Tables 2-4, Figures 6-7) is hundreds of
*independent* scenario runs -- 6 faults x several trials x threshold
sweeps.  Each run is deterministic given its :class:`ScenarioConfig`, so
the matrix parallelizes perfectly; what used to serialize everything was
the harness, not the workload.  This module is the harness fix:

* :func:`scenario_matrix` / :func:`table2_matrix` expand a base
  configuration into a task list (fault x trial x sweep point), deriving
  per-task seeds deterministically from the base seed with
  :func:`derive_seed` -- the same matrix always produces the same seeds,
  regardless of worker count or completion order.
* :class:`ModelCache` trains the black-box model **once in the parent**
  per unique training signature (a hash of the training configuration)
  and ships the plain-JSON payload (:func:`.model.model_to_payload`) to
  the workers, so no worker ever retrains.
* :func:`run_tasks` executes the matrix on a ``ProcessPoolExecutor``
  (``jobs`` workers), falling back gracefully to in-process serial
  execution when ``jobs=1`` or multiprocessing is unavailable.  Workers
  return the :func:`.persist.result_payload` plain-data document, so a
  parallel run is byte-comparable -- and byte-identical -- to a serial
  one.
* :class:`EngineReport` carries per-task wall/CPU timings (also surfaced
  through :meth:`.telemetry.Telemetry.record_task`) and serializes to
  the ``BENCH_<name>.json`` trajectory files via
  :func:`write_bench_json`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..faults import FAULT_NAMES
from ..hadoop.cluster import ClusterConfig
from ..telemetry import Telemetry
from .model import (
    BlackBoxModel,
    model_from_payload,
    model_to_payload,
    train_blackbox_model,
)
from .persist import LoadedResult, result_payload
from .scenario import ScenarioConfig, run_scenario

__all__ = [
    "EngineReport",
    "ExperimentTask",
    "ModelCache",
    "TaskResult",
    "bench_output_dir",
    "check_speedup_gate",
    "derive_seed",
    "parity_mismatches",
    "run_tasks",
    "scenario_matrix",
    "table2_matrix",
    "training_signature",
    "write_bench_json",
]

#: Environment override for where ``BENCH_<name>.json`` files land.
BENCH_DIR_ENV = "ASDF_BENCH_DIR"
#: Format tag of the emitted benchmark trajectory files.
BENCH_FORMAT = "asdf-bench/1"


# --------------------------------------------------------------------------
# Deterministic per-task seeds
# --------------------------------------------------------------------------


def derive_seed(base_seed: int, *parts: Any) -> int:
    """A stable 31-bit seed derived from ``base_seed`` and task coordinates.

    SHA-256 over the canonical string of every coordinate, so the
    mapping is independent of Python's per-process hash randomization,
    of the platform, and of task submission order -- the property the
    serial-vs-parallel parity guarantee rests on.
    """
    text = "\x1f".join([str(int(base_seed))] + [repr(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


# --------------------------------------------------------------------------
# Task matrices
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentTask:
    """One independent evaluation run: an id plus its full configuration."""

    task_id: str
    config: ScenarioConfig


def scenario_matrix(
    base: ScenarioConfig,
    faults: Sequence[Optional[str]] = (None,),
    trials: int = 1,
    sweep: Optional[Tuple[str, Sequence[Any]]] = None,
) -> List[ExperimentTask]:
    """Expand ``base`` into a fault x trial x sweep-point task list.

    ``sweep``, when given, is ``(config_field, values)`` -- e.g.
    ``("bb_threshold", [40, 50, 60])`` -- and multiplies the matrix by
    one task per value.  Every task's seed is derived from the base seed
    and its coordinates, so trials are independent runs and the whole
    matrix is reproducible from ``base.seed`` alone.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    sweep_field, sweep_values = sweep if sweep is not None else (None, [None])
    tasks: List[ExperimentTask] = []
    for fault in faults:
        for trial in range(trials):
            for value in sweep_values:
                overrides: Dict[str, Any] = {
                    "fault_name": fault,
                    "seed": derive_seed(
                        base.seed, fault or "", trial, sweep_field or "", value
                    ),
                }
                task_id = f"{fault or 'fault-free'}/t{trial}"
                if sweep_field is not None:
                    overrides[sweep_field] = value
                    task_id += f"/{sweep_field}={value}"
                tasks.append(
                    ExperimentTask(task_id, replace(base, **overrides))
                )
    return tasks


def table2_matrix(
    base: ScenarioConfig,
    faults: Sequence[str] = FAULT_NAMES,
    trials: int = 1,
) -> List[ExperimentTask]:
    """The Table 2 evaluation matrix: every injected fault x ``trials``."""
    return scenario_matrix(base, faults=list(faults), trials=trials)


# --------------------------------------------------------------------------
# Parent-side model cache
# --------------------------------------------------------------------------


def training_signature(
    config: ScenarioConfig, training_duration_s: Optional[float] = None
) -> str:
    """Hash of everything that determines the trained black-box model.

    Mirrors the default-training path of :func:`.scenario.run_scenario`:
    cluster size, the shifted training seed, training duration, k-means
    state count and k-means seed.  Two configurations with the same
    signature train byte-identical models, so the cache may serve both.
    """
    duration = (
        training_duration_s
        if training_duration_s is not None
        else min(300.0, config.duration_s)
    )
    key = {
        "num_slaves": config.num_slaves,
        "cluster_seed": config.seed + 1000,
        "duration_s": float(duration),
        "num_states": config.num_states,
        "kmeans_seed": config.seed,
    }
    return hashlib.sha256(
        json.dumps(key, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


class ModelCache:
    """Train-once storage of black-box models, keyed by training signature."""

    def __init__(self) -> None:
        self._models: Dict[str, BlackBoxModel] = {}
        self.trainings = 0

    def put(self, key: str, model: BlackBoxModel) -> None:
        self._models[key] = model

    def get(
        self,
        config: ScenarioConfig,
        training_duration_s: Optional[float] = None,
    ) -> Tuple[str, BlackBoxModel]:
        """The (signature, model) for ``config``, training on first miss."""
        key = training_signature(config, training_duration_s)
        model = self._models.get(key)
        if model is None:
            duration = (
                training_duration_s
                if training_duration_s is not None
                else min(300.0, config.duration_s)
            )
            model = train_blackbox_model(
                cluster_config=ClusterConfig(
                    num_slaves=config.num_slaves, seed=config.seed + 1000
                ),
                duration_s=duration,
                num_states=config.num_states,
                seed=config.seed,
            )
            self._models[key] = model
            self.trainings += 1
        return key, model

    def payloads(self) -> Dict[str, dict]:
        return {key: model_to_payload(m) for key, m in self._models.items()}


# --------------------------------------------------------------------------
# Worker protocol
# --------------------------------------------------------------------------

#: Per-worker state installed by :func:`_worker_init`: raw JSON
#: payloads and the models materialized from them (lazily, per key).
_worker_payloads: Dict[str, dict] = {}
_worker_models: Dict[str, BlackBoxModel] = {}


def _start_on_own_cpu(slots: Any) -> None:
    """(Worker side) move this worker onto its own CPU, once.

    Forked workers start on the parent's CPU, and on some VMs the
    scheduler leaves them sharing it for about a second when the other
    CPUs had been idle -- long enough to halve a short matrix's
    speedup.  Worker ``i`` (numbered through the shared ``slots``
    counter) is pinned to the ``i``-th allowed CPU, which migrates it
    there at once, and then unpinned so the scheduler stays free to
    balance it later.  A platform without affinity calls skips this.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    with slots.get_lock():
        index = slots.value
        slots.value += 1
    cpus = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpus[index % len(cpus)]})
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass  # a placement hint only; the pool works without it


def _worker_init(models_json: str, slots: Optional[Any] = None) -> None:
    """Pool initializer: receive the parent's trained models as JSON.

    ``slots`` (a shared counter, pool workers only) spreads the workers
    over the CPUs; the in-process serial path passes none.
    """
    global _worker_payloads, _worker_models
    if slots is not None:
        _start_on_own_cpu(slots)
    _worker_payloads = json.loads(models_json)
    _worker_models = {}
    # Freeze everything imported/parsed so far out of the cyclic GC's
    # generations: workers churn through millions of short-lived sim
    # objects, and rescanning the permanent interpreter/model state on
    # every collection is pure overhead (it also keeps forked pages
    # copy-on-write-clean on POSIX).
    gc.freeze()


def _worker_model(key: str) -> BlackBoxModel:
    model = _worker_models.get(key)
    if model is None:
        model = model_from_payload(_worker_payloads[key])
        _worker_models[key] = model
    return model


def _execute_task(
    item: Tuple[str, Dict[str, Any], Optional[str]],
) -> Tuple[str, Dict[str, Any], float, float, str]:
    """Run one task and return its plain-data result document + timings.

    This is the single execution path: the serial fallback calls it
    in-process and the pool pickles it to workers, so ``jobs=1`` and
    ``jobs=N`` runs are the same code against the same shipped model.
    """
    task_id, config_dict, model_key = item
    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    config = ScenarioConfig(**config_dict)
    model = _worker_model(model_key) if model_key is not None else None
    result = run_scenario(config, model=model)
    payload = result_payload(result)
    return (
        task_id,
        payload,
        time.perf_counter() - wall_started,
        time.process_time() - cpu_started,
        f"pid:{os.getpid()}",
    )


# --------------------------------------------------------------------------
# Results and reports
# --------------------------------------------------------------------------


@dataclass
class TaskResult:
    """One finished task: its result document plus execution accounting."""

    task: ExperimentTask
    payload: Dict[str, Any]
    wall_s: float
    cpu_s: float
    worker: str
    _loaded: Optional[LoadedResult] = field(default=None, repr=False)

    def load(self) -> LoadedResult:
        """The result document as a scoreable :class:`LoadedResult`."""
        if self._loaded is None:
            self._loaded = LoadedResult(self.payload)
        return self._loaded

    def canonical_json(self) -> str:
        """Canonical serialization used for byte-level parity checks."""
        return json.dumps(self.payload, sort_keys=True)


@dataclass
class EngineReport:
    """Everything one engine invocation did, ready for ``BENCH_*`` export."""

    jobs: int
    mode: str  # "process-pool", "serial", or "serial-fallback"
    wall_s: float
    results: List[TaskResult]
    model_keys: Tuple[str, ...] = ()
    trainings: int = 0
    #: Wall seconds of a reference serial execution of the same matrix,
    #: when the caller measured one (``BENCH_*`` speedup trajectory).
    serial_wall_s: Optional[float] = None

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.results)

    @property
    def task_wall_s(self) -> float:
        """Sum of per-task wall seconds (serial-equivalent work)."""
        return sum(r.wall_s for r in self.results)

    @property
    def speedup_vs_serial(self) -> Optional[float]:
        if self.serial_wall_s is None or self.wall_s <= 0:
            return None
        return self.serial_wall_s / self.wall_s

    def result(self, task_id: str) -> TaskResult:
        for item in self.results:
            if item.task.task_id == task_id:
                return item
        raise KeyError(f"no task {task_id!r} in report")

    def loaded_results(self) -> List[LoadedResult]:
        return [r.load() for r in self.results]

    def bench_payload(
        self, name: str, extra: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "format": BENCH_FORMAT,
            "name": name,
            "created_unix": int(time.time()),  # fpt: noqa[FPT201] -- metadata stamp, not scenario state
            "jobs": self.jobs,
            "mode": self.mode,
            "wall_s": round(self.wall_s, 4),
            "cpu_s": round(self.cpu_s, 4),
            "task_wall_s": round(self.task_wall_s, 4),
            "tasks": [
                {
                    "task_id": r.task.task_id,
                    "wall_s": round(r.wall_s, 4),
                    "cpu_s": round(r.cpu_s, 4),
                    "worker": r.worker,
                }
                for r in self.results
            ],
            "model_trainings": self.trainings,
        }
        if self.serial_wall_s is not None:
            payload["serial_wall_s"] = round(self.serial_wall_s, 4)
            payload["speedup_vs_serial"] = round(self.speedup_vs_serial, 3)
        if extra:
            payload["extra"] = extra
        return payload


def parity_mismatches(a: EngineReport, b: EngineReport) -> List[str]:
    """Task ids whose result documents differ between two reports.

    Byte-level comparison of canonical JSON: the acceptance bar for the
    parallel engine is *identical* results, not statistically similar
    ones.
    """
    results_b = {r.task.task_id: r for r in b.results}
    mismatched = []
    for result_a in a.results:
        other = results_b.get(result_a.task.task_id)
        if other is None or result_a.canonical_json() != other.canonical_json():
            mismatched.append(result_a.task.task_id)
    mismatched.extend(
        task_id
        for task_id in results_b
        if all(r.task.task_id != task_id for r in a.results)
    )
    return mismatched


# --------------------------------------------------------------------------
# The engine
# --------------------------------------------------------------------------


#: Target chunks per worker when batching pool submissions.  More than
#: one chunk per worker keeps the pool load-balanced when task costs are
#: uneven; batching several tasks per submit amortizes the per-future
#: pickling, IPC and bookkeeping that dominates short matrices.
CHUNKS_PER_WORKER = 2


def _chunk_items(
    items: List[Tuple[str, Dict[str, Any], Optional[str]]], jobs: int
) -> List[List[Tuple[str, Dict[str, Any], Optional[str]]]]:
    """Split the matrix into at most ``jobs * CHUNKS_PER_WORKER`` chunks.

    Contiguous, near-equal splits preserve submission order, so results
    flattened chunk by chunk come back in the same order the per-task
    dispatch produced -- byte-identical reports either way.
    """
    chunk_count = max(1, min(len(items), jobs * CHUNKS_PER_WORKER))
    base, extra = divmod(len(items), chunk_count)
    chunks = []
    start = 0
    for index in range(chunk_count):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


def _execute_chunk(
    chunk: List[Tuple[str, Dict[str, Any], Optional[str]]],
) -> List[Tuple[str, Dict[str, Any], float, float, str]]:
    """Run one submitted chunk of tasks, in order, in this worker."""
    return [_execute_task(item) for item in chunk]


def _pool_results(
    items: List[Tuple[str, Dict[str, Any], Optional[str]]],
    jobs: int,
    models_json: str,
):
    """Dispatch chunks on a process pool, yielding in submission order."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    slots = multiprocessing.Value("i", 0)
    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_worker_init,
        initargs=(models_json, slots),
    ) as pool:
        futures = [
            pool.submit(_execute_chunk, chunk)
            for chunk in _chunk_items(items, jobs)
        ]
        for future in futures:
            yield from future.result()


def run_tasks(
    tasks: Sequence[ExperimentTask],
    jobs: int = 1,
    model: Optional[BlackBoxModel] = None,
    model_cache: Optional[ModelCache] = None,
    training_duration_s: Optional[float] = None,
    telemetry: Optional[Telemetry] = None,
) -> EngineReport:
    """Execute an experiment matrix, parallel across processes.

    ``model`` shares one pre-trained model across every task (the usual
    benchmark setup); otherwise each task's training signature is
    resolved against ``model_cache`` (or a fresh cache) and trained *in
    the parent*, once per unique signature.  Workers receive all models
    as one JSON document and never retrain.

    ``jobs <= 0`` means "one worker per CPU".  ``jobs == 1`` -- or any
    environment where a process pool cannot be created -- executes the
    identical task path serially in-process; results are byte-identical
    either way.
    """
    jobs = int(jobs) if jobs > 0 else (os.cpu_count() or 1)
    cache = model_cache if model_cache is not None else ModelCache()

    items: List[Tuple[str, Dict[str, Any], Optional[str]]] = []
    if model is not None:
        shared_key = "shared"
        payloads = {shared_key: model_to_payload(model)}
        for task in tasks:
            items.append((task.task_id, asdict(task.config), shared_key))
    else:
        for task in tasks:
            key, _ = cache.get(task.config, training_duration_s)
            items.append((task.task_id, asdict(task.config), key))
        payloads = cache.payloads()
    models_json = json.dumps(payloads, sort_keys=True)

    mode = "serial" if jobs == 1 else "process-pool"
    wall_started = time.perf_counter()
    raw: List[Tuple[str, Dict[str, Any], float, float, str]] = []
    if jobs > 1:
        try:
            raw = list(_pool_results(items, jobs, models_json))
        except (ImportError, OSError, PermissionError, NotImplementedError) as exc:
            warnings.warn(
                f"process pool unavailable ({type(exc).__name__}: {exc}); "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
            mode = "serial-fallback"
            raw = []
    if not raw and items:
        if mode == "process-pool":
            mode = "serial"
        _worker_init(models_json)
        raw = [_execute_task(item) for item in items]
    wall_s = time.perf_counter() - wall_started

    by_id = {task.task_id: task for task in tasks}
    results = [
        TaskResult(by_id[task_id], payload, task_wall, task_cpu, worker)
        for task_id, payload, task_wall, task_cpu, worker in raw
    ]
    if telemetry is not None and telemetry.enabled:
        for item in results:
            telemetry.record_task(
                item.task.task_id, item.wall_s, item.cpu_s, worker=item.worker
            )
    return EngineReport(
        jobs=jobs,
        mode=mode,
        wall_s=wall_s,
        results=results,
        model_keys=tuple(sorted(payloads)),
        trainings=cache.trainings,
    )


# --------------------------------------------------------------------------
# BENCH_*.json trajectory files
# --------------------------------------------------------------------------


def bench_output_dir() -> Path:
    """Where ``BENCH_<name>.json`` files go (override: ``$ASDF_BENCH_DIR``)."""
    return Path(os.environ.get(BENCH_DIR_ENV, "."))


def write_bench_json(
    report: EngineReport,
    name: str,
    directory: Optional[Union[str, Path]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write ``BENCH_<name>.json`` so future PRs can track the trajectory."""
    directory = Path(directory) if directory is not None else bench_output_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(report.bench_payload(name, extra=extra), indent=2))
    return path


def check_speedup_gate(
    report: EngineReport,
    baseline_path: Union[str, Path],
    slack: float = 0.85,
    multicore_floor: float = 1.0,
) -> Tuple[bool, str]:
    """Regression-gate ``speedup_vs_serial`` against a committed baseline.

    Reads the ``speedup_vs_serial`` field of the baseline BENCH file
    (e.g. the repository's committed ``BENCH_table2.json``) and passes
    iff the report's speedup is at least ``slack`` times it -- the slack
    absorbs shared-runner noise while still catching a parallel engine
    that quietly stopped scaling.  Returns ``(ok, message)``; a report
    without a serial reference, or a baseline without a recorded
    speedup, passes with an explanatory message (the gate needs both
    numbers to mean anything).

    On a host with >= 2 CPUs the gate additionally requires the
    measured speedup to reach ``multicore_floor`` (default 1.0x): a
    parallel run that is *slower than serial* on real cores is a
    regression no baseline slack should excuse.  Single-core hosts are
    exempt -- there, ``jobs=2`` legitimately measures below 1.0x (see
    EXPERIMENTS.md) and only the relative baseline applies.
    """
    try:
        baseline = json.loads(Path(baseline_path).read_text())
    except (OSError, ValueError) as error:
        return False, f"speedup gate: cannot read baseline {baseline_path}: {error}"
    reference = baseline.get("speedup_vs_serial")
    if reference is None:
        return True, (
            f"speedup gate: baseline {baseline_path} records no "
            "speedup_vs_serial; nothing to gate against"
        )
    measured = report.speedup_vs_serial
    if measured is None:
        return True, (
            "speedup gate: report has no serial reference "
            "(run with --check-parity or jobs=1 first); nothing to gate"
        )
    cores = os.cpu_count() or 1
    jobs = getattr(report, "jobs", 0)
    if (
        jobs > 1
        and cores >= 2
        and multicore_floor is not None
        and measured < multicore_floor
    ):
        return False, (
            f"speedup gate: measured {measured:.3f}x at jobs={jobs} "
            f"on a {cores}-core host -- parallel execution must reach "
            f"{multicore_floor:.2f}x there "
            f"({getattr(report, 'mode', 'unknown')} mode) -- FAIL"
        )
    floor = float(reference) * slack
    verdict = measured >= floor
    message = (
        f"speedup gate: measured {measured:.3f}x vs baseline "
        f"{float(reference):.3f}x (floor {floor:.3f}x at slack {slack:.2f}) "
        f"-- {'PASS' if verdict else 'FAIL'}"
    )
    return verdict, message
