"""Campaign execution: shard pending tasks over an Executor, checkpoint,
resume.

:class:`CampaignRunner` joins the three pieces: it expands the spec into
tasks, subtracts the ids the store has already completed, and fans the
remainder out over any :class:`~repro.execution.Executor` (serial, thread,
or process).  Every finished task is appended to the store before the next
wave starts, so a crash loses at most one in-flight wave and a rerun with
``resume=True`` (the default) picks up exactly where the log ends.

Determinism: each task's engine runs *serially inside* the worker (the
task seed is baked into its engine payload), so campaign-level sharding
never perturbs numbers -- a ``--jobs 4`` run is record-for-record
identical to a serial one, and a resumed run to an uninterrupted one.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable

from ..execution.executor import Executor, SerialExecutor
from ..obs import REGISTRY, get_tracer
from .retry import NO_RETRY, RetryPolicy
from .spec import CampaignSpec, TaskSpec
from .store import STATUS_DONE, STATUS_FAILED, ResultStore

_TASK_SECONDS = REGISTRY.histogram(
    "repro_task_seconds", "Wall time of one campaign task execution")

#: Per-worker memo of exact ground energies keyed by registry benchmark:
#: a grid sweeps many settings of one Hamiltonian, and the dense
#: eigensolve is identical for all of them.
_E0_CACHE: dict[tuple[str, int], float] = {}


def _with_shared_e0(task: TaskSpec) -> TaskSpec:
    """Stamp the cached exact ground energy into a registry-backed task.

    Only used for *execution* -- the original payload (and its task id)
    never changes.  ``ground_state_energy`` is exactly what
    ``Experiment.run`` would call, so numbers are unaffected.
    """
    if task.e0 is not None or task.hamiltonian is not None:
        return task
    key = (task.benchmark, task.num_qubits)
    if key not in _E0_CACHE:
        from ..hamiltonians.exact import ground_state_energy
        from ..hamiltonians.registry import get_benchmark

        hamiltonian = get_benchmark(*key).hamiltonian()
        _E0_CACHE[key] = ground_state_energy(hamiltonian)
    return replace(task, e0=_E0_CACHE[key])


def execute_task(task_payload: dict) -> dict:
    """Worker entry point: run one task dict into one store record.

    Top-level (picklable) so process pools can import it.  Failures are
    captured into a ``"failed"`` record instead of raised -- one bad cell
    must not sink a grid.
    """
    task = TaskSpec.from_dict(task_payload)
    start = time.perf_counter()
    with get_tracer().span("task.execute", task_id=task.task_id,
                           benchmark=task.benchmark, method=task.method,
                           strategy=task.strategy, seed=task.seed):
        try:
            result = _with_shared_e0(task).run()
        except Exception:
            _TASK_SECONDS.observe(time.perf_counter() - start)
            return {
                "task_id": task.task_id,
                "status": STATUS_FAILED,
                "seconds": time.perf_counter() - start,
                "task": task_payload,
                "result": None,
                "error": traceback.format_exc(limit=8),
            }
    _TASK_SECONDS.observe(time.perf_counter() - start)
    return {
        "task_id": task.task_id,
        "status": STATUS_DONE,
        "seconds": time.perf_counter() - start,
        "task": task_payload,
        "result": result,
        "error": None,
    }


@dataclass
class CampaignProgress:
    """Outcome of one :meth:`CampaignRunner.run` call.

    ``ran`` counts task *executions* (a cell retried under a
    :class:`~repro.campaigns.retry.RetryPolicy` counts once per attempt);
    ``failed``/``failed_ids`` reflect only cells whose *final* attempt
    failed, and ``retried`` counts the extra attempts.
    """

    total: int
    skipped: int
    ran: int = 0
    failed: int = 0
    retried: int = 0
    seconds: float = 0.0
    failed_ids: list[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.skipped + self.ran - self.failed - self.retried


class CampaignRunner:
    """Drive a campaign to completion over an execution backend.

    Args:
        spec: The campaign grid.
        store: Result store the run checkpoints into; its spec should be
            the same campaign (``create`` a fresh one or ``open`` an
            interrupted one to resume).
        executor: Any PR-1 execution backend; serial when omitted.
            Process pools require nothing beyond the spec being JSON --
            tasks ship as plain dicts.

    Example::

        spec = CampaignSpec(name="fig4", benchmarks=["ising_J1.00"],
                            qubit_sizes=[4], noise_scales=[1.0, 2.0],
                            methods=["cafqa", "clapton"], seeds=[0, 1])
        store = ResultStore.create("fig4.campaign", spec)
        CampaignRunner(spec, store, executor=ProcessExecutor(4)).run()
    """

    def __init__(self, spec: CampaignSpec, store: ResultStore,
                 executor: Executor | None = None):
        self.spec = spec
        self.store = store
        self.executor = executor

    def pending_tasks(self, retry_failed: bool = True) -> list[TaskSpec]:
        """Tasks the store has not completed, in grid order."""
        skip = self.store.completed_ids()
        if not retry_failed:
            skip = skip | self.store.failed_ids()
        return [t for t in self.spec.tasks() if t.task_id not in skip]

    def run(self, *, resume: bool = True, retry_failed: bool = True,
            max_tasks: int | None = None,
            on_record: Callable[[dict], None] | None = None,
            retry: RetryPolicy | None = None) -> CampaignProgress:
        """Execute (the rest of) the campaign.

        Args:
            resume: Skip task ids the store already completed.  With
                ``False`` every grid cell reruns (records are re-appended;
                latest wins).
            retry_failed: Also rerun cells whose last record failed.
            max_tasks: Stop after this many task executions (smoke tests,
                simulated interruptions).
            on_record: Callback fired after each record is checkpointed
                (CLI progress lines).
            retry: In-run retry policy for failed cells (CLI ``sweep
                --max-attempts``).  The default keeps the historical
                behavior: one execution per cell per invocation.  Every
                record is stamped with its 1-based ``attempt`` (counting
                the store's prior records for that id, so cross-invocation
                retries keep counting) and the deterministic
                ``backoff_seconds`` the policy imposed before it.
        """
        retry = retry or NO_RETRY
        tasks = self.spec.tasks()
        if resume:
            skip = self.store.completed_ids()
            if not retry_failed:
                skip = skip | self.store.failed_ids()
            pending = [t for t in tasks if t.task_id not in skip]
        else:
            pending = tasks
        if max_tasks is not None:
            pending = pending[:max_tasks]
        progress = CampaignProgress(total=len(tasks),
                                    skipped=len(tasks) - len(pending))
        executor = self.executor or SerialExecutor()
        tracer = get_tracer()
        start = time.perf_counter()
        queue, round_number = pending, 1
        while queue:
            delay = retry.delay(round_number)
            if delay > 0:
                time.sleep(delay)
                tracer.event("campaign.backoff_idle", delay,
                             round=round_number)
            failures: list[TaskSpec] = []
            for wave_index, wave in enumerate(
                    _waves(queue, _wave_size(executor))):
                with tracer.span("campaign.wave", wave=wave_index,
                                 size=len(wave), round=round_number):
                    records = executor.map(execute_task,
                                           [t.to_dict() for t in wave])
                for task, record in zip(wave, records):
                    record["attempt"] = \
                        self.store.attempts(record["task_id"]) + 1
                    record["backoff_seconds"] = delay
                    self.store.append(record)
                    progress.ran += 1
                    if record["status"] == STATUS_FAILED:
                        failures.append(task)
                    if on_record is not None:
                        on_record(record)
            if not failures or retry.exhausted(round_number):
                progress.failed = len(failures)
                progress.failed_ids = [t.task_id for t in failures]
                break
            progress.retried += len(failures)
            queue, round_number = failures, round_number + 1
        progress.seconds = time.perf_counter() - start
        return progress


#: Checkpoint wave for parallel executors that do not expose a worker
#: count (the Executor protocol only requires map/close): big enough to
#: feed a typical pool, small enough that a crash loses little.
_DEFAULT_WAVE = 8


def _wave_size(executor: Executor) -> int:
    """Tasks dispatched per checkpoint wave.

    Serial backends checkpoint after every task; pools get one task per
    worker per wave (falling back to :data:`_DEFAULT_WAVE` for pool
    types without a ``max_workers`` attribute), so a crash loses at
    most one in-flight wave.
    """
    if executor.in_process_sequential:
        return 1
    return max(1, getattr(executor, "max_workers", None) or _DEFAULT_WAVE)


def _waves(items: list, size: int):
    for i in range(0, len(items), size):
        yield items[i:i + size]
