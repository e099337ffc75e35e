"""Parallel experiment engine: fault-tolerant fan-out over worker processes.

Every figure in the paper is an average over independent seeds, and
every seed is an independent single-threaded simulation — an
embarrassingly parallel workload.  :class:`ParallelRunner` takes a
list of fully-seeded configs of any type registered in :data:`UNITS`
(the Fig. 2 :class:`~repro.experiments.topology.ScenarioConfig`, the
congestion, handoff, CSDP and interactive studies) as work units,
consults an optional
:class:`~repro.experiments.cache.ResultCache` and
:class:`~repro.experiments.journal.CampaignJournal`, and dispatches
only the remaining misses one unit at a time over a supervised pool
of forked worker processes.  With one worker the units run in-process,
but every attempt still takes the pool's path through timeout, retry
and quarantine handling.

The supervision layer is what makes long campaigns survivable:

* **Per-unit submission** — each unit is sent to a worker and its
  result collected individually, so one bad unit can never poison a
  batch the way a chunked ``pool.map`` does.
* **Watchdogs** — a unit gets a wall-clock budget (``timeout``).  The
  worker aborts cooperatively via the engine watchdog
  (:class:`~repro.engine.simulator.WallClockExceeded`) and writes a
  replay bundle naming the hung config; if the worker itself is stuck
  (not even reaching the watchdog), the supervisor SIGKILLs it after
  a grace period and respawns a fresh one.
* **Retry with backoff** — timeouts and worker crashes are retried up
  to :class:`~repro.experiments.faults.RetryPolicy.max_retries` times
  with exponential backoff and full jitter; deterministic unit errors
  are never retried.
* **Quarantine / graceful degradation** — a unit that fails every
  attempt is recorded as a structured
  :class:`~repro.experiments.faults.UnitFailure` and the campaign
  continues (``fail_fast=False``) or aborts with a taxonomy exception
  (``fail_fast=True``, the library default).
* **Durability** — every completed summary is written to the cache
  and journal the moment it lands, and SIGINT/SIGTERM raise
  :class:`~repro.experiments.faults.CampaignInterrupted` after
  flushing, so an interrupted campaign resumes instead of restarting.

Every registered type is built on a topology class — the Fig. 2
:class:`~repro.experiments.topology.Scenario` or a study's — that names
the connections and wireless ports the invariant checkers watch, so a
``validate=True`` campaign checks every study, and ``repro replay``
re-runs any unit's bundle on the topology that produced it.

Workers return each unit's picklable summary: a :class:`RunSummary`
(the metrics the aggregation layer reads) for a ``ScenarioConfig``, and
the study's own result dataclass for every other type.  Results come
back in input order, so the aggregates downstream are bit-identical to
a serial run over the same seeds, faults or no faults.
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine.simulator import WallClockExceeded
from repro.experiments import topology
from repro.experiments.cache import ResultCache, qualify, resolve
from repro.experiments.faults import (
    FAULT_CRASH,
    FAULT_ERROR,
    FAULT_TIMEOUT,
    CampaignInterrupted,
    CompletenessReport,
    RetryPolicy,
    UnitFailure,
)
from repro.experiments.journal import CampaignJournal
from repro.experiments.topology import ScenarioConfig, ScenarioResult
from repro.metrics import ConnectionMetrics

_log = logging.getLogger(__name__)

#: The supervisor hard-kills a worker this long after the cooperative
#: in-worker watchdog should have fired: ``timeout * factor + slack``.
HARD_KILL_FACTOR = 1.5
HARD_KILL_SLACK = 1.0

#: Poll granularity of the supervision loop, seconds.  Bounds how
#: stale the watchdog/interrupt checks can get; results themselves
#: wake the loop immediately.
POLL_INTERVAL = 0.05


@dataclass(frozen=True)
class RunSummary:
    """The picklable essence of one scenario run.

    Exactly what replication/sweep aggregation consumes: the connection
    metrics, the completion flag, the theoretical ceiling, and the
    seeded config the run was built from.  ``trace`` is always ``None``
    — replicated runs disable tracing — and exists so summary objects
    satisfy the same reads (``r.trace``, ``r.config.seed``, ...) that
    full results do.
    """

    config: ScenarioConfig
    metrics: ConnectionMetrics
    completed: bool
    tput_th_bps: float
    trace: None = None


def summarize(result: ScenarioResult) -> RunSummary:
    """Collapse a full scenario result to its picklable summary."""
    return RunSummary(
        config=result.config,
        metrics=result.metrics,
        completed=result.completed,
        tput_th_bps=result.tput_th_bps,
    )


#: Config type -> the topology it is built on, both as import paths
#: resolved on use, so a campaign imports only the modules its own
#: configs need.  Every topology takes the invariant checkers, the
#: event log and ``repro replay``.
UNITS: Dict[str, str] = {
    "repro.experiments.topology:ScenarioConfig": "repro.experiments.topology:Scenario",
    "repro.experiments.congestion:CongestedScenarioConfig": (
        "repro.experiments.congestion:CongestedScenario"
    ),
    "repro.handoff.topology:HandoffConfig": "repro.handoff.topology:HandoffScenario",
    "repro.csdp.study:CsdpStudyConfig": "repro.csdp.study:CsdpStudy",
    "repro.workloads.interactive:InteractiveConfig": (
        "repro.workloads.interactive:InteractiveSession"
    ),
}


def topology_of(config: Any) -> type:
    """The topology class ``config`` is built on; ``TypeError`` naming
    the config's type when it is not a registered campaign unit."""
    try:
        return resolve(UNITS[qualify(type(config))])
    except KeyError:
        name = type(config).__qualname__
        raise TypeError(f"{name} is not a registered campaign unit") from None


def scheme_name(config: Any) -> str:
    """The scheme a unit's config runs, as a failure record names it (a
    CSDP study varies its scheduler, not a scheme)."""
    scheme = getattr(config, "scheme", None)
    return config.scheduler if scheme is None else scheme.value


def run_unit(
    config: Any, wall_timeout: Optional[float] = None, validate: Optional[bool] = None
) -> Any:
    """Worker entry point: run one seeded config, return its summary.

    A scenario's summary is its :class:`RunSummary`; every other
    topology's is what its ``simulate`` returns.  ``validate=None``
    follows the process default; ``wall_timeout`` arms the engine's
    watchdog.
    """
    built_on = topology_of(config)
    if built_on is topology.Scenario:
        # Looked up on the module per call, so a patch of run_scenario
        # reaches forked workers.
        return summarize(
            topology.run_scenario(config, validate=validate, wall_timeout=wall_timeout)
        )
    return built_on.simulate(config, validate, wall_timeout=wall_timeout)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count request.

    ``None``/``1`` → serial; ``0`` or negative → one worker per CPU.
    """
    if workers is None:
        return 1
    if workers <= 0:
        return os.cpu_count() or 1
    return workers


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The fork start method, or ``None`` where unavailable.

    Fork keeps worker startup at microseconds (no re-import of the
    package per worker); on platforms without it we stay serial rather
    than pay spawn's interpreter boot per pool.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _write_hang_bundle(config: Any, elapsed: float) -> Optional[str]:
    """Record a timed-out config as a replay bundle; best-effort.

    The bundle names the exact (config, seed, code) point that hung,
    so ``repro replay <bundle>`` reproduces the runaway run under a
    debugger instead of leaving "it timed out once" unactionable.
    """
    try:
        from repro.validate.bundle import write_bundle
        from repro.validate.engine import Violation

        violation = Violation(
            checker="watchdog",
            time=elapsed,
            message=f"unit exceeded its wall-clock budget after {elapsed:.2f}s",
        )
        return str(write_bundle(config, [violation], log=None))
    except Exception:  # pragma: no cover - bundle dir unwritable etc.
        return None


@dataclass
class _RemoteError:
    """A worker exception that could not be pickled whole."""

    type_name: str
    message: str


def _portable_error(exc: BaseException):
    """``exc`` itself when it pickles, else a :class:`_RemoteError`."""
    try:
        pickle.dumps(exc)
        return exc
    except Exception:
        return _RemoteError(type(exc).__name__, str(exc))


def _attempt(
    unit_fn, index: int, config: Any, wall_timeout: Optional[float]
) -> Tuple:
    """Run one attempt at a unit and return its outcome as a tagged tuple::

        ("ok",      index, summary)
        ("timeout", index, message, bundle_path)
        ("err",     index, exception_or_remote_error)

    Both executors feed this message to the same fault handling: pool
    workers send it over their pipe, serial runs call this in-process.
    ``KeyboardInterrupt`` propagates so serial mode can turn Ctrl-C
    into :class:`~repro.experiments.faults.CampaignInterrupted`.
    """
    started = time.monotonic()
    try:
        return ("ok", index, unit_fn(config, wall_timeout))
    except WallClockExceeded:
        bundle = _write_hang_bundle(config, time.monotonic() - started)
        return (
            "timeout",
            index,
            f"wall-clock budget of {wall_timeout:g}s exceeded",
            bundle,
        )
    except KeyboardInterrupt:
        raise
    except BaseException as exc:
        return ("err", index, _portable_error(exc))


def _worker_main(conn, unit_fn) -> None:
    """Worker process loop: receive a unit, :func:`_attempt` it, send
    the outcome message.

    SIGINT is ignored (the terminal delivers Ctrl-C to the whole
    process group; shutdown is the supervisor's decision, via a
    ``None`` sentinel or SIGKILL).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        try:
            conn.send(_attempt(unit_fn, *task))
        except (BrokenPipeError, OSError):  # pragma: no cover - parent died
            break


@dataclass
class _Task:
    """Supervisor-side state of one work unit."""

    index: int  #: position in the campaign's config list
    config: Any
    key: Optional[str]
    attempts: int = 0  #: executions consumed so far
    errors: List[str] = field(default_factory=list)
    not_before: float = 0.0  #: monotonic time the next attempt may start
    bundle_path: Optional[str] = None


def _pop_ready(pending: "deque[_Task]", now: float) -> Optional[_Task]:
    """Remove and return the first task whose backoff has elapsed."""
    for i, task in enumerate(pending):
        if task.not_before <= now:
            del pending[i]
            return task
    return None


class _WorkerHandle:
    """One supervised worker process and its duplex pipe."""

    def __init__(self, context, unit_fn) -> None:
        self.conn, child_conn = multiprocessing.Pipe()
        self.process = context.Process(
            target=_worker_main, args=(child_conn, unit_fn), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.task: Optional[_Task] = None
        self.started_at: float = 0.0

    def assign(self, task: _Task, wall_timeout: Optional[float]) -> None:
        self.task = task
        self.started_at = time.monotonic()
        self.conn.send((task.index, task.config, wall_timeout))

    def overdue(self, hard_timeout: Optional[float]) -> bool:
        """True when the current unit blew even the hard-kill deadline."""
        return (
            self.task is not None
            and hard_timeout is not None
            and time.monotonic() - self.started_at > hard_timeout
        )

    def kill(self) -> None:
        """SIGKILL the worker and reap it."""
        try:
            self.process.kill()
            self.process.join()
        finally:
            self.conn.close()

    def stop(self) -> None:
        """Graceful shutdown: sentinel, short join, then kill."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=1.0)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.kill()
            self.process.join()
        self.conn.close()


@dataclass
class CampaignResult:
    """Outcome of one campaign: ordered summaries plus completeness.

    ``summaries[i]`` is ``None`` exactly when unit ``i`` was
    quarantined; ``report.quarantined`` says why.
    """

    summaries: List[Optional[Any]]
    report: CompletenessReport

    def require_complete(self) -> List[Any]:
        """All summaries, or the first quarantined unit's exception."""
        if self.report.quarantined:
            raise self.report.quarantined[0].to_exception()
        assert all(s is not None for s in self.summaries)
        return self.summaries  # type: ignore[return-value]


class ParallelRunner:
    """Runs batches of seeded configs of registered types with fault tolerance.

    These parameters are the campaign knobs.  They are declared here
    only: :func:`~repro.experiments.runner.run_replicated`,
    :func:`~repro.experiments.runner.sweep` and the ``figure_*``
    functions forward their ``**campaign`` keywords unchanged.

    Parameters
    ----------
    workers:
        Process count.  ``1`` (default) runs in-process; ``0`` means
        one per CPU.
    cache:
        Optional :class:`ResultCache`; hits skip simulation entirely
        and fresh results are written back per unit, immediately.
    validate:
        Run every simulated unit under the invariant engine
        (:mod:`repro.validate`), whatever its type.  Cache hits skip
        simulation and are therefore not re-validated.
    timeout:
        Per-unit wall-clock budget in seconds; ``None`` disables the
        watchdogs.  In pool mode a unit that overshoots is aborted
        cooperatively (or its worker hard-killed at
        ``timeout * 1.5 + 1`` as a backstop); in serial mode only the
        cooperative engine watchdog applies.
    retries:
        Re-runs allowed per timed-out or crashed unit.  ``None`` uses
        the :class:`RetryPolicy` default (2 retries, exponential
        backoff with full jitter).
    fail_fast:
        When ``True`` (default) the first quarantined unit aborts the
        campaign with its taxonomy exception; when ``False`` the
        campaign degrades gracefully to partial results plus a
        completeness report.
    journal:
        Optional :class:`CampaignJournal`.  Completed units are
        journaled immediately and journaled units are skipped, which
        is what ``--resume`` builds on.
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        cache: Optional[ResultCache] = None,
        validate: bool = False,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        fail_fast: bool = True,
        journal: Optional[CampaignJournal] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.cache = cache
        self.validate = validate
        self.timeout = timeout
        self.retry = RetryPolicy() if retries is None else RetryPolicy(retries)
        self.fail_fast = fail_fast
        self.journal = journal

    @property
    def _unit(self):
        return partial(run_unit, validate=True if self.validate else None)

    # -- key/bookkeeping helpers ------------------------------------------

    def _key(self, config: Any) -> Optional[str]:
        if self.cache is not None:
            return self.cache.key(config)
        if self.journal is not None:
            return self.journal.key(config)
        return None

    def _quarantine(
        self, task: _Task, kind: str, message: str, failures: Dict[int, UnitFailure]
    ) -> None:
        """Record a unit that failed for good; raise in fail-fast mode."""
        failure = UnitFailure(
            index=task.index,
            key=task.key,
            seed=task.config.seed,
            scheme=scheme_name(task.config),
            kind=kind,
            message=message,
            attempts=task.attempts,
            bundle_path=task.bundle_path,
        )
        if self.journal is not None:
            self.journal.record_failure(failure)
        if self.fail_fast:
            raise failure.to_exception()
        _log.warning("quarantined: %s", failure.describe())
        failures[task.index] = failure

    def _retry_or_quarantine(
        self,
        task: _Task,
        kind: str,
        message: str,
        pending: "deque[_Task]",
        failures: Dict[int, UnitFailure],
    ) -> None:
        """Requeue a retryable fault with backoff, or quarantine it."""
        task.errors.append(f"attempt {task.attempts}: {kind}: {message}")
        if task.attempts <= self.retry.max_retries:
            delay = self.retry.delay(task.attempts - 1, task.key or str(task.index))
            task.not_before = time.monotonic() + delay
            _log.warning(
                "unit %d (seed %d): %s — retry %d/%d in %.2fs",
                task.index,
                task.config.seed,
                kind,
                task.attempts,
                self.retry.max_retries,
                delay,
            )
            pending.append(task)
        else:
            self._quarantine(task, kind, "; ".join(task.errors), failures)

    # -- execution paths ---------------------------------------------------

    def _run_serial(self, pending, deliver, failures, check_interrupt) -> None:
        """In-process executor on the pool's fault path.

        Each attempt goes through :func:`_attempt` and
        :meth:`_on_message` exactly as a worker's would.  No worker
        process exists, so nothing can crash or need a hard kill:
        timeouts rely on the engine's cooperative watchdog alone.
        """
        while pending:
            check_interrupt()
            task = _pop_ready(pending, time.monotonic())
            if task is None:  # everything pending is backing off
                time.sleep(POLL_INTERVAL)
                continue
            task.attempts += 1
            try:
                message = _attempt(self._unit, task.index, task.config, self.timeout)
            except KeyboardInterrupt:
                check_interrupt(signal.SIGINT)  # raises
            self._on_message(task, message, deliver, pending, failures)

    def _run_supervised(self, pending, deliver, failures, check_interrupt) -> None:
        """Supervised pool: per-unit dispatch, watchdogs, retry, respawn."""
        context = _fork_context()
        assert context is not None  # dispatch guarantees this
        hard_timeout = (
            self.timeout * HARD_KILL_FACTOR + HARD_KILL_SLACK
            if self.timeout is not None
            else None
        )
        n_workers = min(self.workers, len(pending))
        workers = [_WorkerHandle(context, self._unit) for _ in range(n_workers)]

        def outstanding() -> int:
            return len(pending) + sum(1 for w in workers if w.task is not None)

        try:
            while outstanding():
                check_interrupt()
                now = time.monotonic()
                # Hand ready units to idle workers (skipping tasks
                # still inside their backoff window).
                for worker in workers:
                    if worker.task is None and pending:
                        task = _pop_ready(pending, now)
                        if task is None:
                            break  # everything pending is backing off
                        task.attempts += 1
                        worker.assign(task, self.timeout)
                busy = [w for w in workers if w.task is not None]
                if not busy:
                    time.sleep(POLL_INTERVAL)
                    continue
                # Wake on a result, a worker death, or the poll tick.
                multiprocessing.connection.wait(
                    [w.conn for w in busy] + [w.process.sentinel for w in busy],
                    timeout=POLL_INTERVAL,
                )
                for worker in busy:
                    if worker.task is None:
                        continue
                    if worker.conn.poll():
                        try:
                            message = worker.conn.recv()
                        except (EOFError, OSError):
                            # A dead worker's pipe polls readable (EOF).
                            self._on_crash(
                                worker, workers, context, pending, failures
                            )
                            continue
                        task, worker.task = worker.task, None
                        self._on_message(task, message, deliver, pending, failures)
                    elif not worker.process.is_alive():
                        self._on_crash(worker, workers, context, pending, failures)
                    elif worker.overdue(hard_timeout):
                        self._on_hard_timeout(
                            worker, workers, context, pending, failures
                        )
        finally:
            for worker in workers:
                if worker.process.is_alive() and worker.task is None:
                    worker.stop()
                else:
                    worker.kill()

    def _on_message(self, task, message, deliver, pending, failures) -> None:
        """Act on one :func:`_attempt` outcome, from either executor."""
        kind = message[0]
        if kind == "ok":
            deliver(task.index, message[2])
        elif kind == "timeout":
            task.bundle_path = message[3]
            self._retry_or_quarantine(
                task, FAULT_TIMEOUT, message[2], pending, failures
            )
        else:  # "err": deterministic unit failure — never retried
            error = message[2]
            if not isinstance(error, BaseException):
                detail = f"{error.type_name}: {error.message}"
            elif self.fail_fast:
                raise error
            else:
                detail = f"{type(error).__name__}: {error}"
            self._quarantine(task, FAULT_ERROR, detail, failures)

    def _respawn(self, worker, workers, context) -> None:
        """Replace a dead/killed worker in place."""
        workers[workers.index(worker)] = _WorkerHandle(context, self._unit)

    def _on_crash(self, worker, workers, context, pending, failures) -> None:
        task = worker.task
        worker.task = None
        worker.process.join(timeout=1.0)  # reap so exitcode is real
        exitcode = worker.process.exitcode
        worker.kill()  # reap + close the pipe
        self._respawn(worker, workers, context)
        self._retry_or_quarantine(
            task,
            FAULT_CRASH,
            f"worker process died (exit code {exitcode})",
            pending,
            failures,
        )

    def _on_hard_timeout(self, worker, workers, context, pending, failures) -> None:
        task = worker.task
        worker.task = None
        worker.kill()
        self._respawn(worker, workers, context)
        if task.bundle_path is None:
            task.bundle_path = _write_hang_bundle(
                task.config, time.monotonic() - worker.started_at
            )
        self._retry_or_quarantine(
            task,
            FAULT_TIMEOUT,
            f"worker unresponsive past the hard deadline "
            f"({self.timeout:g}s budget); killed",
            pending,
            failures,
        )

    # -- campaign orchestration -------------------------------------------

    def run_campaign(self, configs: Sequence[Any]) -> CampaignResult:
        """Run every config with full fault handling.

        Returns a :class:`CampaignResult`: summaries in input order
        (``None`` for quarantined units) and a
        :class:`~repro.experiments.faults.CompletenessReport`.
        Completed units are written to the cache/journal the moment
        they land, so any crash or interrupt preserves them.
        """
        configs = list(configs)
        n = len(configs)
        summaries: List[Optional[Any]] = [None] * n
        keys: List[Optional[str]] = [None] * n
        from_cache = from_journal = 0
        # Accumulated wall-clock cost of write-back durability (mutable
        # cell so the deliver closure can add to it).
        write_seconds = {"cache": 0.0, "journal": 0.0}
        tasks: List[_Task] = []
        for i, config in enumerate(configs):
            keys[i] = self._key(config)
            if self.cache is not None:
                summaries[i] = self.cache.get(keys[i])
                if summaries[i] is not None:
                    from_cache += 1
                    continue
            if self.journal is not None:
                summaries[i] = self.journal.get(keys[i])
                if summaries[i] is not None:
                    from_journal += 1
                    # Promote journal hits into the cache: the journal
                    # is per-campaign, the cache lives on.
                    if self.cache is not None:
                        t0 = time.perf_counter()
                        self.cache.put(keys[i], summaries[i])
                        write_seconds["cache"] += time.perf_counter() - t0
                    continue
            tasks.append(_Task(index=i, config=config, key=keys[i]))

        def deliver(index: int, summary: Any) -> None:
            summaries[index] = summary
            if self.cache is not None and keys[index] is not None:
                t0 = time.perf_counter()
                self.cache.put(keys[index], summary)
                write_seconds["cache"] += time.perf_counter() - t0
            if self.journal is not None:
                t0 = time.perf_counter()
                self.journal.record(keys[index], summary)
                write_seconds["journal"] += time.perf_counter() - t0

        def completed() -> int:
            return sum(1 for s in summaries if s is not None)

        interrupted: Dict[str, Optional[int]] = {"sig": None}

        def check_interrupt(signum: Optional[int] = None) -> None:
            """Raise :class:`CampaignInterrupted` once a signal arrived."""
            signum = signum or interrupted["sig"]
            if signum is not None:
                raise CampaignInterrupted(
                    signum,
                    completed(),
                    n,
                    str(self.journal.path) if self.journal else None,
                )

        failures: Dict[int, UnitFailure] = {}
        if tasks:

            def _flag(signum, frame):
                interrupted["sig"] = signum

            previous: List[Tuple[int, object]] = []
            try:
                for signum in (signal.SIGINT, signal.SIGTERM):
                    previous.append((signum, signal.signal(signum, _flag)))
            except ValueError:
                # Not the main thread: signals stay with their owner.
                pass
            execute = self._run_serial
            if self.workers > 1 and len(tasks) > 1:
                if _fork_context() is None:
                    _log.warning(
                        "fork start method unavailable: running %d "
                        "unit(s) serially despite --workers %d "
                        "(spawn would re-import the package per "
                        "worker; hard-kill watchdogs disabled)",
                        len(tasks),
                        self.workers,
                    )
                else:
                    execute = self._run_supervised
            try:
                execute(deque(tasks), deliver, failures, check_interrupt)
            finally:
                for signum, handler in previous:
                    signal.signal(signum, handler)

        report = CompletenessReport(
            total=n,
            completed=completed(),
            from_cache=from_cache,
            from_journal=from_journal,
            quarantined=tuple(
                failures[i] for i in sorted(failures)
            ),
            cache_write_seconds=write_seconds["cache"],
            journal_write_seconds=write_seconds["journal"],
        )
        return CampaignResult(summaries=summaries, report=report)

    def run(self, configs: Sequence[Any]) -> List[Any]:
        """Run every config, in input order; raise on any quarantine.

        The strict interface: callers that cannot use partial results
        get the first failure as its taxonomy exception.  Use
        :meth:`run_campaign` for graceful degradation.
        """
        return self.run_campaign(configs).require_complete()
