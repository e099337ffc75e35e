"""Fault taxonomy and retry policy for campaign execution.

A *campaign* is a batch of independent simulation units (one seeded
:class:`~repro.experiments.topology.ScenarioConfig` each) run through
:class:`~repro.experiments.parallel.ParallelRunner`.  The paper's
results are averages over many such units, and the engine's job is to
keep a campaign alive the way EBSN keeps a TCP connection alive:
recover from local faults locally instead of restarting the world.

Four fault kinds exist, mirroring what can actually go wrong:

``timeout``
    The unit exceeded its wall-clock budget — the simulation is hung
    or runaway.  The supervisor kills the worker (or the in-worker
    watchdog aborts cooperatively) and retries; a replay bundle
    records the offending config for ``repro replay``.
``crash``
    The worker process died (OOM kill, segfault, chaos test).  The
    unit it was holding is retried on a fresh worker.
``error``
    The unit itself raised — a deterministic failure (e.g. an
    invariant violation).  Retrying cannot help, so it is never
    retried: it propagates in fail-fast mode or quarantines otherwise.
``unfinished``
    The unit ran to its simulated-time limit without finishing its
    transfer.  Its result is not averaged: the campaign aborts.

Timeouts and crashes are *environmental* and retried with exponential
backoff plus full jitter (the AWS-style policy: delay drawn uniformly
from ``[0, min(cap, base * 2**attempt))``, which decorrelates retry
storms).  A unit that exhausts its retry budget is **quarantined**: a
structured :class:`UnitFailure` is recorded, the campaign continues,
and the final :class:`CompletenessReport` says exactly what is
missing from the aggregates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

#: The structured failure kinds (``UnitFailure.kind`` values).
FAULT_TIMEOUT = "timeout"
FAULT_CRASH = "crash"
FAULT_ERROR = "error"
FAULT_UNFINISHED = "unfinished"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and full jitter.

    ``max_retries`` counts *re*-executions: a unit runs at most
    ``1 + max_retries`` times.  Delays are deterministic given the
    unit key (the jitter RNG is seeded from it), so campaigns remain
    reproducible end to end.
    """

    max_retries: int = 2
    backoff_base: float = 0.1
    backoff_cap: float = 5.0

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt`` (0-based), seconds."""
        ceiling = min(self.backoff_cap, self.backoff_base * (2.0 ** attempt))
        if ceiling <= 0:
            return 0.0
        return random.Random(f"{key}:{attempt}").uniform(0.0, ceiling)


@dataclass(frozen=True)
class UnitFailure:
    """Structured record of one failed work unit.

    Everything is a primitive so the record survives pickling,
    journalling as JSON, and display — no live exception objects.
    """

    index: int  #: position of the unit in the campaign's config list
    key: Optional[str]  #: content digest (when a cache/journal keyed it)
    seed: int
    scheme: str
    kind: str  #: one of the FAULT_* kinds
    message: str
    attempts: int  #: executions consumed (1 + retries)
    bundle_path: Optional[str] = None  #: replay bundle for hung units

    def describe(self) -> str:
        """Human-readable one-liner for reports and logs."""
        where = f"seed {self.seed}, scheme {self.scheme}"
        extra = f" [replay: {self.bundle_path}]" if self.bundle_path else ""
        return (
            f"unit {self.index} ({where}): {self.kind} after "
            f"{self.attempts} attempt(s) — {self.message}{extra}"
        )

    def to_exception(self) -> "CampaignError":
        """The taxonomy exception this failure raises in fail-fast mode."""
        if self.kind == FAULT_TIMEOUT:
            return UnitTimeout(self)
        if self.kind == FAULT_CRASH:
            return WorkerCrashed(self)
        return UnitQuarantined(self)


class CampaignError(RuntimeError):
    """Base of the campaign fault taxonomy.

    Carries the structured :class:`UnitFailure` and defines
    ``__reduce__`` so every subclass survives the trip through a
    process pool's pickler.
    """

    def __init__(self, failure: UnitFailure) -> None:
        super().__init__(failure.describe())
        self.failure = failure

    def __reduce__(self):
        return (type(self), (self.failure,))


class UnitTimeout(CampaignError):
    """A unit exceeded its wall-clock budget on every attempt."""


class WorkerCrashed(CampaignError):
    """A worker process died on every attempt at this unit."""


class UnitQuarantined(CampaignError):
    """A unit failed deterministically (or unclassifiably) and was
    quarantined, or never finished; the campaign's aggregates are
    missing this unit."""


class CampaignInterrupted(RuntimeError):
    """SIGINT/SIGTERM arrived mid-campaign.

    The journal (when one is attached) already holds every completed
    unit — the exception reports how much survives so the caller can
    exit cleanly and advise ``--resume``.
    """

    def __init__(
        self,
        signum: int,
        completed: int,
        total: int,
        journal_path: Optional[str] = None,
    ) -> None:
        name = {2: "SIGINT", 15: "SIGTERM"}.get(signum, f"signal {signum}")
        where = f"{completed}/{total} units complete"
        hint = f"; resume with --resume {journal_path}" if journal_path else ""
        super().__init__(f"campaign interrupted by {name} ({where}{hint})")
        self.signum = signum
        self.completed = completed
        self.total = total
        self.journal_path = journal_path

    def __reduce__(self):
        return (
            type(self),
            (self.signum, self.completed, self.total, self.journal_path),
        )


@dataclass(frozen=True)
class CompletenessReport:
    """What a campaign actually delivered, fault by fault.

    ``completed == total`` means full-fidelity aggregates; anything
    less is an explicit, enumerated degradation — never a silent one.
    """

    total: int
    completed: int
    from_cache: int = 0
    from_journal: int = 0
    quarantined: Tuple[UnitFailure, ...] = ()
    #: Wall-clock seconds spent writing finished units back to the
    #: result cache / crash journal during the campaign.  Durability
    #: is bought on the critical path (units are persisted the moment
    #: they land), so its cost is reported rather than hidden.
    cache_write_seconds: float = 0.0
    journal_write_seconds: float = 0.0

    @property
    def complete(self) -> bool:
        return self.completed == self.total

    @property
    def simulated(self) -> int:
        """Units executed fresh this campaign (not cache/journal hits)."""
        return self.completed - self.from_cache - self.from_journal

    def describe(self) -> str:
        """Multi-line human-readable completeness summary."""
        lines = [
            f"campaign: {self.completed}/{self.total} units completed "
            f"({self.simulated} simulated, {self.from_cache} from cache, "
            f"{self.from_journal} from journal)"
        ]
        if self.cache_write_seconds or self.journal_write_seconds:
            lines.append(
                f"write-back: cache {self.cache_write_seconds * 1e3:.1f} ms, "
                f"journal {self.journal_write_seconds * 1e3:.1f} ms"
            )
        if self.quarantined:
            lines.append(
                f"quarantined ({len(self.quarantined)} unit(s); aggregates "
                f"are PARTIAL):"
            )
            lines.extend(f"  - {f.describe()}" for f in self.quarantined)
        return "\n".join(lines)

