"""Runtime invariant-validation engine.

The paper's claims are protocol invariants: EBSN never touches the
congestion window, link-layer ARQ never exceeds its RTmax attempt
budget, every transferred byte is delivered exactly once.  Fixed-
parameter scenario tests assert these at a handful of points; this
engine checks them *online*, on any run, by attaching observers to the
existing hook surfaces (the simulator's heap accounting, TCP source
callbacks, the wireless ports' ARQ machinery, the sink's delivery
path).

A :class:`Validator` wires a set of :class:`InvariantChecker` objects
into a built-but-not-yet-run topology: the Fig. 2
:class:`~repro.experiments.topology.Scenario` or any study's topology
registered in :data:`~repro.experiments.parallel.UNITS`, through the
``connections`` and ``ports`` it lists.  Checkers observe only
— they never consume randomness or change timing, so a validated run
is bit-identical to an unvalidated one.  The first violation always
aborts the run with :class:`InvariantViolationError`;
:func:`run_validated` then emits a *replay bundle* (see
:mod:`repro.validate.bundle`) from which ``repro replay`` reproduces
the failure deterministically.

A validated run records no event log.  Only a bundle needs one, and
bundles are rare, so :func:`run_validated` rebuilds the log when it
writes one: it re-runs the config with the log attached and the uid
counters pinned, up to the same violation.  Runs are deterministic, so
that log holds exactly what a log kept during the first run would have.

Validation is opt-in.  ``run_scenario(config, validate=True)`` turns
it on for one run; :func:`set_default_validation` (used by the test
suite's conftest) or ``REPRO_VALIDATE=1`` flips the process default.
Benchmarks leave it off so perf numbers are unaffected.
"""

from __future__ import annotations

import copy
import os
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation (picklable, primitive fields)."""

    checker: str
    time: float
    message: str

    def describe(self) -> str:
        """Human-readable one-liner."""
        return f"[{self.checker}] t={self.time:.6f}: {self.message}"


class InvariantViolationError(AssertionError):
    """Raised when a checker detects an invariant violation.

    Carries the violation records and (when :func:`run_validated`
    wrote one) the path of the replay bundle that reproduces the
    failure.  Defined with an explicit ``__reduce__`` so the error
    survives pickling across the parallel engine's process pool.
    """

    def __init__(
        self,
        message: str,
        violations: Sequence[Violation] = (),
        bundle_path: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.violations = tuple(violations)
        self.bundle_path = bundle_path

    def __reduce__(self):
        return (type(self), (self.message, self.violations, self.bundle_path))

    def __str__(self) -> str:
        if self.bundle_path:
            return f"{self.message}\nreplay bundle: {self.bundle_path}"
        return self.message


# ---------------------------------------------------------------------------
# Process-wide default (opt-in switch)
# ---------------------------------------------------------------------------

_default_validation: Optional[bool] = None


def set_default_validation(enabled: Optional[bool]) -> None:
    """Set the process-wide validation default.

    ``True``/``False`` override the environment; ``None`` restores
    "consult ``$REPRO_VALIDATE``".  The test suite's conftest turns
    this on so every ``run_scenario`` in tier-1 runs validated.
    """
    global _default_validation
    _default_validation = enabled


def validation_default() -> bool:
    """Whether runs validate when the caller does not say."""
    if _default_validation is not None:
        return _default_validation
    return os.environ.get("REPRO_VALIDATE", "").lower() not in ("", "0", "false", "no")


# ---------------------------------------------------------------------------
# Checker base and validator
# ---------------------------------------------------------------------------


class InvariantChecker:
    """Base class for pluggable invariant checkers.

    ``attach`` wires the checker's observers into a built scenario
    before it runs — by default, :meth:`watch` on each of its
    ``connections``; ``finalize`` runs end-of-run checks over the
    result.  Each receives a ``report(message)`` callable that records
    the violation (and, in fail-fast mode, aborts the run by raising).
    Checkers must be pure observers: no RNG draws, no scheduling, no
    state mutation visible to the system under test.
    """

    #: Stable identifier used in violation records and replay bundles.
    name = "checker"

    def attach(self, scenario, report) -> None:
        """Install observers on a built, not-yet-run scenario."""
        for sender, sink in scenario.connections:
            self.watch(sender, sink, report)

    def watch(self, sender, sink, report) -> None:
        """Install observers on one connection's sender and sink."""

    def finalize(self, scenario, result, report) -> None:
        """Check end-of-run invariants over the completed result."""


class Validator:
    """Attaches checkers to one scenario; the first violation aborts it."""

    def __init__(self, checkers: Sequence[InvariantChecker]) -> None:
        self.checkers = list(checkers)
        self.violations: List[Violation] = []
        self._scenario = None

    def attach(self, scenario) -> "Validator":
        """Wire every checker into ``scenario``; returns self."""
        self._scenario = scenario
        for checker in self.checkers:
            checker.attach(scenario, self._reporter(checker))
        return self

    def finalize(self, result) -> None:
        """Run every checker's end-of-run pass over ``result``."""
        for checker in self.checkers:
            checker.finalize(self._scenario, result, self._reporter(checker))

    def _reporter(self, checker: InvariantChecker):
        def report(message: str) -> None:
            now = self._scenario.sim.now if self._scenario is not None else 0.0
            violation = Violation(checker=checker.name, time=now, message=message)
            self.violations.append(violation)
            raise InvariantViolationError(
                f"invariant violated {violation.describe()}",
                violations=tuple(self.violations),
            )

        return report


def run_validated(scenario, bundle_dir=None, checkers=None, wall_timeout=None):
    """Run a built scenario under the invariant engine.

    Only the checkers are attached; the run records no event log.  On
    violation, writes a replay bundle (canonical config + seed +
    event-log tail) and re-raises the :class:`InvariantViolationError`
    with ``bundle_path`` set.  ``bundle_dir`` chooses where bundles
    land (``None`` = the default directory, ``False`` = don't write
    one — the replay path uses this to avoid bundling the bundle).
    ``wall_timeout`` arms the engine's wall-clock watchdog, exactly as
    in the unvalidated path.

    The bundle's log tail comes from :func:`_rebuild_log`, a second run
    of the config that gets only what is left of ``wall_timeout``.
    Whatever that re-run does, the error raised is the original one.
    """
    from repro.validate.checkers import default_checkers

    started = time.monotonic()
    # The re-run needs checkers in their pre-attach state, so copy the
    # caller's before this run wires them in.
    spare = (
        copy.deepcopy(checkers)
        if checkers is not None and bundle_dir is not False
        else None
    )
    validator = Validator(
        checkers if checkers is not None else default_checkers(scenario)
    )
    validator.attach(scenario)
    try:
        result = scenario.run(wall_timeout=wall_timeout)
        validator.finalize(result)
    except InvariantViolationError as err:
        if bundle_dir is not False:
            # Only a violation writes a bundle, so only it loads the
            # bundle module (and with it the cache layer and pickle).
            from repro.validate.bundle import write_bundle

            budget = None
            if wall_timeout is not None:
                budget = max(0.0, wall_timeout - (time.monotonic() - started))
            log, violations = _rebuild_log(scenario.config, spare, budget)
            # The re-run's records carry pinned uids, like its log; keep
            # them only if it hit the same failure.
            if not violations or _first(violations) != _first(err.violations):
                violations = err.violations
            err.bundle_path = str(
                write_bundle(scenario.config, violations, log, bundle_dir)
            )
        raise
    return result


def _first(violations):
    """Checker and time of the first violation, or ``None``."""
    return (violations[0].checker, violations[0].time) if violations else None


def _rebuild_log(config, checkers, wall_timeout):
    """Re-run ``config`` with an event log, up to its first violation.

    Returns the log and the violations the re-run raised (empty when
    it raised none).  The config's type picks the topology
    (:func:`~repro.experiments.parallel.topology_of`).  Uids are
    pinned, so the log depends only on the config and the code.
    ``checkers`` are fresh, unattached checkers (``None`` = the
    default set).  If the re-run runs out of ``wall_timeout``, the log
    holds what was recorded up to that point.
    """
    from repro.engine.simulator import WallClockExceeded
    from repro.experiments.parallel import topology_of
    from repro.metrics.eventlog import attach_to_scenario
    from repro.net.packet import pinned_uids
    from repro.validate.checkers import default_checkers

    with pinned_uids():
        replay = topology_of(config)(config)
        log = attach_to_scenario(replay)
        validator = Validator(
            checkers if checkers is not None else default_checkers(replay)
        )
        validator.attach(replay)
        try:
            validator.finalize(replay.run(wall_timeout=wall_timeout))
        except InvariantViolationError as err:
            return log, err.violations
        except WallClockExceeded:
            # The caller still raises its violation, never a timeout.
            pass
    return log, ()
