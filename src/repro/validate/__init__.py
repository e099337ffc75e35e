"""Runtime invariant validation with deterministic failure replay.

See :mod:`repro.validate.engine` for the architecture.  The usual
entry points:

* ``run_scenario(config, validate=True)`` — one validated run.
* ``run_replicated(..., validate=True)`` / ``sweep(..., validate=True)``
  — validated replication (also behind the CLI's ``--validate``).
* :func:`set_default_validation` — flip the process default (the test
  suite turns it on; benchmarks leave it off).
* :func:`replay_bundle` / ``repro replay <bundle>`` — reproduce a
  recorded violation deterministically.

Nothing is re-exported here; import each name from its defining
module (:mod:`~repro.validate.engine`, :mod:`~repro.validate.checkers`,
:mod:`~repro.validate.bundle`, :mod:`~repro.validate.oracles`), so an
unvalidated run loads none of them.
"""
