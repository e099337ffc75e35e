"""Experiment harness: topologies, per-figure configs, sweep runner.

* :mod:`repro.experiments.topology` — builds the paper's three-node
  FH—BS—MH simulation (Fig. 2) for any scheme (basic TCP, local
  recovery, EBSN, source quench, snoop) and runs one connection.
* :mod:`repro.experiments.config` — the exact parameter sets of the
  paper's WAN (§5.1) and LAN (§5.2) studies.
* :mod:`repro.experiments.runner` — seed replication, mean/stddev,
  parameter sweeps.
* :mod:`repro.experiments.parallel` — process-pool fan-out of seeded
  work units (the parallel experiment engine).
* :mod:`repro.experiments.cache` — content-addressed on-disk result
  cache keyed by config + seed + code version.
* :mod:`repro.experiments.faults` — fault taxonomy, retry policy,
  and completeness reporting for campaign execution.
* :mod:`repro.experiments.journal` — append-only checkpoint journal
  behind ``--resume``.
* :mod:`repro.experiments.points` — the WAN and LAN config builders,
  the table spec every figure, table, claim and sweep is, and running
  a set of specs as one campaign.
* :mod:`repro.experiments.figures` — one spec per paper figure: its
  points and the table it prints.
* :mod:`repro.experiments.ascii_plot` — terminal rendering of series.

Nothing is re-exported here: importing the package loads no campaign
module, so a run that needs only :mod:`~repro.experiments.topology`
does not compile the pool, cache and journal.  Import each name from
its defining module.
"""
