"""Shared helpers for the figure benchmarks.

Each benchmark runs the experiment behind one paper figure or study
table and asserts the qualitative shape the paper reports.
pytest-benchmark wraps the computation, so `pytest benchmarks/
--benchmark-only` reports how long each takes.  The tables of
:data:`~repro.experiments.tables.TABLES` share one campaign (see
:func:`results`).  The benchmarks write no table: ``python -m repro
report`` regenerates the committed ``benchmarks/out`` tables and
REPORT.md.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.points import run_specs
from repro.experiments.tables import REPLICATIONS, TABLES

#: Replications per point, by default the committed tables'.  The
#: paper averaged enough runs to get stddev < 4%; REPRO_BENCH_REPS can
#: raise this for tighter curves.
DEFAULT_REPS = int(os.environ.get("REPRO_BENCH_REPS", REPLICATIONS))

#: Transfer-size scale factor (1.0 = the paper's sizes).  Lower it for
#: quick smoke runs: REPRO_BENCH_SCALE=0.25 pytest benchmarks/ ...
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Worker processes for the parallel experiment engine (seed fan-out).
#: 1 = serial (the default, and the most reproducible timing); 0 = one
#: worker per CPU.  REPRO_BENCH_WORKERS=4 pytest benchmarks/ ...
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))

#: Below 0.8x scale the runs are smoke tests: each benchmark still
#: runs and renders its table, but only sanity-level assertions
#: apply (tiny transfers over a fading link are far too noisy for the
#: paper-shape margins, which are calibrated at full scale).
STRICT = SCALE >= 0.8


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "table(name): the registered table (repro.experiments.tables.TABLES) "
        "a benchmark runs",
    )


@pytest.fixture(scope="session", autouse=True)
def _no_validation():
    """Benchmarks measure the simulator, not the invariant engine."""
    from repro.validate.engine import set_default_validation, validation_default

    previous = validation_default()
    set_default_validation(False)
    yield
    set_default_validation(previous)


def run_once(benchmark, fn):
    """Run a figure computation exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture(scope="session")
def _tables():
    """Each marked table's spec and results, once their campaign ran."""
    return {}


@pytest.fixture
def results(request, benchmark, _tables):
    """The results of the table the benchmark's ``table`` marker names,
    after its renderer ran over them.

    The tables of every selected benchmark run as one campaign
    (:func:`~repro.experiments.points.run_specs`), so a ``-k``
    selection runs only its own tables' points.  The first of their
    benchmarks in a session runs it, and its time is the whole
    campaign's; each later one times only its own render.
    """
    name = request.node.get_closest_marker("table").args[0]
    if _tables:
        spec, table = _tables[name]
        run_once(benchmark, lambda: spec.render(table))
    else:
        marked = {
            marker.args[0]
            for item in request.session.items
            for marker in item.iter_markers("table")
        }
        specs = {
            n: build(SCALE, DEFAULT_REPS) for n, build in TABLES.items() if n in marked
        }
        tables, _ = run_once(
            benchmark, lambda: run_specs(specs, DEFAULT_REPS, workers=WORKERS)
        )
        _tables.update((n, (spec, tables[n])) for n, spec in specs.items())
        spec, table = _tables[name]
        spec.render(table)
    return table
