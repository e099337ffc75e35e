"""Shared helpers for the figure-regeneration benchmarks.

Each benchmark runs the experiment behind one paper figure or study
table, writes the text its renderer in ``src/`` produces to
``benchmarks/out/<name>.txt``, echoes it, and asserts the qualitative
shape the paper reports.  pytest-benchmark wraps the computation, so
`pytest benchmarks/ --benchmark-only` both regenerates every table and
reports how long each takes.  The tables of
:data:`~repro.experiments.tables.TABLES` share one campaign (see
:func:`results`); the Figs 3-5 traces print through
:data:`~repro.experiments.figures.TRACES`.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.points import run_specs
from repro.experiments.tables import TABLES

OUT_DIR = Path(__file__).parent / "out"

#: Replications per point.  The paper averaged enough runs to get
#: stddev < 4%; REPRO_BENCH_REPS can raise this for tighter curves.
DEFAULT_REPS = int(os.environ.get("REPRO_BENCH_REPS", "10"))

#: Transfer-size scale factor (1.0 = the paper's sizes).  Lower it for
#: quick smoke runs: REPRO_BENCH_SCALE=0.25 pytest benchmarks/ ...
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Worker processes for the parallel experiment engine (seed fan-out).
#: 1 = serial (the default, and the most reproducible timing); 0 = one
#: worker per CPU.  REPRO_BENCH_WORKERS=4 pytest benchmarks/ ...
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))

#: Below 0.8x scale the runs are smoke tests: each benchmark still
#: regenerates and saves its figure, but only sanity-level assertions
#: apply (tiny transfers over a fading link are far too noisy for the
#: paper-shape margins, which are calibrated at full scale).
STRICT = SCALE >= 0.8


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "table(name): the registered table (repro.experiments.tables.TABLES) "
        "a benchmark regenerates",
    )


@pytest.fixture(scope="session", autouse=True)
def _no_validation():
    """Benchmarks measure the simulator, not the invariant engine."""
    from repro.validate.engine import set_default_validation, validation_default

    previous = validation_default()
    set_default_validation(False)
    yield
    set_default_validation(previous)


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture
def report(out_dir):
    """Write a figure's text report to disk and echo it."""

    def _report(name: str, text: str) -> None:
        path = out_dir / f"{name}.txt"
        path.write_text(text)
        print(f"\n{'=' * 72}\n{text}\n[written to {path}]")

    return _report


def run_once(benchmark, fn):
    """Run a figure computation exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture(scope="session")
def _tables():
    """Each marked table's spec and results, once their campaign ran."""
    return {}


@pytest.fixture
def results(request, benchmark, report, _tables):
    """The results of the table the benchmark's ``table`` marker names,
    after its text is written to ``benchmarks/out``.

    The tables of every selected benchmark run as one campaign
    (:func:`~repro.experiments.points.run_specs`), so a ``-k``
    selection runs only its own tables' points.  The first of their
    benchmarks in a session runs it, and its time is the whole
    campaign's; each later one times only its own render.
    """
    name = request.node.get_closest_marker("table").args[0]
    if _tables:
        spec, table = _tables[name]
        text = run_once(benchmark, lambda: spec.render(table))
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
        text = spec.render(table)
    report(name, text)
    return table
