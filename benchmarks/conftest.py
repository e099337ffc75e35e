"""Shared helpers for the figure-regeneration benchmarks.

Each benchmark runs the experiment behind one paper figure, writes the
series it produces to ``benchmarks/out/<name>.txt`` (so the numbers
survive the run), echoes them to stdout, and asserts the qualitative
shape the paper reports.  pytest-benchmark wraps the whole figure
computation, so `pytest benchmarks/ --benchmark-only` both regenerates
every figure and reports how long each takes.  Figs 7-11 share one
campaign (see :func:`paper_figure`).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.figures import FIGURES, paper_figures

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
def _paper_results():
    """The results of Figs 7-11's shared campaign, once it has run."""
    return {}


@pytest.fixture
def paper_figure(benchmark, _paper_results):
    """``paper_figure(n)``: Fig ``n``'s table and the results it reads.

    Figs 7-11 run as one campaign (:func:`paper_figures`).  The first of
    their benchmarks in a session runs it, and its time is the whole
    campaign's; each later one times only its own render.
    """

    def figure(number):
        if not _paper_results:
            texts, campaign = run_once(
                benchmark,
                lambda: paper_figures(FIGURES, SCALE, DEFAULT_REPS, workers=WORKERS),
            )
            _paper_results.update(campaign.points)
            return texts[number], _paper_results
        text = run_once(
            benchmark,
            lambda: FIGURES[number].render(_paper_results, SCALE, DEFAULT_REPS),
        )
        return text, _paper_results

    return figure
