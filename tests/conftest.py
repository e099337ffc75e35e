"""Shared fixtures for the test suite.

Three suite-wide policies live here:

* **Hypothesis profiles** — ``tier1`` (25 examples, the default) keeps
  the property suite inside the fast tier-1 budget; ``nightly`` (200
  examples) is what the scheduled CI job runs.  Select with
  ``REPRO_HYPOTHESIS_PROFILE=nightly``.
* **Validation default** — every scenario the tests run goes through
  the runtime invariant engine (:mod:`repro.validate`) unless a test
  opts out explicitly, so the whole suite doubles as an invariant
  sweep.  Benchmarks force the default off (see
  ``benchmarks/conftest.py``).
* **Private result cache** — ``REPRO_CACHE_DIR`` and
  ``REPRO_BUNDLE_DIR`` point at a per-session temporary directory, so
  no test reads or writes the user's ``~/.cache/repro-tcp-wireless``.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.engine import RandomStreams, Simulator
from repro.validate.engine import set_default_validation, validation_default

try:
    from hypothesis import HealthCheck, settings

    settings.register_profile(
        "tier1",
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile(
        "nightly",
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "tier1"))
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    pass


@pytest.fixture(scope="session", autouse=True)
def _validate_by_default():
    """Run every test-suite scenario under the invariant engine."""
    previous = validation_default()
    set_default_validation(True)
    yield
    set_default_validation(previous)


@pytest.fixture(scope="session", autouse=True)
def _private_cache_dirs(tmp_path_factory):
    """Keep every cache and bundle the suite writes out of ``$HOME``."""
    root = tmp_path_factory.mktemp("repro-cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(root / "results"))
        mp.setenv("REPRO_BUNDLE_DIR", str(root / "bundles"))
        yield


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for components under test."""
    return random.Random(12345)


@pytest.fixture
def streams() -> RandomStreams:
    """A deterministic stream factory."""
    return RandomStreams(seed=42)
