"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import settings

from repro.core import codecs
from repro.workloads import zipf_stream

# A long fuzzing budget for property tests that do not pin their own
# max_examples (tests/test_decode_fuzz.py); loaded only on request:
#   HYPOTHESIS_PROFILE=long python -m pytest tests/test_decode_fuzz.py
settings.register_profile("long", max_examples=5_000, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "long":
    settings.load_profile("long")


@pytest.fixture
def rng():
    """A seeded generator; tests stay deterministic."""
    return np.random.default_rng(12345)


@pytest.fixture
def reference_checks(monkeypatch):
    """The JSON envelopes checked by re-encoding their parsed state.

    A ``json.v2`` payload whose state is stored canonically is checked
    over its stored bytes and never shows up here.
    """
    calls = []
    original = codecs.from_envelope

    def counting(envelope):
        calls.append(envelope)
        return original(envelope)

    monkeypatch.setattr(codecs, "from_envelope", counting)
    return calls


@pytest.fixture(scope="session")
def zipf_items():
    """A medium Zipf stream as a Python-int list (session-cached)."""
    return zipf_stream(20_000, alpha=1.2, universe=5_000, rng=7).tolist()


@pytest.fixture(scope="session")
def zipf_truth(zipf_items):
    """Exact counts for :func:`zipf_items`."""
    return Counter(zipf_items)


@pytest.fixture(scope="session")
def uniform_values():
    """A medium real-valued uniform stream (session-cached)."""
    return np.random.default_rng(11).random(2**14)
