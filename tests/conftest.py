"""Shared fixtures for the test suite.

The suite honors one environment knob the CI matrix sweeps:
``REPRO_BACKEND``, the default storage backend spec of every manager
(``resolve_backend``), so ``object`` runs the same subset against the
S3-style object path (ranged GETs, multipart staging).  It is
validated once, up front: a matrix cell with a typo must fail the
whole session loudly, not silently test the local path under an
object label.

The pipelines' fan width is the host's CPU count, not a setting; a
test that must run both the inline path and the pooled one takes the
:func:`fan_width` fixture, which pins it.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.storage import pipeline
from repro.storage.backend import ensure_backend_spec


@pytest.fixture(scope="session", autouse=True)
def _validate_matrix_env() -> None:
    """Fail fast on a malformed ``REPRO_BACKEND``."""
    spec = os.environ.get("REPRO_BACKEND")
    if spec:
        ensure_backend_spec(spec)


@pytest.fixture(params=[1, 4], ids=lambda width: f"width{width}")
def fan_width(request, monkeypatch) -> int:
    """Pin the pipelines' fan width: 1 runs every task inline on the
    calling thread, 4 through the pools, whatever the host has."""
    monkeypatch.setattr(pipeline, "FAN_WIDTH", request.param)
    return request.param


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator shared across tests."""
    return np.random.default_rng(20120401)


@pytest.fixture
def smooth_field(rng: np.random.Generator) -> np.ndarray:
    """A smooth 2-D float field resembling the NOAA rasters."""
    x = np.linspace(0, 4 * np.pi, 64)
    y = np.linspace(0, 2 * np.pi, 48)
    base = np.sin(x)[None, :] * np.cos(y)[:, None]
    return (base * 100 + rng.normal(0, 0.1, size=(48, 64))).astype(np.float32)
