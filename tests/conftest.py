"""Shared fixtures for the test suite.

The suite honors one environment knob the CI matrix sweeps:
``REPRO_BACKEND``, the default storage backend spec of every manager
(``resolve_backend``), so ``object`` runs the same subset against the
S3-style object path (ranged GETs, multipart staging).  It is
validated once, up front: a matrix cell with a typo must fail the
whole session loudly, not silently test the local path under an
object label.

The store's CPU fan width is the host's CPU count, not a setting; a
test that must run both the inline path and the pooled one takes the
:func:`fan_width` fixture, which pins it, and a test that compares
widths within itself takes :func:`pin_fan`.  Both swap in a pool of
the pinned width for their scope (:func:`repro.storage.fan.lanes`,
one per width for the whole session), so the process's own pool never
runs a pinned test's tasks.  Code that takes no fixtures (a hypothesis
state machine) imports :func:`pinned_fan`, the context manager behind
both.

A whole read of the version a manager wrote last is one copy of its
hot slot, not a decode; a test that reads that head to exercise the
decode path drops the slot first with the :func:`cold` fixture.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
import pytest

from repro.storage import fan
from repro.storage.backend import ensure_backend_spec


@pytest.fixture(scope="session", autouse=True)
def _validate_matrix_env() -> None:
    """Fail fast on a malformed ``REPRO_BACKEND``."""
    spec = os.environ.get("REPRO_BACKEND")
    if spec:
        ensure_backend_spec(spec)


#: The pool of each pinned width.  Like the process's own, it outlives
#: every manager that fans on it, so tests share it.
_POOLS: dict = {}


@contextmanager
def pinned_fan(width: int):
    """The CPU fan ``width`` lanes wide for the block, on the pool of
    that width."""
    saved = fan.FAN_WIDTH, fan._cpu
    if width not in _POOLS:
        _POOLS[width] = fan.lanes(width)
    fan.FAN_WIDTH, fan._cpu = width, _POOLS[width]
    try:
        yield width
    finally:
        fan.FAN_WIDTH, fan._cpu = saved


@pytest.fixture(params=[1, 4], ids=lambda width: f"width{width}")
def fan_width(request) -> int:
    """Pin the CPU fan's width: 1 runs every task inline on the
    calling thread, 4 through the pool, whatever the host has."""
    with pinned_fan(request.param):
        yield request.param


@pytest.fixture
def pin_fan():
    """``with pin_fan(width):`` pins the CPU fan for a block — for a
    test that compares widths within itself."""
    return pinned_fan


def _cold(manager, name: str):
    """``manager`` with its hot slot's copy of array ``name`` dropped."""
    manager._hot.forget(name)
    return manager


@pytest.fixture
def cold():
    """``cold(manager, name)`` drops the hot slot's copy of array
    ``name`` and returns ``manager``, so the next whole read of the
    head it just wrote decodes the stored chunks, as a read of any
    older version does — for a test that exercises the fold, the chunk
    cache or their counters through that head."""
    return _cold


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
