"""Benchmark-suite configuration.

Each benchmark regenerates one paper table or figure (the
docs/paper.md index) and prints the paper-shaped rows with ``-s``.
Experiments are macro-benchmarks, so every one runs as a single
pedantic round — the interesting output is the printed table, with
pytest-benchmark recording the end-to-end wall clock.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""

    def runner(func, **kwargs):
        return benchmark.pedantic(lambda: func(**kwargs),
                                  rounds=1, iterations=1)

    return runner
