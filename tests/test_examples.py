"""Smoke tests: every shipped example must run cleanly end to end."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, tmp_path):
    # The child does not inherit pytest's ``pythonpath``: hand it this
    # checkout's source tree first, so an uninstalled checkout runs it.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(script), str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=env)
    assert result.returncode == 0, \
        f"{script.name} failed:\n{result.stdout}\n{result.stderr}"
    assert result.stdout.strip(), f"{script.name} printed nothing"


def test_example_inventory():
    """The README promises at least these walk-throughs."""
    names = {path.stem for path in EXAMPLES}
    for expected in ("quickstart", "weather_versions",
                     "astronomy_branching", "sparse_conceptnet",
                     "optimizer_tour", "distributed_cluster"):
        assert expected in names
