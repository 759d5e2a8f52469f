"""A failed kernel build degrades to numpy, but not silently.

With the numpy bit-pack fallbacks thinned to one kernel per job, a C
build that quietly failed costs real throughput; the operator must be
able to see that it happened and why.
"""

from __future__ import annotations

import logging
import stat
import tempfile

from repro.core import native


def test_failed_compile_warns_once_with_compiler_output(
        tmp_path, monkeypatch, caplog):
    fake_cc = tmp_path / "fake-cc"
    fake_cc.write_text("#!/bin/sh\n"
                       "echo 'kernels.c:1: error: boom' >&2\n"
                       "exit 3\n")
    fake_cc.chmod(fake_cc.stat().st_mode | stat.S_IXUSR)
    monkeypatch.setenv("CC", str(fake_cc))
    # Both cache roots must be empty, or a previously built library
    # would load without ever invoking the compiler.
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()

    with caplog.at_level(logging.WARNING, logger="repro.native"):
        assert native._compile() is None

    records = [r for r in caplog.records if r.name == "repro.native"]
    assert len(records) == 1  # one warning, not one per cache root
    message = records[0].getMessage()
    assert str(fake_cc) in message           # which compiler
    assert "exit status 3" in message        # how it ended
    assert "error: boom" in message          # what it said
    assert message.count("error: boom") == 2  # ...under each root
