"""The bench-artifact fingerprint regression gate."""

from __future__ import annotations

import json

import pytest

from check_bench_regression import check_artifact, compare_rows, row_key


def _row(backend="local", workers=1, fingerprint="aa" * 32, **extra):
    return {"backend": backend, "workers": workers,
            "pack_mb_per_sec": 500.0, "identical_to_serial": True,
            "fingerprint": fingerprint, **extra}


class TestRowKey:
    def test_ignores_volatile_and_float_columns(self):
        fast = _row(pack_mb_per_sec=900.0, identical_to_serial=True)
        slow = _row(pack_mb_per_sec=1.2, identical_to_serial=False)
        assert row_key(fast) == row_key(slow)

    def test_distinguishes_identity_columns(self):
        assert row_key(_row(workers=1)) != row_key(_row(workers=4))
        assert row_key(_row(backend="local")) != \
            row_key(_row(backend="object"))

    def test_fingerprint_is_not_identity(self):
        assert row_key(_row(fingerprint="aa" * 32)) == \
            row_key(_row(fingerprint="bb" * 32))


class TestCompareRows:
    def test_identical_artifacts_pass(self):
        rows = [_row(workers=1), _row(workers=4)]
        assert compare_rows(rows, rows) == []

    def test_throughput_drift_passes(self):
        committed = [_row(pack_mb_per_sec=500.0)]
        fresh = [_row(pack_mb_per_sec=50.0)]
        assert compare_rows(committed, fresh) == []

    def test_fingerprint_mismatch_fails(self):
        committed = [_row(fingerprint="aa" * 32)]
        fresh = [_row(fingerprint="bb" * 32)]
        failures = compare_rows(committed, fresh)
        assert len(failures) == 1
        assert "mismatch" in failures[0]
        assert "backend=local" in failures[0]

    def test_missing_fresh_row_fails(self):
        committed = [_row(workers=1), _row(workers=4)]
        fresh = [_row(workers=1)]
        failures = compare_rows(committed, fresh)
        assert len(failures) == 1
        assert "no fresh counterpart" in failures[0]

    def test_grown_grid_passes(self):
        # New cells in the fresh artifact are fine: the same change
        # that grew the grid commits the enlarged artifact.
        committed = [_row(workers=1)]
        fresh = [_row(workers=1), _row(workers=4),
                 _row(backend="object")]
        assert compare_rows(committed, fresh) == []

    def test_committed_artifact_without_fingerprints_fails(self):
        # The gate must never vacuously pass against a stale artifact
        # that predates the fingerprint column.
        committed = [{"backend": "local", "workers": 1}]
        fresh = [_row()]
        failures = compare_rows(committed, fresh)
        assert len(failures) == 1
        assert "no 'fingerprint' column" in failures[0]


class TestCheckArtifact:
    def test_round_trip_through_files(self, tmp_path):
        committed = tmp_path / "committed.json"
        fresh = tmp_path / "fresh.json"
        committed.write_text(json.dumps([_row()]))
        fresh.write_text(json.dumps([_row()]))
        assert check_artifact(committed, fresh) == []
        fresh.write_text(json.dumps([_row(fingerprint="cc" * 32)]))
        assert len(check_artifact(committed, fresh)) == 1

    def test_real_committed_artifacts_self_compare(self):
        # The artifacts committed at the repo root must always pass
        # the gate against themselves (and must carry fingerprints —
        # a regenerated artifact that lost the column would disarm CI).
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        for name in ("BENCH_fig2.json", "BENCH_ingest.json",
                     "BENCH_cluster.json", "BENCH_codec.json",
                     "BENCH_scan.json"):
            artifact = root / name
            if not artifact.exists():
                pytest.skip(f"{name} not present")
            assert check_artifact(artifact, artifact) == []
