"""Fingerprint regression gate over committed benchmark artifacts.

The five benchmark JSON artifacts CI gates (``BENCH_fig2.json``,
``BENCH_ingest.json``, ``BENCH_cluster.json``, ``BENCH_codec.json``,
``BENCH_scan.json``) carry a ``fingerprint`` column per row: a SHA-256
over every catalog row and every stored payload byte of the store that
cell built (for the codec artifact, over the packed stream).  Those
fingerprints are *deterministic* — the datasets are seeded, placement is
canonical, and the whole point of the conformance grids is that no
backend or workers degree may change a stored byte — so the committed
artifacts double as a golden record of the storage format.  CI rebuilds
the artifacts and runs this gate against the committed copies: a
mismatch means a code change silently altered what the system stores
(an encoding, placement, or framing regression), which must be an
explicit, reviewed artifact update — never an accident.

Rows are matched on their *identity columns* (``backend``, ``workers``,
``chain_depth``, ...): every non-volatile column two rows share.
Wall-clock and throughput columns are volatile by nature and ignored.
A committed row with no fresh counterpart fails too — shrinking
coverage is also a regression.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Measurement columns that legitimately change run to run.
VOLATILE_COLUMNS = frozenset({
    "select_seconds", "ingest_seconds", "versions_per_sec",
    "mb_per_sec", "seconds", "identical_to_serial",
    "insert_seconds", "read_seconds", "killed_read_seconds",
    "rebalance_seconds", "repair_seconds", "repair_mb_per_sec",
    "rebalance_read_p50_ms",
})

#: The column the gate compares.
FINGERPRINT_COLUMN = "fingerprint"


def row_key(row: dict) -> tuple:
    """A row's identity: its non-volatile, non-fingerprint columns."""
    return tuple(sorted(
        (name, value) for name, value in row.items()
        if name not in VOLATILE_COLUMNS and name != FINGERPRINT_COLUMN
        and not isinstance(value, float)))


def compare_rows(committed: list[dict],
                 fresh: list[dict]) -> list[str]:
    """Compare two artifact row sets; returns human-readable failures.

    An empty list means the gate passes: every committed row has a
    fresh counterpart with an identical fingerprint.  Fresh rows with
    no committed counterpart (a grid that *grew*) pass — the enlarged
    artifact should be committed by the same change that grew it.
    """
    failures: list[str] = []
    committed_with_prints = [row for row in committed
                            if FINGERPRINT_COLUMN in row]
    if not committed_with_prints:
        return [f"committed artifact has no {FINGERPRINT_COLUMN!r}"
                " column: the gate would vacuously pass; regenerate"
                " the artifact"]
    fresh_by_key: dict[tuple, dict] = {row_key(row): row
                                       for row in fresh}
    for row in committed_with_prints:
        key = row_key(row)
        counterpart = fresh_by_key.get(key)
        label = ", ".join(f"{name}={value}" for name, value in key)
        if counterpart is None:
            failures.append(f"[{label}] committed row has no fresh"
                            " counterpart (grid shrank?)")
        elif counterpart.get(FINGERPRINT_COLUMN) != \
                row[FINGERPRINT_COLUMN]:
            failures.append(
                f"[{label}] fingerprint mismatch: committed "
                f"{row[FINGERPRINT_COLUMN][:12]}... != fresh "
                f"{str(counterpart.get(FINGERPRINT_COLUMN))[:12]}...")
    return failures


def check_artifact(committed_path: str | Path,
                   fresh_path: str | Path) -> list[str]:
    """Load two artifact files and compare them (see
    :func:`compare_rows`)."""
    committed = json.loads(Path(committed_path).read_text())
    fresh = json.loads(Path(fresh_path).read_text())
    return compare_rows(committed, fresh)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: ``regression.py <committed.json> <fresh.json>``."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Fail when a fresh bench artifact's fingerprints"
                    " diverge from the committed golden copy.")
    parser.add_argument("committed", help="committed artifact JSON")
    parser.add_argument("fresh", help="freshly generated artifact JSON")
    args = parser.parse_args(argv)
    failures = check_artifact(args.committed, args.fresh)
    if failures:
        print(f"bench fingerprint regression ({args.fresh}):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"{args.fresh}: fingerprints match {args.committed}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
