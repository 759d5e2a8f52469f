"""Fast integration runs of every benchmark experiment at tiny scale.

These are not the benchmarks (see ``benchmarks/``); they verify the
experiment harness end to end — data generation, store construction,
measurement, row structure — in seconds, so harness regressions surface
in the unit suite.
"""

from __future__ import annotations


from repro.bench import (
    ablations,
    fig2,
    materialization,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    workload_aware,
)
from repro.bench.harness import fmt_bytes, fmt_seconds


class TestHarnessFormatting:
    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512 B"
        assert fmt_bytes(2048) == "2.00 KB"
        assert fmt_bytes(3 * 2**20) == "3.00 MB"
        assert fmt_bytes(5 * 2**30) == "5.00 GB"

    def test_fmt_seconds(self):
        assert fmt_seconds(0.001) == "1.00 ms"
        assert fmt_seconds(1.5) == "1.50 s"


class TestTableExperiments:
    def test_table1_small(self):
        rows = table1.run(versions=3, shape=(24, 24), mpeg_radius=1,
                          quiet=True)
        assert [row["algorithm"] for row in rows] == [
            "Uncompressed", "Dense", "Sparse", "Hybrid",
            "MPEG-2-like Matcher", "BSDiff"]
        assert all(row["size_bytes"] > 0 for row in rows)

    def test_table2_small(self):
        rows = table2.run(versions=3, shape=(24, 24), quiet=True)
        assert [row["compression"] for row in rows] == [
            "Hybrid Delta only", "Lempel-Ziv", "Run-Length Encoding",
            "PNG compression", "JPEG 2000 compression"]
        assert all(row["query_seconds"] >= 0 for row in rows)

    def test_table3_small(self, tmp_path):
        rows = table3.run(versions=3, shape=(64, 64),
                          chunk_bytes=1024, workdir=str(tmp_path),
                          quiet=True)
        assert len(rows) == 4
        by_name = {row["method"]: row for row in rows}
        assert by_name["Uncompressed"]["subselect_bytes"] >= \
            by_name["Chunks"]["subselect_bytes"]

    def test_table4_small(self, tmp_path):
        rows = table4.run(versions=3, shape=(64, 64),
                          chunk_bytes=1024, workdir=str(tmp_path),
                          quiet=True)
        by_name = {row["method"]: row for row in rows}
        assert by_name["Chunks + Deltas"]["select_bytes"] < \
            by_name["Chunks"]["select_bytes"]

    def test_table5_small(self, tmp_path):
        rows = table5.run(versions=4, noaa_shape=(24, 24),
                          cnet_size=64, cnet_nnz=100,
                          chunk_bytes=2048, workdir=str(tmp_path),
                          quiet=True)
        assert len(rows) == 6  # 2 datasets x 3 configurations
        for row in rows:
            for workload in ("head", "random", "range", "update",
                             "mixed"):
                assert row[f"{workload}_seconds"] >= 0

    def test_table6_small(self, tmp_path):
        # >= 9 versions so the Git repack window (10+1 objects) exceeds
        # the scaled 8-tile memory budget, as at full scale.
        rows = table6.run(versions=9, shape=(64, 64),
                          chunk_bytes=1024, workdir=str(tmp_path),
                          quiet=True)
        by_name = {row["method"]: row for row in rows}
        assert by_name["Git"].get("oom")
        assert by_name["SVN"]["size_bytes"] > \
            by_name["Hybrid+LZ"]["size_bytes"]

    def test_table7_small(self, tmp_path):
        rows = table7.run(versions=4, shape=(24, 24),
                          workdir=str(tmp_path), quiet=True)
        assert {row["method"] for row in rows} == \
            {"Uncompressed", "Hybrid+LZ", "SVN", "Git"}


class TestMaterializationExperiments:
    def test_panorama_small(self):
        result = materialization.run_panorama(count=12, shape=(32, 32),
                                              period=4, quiet=True)
        assert result["optimal_bytes"] < result["linear_bytes"]

    def test_periodic_small(self):
        results = materialization.run_periodic(total=12, shape=(16, 16),
                                               quiet=True)
        for result in results:
            assert result["correct_encoding"]
            assert result["optimal_bytes"] < result["linear_bytes"] / 2

    def test_loadtime_small(self):
        result = materialization.run_loadtime(total=10, shape=(16, 16),
                                              quiet=True)
        assert result["optimal_seconds"] > 0
        assert result["sampled_matches_exact"]

    def test_linear_confirm_small(self):
        result = materialization.run_linear_confirm(versions=6,
                                                    shape=(16, 16),
                                                    quiet=True)
        assert result["all_edges_adjacent"]

    def test_workload_aware_small(self, tmp_path):
        result = workload_aware.run(versions=12, shape=(24, 24),
                                    range_length=6, overlap=2, runs=2,
                                    chunk_bytes=2048,
                                    workdir=str(tmp_path), quiet=True)
        assert result["io_model_cost"] <= result["space_model_cost"]

    def test_overlapping_ranges_geometry(self):
        ranges = workload_aware.overlapping_ranges(22, length=10,
                                                   overlap=4)
        assert ranges == [(1, 10), (7, 16), (13, 22)]
        for (f1, l1), (f2, _) in zip(ranges, ranges[1:]):
            assert l1 - f2 + 1 == 4  # exact overlap


class TestFigureAndAblations:
    def test_fig2_small(self, tmp_path):
        rows = fig2.run(max_chain=3, workdir=str(tmp_path), quiet=True)
        assert rows[2]["chunks_read"] == 6

    def test_fig2_workers_axis_and_json(self, tmp_path):
        import json

        out = tmp_path / "BENCH_fig2.json"
        rows = fig2.run(max_chain=3, workers=(1, 2),
                        workdir=str(tmp_path), json_path=out,
                        quiet=True)
        assert {row["workers"] for row in rows} == {1, 2}
        # The workers axis changes wall-clock only, never the I/O.
        for degree in (1, 2):
            for row in rows:
                if row["workers"] != degree:
                    continue
                assert row["file_opens"] == \
                    row["chunks_overlapping_query"]
                assert row["chunks_read"] == \
                    row["chain_depth"] * row["chunks_overlapping_query"]
        assert json.loads(out.read_text()) == rows

    def test_ingest_small(self, tmp_path):
        import json

        from repro.bench import ingest

        out = tmp_path / "BENCH_ingest.json"
        rows = ingest.run(versions=3, shape=(32, 32), chunk_bytes=1024,
                          backends=("memory", "durable"), workers=(1, 2),
                          repeats=1, workdir=str(tmp_path),
                          json_path=out, quiet=True)
        assert {row["workers"] for row in rows} == {1, 2}
        # The workers axis changes wall-clock only: one fingerprint
        # over catalog rows + payload bytes for the whole grid.
        assert len({row["fingerprint"] for row in rows}) == 1
        assert all(row["identical_to_serial"] for row in rows)
        for row in rows:
            assert row["encode_tasks"] == row["chunks_written"]
            assert row["versions_per_sec"] > 0
        assert json.loads(out.read_text()) == rows

    def test_chunk_sweep_small(self, tmp_path):
        rows = ablations.run_chunk_sweep(
            versions=3, shape=(64, 64), budgets=(1024, 8192),
            workdir=str(tmp_path), quiet=True)
        assert rows[1]["subselect_bytes"] >= rows[0]["subselect_bytes"]

    def test_placement_small(self, tmp_path):
        rows = ablations.run_placement(versions=4, shape=(32, 32),
                                       workdir=str(tmp_path), quiet=True)
        by_name = {row["placement"]: row for row in rows}
        assert by_name["colocated"]["files"] < \
            by_name["per-version"]["files"]

    def test_hybrid_threshold_small(self):
        rows = ablations.run_hybrid_threshold(versions=3,
                                              shape=(32, 32), quiet=True)
        optimal = rows[0]["size_bytes"]
        assert all(optimal <= row["size_bytes"] for row in rows[1:])
