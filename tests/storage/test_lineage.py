"""Tests for version lineage (trees and, with Merge, DAGs) as the
catalog records it.

Section II-A: "it would be helpful for a DBMS to keep track of the
relationships between these objects".  The store keeps them in three
places: each version row's ``parent_version`` (temporal inserts), the
branch's :class:`ArrayRecord` (``parent_array@parent_version``) and
the merge parents of each merge version.  These tests read the whole
hierarchy back from exactly those, and through ``repro-cli versions``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core.errors import ArrayNotFoundError, VersionNotFoundError
from repro.core.schema import ArraySchema
from repro.storage import VersionedStorageManager


@pytest.fixture
def tree_store(tmp_path, rng):
    manager = VersionedStorageManager(tmp_path, chunk_bytes=4096)
    manager.create_array("raw", ArraySchema.simple((8, 8),
                                                   dtype=np.int32))
    data = rng.integers(0, 99, (8, 8)).astype(np.int32)
    manager.insert("raw", data)
    manager.insert("raw", data + 1)
    manager.branch("raw", 1, "cookedA")
    manager.insert("cookedA", data * 2)
    manager.branch("raw", 2, "cookedB")
    yield manager
    manager.close()


def _lineage(manager) -> tuple[set[str], set[tuple[str, str, str]]]:
    """Every version of the store as ``name@version``, and every
    recorded ``(parent, child, kind)`` edge between them."""
    nodes: set[str] = set()
    edges: set[tuple[str, str, str]] = set()
    for name in manager.list_arrays():
        snap = manager.catalog.snapshot(name)
        for row in snap.get_versions():
            child = f"{name}@{row.version}"
            nodes.add(child)
            if row.parent_version is not None:
                edges.add((f"{name}@{row.parent_version}", child,
                           "insert"))
            if row.kind == "branch-root":
                origin = snap.record
                edges.add((f"{origin.parent_array}@"
                           f"{origin.parent_version}", child, "branch"))
            for array, version in snap.merge_parents_of(row.version):
                edges.add((f"{array}@{version}", child, "merge"))
    return nodes, edges


class TestLineageTree:
    def test_nodes_and_edges(self, tree_store):
        nodes, edges = _lineage(tree_store)
        assert nodes == {"raw@1", "raw@2", "cookedA@1", "cookedA@2",
                         "cookedB@1"}
        assert ("raw@1", "raw@2", "insert") in edges
        assert ("raw@1", "cookedA@1", "branch") in edges
        assert ("raw@2", "cookedB@1", "branch") in edges
        assert ("cookedA@1", "cookedA@2", "insert") in edges

    def test_roots(self, tree_store):
        nodes, edges = _lineage(tree_store)
        children = {child for _, child, _ in edges}
        assert nodes - children == {"raw@1"}

    def test_navigation(self, tree_store):
        _, edges = _lineage(tree_store)
        assert {c for p, c, _ in edges if p == "raw@1"} == \
            {"raw@2", "cookedA@1"}
        assert {p for p, c, _ in edges if c == "cookedB@1"} == {"raw@2"}

    def test_is_tree_without_merges(self, tree_store):
        _, edges = _lineage(tree_store)
        children = [child for _, child, _ in edges]
        assert len(children) == len(set(children))

    def test_unknown_node(self, tree_store):
        with pytest.raises(VersionNotFoundError):
            tree_store.catalog.snapshot("raw").get_version(3)
        with pytest.raises(ArrayNotFoundError):
            tree_store.catalog.snapshot("ghost")


class TestLineageWithMerge:
    def test_merge_makes_dag(self, tree_store):
        tree_store.merge([("raw", 2), ("cookedA", 2)], "combined")
        _, edges = _lineage(tree_store)
        # "The existence of merge allows the version hierarchy to be a
        # graph and not strictly a tree."
        children = [child for _, child, _ in edges]
        assert len(children) > len(set(children))
        assert "raw@2" in {p for p, c, _ in edges if c == "combined@1"}

    def test_merge_edges_kind(self, tree_store):
        tree_store.merge([("raw", 2), ("cookedA", 2)], "combined")
        _, edges = _lineage(tree_store)
        assert {(p, c) for p, c, kind in edges if kind == "merge"} == \
            {("raw@2", "combined@1"), ("cookedA@2", "combined@2")}


class TestRendering:
    def test_text_output(self, tree_store, tmp_path, capsys):
        tree_store.merge([("raw", 2), ("cookedA", 2)], "combined")
        tree_store.close()
        assert main([str(tmp_path), "versions", "combined"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("v1  kind=merge")
        assert "merged-from=[('raw', 2)]" in lines[0]
        assert "parent=v1" in lines[1]
        assert "merged-from=[('cookedA', 2)]" in lines[1]
