"""Tests for range partitioning and rebalance-plan geometry."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import RangePartitioner, rebalance_plan
from repro.core.errors import DimensionError, StorageError


class TestBands:
    def test_even_split(self):
        partitioner = RangePartitioner((12, 8), nodes=3)
        assert [(b.lo, b.hi) for b in partitioner.bands] == \
            [(0, 3), (4, 7), (8, 11)]

    def test_uneven_split_spreads_remainder(self):
        partitioner = RangePartitioner((10, 8), nodes=3)
        lengths = [band.length for band in partitioner.bands]
        assert lengths == [4, 3, 3]
        assert sum(lengths) == 10

    def test_partition_other_axis(self):
        partitioner = RangePartitioner((4, 10), nodes=2, axis=1)
        assert partitioner.local_shape(0) == (4, 5)
        assert partitioner.local_shape(1) == (4, 5)

    def test_too_many_nodes_rejected(self):
        with pytest.raises(StorageError):
            RangePartitioner((2, 100), nodes=3)

    def test_invalid_axis(self):
        with pytest.raises(DimensionError):
            RangePartitioner((4, 4), nodes=2, axis=5)

    def test_zero_nodes(self):
        with pytest.raises(StorageError):
            RangePartitioner((4, 4), nodes=0)


class TestRouting:
    @pytest.fixture
    def partitioner(self) -> RangePartitioner:
        return RangePartitioner((12, 6), nodes=3)

    def test_node_for_cell(self, partitioner):
        def node(cell):
            [band] = partitioner.bands_overlapping(cell, cell)
            return band.node
        assert node((0, 0)) == 0
        assert node((3, 5)) == 0
        assert node((4, 0)) == 1
        assert node((11, 5)) == 2

    def test_to_local(self, partitioner):
        def local(node, cell):
            return partitioner.clip_region(partitioner.band_of(node),
                                           cell, cell)[0]
        assert local(1, (4, 3)) == (0, 3)
        assert local(2, (11, 0)) == (3, 0)

    def test_bands_overlapping_one(self, partitioner):
        hits = partitioner.bands_overlapping((1, 0), (2, 5))
        assert [band.node for band in hits] == [0]

    def test_bands_overlapping_straddle(self, partitioner):
        hits = partitioner.bands_overlapping((3, 0), (8, 5))
        assert [band.node for band in hits] == [0, 1, 2]

    def test_clip_region(self, partitioner):
        band = partitioner.band_of(1)  # rows 4..7
        lo, hi = partitioner.clip_region(band, (3, 1), (8, 4))
        assert lo == (0, 1)
        assert hi == (3, 4)

    @settings(max_examples=50, deadline=None)
    @given(extent=st.integers(4, 200), nodes=st.integers(1, 4),
           data=st.data())
    def test_bands_cover_extent_exactly(self, extent, nodes, data):
        partitioner = RangePartitioner((extent, 4), nodes=nodes)
        covered = []
        for band in partitioner.bands:
            covered.extend(range(band.lo, band.hi + 1))
        assert covered == list(range(extent))
        # Every cell routes to the one band containing it.
        cell = data.draw(st.integers(0, extent - 1))
        [band] = partitioner.bands_overlapping((cell, 0), (cell, 0))
        assert band.lo <= cell <= band.hi


class TestPartitionRoundtrip:
    """Partition → reassemble is the identity for random schemas."""

    @settings(max_examples=50, deadline=None)
    @given(extent=st.integers(4, 60), other=st.integers(1, 6),
           nodes=st.integers(1, 4), axis=st.integers(0, 1),
           seed=st.integers(0, 2**31 - 1))
    def test_partition_then_reassemble_identity(self, extent, other,
                                                nodes, axis, seed):
        shape = (extent, other) if axis == 0 else (other, extent)
        partitioner = RangePartitioner(shape, nodes=nodes, axis=axis)
        data = np.random.default_rng(seed).integers(
            0, 1000, shape).astype(np.int32)
        # Partition: slice each band out in its local frame ...
        parts = []
        for band in partitioner.bands:
            index = tuple(
                np.s_[band.lo:band.hi + 1] if dim == axis else np.s_[:]
                for dim in range(len(shape)))
            part = data[index]
            assert part.shape == partitioner.local_shape(band.node)
            parts.append(part)
        # ... reassemble: concatenation along the axis restores the
        # original exactly (disjoint bands, full cover, stable order).
        np.testing.assert_array_equal(
            np.concatenate(parts, axis=axis), data)


class TestRebalancePlan:
    def test_slabs_are_disjoint_and_cover_the_domain(self):
        old = RangePartitioner((10, 4), nodes=3)
        new = RangePartitioner((10, 4), nodes=4)
        plan = rebalance_plan(old, new)
        rows = sorted(row for slab in plan
                      for row in range(slab.lo, slab.hi + 1))
        assert rows == list(range(10))

    def test_slabs_route_between_owning_bands(self):
        old = RangePartitioner((12, 4), nodes=2)
        new = RangePartitioner((12, 4), nodes=3)
        for slab in rebalance_plan(old, new):
            source = old.band_of(slab.source)
            target = new.band_of(slab.target)
            assert source.lo <= slab.lo <= slab.hi <= source.hi
            assert target.lo <= slab.lo <= slab.hi <= target.hi

    def test_deterministic_for_a_fixed_seed(self):
        old = RangePartitioner((40, 4), nodes=3)
        new = RangePartitioner((40, 4), nodes=5)
        assert rebalance_plan(old, new, seed=7) == \
            rebalance_plan(old, new, seed=7)
        # A different seed permutes the schedule without changing the
        # set of moves.
        other = rebalance_plan(old, new, seed=8)
        assert sorted(other, key=lambda s: (s.lo, s.hi)) == \
            sorted(rebalance_plan(old, new, seed=7),
                   key=lambda s: (s.lo, s.hi))

    def test_mismatched_geometry_rejected(self):
        with pytest.raises(StorageError, match="shapes"):
            rebalance_plan(RangePartitioner((10, 4), nodes=2),
                           RangePartitioner((12, 4), nodes=2))
        with pytest.raises(StorageError, match="axes"):
            rebalance_plan(RangePartitioner((10, 10), nodes=2, axis=0),
                           RangePartitioner((10, 10), nodes=2, axis=1))

    @settings(max_examples=60, deadline=None)
    @given(extent=st.integers(6, 120), old_nodes=st.integers(1, 6),
           new_nodes=st.integers(1, 6), seed=st.integers(0, 1000))
    def test_plan_properties_hold_for_random_geometries(
            self, extent, old_nodes, new_nodes, seed):
        old = RangePartitioner((extent, 3), nodes=old_nodes)
        new = RangePartitioner((extent, 3), nodes=new_nodes)
        plan = rebalance_plan(old, new, seed=seed)
        # Deterministic for a fixed seed.
        assert plan == rebalance_plan(old, new, seed=seed)
        # Disjoint slabs covering the axis exactly once.
        rows = sorted(row for slab in plan
                      for row in range(slab.lo, slab.hi + 1))
        assert rows == list(range(extent))
        # Each slab is owned by its source and destined for its target.
        for slab in plan:
            assert old.band_of(slab.source).lo <= slab.lo
            assert slab.hi <= old.band_of(slab.source).hi
            assert new.band_of(slab.target).lo <= slab.lo
            assert slab.hi <= new.band_of(slab.target).hi
