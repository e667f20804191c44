"""Tests for flagging, Berger-Rigoutsos clustering, and load balancing."""

import numpy as np
import pytest
from geometry_oracle import cell_indices, contains, intersects
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.box import Box
from repro.regrid.berger_rigoutsos import cluster_tags, efficiency
from repro.regrid.flagging import (
    TagThresholds,
    compute_tags,
    pack_tags,
    unpack_tags,
)
from repro.regrid.load_balance import assign_owners, chop_boxes, imbalance

NX = NY = 16
G = 2


def cellarr(fill=1.0):
    return np.full((NX + 2 * G, NY + 2 * G), fill)


class TestFlaggingHeuristic:
    def test_uniform_state_no_tags(self):
        tags = compute_tags(cellarr(), cellarr(), cellarr(), NX, NY, G,
                            TagThresholds())
        assert not tags.any()

    def test_density_jump_tagged(self):
        d = cellarr()
        d[:G + 8, :] = 8.0  # jump inside the interior at i=8
        tags = compute_tags(d, cellarr(), cellarr(), NX, NY, G, TagThresholds())
        assert tags[7, :].all() and tags[8, :].all()
        assert not tags[0, :].any() and not tags[15, :].any()

    def test_thresholds_respected(self):
        d = cellarr()
        d[:G + 8, :] = 1.1  # 10% jump
        loose = compute_tags(d, cellarr(), cellarr(), NX, NY, G,
                             TagThresholds(0.5, 0.5, 0.5))
        tight = compute_tags(d, cellarr(), cellarr(), NX, NY, G,
                             TagThresholds(0.01, 0.5, 0.5))
        assert not loose.any()
        assert tight.any()

    def test_energy_and_pressure_also_tag(self):
        e = cellarr()
        e[:, :G + 4] = 5.0
        tags = compute_tags(cellarr(), e, cellarr(), NX, NY, G, TagThresholds())
        assert tags.any()


class TestTagCompression:
    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_pack_unpack_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 40)), int(rng.integers(1, 40)))
        tags = rng.random(shape) < 0.3
        assert np.array_equal(unpack_tags(pack_tags(tags), shape), tags)

    def test_compression_ratio(self):
        tags = np.zeros((64, 64), dtype=bool)
        packed = pack_tags(tags)
        # int tags would be 16 KiB; bits are 512 bytes (32x smaller, the
        # paper's motivation for compressing before the PCIe transfer)
        assert packed.nbytes == 64 * 64 // 8


class TestBergerRigoutsos:
    def test_empty(self):
        assert cluster_tags(np.empty((0, 2), dtype=int)) == []

    def test_single_cluster(self):
        pts = np.array([[i, j] for i in range(4) for j in range(4)])
        boxes = cluster_tags(pts)
        assert len(boxes) == 1
        assert boxes[0] == Box([0, 0], [3, 3])

    def test_two_separated_clusters_split_at_hole(self):
        a = [[i, j] for i in range(4) for j in range(4)]
        b = [[i + 20, j] for i in range(4) for j in range(4)]
        boxes = cluster_tags(np.array(a + b), min_size=2)
        assert len(boxes) == 2
        assert Box([0, 0], [3, 3]) in boxes
        assert Box([20, 0], [23, 3]) in boxes

    def test_efficiency_threshold_met(self):
        rng = np.random.default_rng(0)
        pts = np.unique(rng.integers(0, 64, size=(800, 2)), axis=0)
        boxes = cluster_tags(pts, min_efficiency=0.5, min_size=4)
        covered = set()
        for b in boxes:
            for idx in cell_indices(b):
                covered.add(idx)
        for p in map(tuple, pts):
            assert p in covered

    def test_boxes_disjoint(self):
        rng = np.random.default_rng(1)
        pts = np.unique(rng.integers(0, 48, size=(300, 2)), axis=0)
        boxes = cluster_tags(pts, min_efficiency=0.8, min_size=2)
        for i, a in enumerate(boxes):
            for b in boxes[i + 1:]:
                assert not intersects(a, b)

    def test_diagonal_line_efficiency(self):
        """A diagonal front clusters far better than one bounding box."""
        pts = np.array([[i, i] for i in range(64)])
        boxes = cluster_tags(pts, min_efficiency=0.3, min_size=4)
        assert len(boxes) > 1
        total = sum(b.size() for b in boxes)
        assert total < 64 * 64 / 4  # much tighter than the bounding box

    @given(st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_coverage_property(self, seed):
        """Every tagged point ends up inside exactly one box."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        pts = np.unique(rng.integers(-20, 40, size=(n, 2)), axis=0)
        boxes = cluster_tags(pts, min_efficiency=0.7, min_size=3)
        for p in pts:
            hits = sum(1 for b in boxes if contains(b, p))
            assert hits == 1

    def test_efficiency_helper(self):
        pts = np.array([[0, 0], [1, 1]])
        assert efficiency(pts, Box([0, 0], [1, 1])) == 0.5


class TestChopBox:
    def test_no_chop_needed(self):
        b = Box([0, 0], [31, 31])
        assert chop_boxes([b], 64) == [b]

    def test_even_split(self):
        pieces = chop_boxes([Box([0, 0], [127, 31])], 64)
        assert len(pieces) == 2
        assert all(p.shape()[0] == 64 for p in pieces)

    def test_uneven_split_balanced(self):
        pieces = chop_boxes([Box([0, 0], [99, 0])], 64)
        widths = sorted(p.shape()[0] for p in pieces)
        assert widths == [50, 50]

    def test_both_axes(self):
        pieces = chop_boxes([Box([0, 0], [127, 127])], 64)
        assert len(pieces) == 4

    @given(st.integers(1, 200), st.integers(4, 64))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, extent, maxsize):
        b = Box([3, 5], [3 + extent - 1, 5 + extent - 1])
        pieces = chop_boxes([b], maxsize)
        assert sum(p.size() for p in pieces) == b.size()
        for p in pieces:
            assert max(p.shape()) <= maxsize
            assert b.contains_box(p)


class TestAssignOwners:
    def test_round_trip_counts(self):
        boxes = [Box([0, 0], [7, 7])] * 8
        owners = assign_owners(boxes, 4)
        assert sorted(owners.count(r) for r in range(4)) == [2, 2, 2, 2]

    def test_lpt_balances_unequal(self):
        boxes = [Box.from_shape((64, 64)), Box.from_shape((32, 32)),
                 Box.from_shape((32, 32)), Box.from_shape((32, 32)),
                 Box.from_shape((32, 32))]
        owners = assign_owners(boxes, 2)
        assert imbalance(boxes, owners, 2) == 1.0  # 4096 vs 4x1024 splits evenly

    def test_more_ranks_than_boxes(self):
        boxes = [Box([0, 0], [3, 3])]
        owners = assign_owners(boxes, 8)
        assert len(owners) == 1 and 0 <= owners[0] < 8

    def test_imbalance_metric(self):
        boxes = [Box.from_shape((4, 4)), Box.from_shape((4, 4))]
        assert imbalance(boxes, [0, 0], 2) == 2.0
        assert imbalance(boxes, [0, 1], 2) == 1.0
