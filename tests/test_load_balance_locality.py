"""Property tests for the Morton-curve load balancer."""

import numpy as np
import pytest
from geometry_oracle import intersects
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.box import Box
from repro.regrid.load_balance import (
    assign_owners,
    assign_owners_lpt,
    chop_boxes,
    imbalance,
)
from repro.regrid.sfc import morton_key


def tiled_boxes(n_tiles: int, tile: int = 8):
    """An n x n grid of equal tiles."""
    return [
        Box.from_shape((tile, tile), origin=(i * tile, j * tile))
        for i in range(n_tiles) for j in range(n_tiles)
    ]


class TestMortonKeys:
    def test_deterministic(self):
        b = Box([3, 5], [6, 9])
        assert morton_key(b) == morton_key(b)

    def test_distinct_centres_distinct_keys(self):
        a = Box([0, 0], [7, 7])
        b = Box([8, 0], [15, 7])
        assert morton_key(a) != morton_key(b)

    def test_negative_coordinates_supported(self):
        assert morton_key(Box([-8, -8], [-1, -1])) >= 0

    def test_locality_quadrants(self):
        """Tiles in the same quadrant sort adjacently on the curve."""
        boxes = tiled_boxes(4)
        order = sorted(range(16), key=lambda i: morton_key(boxes[i]))
        first_four = {order[0], order[1], order[2], order[3]}
        # the first 4 along a Z-curve form one 2x2 quadrant: their
        # bounding box is 16x16
        bb = boxes[order[0]]
        for i in list(first_four)[1:]:
            bb = bb.bounding(boxes[i])
        assert max(bb.shape()) <= 16


class TestSpatialAssignment:
    @given(st.integers(2, 5), st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_balance_close_to_lpt(self, n_tiles, nranks):
        boxes = tiled_boxes(n_tiles)
        spatial = imbalance(boxes, assign_owners(boxes, nranks), nranks)
        # equal tiles: a contiguous split is at most one tile worse than
        # the optimum
        assert spatial <= 1.0 + nranks * (64 / (len(boxes) * 64 / nranks))

    @given(st.integers(2, 4))
    @settings(max_examples=10, deadline=None)
    def test_ranks_own_contiguous_regions(self, nranks):
        """Each rank's patches form a connected-ish blob: the bounding box
        of a rank's tiles covers far less than the whole domain."""
        boxes = tiled_boxes(8)  # 64 tiles on 64x64
        owners = assign_owners(boxes, nranks * nranks)
        areas = []
        for r in set(owners):
            mine = [b for b, o in zip(boxes, owners) if o == r]
            bb = mine[0]
            for b in mine[1:]:
                bb = bb.bounding(b)
            areas.append(bb.size())
        domain_area = 64 * 64
        # Z-curve chunks: median rank bounding box is a fraction of the
        # domain, unlike LPT which scatters over everything
        assert np.median(areas) < 0.5 * domain_area

    def test_morton_cuts_cross_rank_halo_edges(self):
        """The quantity that matters for halo traffic: the number of
        adjacent patch pairs with different owners.  Morton chunks beat
        locality-blind LPT (which round-robins equal tiles)."""
        boxes = tiled_boxes(8)
        nranks = 8

        def cross_edges(owners):
            count = 0
            for i, a in enumerate(boxes):
                for j, b in enumerate(boxes):
                    if j <= i:
                        continue
                    if intersects(a.grow(1), b) and owners[i] != owners[j]:
                        count += 1
            return count

        spatial = cross_edges(assign_owners(boxes, nranks))
        scattered = cross_edges(assign_owners_lpt(boxes, nranks))
        assert spatial < scattered

    @given(st.integers(1, 6), st.integers(0, 40))
    @settings(max_examples=20, deadline=None)
    def test_every_box_assigned_valid_rank(self, nranks, seed):
        rng = np.random.default_rng(seed)
        boxes = chop_boxes(
            [Box.from_shape((int(rng.integers(8, 64)), int(rng.integers(8, 64))))],
            8)
        owners = assign_owners(boxes, nranks)
        assert len(owners) == len(boxes)
        assert all(0 <= o < nranks for o in owners)
        if len(boxes) >= nranks:
            # no rank starves when there is enough work
            assert len(set(owners)) == nranks
