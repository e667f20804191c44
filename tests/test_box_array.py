"""``BoxArray`` against the per-``Box`` calculus it replaced.

Three layers: every whole-array operation equals the ``Box`` method row
for row; the spatial index returns what a scan returns; and the
schedules, nesting check and chopping built on it produce exactly what
the per-``Box`` builders (``geometry_oracle.py``) produce, in order.
"""

import numpy as np
import pytest
from geometry_oracle import (
    cell_indices,
    check_proper_nesting,
    chop_box,
    coarsen_transactions,
    fill_geometry,
    intersects,
    nesting_violations,
    remove_intersection,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.simcomm import SimCommunicator
from repro.mesh.box import Box
from repro.mesh.box_array import BoxArray, box_points, claim
from repro.mesh.geometry import CartesianGridGeometry
from repro.mesh.hierarchy import PatchHierarchy
from repro.mesh.variables import Variable
from repro.perf.machines import FDR_INFINIBAND, IPA_CPU_NODE


def test_take_selects_rows_by_index_array_or_mask():
    boxes = [Box([0, 0], [3, 3]), Box([4, 0], [7, 3]), Box([0, 4], [3, 7])]
    arr = BoxArray.from_boxes(boxes)
    assert arr.take(np.array([2, 0])).boxes() == [boxes[2], boxes[0]]
    assert arr.take(np.array([False, True, True])).boxes() == boxes[1:]
    assert len(arr.take(np.zeros(3, dtype=bool))) == 0
from repro.regrid.load_balance import chop_boxes
from repro.xfer.coarsen_schedule import CoarsenSchedule
from repro.xfer.refine_schedule import build_fill_geometry

# -- strategies ------------------------------------------------------------------


@st.composite
def boxes_of(draw, dim, lo=-9, hi=9):
    """One box of ``dim`` dimensions; about one in five is empty."""
    lower = [draw(st.integers(lo, hi)) for _ in range(dim)]
    extent = [draw(st.integers(-1 if draw(st.integers(0, 4)) == 0 else 1, 7))
              for _ in range(dim)]
    return Box(lower, [l + e - 1 for l, e in zip(lower, extent)])


@st.composite
def box_lists(draw, min_size=0, max_size=12):
    dim = draw(st.integers(1, 3))
    boxes = draw(st.lists(boxes_of(dim), min_size=min_size, max_size=max_size))
    return dim, boxes


def widths(dim):
    """A scalar or a per-axis vector."""
    return st.one_of(st.integers(-2, 3),
                     st.lists(st.integers(-2, 3), min_size=dim, max_size=dim))


def ratios(dim):
    return st.one_of(st.integers(1, 4),
                     st.lists(st.integers(1, 4), min_size=dim, max_size=dim))


# -- every operation equals the per-Box operation --------------------------------


@given(box_lists(), st.data())
@settings(max_examples=150, deadline=None)
def test_every_op_equals_the_box_op_row_for_row(drawn, data):
    dim, boxes = drawn
    arr = BoxArray.from_boxes(boxes, dim)
    assert len(arr) == len(boxes) and arr.dim == dim
    assert BoxArray(arr.corners).boxes() == boxes == arr.boxes()
    assert arr.is_empty().tolist() == [b.is_empty() for b in boxes]
    assert arr.shape().tolist() == [list(b.shape()) for b in boxes]

    w, r = data.draw(widths(dim)), data.draw(ratios(dim))
    assert arr.grow(w).boxes() == [b.grow(w) for b in boxes]
    assert arr.grow_upper(w).boxes() == [b.grow_upper(w) for b in boxes]
    assert arr.coarsen(r).boxes() == [b.coarsen(r) for b in boxes]

    one = data.draw(boxes_of(dim))
    others = data.draw(st.lists(boxes_of(dim), min_size=len(boxes),
                                max_size=len(boxes)))
    for other, per_row in ((one, [one] * len(boxes)),
                           (BoxArray.from_boxes(others, dim), others)):
        assert arr.intersect(other).boxes() == [
            b.intersection(o) for b, o in zip(boxes, per_row)]
        assert arr.intersects(other).tolist() == [
            intersects(b, o) for b, o in zip(boxes, per_row)]
        assert arr.contains(other).tolist() == [
            b.contains_box(o) for b, o in zip(boxes, per_row)]
        which, pieces = arr.subtract(other)
        expect = [(i, p) for i, (b, o) in enumerate(zip(boxes, per_row))
                  for p in remove_intersection(b, o)]
        assert list(zip(which.tolist(), pieces.boxes())) == expect


@given(box_lists())
@settings(max_examples=50, deadline=None)
def test_box_points_of_a_corner_array_equals_box_points_of_the_boxes(drawn):
    dim, boxes = drawn
    which, coords = box_points(BoxArray.from_boxes(boxes, dim).corners)
    expect = [(i, *p) for i, b in enumerate(boxes) for p in cell_indices(b)]
    assert list(zip(which.tolist(), *(c.tolist() for c in coords))) == expect


def test_dimension_mismatch_is_an_error_not_a_truncation():
    flat = BoxArray.from_boxes([Box((0, 0), (3, 3))])
    solid = BoxArray.from_boxes([Box((0, 0, 0), (1, 1, 1))])
    for op in (flat.intersect, flat.intersects, flat.contains, flat.subtract,
               flat.pairs):
        with pytest.raises(ValueError, match="dimension"):
            op(solid)
    with pytest.raises(ValueError, match="dimension"):
        BoxArray.from_boxes([Box((0, 0), (3, 3)), Box((0,), (1,))])
    with pytest.raises(ValueError, match="corners"):
        BoxArray(np.zeros((3, 4)))


# -- the spatial index equals the scan --------------------------------------------


@given(box_lists(), st.data())
@settings(max_examples=150, deadline=None)
def test_index_queries_equal_the_brute_force_scan(drawn, data):
    dim, boxes = drawn
    arr = BoxArray.from_boxes(boxes, dim)
    queries = data.draw(st.lists(boxes_of(dim, -12, 12), max_size=8))
    scan = [[i for i, b in enumerate(boxes) if intersects(b, q)]
            for q in queries]
    qarr = BoxArray.from_boxes(queries, dim)
    assert arr.neighbours(qarr) == scan
    qi, bi = arr.pairs(qarr)
    assert list(zip(qi.tolist(), bi.tolist())) == [
        (k, i) for k, hits in enumerate(scan) for i in hits]


@given(box_lists(), st.data())
@settings(max_examples=100, deadline=None)
def test_claims_equal_sequential_subtraction_over_every_box(drawn, data):
    """``claims`` visits only each query's neighbours; the result is the
    one a scan over *every* box, in order, produces."""
    dim, boxes = drawn
    queries = data.draw(st.lists(boxes_of(dim, -12, 12), max_size=6))
    got = BoxArray.from_boxes(boxes, dim).claims(
        BoxArray.from_boxes(queries, dim))
    for q, (taken, left) in zip(queries, got):
        remaining, expect = [q], []
        for i, b in enumerate(boxes):
            nxt = []
            for r in remaining:
                overlap = r.intersection(b)
                if overlap.is_empty():
                    nxt.append(r)
                else:
                    expect.append((i, overlap))
                    nxt.extend(remove_intersection(r, overlap))
            remaining = nxt
        assert [(i, Box(lo, hi)) for i, lo, hi in taken] == expect
        assert [Box(lo, hi) for lo, hi in left] == [
            r for r in remaining if not r.is_empty()]


def test_claim_appends_overlaps_taker_by_taker():
    taken = []
    left = claim([((0, 0), (9, 9))],
                 [("a", (0, 0), (4, 9)), ("b", (3, 0), (9, 4))], taken)
    assert taken == [("a", (0, 0), (4, 9)), ("b", (5, 0), (9, 4))]
    assert left == [((5, 5), (9, 9))]


@given(st.lists(boxes_of(2, 0, 40), max_size=6), st.integers(1, 9))
@settings(max_examples=100, deadline=None)
def test_chop_boxes_equals_chopping_box_by_box(boxes, max_size):
    assert chop_boxes(boxes, max_size) == [
        tile for b in boxes for tile in chop_box(b, max_size)]


def test_index_tests_a_bounded_number_of_candidates_per_query():
    """4,096 patches: the ghost-fill geometry build tests O(P) candidate
    pairs, not the P**2 = 16.8 M a scan of every source per destination
    does -- counted, not timed."""
    geom = CartesianGridGeometry(Box((0, 0), (511, 511)), (0, 0), (1, 1))
    hier = PatchHierarchy(geom, max_levels=1)
    boxes = chop_boxes([geom.domain_box], 8)
    level = hier.make_level(0, boxes, [0] * len(boxes))
    assert len(level) == 4096
    sig = Variable("_sig", "cell", 2)
    geometry = build_fill_geometry(level, None, sig, level)
    # 4 ghost slabs per patch, each reaching at most 2 x 3 one-patch bins
    assert 0 < level.index_boxes(sig).pair_tests <= 24 * len(level)
    # every interior patch copies from its 8 neighbours: 4 slabs, 2 hold
    # three overlaps each and 2 hold one
    assert len(geometry.copies) == 8 * 62 * 62 + 5 * 4 * 62 + 3 * 4
    assert not geometry.interps


# -- the builders equal the per-Box builders --------------------------------------

SIGNATURES = [Variable("_sig", "cell", 2), Variable("_sig", "node", 2),
              Variable("_sig", "side", 2, 0), Variable("_sig", "side", 2, 1),
              Variable("_sig", "cell", 1), Variable("_sig", "node", 3)]


@st.composite
def cluster(draw, inside: Box, margin: int):
    """A box covering at least the middle third of ``inside``, ``margin``
    cells clear of its edges except where it touches them."""
    lower, upper = [], []
    for lo, hi in zip(inside.lower, inside.upper):
        third = (hi - lo) // 3
        a = draw(st.integers(lo, lo + third))
        b = draw(st.integers(hi - third, hi))
        lower.append(a if a == lo else max(a, lo + margin))
        upper.append(b if b == hi else min(b, hi - margin))
    return Box(lower, upper)


@st.composite
def hierarchies(draw):
    """A 3-level hierarchy on a (possibly odd-sized, hence ragged) base
    mesh, with random chopping and ownership -- nested with a buffer
    except where a cluster touches its parent's edge, so both valid and
    violating hierarchies are drawn; plus an unrelated 'old' level 1, as
    a regrid's interior transfer meets."""
    nx, ny = draw(st.integers(10, 22)), draw(st.integers(10, 22))
    nranks = draw(st.sampled_from([1, 4]))
    geom = CartesianGridGeometry(Box((0, 0), (nx - 1, ny - 1)), (0, 0), (1, 1))
    hier = PatchHierarchy(geom, max_levels=3)

    def make(number, regions, max_patch):
        tiles = chop_boxes(regions, max_patch)
        owners = [draw(st.integers(0, nranks - 1)) for _ in tiles]
        return hier.make_level(number, tiles, owners)

    hier.set_level(make(0, [geom.domain_box], draw(st.integers(3, 9))))
    mid = draw(cluster(geom.domain_box, 1))
    hier.set_level(make(1, [mid.refine(2)], draw(st.integers(3, 9))))
    if min(mid.shape()) >= 4:
        top = draw(cluster(mid.refine(2), 2))
        if not top.is_empty():
            hier.set_level(make(2, [top.refine(2)], draw(st.integers(3, 9))))
    old = make(1, [draw(cluster(geom.domain_box, 1)).refine(2)],
               draw(st.integers(3, 9)))
    return hier, old


def _ids(geometry_or_pair):
    """Transactions by patch id and box, for comparison."""
    copies, interps = geometry_or_pair
    return ([(s.global_id, d.global_id, box) for s, d, box in copies],
            [(d.global_id, region, frame, [(s.global_id, b) for s, b in srcs])
             for d, region, frame, srcs in interps])


def _both(dst, coarse, sig, src, interior=False):
    """Oracle and array builder on one case: equal, or both refuse."""
    try:
        expect = _ids(fill_geometry(dst, coarse, sig, src, interior))
    except ValueError:
        with pytest.raises(ValueError):
            build_fill_geometry(dst, coarse, sig, src, interior)
        return
    geom = build_fill_geometry(dst, coarse, sig, src, interior)
    assert _ids((geom.copies, [
        (ig.dst_patch, ig.region, ig.coarse_frame, ig.sources)
        for ig in geom.interps])) == expect


@given(hierarchies(), st.sampled_from(SIGNATURES))
@settings(max_examples=60, deadline=None)
def test_fill_geometry_is_the_per_box_builders_transaction_for_transaction(
        drawn, sig):
    hier, old = drawn
    for n, level in enumerate(hier.levels):
        coarse = hier.level(n - 1) if n else None
        _both(level, coarse, sig, level)                       # ghost fill
        _both(level, None, sig, level)                         # no coarse level
        if n == 1:
            _both(level, coarse, sig, old, interior=True)      # regrid, old level
            _both(level, coarse, sig, None, interior=True)     # regrid, new level


@given(hierarchies())
@settings(max_examples=40, deadline=None)
def test_coarsen_transactions_and_nesting_equal_the_per_box_versions(drawn):
    hier, old = drawn
    comm = SimCommunicator(4, IPA_CPU_NODE, FDR_INFINIBAND)
    for n in range(1, hier.num_levels):
        sched = CoarsenSchedule(hier.level(n), hier.level(n - 1), [], comm)
        assert [(t.fine_patch, t.coarse_patch, t.region)
                for t in sched.transactions] == coarsen_transactions(
                    hier.level(n), hier.level(n - 1))
    for buffer in (0, 1, 2):
        assert _reported(hier, buffer) == nesting_violations(hier, buffer)
    # an unrelated level 1 under the same level 2 is (usually) a violation
    hier.set_level(old)
    for buffer in (0, 1):
        assert _reported(hier, buffer) == nesting_violations(hier, buffer)


def _reported(hier, buffer):
    return [(int(msg.split()[1]), int(msg.split()[3]))
            for msg in check_proper_nesting(hier, buffer)]
