"""Unit and property tests for the Box/IntVector index calculus."""

import numpy as np
import pytest
from geometry_oracle import contains, intersects, remove_intersection
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.box import Box, IntVector


def boxes(min_coord=-40, max_coord=40, max_extent=20):
    """Strategy producing nonempty 2-D boxes."""
    def make(lo0, lo1, e0, e1):
        return Box([lo0, lo1], [lo0 + e0 - 1, lo1 + e1 - 1])
    return st.builds(
        make,
        st.integers(min_coord, max_coord), st.integers(min_coord, max_coord),
        st.integers(1, max_extent), st.integers(1, max_extent),
    )


class TestIntVector:
    def test_construction_from_iterable(self):
        assert IntVector([1, 2]) == IntVector(1, 2)

    def test_uniform(self):
        assert IntVector.uniform(3) == (3, 3)

    def test_arithmetic(self):
        a = IntVector(1, 2)
        b = IntVector(3, 5)
        assert a + b == (4, 7)
        assert b - a == (2, 3)
        assert a * 2 == (2, 4)
        assert b * a == (3, 10)
        assert IntVector(7, 9) // 2 == (3, 4)
        assert -a == (-1, -2)

    def test_scalar_add(self):
        assert IntVector(1, 2) + 1 == (2, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            IntVector(1, 2) + IntVector(1, 2, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            IntVector()

    def test_hashable(self):
        assert len({IntVector(1, 2), IntVector(1, 2), IntVector(2, 1)}) == 2

    def test_numpy_integers_coerce_to_python_ints(self):
        v = IntVector(np.int64(3), np.int32(4)) * np.int64(2)
        assert v == (6, 8) and all(type(c) is int for c in v)
        assert IntVector(np.array([1, 2])) + (np.int64(1), 0) == (2, 2)

    @pytest.mark.parametrize("make", [
        lambda: IntVector(1.7, 2),            # used to truncate to (1, 2)
        lambda: IntVector(2.0, 2),            # integral, still not an integer
        lambda: IntVector([1, "2"]),
        lambda: IntVector(1, 2) * 1.5,        # used to die in len(float)
        lambda: IntVector(1, 2) + (0.5, 1),
        lambda: Box((0, 0), (1.5, 1)),
    ])
    def test_non_integer_components_are_a_typed_error(self, make):
        with pytest.raises(TypeError, match="not an integer"):
            make()


class TestBoxBasics:
    def test_shape_and_size(self):
        b = Box([0, 0], [3, 1])
        assert b.shape() == (4, 2)
        assert b.size() == 8

    def test_empty(self):
        e = Box.empty()
        assert e.is_empty()
        assert e.size() == 0
        assert e.shape() == (0, 0)

    def test_from_shape(self):
        b = Box.from_shape((4, 8), origin=(2, 3))
        assert b.lower == (2, 3)
        assert b.upper == (5, 10)

    def test_contains(self):
        b = Box([0, 0], [3, 3])
        assert contains(b, (0, 0)) and contains(b, (3, 3))
        assert not contains(b, (4, 0))

    def test_contains_box(self):
        b = Box([0, 0], [7, 7])
        assert b.contains_box(Box([2, 2], [5, 5]))
        assert not b.contains_box(Box([2, 2], [8, 5]))
        assert b.contains_box(Box.empty())

    def test_equality(self):
        assert Box([0, 0], [1, 1]) == Box([0, 0], [1, 1])
        assert Box.empty() == Box([5, 5], [0, 0])

    def test_empty_boxes_of_different_dimension_are_different_values(self):
        assert Box.empty(2) != Box.empty(3)
        assert Box.empty(2) == Box([3, 3], [0, 9])

    @pytest.mark.parametrize("op", [
        lambda a, b: a.intersection(b), lambda a, b: intersects(a, b),
        lambda a, b: a.contains_box(b), lambda a, b: b.contains_box(a),
        lambda a, b: a.bounding(b), lambda a, b: remove_intersection(a, b),
        lambda a, b: b.slices_in(a), lambda a, b: contains(a, (1,)),
    ])
    def test_dimension_mismatch_raises_instead_of_truncating(self, op):
        with pytest.raises(ValueError, match="dimension"):
            op(Box((0, 0), (3, 3)), Box((0, 0, 0), (1, 1, 1)))


class TestBoxAlgebra:
    def test_intersection(self):
        a = Box([0, 0], [5, 5])
        b = Box([3, 3], [9, 9])
        assert a.intersection(b) == Box([3, 3], [5, 5])
        assert a * b == a.intersection(b)

    def test_disjoint_intersection_empty(self):
        assert Box([0, 0], [1, 1]).intersection(Box([5, 5], [6, 6])).is_empty()

    def test_refine_coarsen_exact(self):
        b = Box([2, 3], [5, 7])
        f = b.refine(2)
        assert f == Box([4, 6], [11, 15])
        assert f.coarsen(2) == b

    def test_coarsen_negative_indices(self):
        # floor semantics: cell -1 coarsens to cell -1 at ratio 2
        assert Box([-4, -1], [-1, 0]).coarsen(2) == Box([-2, -1], [-1, 0])

    def test_bounding(self):
        a = Box([0, 0], [1, 1])
        b = Box([4, 4], [5, 5])
        assert a.bounding(b) == Box([0, 0], [5, 5])

    def test_remove_intersection_hole(self):
        outer = Box([0, 0], [7, 7])
        inner = Box([2, 2], [5, 5])
        pieces = remove_intersection(outer, inner)
        assert sum(p.size() for p in pieces) == outer.size() - inner.size()
        # pieces are disjoint
        for i, p in enumerate(pieces):
            for q in pieces[i + 1:]:
                assert not intersects(p, q)

    def test_remove_intersection_no_overlap(self):
        b = Box([0, 0], [3, 3])
        assert remove_intersection(b, Box([10, 10], [11, 11])) == [b]

    def test_remove_intersection_full_cover(self):
        b = Box([0, 0], [3, 3])
        assert remove_intersection(b, Box([-1, -1], [4, 4])) == []

    def test_slices_in(self):
        frame = Box([-2, -2], [5, 5])
        sl = Box([0, 0], [3, 3]).slices_in(frame)
        arr = np.zeros(tuple(frame.shape()))
        arr[sl] = 1
        assert arr.sum() == 16
        assert arr[2, 2] == 1 and arr[1, 1] == 0

    def test_slices_in_out_of_frame(self):
        with pytest.raises(IndexError):
            Box([0, 0], [9, 9]).slices_in(Box([0, 0], [5, 5]))


class TestBoxProperties:
    @given(boxes(), boxes())
    def test_intersection_commutes(self, a, b):
        assert a.intersection(b) == b.intersection(a)

    @given(boxes(), boxes())
    def test_intersection_contained(self, a, b):
        c = a.intersection(b)
        if not c.is_empty():
            assert a.contains_box(c) and b.contains_box(c)

    @given(boxes(), st.integers(1, 4))
    def test_refine_coarsen_roundtrip(self, b, r):
        assert b.refine(r).coarsen(r) == b

    @given(boxes(), st.integers(1, 4))
    def test_coarsen_covers(self, b, r):
        """Coarsened box refined back must cover the original."""
        assert b.coarsen(r).refine(r).contains_box(b)

    @given(boxes(), st.integers(1, 4))
    def test_refine_size(self, b, r):
        assert b.refine(r).size() == b.size() * r * r

    @given(boxes(), boxes())
    def test_remove_intersection_partition(self, a, b):
        pieces = remove_intersection(a, b)
        inter = a.intersection(b)
        assert sum(p.size() for p in pieces) + inter.size() == a.size()
        for p in pieces:
            assert a.contains_box(p)
            assert not intersects(p, b)

    @given(boxes(), st.integers(-3, 5))
    def test_grow_shape(self, b, w):
        grown = b.grow(w)
        if not grown.is_empty():
            assert grown.shape() == b.shape() + IntVector.uniform(2 * w)

    @given(boxes(), st.tuples(st.integers(-10, 10), st.integers(-10, 10)))
    def test_shift_preserves_size(self, b, off):
        assert b.shift(off).size() == b.size()
