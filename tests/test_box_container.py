"""Tests for BoxContainer set calculus."""

from hypothesis import given
from hypothesis import strategies as st

from geometry_oracle import BoxContainer, intersects, remove_intersection

from repro.mesh.box import Box

from test_box import boxes


class TestBasics:
    def test_drops_empty(self):
        c = BoxContainer([Box.empty(), Box([0, 0], [1, 1])])
        assert len(c) == 1

    def test_append_extend(self):
        c = BoxContainer()
        c.append(Box([0, 0], [0, 0]))
        c.extend([Box([1, 1], [1, 1]), Box.empty()])
        assert len(c) == 2
        assert c.total_size() == 2

    def test_bounding_box(self):
        c = BoxContainer([Box([0, 0], [1, 1]), Box([5, 5], [6, 6])])
        assert c.bounding_box() == Box([0, 0], [6, 6])

    def test_is_empty(self):
        assert BoxContainer().is_empty()
        assert not BoxContainer([Box([0, 0], [0, 0])]).is_empty()


class TestCalculus:
    def test_remove_intersections(self):
        c = BoxContainer([Box([0, 0], [7, 7])])
        r = c.remove_intersections(BoxContainer([Box([0, 0], [7, 3])]))
        assert r.total_size() == 32
        assert r.contains_box(Box([0, 4], [7, 7]))

    def test_remove_box_overload(self):
        c = BoxContainer([Box([0, 0], [3, 3])])
        assert c.remove_intersections(Box([0, 0], [3, 3])).is_empty()

    def test_intersect(self):
        c = BoxContainer([Box([0, 0], [3, 3]), Box([6, 6], [9, 9])])
        hits = c.intersect(Box([2, 2], [7, 7]))
        assert len(hits) == 2
        assert hits.total_size() == 4 + 4

    def test_contains_box_union(self):
        # Two abutting boxes cover a spanning box neither covers alone.
        c = BoxContainer([Box([0, 0], [3, 7]), Box([4, 0], [7, 7])])
        assert c.contains_box(Box([2, 2], [6, 5]))
        assert not c.contains_box(Box([2, 2], [8, 5]))

    def test_coalesce_merges_tiles(self):
        c = BoxContainer([Box([0, 0], [3, 7]), Box([4, 0], [7, 7])])
        merged = c.coalesce()
        assert len(merged) == 1
        assert merged[0] == Box([0, 0], [7, 7])

    def test_coalesce_keeps_disjoint(self):
        c = BoxContainer([Box([0, 0], [1, 1]), Box([5, 5], [6, 6])])
        assert len(c.coalesce()) == 2

    def test_refine_coarsen(self):
        c = BoxContainer([Box([1, 1], [2, 2])])
        assert c.refine(2)[0] == Box([2, 2], [5, 5])
        assert c.refine(2).coarsen(2)[0] == c[0]


class TestProperties:
    @given(st.lists(boxes(), min_size=1, max_size=4),
           st.lists(boxes(), min_size=1, max_size=4))
    def test_removal_leaves_no_overlap(self, a, b):
        rest = BoxContainer(a).remove_intersections(BoxContainer(b))
        for r in rest:
            for t in b:
                assert not intersects(r, t)

    @given(st.lists(boxes(), min_size=1, max_size=4), boxes())
    def test_removal_preserves_outside(self, a, takeaway):
        """Cells outside the takeaway survive removal."""
        rest = BoxContainer(a).remove_intersections(takeaway)
        for src in a:
            for piece in remove_intersection(src, takeaway):
                assert rest.contains_box(piece)

    @given(st.lists(boxes(), min_size=1, max_size=4))
    def test_coalesce_preserves_coverage(self, bs):
        c = BoxContainer(bs)
        merged = c.coalesce()
        for b in bs:
            assert merged.contains_box(b)
