"""Cross-cutting property-based tests (hypothesis) on framework invariants."""

import numpy as np
import pytest
from geometry_oracle import contains
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.simcomm import SimCommunicator
from repro.geom.operators import CellConservativeLinearRefine, NodeLinearRefine
from repro.mesh.box import Box
from repro.mesh.geometry import CartesianGridGeometry
from repro.mesh.hierarchy import PatchHierarchy
from repro.mesh.variables import HostDataFactory, VariableRegistry
from repro.perf.machines import FDR_INFINIBAND, IPA_CPU_NODE
from repro.regrid.berger_rigoutsos import cluster_tags
from repro.regrid.load_balance import assign_owners, chop_boxes
from repro.xfer.refine_schedule import FillSpec, RefineSchedule


def build_level(domain_cells, max_patch, nranks, reg):
    comm = SimCommunicator(nranks, IPA_CPU_NODE, FDR_INFINIBAND)
    geom = CartesianGridGeometry(
        Box([0, 0], [domain_cells - 1, domain_cells - 1]), (0, 0), (1, 1))
    hier = PatchHierarchy(geom, max_levels=2)
    boxes = chop_boxes([geom.domain_box], max_patch)
    owners = assign_owners(boxes, nranks)
    level = hier.make_level(0, boxes, owners)
    level.allocate_all(reg, HostDataFactory(), comm)
    hier.set_level(level)
    return comm, hier, level


@st.composite
def decompositions(draw):
    domain = draw(st.sampled_from([8, 12, 16, 24]))
    max_patch = draw(st.sampled_from([4, 6, 8, 16]))
    nranks = draw(st.integers(1, 4))
    return domain, max_patch, nranks


class TestGhostFillExactness:
    """After a fill, ghost values equal the unique global field — for any
    decomposition and any rank assignment."""

    @given(decompositions())
    @settings(max_examples=15, deadline=None)
    def test_cell_fill_reproduces_global_field(self, dec):
        domain, max_patch, nranks = dec
        reg = VariableRegistry()
        reg.declare("f", "cell", 2)
        comm, hier, level = build_level(domain, max_patch, nranks, reg)
        # global field value = 3*i + 7*j at cell (i, j)
        for patch in level:
            pd = patch.data("f")
            frame = pd.get_ghost_box()
            i = np.arange(frame.lower[0], frame.upper[0] + 1)[:, None]
            j = np.arange(frame.lower[1], frame.upper[1] + 1)[None, :]
            pd.data.array[...] = np.nan
            sl = patch.box.slices_in(frame)
            full = 3.0 * i + 7.0 * j * np.ones_like(i)
            pd.data.array[sl] = np.broadcast_to(full, pd.data.array.shape)[sl]
        specs = [FillSpec(reg["f"], CellConservativeLinearRefine())]
        RefineSchedule(level, None, specs, comm).fill()
        for patch in level:
            pd = patch.data("f")
            frame = pd.get_ghost_box()
            inner = frame.intersection(level.domain)
            i = np.arange(inner.lower[0], inner.upper[0] + 1)[:, None]
            j = np.arange(inner.lower[1], inner.upper[1] + 1)[None, :]
            expect = 3.0 * i + 7.0 * j
            got = pd.data.array[inner.slices_in(frame)]
            assert np.array_equal(got, expect + 0.0 * got)

    @given(decompositions())
    @settings(max_examples=10, deadline=None)
    def test_node_fill_reproduces_global_field(self, dec):
        domain, max_patch, nranks = dec
        reg = VariableRegistry()
        reg.declare("v", "node", 2)
        comm, hier, level = build_level(domain, max_patch, nranks, reg)
        for patch in level:
            pd = patch.data("v")
            frame = pd.get_ghost_box()
            pd.data.array[...] = np.nan
            interior = reg["v"].index_box(patch.box)
            i = np.arange(interior.lower[0], interior.upper[0] + 1)[:, None]
            j = np.arange(interior.lower[1], interior.upper[1] + 1)[None, :]
            pd.data.view(interior)[...] = 2.0 * i - 5.0 * j
        specs = [FillSpec(reg["v"], NodeLinearRefine())]
        RefineSchedule(level, None, specs, comm).fill()
        node_domain = reg["v"].index_box(level.domain)
        for patch in level:
            pd = patch.data("v")
            frame = pd.get_ghost_box()
            inner = frame.intersection(node_domain)
            i = np.arange(inner.lower[0], inner.upper[0] + 1)[:, None]
            j = np.arange(inner.lower[1], inner.upper[1] + 1)[None, :]
            got = pd.data.array[inner.slices_in(frame)]
            assert np.array_equal(got, 2.0 * i - 5.0 * j + 0.0 * got)


class TestDecompositionInvariants:
    @given(decompositions())
    @settings(max_examples=20, deadline=None)
    def test_chop_partitions_domain(self, dec):
        domain, max_patch, nranks = dec
        box = Box([0, 0], [domain - 1, domain - 1])
        pieces = chop_boxes([box], max_patch)
        assert sum(p.size() for p in pieces) == box.size()
        owners = assign_owners(pieces, nranks)
        assert len(owners) == len(pieces)
        assert all(0 <= o < nranks for o in owners)

    @given(st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_cluster_then_owners_cover_tags(self, seed):
        rng = np.random.default_rng(seed)
        pts = np.unique(rng.integers(0, 40, size=(60, 2)), axis=0)
        boxes = cluster_tags(pts, min_efficiency=0.6, min_size=2)
        boxes = chop_boxes(boxes, 8)
        for p in pts:
            assert sum(1 for b in boxes if contains(b, p)) == 1


class TestRefineCoarsenAdjoint:
    @given(st.integers(0, 30))
    @settings(max_examples=20, deadline=None)
    def test_coarsen_of_refine_is_identity(self, seed):
        """Volume-weighted coarsen exactly inverts conservative refine."""
        from repro.geom import interp_math as m
        from repro.mesh.box import IntVector

        rng = np.random.default_rng(seed)
        cframe = Box([-2, -2], [5, 5])
        coarse = rng.random(tuple(cframe.shape()))
        fframe = Box([0, 0], [7, 7])
        fine = np.zeros(tuple(fframe.shape()))
        region = Box([0, 0], [7, 7])
        r = IntVector(2, 2)
        m.refine_region(m.CELL_CONSERVATIVE_LINEAR, coarse, cframe, fine, fframe, region, r)
        back = np.zeros((4, 4))
        m.coarsen_region(m.CELL_VOLUME_MEAN, fine, fframe, back,
                         Box([0, 0], [3, 3]), Box([0, 0], [3, 3]), r)
        assert np.allclose(back, coarse[2:6, 2:6], rtol=1e-13)

    @given(st.integers(0, 30))
    @settings(max_examples=20, deadline=None)
    def test_injection_of_node_refine_is_identity(self, seed):
        from repro.geom import interp_math as m
        from repro.mesh.box import IntVector

        rng = np.random.default_rng(seed)
        cframe = Box([-1, -1], [5, 5])
        coarse = rng.random(tuple(cframe.shape()))
        fframe = Box([0, 0], [8, 8])
        fine = np.zeros(tuple(fframe.shape()))
        r = IntVector(2, 2)
        m.refine_region(m.NODE_LINEAR, coarse, cframe, fine, fframe, Box([0, 0], [8, 8]), r)
        back = np.zeros((5, 5))
        m.coarsen_region(m.NODE_INJECTION, fine, fframe, back,
                         Box([0, 0], [4, 4]), Box([0, 0], [4, 4]), r)
        assert np.array_equal(back, coarse[1:6, 1:6])


def boxes_disjoint(a, b):
    return any(a.upper[ax] < b.lower[ax] or b.upper[ax] < a.lower[ax]
               for ax in range(2))


class TestClusteringProperties:
    """Hypothesis contracts for the regrid pipeline's pure pieces."""

    @given(st.integers(0, 1000), st.integers(2, 5),
           st.sampled_from([0.5, 0.7, 0.9]))
    @settings(max_examples=30, deadline=None)
    def test_cluster_cover_disjoint_efficiency(self, seed, min_size, eff):
        rng = np.random.default_rng(seed)
        npts = int(rng.integers(1, 80))
        pts = np.unique(rng.integers(0, 48, size=(npts, 2)), axis=0)
        boxes = cluster_tags(pts, min_efficiency=eff, min_size=min_size)
        # cover: every tag in exactly one box
        for p in pts:
            assert sum(1 for b in boxes if contains(b, p)) == 1
        # pairwise disjoint
        for i, a in enumerate(boxes):
            for b in boxes[i + 1:]:
                assert boxes_disjoint(a, b)
        # each box meets the efficiency target or is too small to split
        for b in boxes:
            tagged = sum(1 for p in pts if contains(b, p))
            if tagged / b.size() < eff:
                assert max(b.shape()) < 2 * min_size

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_cluster_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        pts = np.unique(rng.integers(0, 32, size=(40, 2)), axis=0)
        a = cluster_tags(pts, min_efficiency=0.7, min_size=2)
        b = cluster_tags(rng.permutation(pts), min_efficiency=0.7,
                         min_size=2)
        key = lambda bx: (tuple(bx.lower), tuple(bx.upper))
        assert sorted(a, key=key) == sorted(b, key=key)

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 16))
    @settings(max_examples=30, deadline=None)
    def test_chop_box_tiles_partition(self, w, h, max_size):
        box = Box([3, -2], [3 + w - 1, -2 + h - 1])
        tiles = chop_boxes([box], max_size)
        assert sum(t.size() for t in tiles) == box.size()
        for i, a in enumerate(tiles):
            assert max(a.shape()) <= max_size
            assert contains(box, a.lower) and contains(box, a.upper)
            for b in tiles[i + 1:]:
                assert boxes_disjoint(a, b)

    @given(st.integers(0, 1000), st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_assign_owners_partition_permutation_stable(self, seed, nranks):
        """The box -> owner map is a function of the box *set*: shuffling
        the caller's list must not move any box to a different rank."""
        rng = np.random.default_rng(seed)
        pts = np.unique(rng.integers(0, 48, size=(60, 2)), axis=0)
        boxes = chop_boxes(cluster_tags(pts, 0.7, 2), 8)
        for method in ("sfc", "hilbert"):
            owners = assign_owners(boxes, nranks, method=method)
            perm = rng.permutation(len(boxes))
            shuffled = [boxes[i] for i in perm]
            owners2 = assign_owners(shuffled, nranks, method=method)
            assert all(owners2[j] == owners[perm[j]]
                       for j in range(len(perm)))
