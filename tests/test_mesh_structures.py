"""Tests for patches, levels, hierarchy, variables, and overlap helpers."""

import numpy as np
import pytest
from fill_oracle import clamp_extend
from geometry_oracle import check_proper_nesting, intersects

from repro.comm.simcomm import SimCommunicator
from repro.gpu.device import K20X
from repro.mesh.box import Box
from repro.mesh.geometry import CartesianGridGeometry
from repro.mesh.hierarchy import PatchHierarchy
from repro.mesh.variables import (
    CudaDataFactory,
    HostDataFactory,
    Variable,
    VariableRegistry,
)
from repro.perf.machines import FDR_INFINIBAND, IPA_CPU_NODE
from repro.xfer.overlap import index_box_for


def world(gpus=False):
    comm = SimCommunicator(2, IPA_CPU_NODE, FDR_INFINIBAND, K20X if gpus else None)
    geom = CartesianGridGeometry(Box([0, 0], [15, 15]), (0, 0), (1, 1))
    hier = PatchHierarchy(geom, max_levels=3, refinement_ratio=2)
    reg = VariableRegistry()
    reg.declare("rho", "cell", 2)
    reg.declare("u", "node", 2)
    return comm, geom, hier, reg


class TestVariables:
    def test_duplicate_declaration_rejected(self):
        reg = VariableRegistry()
        reg.declare("a", "cell")
        with pytest.raises(ValueError):
            reg.declare("a", "node")

    def test_bad_centring(self):
        with pytest.raises(ValueError):
            Variable("x", "face")

    def test_iteration_order(self):
        reg = VariableRegistry()
        reg.declare("b", "cell")
        reg.declare("a", "node")
        assert [v.name for v in reg] == ["b", "a"]


class TestPatchLevel:
    def test_patch_outside_domain_rejected(self):
        comm, geom, hier, reg = world()
        with pytest.raises(ValueError):
            hier.make_level(0, [Box([0, 0], [99, 99])], [0])

    def test_cells_per_rank(self):
        comm, geom, hier, reg = world()
        level = hier.make_level(0, [Box([0, 0], [7, 15]), Box([8, 0], [15, 15])],
                                [0, 1])
        assert level.cells_per_rank(2) == [128, 128]

    def test_allocation_places_data_on_owner_device(self):
        comm, geom, hier, reg = world(gpus=True)
        level = hier.make_level(0, [Box([0, 0], [7, 15]), Box([8, 0], [15, 15])],
                                [0, 1])
        level.allocate_all(reg, CudaDataFactory(), comm)
        assert level.patches[0].data("rho").space is comm.rank(0).device
        assert level.patches[1].data("rho").space is comm.rank(1).device

    def test_free_all_releases_device_memory(self):
        comm, geom, hier, reg = world(gpus=True)
        level = hier.make_level(0, [Box([0, 0], [15, 15])], [0])
        level.allocate_all(reg, CudaDataFactory(), comm)
        assert comm.rank(0).device.bytes_allocated > 0
        level.free_all()
        assert comm.rank(0).device.bytes_allocated == 0

    def test_buckets_belong_to_the_level_and_die_with_it(self):
        """Arena allocation hands the level its shape buckets;
        ``free_all`` drops them, so a bucket's cached field tuples cannot
        keep a regridded-away level's patch data alive."""
        import gc
        import weakref

        comm, geom, hier, reg = world()
        boxes = [Box([0, 0], [7, 15]), Box([8, 0], [15, 15])]
        per_patch = hier.make_level(0, boxes, [0, 0])
        for patch in per_patch:
            patch._data["rho"] = HostDataFactory().allocate(
                reg["rho"], patch.box, comm.rank(0))
        assert per_patch.buckets == []
        level = hier.make_level(0, boxes, [0, 0])
        level.allocate_all(reg, HostDataFactory(), comm)
        (bucket,) = level.buckets
        assert bucket.patches == tuple(level.patches) and bucket.owner == 0
        assert bucket.fields("rho") == tuple(p.data("rho") for p in level)
        alive = weakref.ref(bucket.fields("rho")[0])
        del bucket
        level.free_all()
        gc.collect()
        assert level.buckets == [] and alive() is None

    def test_dx_from_geometry(self):
        comm, geom, hier, reg = world()
        level = hier.make_level(1, [Box([0, 0], [31, 31])], [0])
        assert level.dx == (1.0 / 32, 1.0 / 32)


class TestHierarchy:
    def test_level_installation_order(self):
        comm, geom, hier, reg = world()
        l0 = hier.make_level(0, [Box([0, 0], [15, 15])], [0])
        hier.set_level(l0)
        with pytest.raises(ValueError):
            hier.set_level(hier.make_level(2, [Box([0, 0], [3, 3])], [0]))

    def test_finest_level_number_follows_installed_levels(self):
        comm, geom, hier, reg = world()
        assert hier.finest_level_number == -1
        hier.set_level(hier.make_level(0, [Box([0, 0], [15, 15])], [0]))
        hier.set_level(hier.make_level(1, [Box([0, 0], [7, 7])], [0]))
        assert hier.finest_level_number == 1
        assert [lvl.level_number for lvl in hier] == [0, 1]

    def test_replace_level(self):
        comm, geom, hier, reg = world()
        hier.set_level(hier.make_level(0, [Box([0, 0], [15, 15])], [0]))
        hier.set_level(hier.make_level(1, [Box([0, 0], [7, 7])], [0]))
        hier.set_level(hier.make_level(1, [Box([8, 8], [15, 15])], [0]))
        assert hier.num_levels == 2
        assert hier.level(1).patches[0].box.lower == (8, 8)

    def test_remove_finer_levels(self):
        comm, geom, hier, reg = world()
        hier.set_level(hier.make_level(0, [Box([0, 0], [15, 15])], [0]))
        hier.set_level(hier.make_level(1, [Box([0, 0], [7, 7])], [0]))
        hier.remove_finer_levels(0)
        assert hier.num_levels == 1

    def test_nesting_check_catches_violation(self):
        comm, geom, hier, reg = world()
        hier.set_level(hier.make_level(0, [Box([0, 0], [15, 15])], [0]))
        # level 1 covers its whole domain, so any nested fine box is legal
        # (internal seams and the physical boundary need no buffer)
        hier.set_level(hier.make_level(1, [Box([0, 0], [31, 15]),
                                           Box([0, 16], [31, 31])], [0, 0]))
        hier.set_level(hier.make_level(2, [Box([28, 28], [35, 35])], [0]))
        assert check_proper_nesting(hier) == []

    def test_nesting_violation_detected(self):
        comm, geom, hier, reg = world()
        hier.set_level(hier.make_level(0, [Box([0, 0], [15, 15])], [0]))
        hier.set_level(hier.make_level(1, [Box([0, 0], [15, 15])], [0]))
        # fine box nests in level-1 footprint [0..15] (in L1 space 0..31);
        # box at the footprint's inner edge violates the 1-cell buffer
        hier.set_level(hier.make_level(2, [Box([60, 0], [63, 7])], [0]))
        assert check_proper_nesting(hier) != []

    def test_ratio_to_base(self):
        comm, geom, hier, reg = world()
        assert hier.ratio_to_base(2) == (4, 4)

    def test_total_cells(self):
        comm, geom, hier, reg = world()
        hier.set_level(hier.make_level(0, [Box([0, 0], [15, 15])], [0]))
        assert hier.total_cells() == 256


class TestOverlapHelpers:
    def setup_method(self):
        self.cell = Variable("c", "cell", 2)
        self.node = Variable("n", "node", 2)
        self.side = Variable("s", "side", 2, axis=1)

    def test_index_boxes(self):
        b = Box([0, 0], [7, 7])
        assert index_box_for(self.cell, b) == b
        assert index_box_for(self.node, b) == Box([0, 0], [8, 8])
        assert index_box_for(self.side, b) == Box([0, 0], [7, 8])

    def test_frame_boxes(self):
        b = Box([0, 0], [7, 7])
        assert self.cell.frame(b) == Box([-2, -2], [9, 9])
        assert self.node.frame(b) == Box([-2, -2], [10, 10])

    def test_ghost_pieces_partition(self):
        comm, geom, hier, reg = world()
        level = hier.make_level(0, [Box([4, 4], [11, 11])], [0])
        patch = level.patches[0]
        which, pieces = level.frames(reg["rho"]).subtract(
            level.index_boxes(reg["rho"]))
        frame = reg["rho"].frame(patch.box)
        assert which.tolist() == [0] * len(pieces)
        assert pieces.shape().prod(axis=1).sum() == frame.size() - patch.box.size()
        for piece in pieces.boxes():
            assert not intersects(piece, patch.box)

    def test_clamp_extend(self):
        frame = Box([-2, 0], [3, 0])
        arr = np.array([[9.0], [9.0], [1.0], [2.0], [3.0], [4.0]])
        clamp_extend(arr, frame, Box([0, 0], [3, 0]))
        assert arr[0, 0] == 1.0 and arr[1, 0] == 1.0

    def test_clamp_extend_no_valid_raises(self):
        with pytest.raises(ValueError):
            clamp_extend(np.zeros((2, 2)), Box([0, 0], [1, 1]),
                         Box([10, 10], [11, 11]))
