"""Tests for reflective physical boundary conditions."""

import numpy as np
import pytest

from repro.comm.simcomm import SimCommunicator
from repro.hydro.boundary import DEFAULT_PARITY, ReflectiveBoundary, reflect_fill
from repro.mesh.box import Box
from repro.mesh.geometry import CartesianGridGeometry
from repro.mesh.hierarchy import PatchHierarchy
from repro.mesh.variables import HostDataFactory, VariableRegistry
from repro.perf.machines import FDR_INFINIBAND, IPA_CPU_NODE


class TestReflectFill:
    def test_cell_like_lower(self):
        frame = Box([-2, 0], [5, 0])
        domain = Box([0, 0], [5, 0])
        arr = np.arange(8.0).reshape(8, 1)  # index i holds cell i-2
        reflect_fill(arr, frame, domain, axis=0, side=0, ghosts=2,
                     facelike=False, parity=1)
        # ghost -1 <- cell 0, ghost -2 <- cell 1
        assert arr[1, 0] == arr[2, 0]
        assert arr[0, 0] == arr[3, 0]

    def test_cell_like_upper_with_parity(self):
        frame = Box([0, 0], [7, 0])
        domain = Box([0, 0], [5, 0])
        arr = np.arange(8.0).reshape(8, 1)
        reflect_fill(arr, frame, domain, axis=0, side=1, ghosts=2,
                     facelike=False, parity=-1)
        assert arr[6, 0] == -arr[5, 0]
        assert arr[7, 0] == -arr[4, 0]

    def test_facelike_mirrors_across_boundary_node(self):
        frame = Box([-2, 0], [6, 0])
        domain = Box([0, 0], [5, 0])  # node space boundary at 0
        arr = np.arange(9.0).reshape(9, 1)
        reflect_fill(arr, frame, domain, axis=0, side=0, ghosts=2,
                     facelike=True, parity=-1)
        # node -1 <- -node 1, node -2 <- -node 2
        assert arr[1, 0] == -arr[3, 0]
        assert arr[0, 0] == -arr[4, 0]

    def test_returns_element_count(self):
        frame = Box([-2, -2], [5, 5])
        arr = np.zeros(tuple(frame.shape()))
        n = reflect_fill(arr, frame, Box([0, -2], [3, 5]), 0, 0, 2, False, 1)
        assert n == 2 * frame.shape()[1]

    def test_axis1(self):
        frame = Box([0, -2], [0, 5])
        domain = Box([0, 0], [0, 3])
        arr = np.arange(8.0).reshape(1, 8)
        reflect_fill(arr, frame, domain, axis=1, side=0, ghosts=2,
                     facelike=False, parity=1)
        assert arr[0, 1] == arr[0, 2]


class TestDefaultParity:
    def test_normal_velocities_flip(self):
        assert DEFAULT_PARITY["xvel0"] == (-1, 1)
        assert DEFAULT_PARITY["yvel0"] == (1, -1)

    def test_normal_fluxes_flip(self):
        assert DEFAULT_PARITY["mass_flux_x"] == (-1, 1)
        assert DEFAULT_PARITY["vol_flux_y"] == (1, -1)

    def test_scalars_default_even(self):
        b = ReflectiveBoundary()
        assert b.parity_for("density0") == (1, 1)


class TestApplyOnPatch:
    def _level(self):
        """A one-patch level (a patch refers to its level weakly, so the
        caller keeps the level)."""
        comm = SimCommunicator(1, IPA_CPU_NODE, FDR_INFINIBAND)
        geom = CartesianGridGeometry(Box([0, 0], [7, 7]), (0, 0), (1, 1))
        hier = PatchHierarchy(geom, 1)
        reg = VariableRegistry()
        reg.declare("density0", "cell", 2)
        reg.declare("xvel0", "node", 2)
        level = hier.make_level(0, [Box([0, 0], [7, 7])], [0])
        level.allocate_all(reg, HostDataFactory(), comm)
        hier.set_level(level)
        return comm, level, reg

    def test_scalar_even_reflection(self):
        comm, level, reg = self._level()
        patch = level.patches[0]
        pd = patch.data("density0")
        pd.fill(-9.0)
        pd.data.view(patch.box)[...] = np.arange(64.0).reshape(8, 8)
        ReflectiveBoundary().apply_all(patch, [reg["density0"]], comm.rank(0))
        arr = pd.data.array
        # lower-x ghosts mirror interior rows 0 and 1 (shifted +2 in array)
        assert np.array_equal(arr[1, 2:10], arr[2, 2:10])
        assert np.array_equal(arr[0, 2:10], arr[3, 2:10])

    def test_velocity_odd_reflection(self):
        comm, level, reg = self._level()
        patch = level.patches[0]
        pd = patch.data("xvel0")
        pd.fill(0.0)
        interior = pd.var.index_box(patch.box)
        pd.data.view(interior)[...] = 2.0
        ReflectiveBoundary().apply_all(patch, [reg["xvel0"]], comm.rank(0))
        arr = pd.data.array
        # ghost node at -1 (array idx 1) holds -value of node 1 (idx 3)
        assert arr[1, 4] == -arr[3, 4]

    def test_interior_patch_untouched(self):
        comm = SimCommunicator(1, IPA_CPU_NODE, FDR_INFINIBAND)
        geom = CartesianGridGeometry(Box([0, 0], [31, 31]), (0, 0), (1, 1))
        hier = PatchHierarchy(geom, 1)
        reg = VariableRegistry()
        reg.declare("density0", "cell", 2)
        level = hier.make_level(0, [Box([8, 8], [15, 15])], [0])
        level.allocate_all(reg, HostDataFactory(), comm)
        hier.set_level(level)
        patch = level.patches[0]
        pd = patch.data("density0")
        pd.fill(-9.0)
        ReflectiveBoundary().apply_all(patch, [reg["density0"]], comm.rank(0))
        assert np.all(pd.data.array == -9.0)
