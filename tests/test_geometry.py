"""Tests for the Cartesian grid geometry."""

import numpy as np
import pytest

from repro.mesh.box import Box, IntVector
from repro.mesh.geometry import CartesianGridGeometry


@pytest.fixture
def geom():
    return CartesianGridGeometry(Box([0, 0], [31, 15]), (0.0, 0.0), (2.0, 1.0))


class TestSpacing:
    def test_base_dx(self, geom):
        assert geom.base_dx == (2.0 / 32, 1.0 / 16)

    def test_level_dx_halves(self, geom):
        dx0 = geom.level_dx(1)
        dx1 = geom.level_dx(2)
        assert dx1 == (dx0[0] / 2, dx0[1] / 2)

    def test_level_domain_refines(self, geom):
        assert geom.level_domain(2) == Box([0, 0], [63, 31])

    def test_anisotropic_ratio(self, geom):
        dx = geom.level_dx(IntVector(2, 4))
        assert dx == (geom.base_dx[0] / 2, geom.base_dx[1] / 4)


class TestCoordinates:
    def test_cell_centers_base(self, geom):
        xc, yc = geom.cell_centers(Box([0, 0], [1, 1]), 1)
        dx, dy = geom.base_dx
        assert np.allclose(xc.ravel(), [dx / 2, 3 * dx / 2])
        assert np.allclose(yc.ravel(), [dy / 2, 3 * dy / 2])

    def test_cell_centers_fine_level(self, geom):
        xc, _ = geom.cell_centers(Box([0, 0], [0, 0]), 2)
        assert np.isclose(xc.ravel()[0], geom.base_dx[0] / 4)

    def test_cell_centers_broadcastable(self, geom):
        xc, yc = geom.cell_centers(Box([0, 0], [3, 5]), 1)
        assert (xc + yc).shape == (4, 6)

    def test_fine_coarse_centres_nest(self, geom):
        """Mean of the 2 fine cell centres equals the coarse centre."""
        xc_c, _ = geom.cell_centers(Box([3, 0], [3, 0]), 1)
        xc_f, _ = geom.cell_centers(Box([6, 0], [7, 0]), 2)
        assert np.isclose(xc_f.ravel().mean(), xc_c.ravel()[0])


class TestBoundary:
    def test_interior_patch(self, geom):
        assert geom.touches_boundary(Box([4, 4], [8, 8]), 1) == []

    def test_corner_patch(self, geom):
        t = geom.touches_boundary(Box([0, 0], [3, 3]), 1)
        assert (0, 0) in t and (1, 0) in t

    def test_upper_boundary_fine_level(self, geom):
        t = geom.touches_boundary(Box([60, 0], [63, 7]), 2)
        assert (0, 1) in t and (1, 0) in t and (1, 1) not in t

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            CartesianGridGeometry(Box.empty(), (0, 0), (1, 1))
