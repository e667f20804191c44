"""Tests for the CleverLeaf field declarations and test problems."""

import numpy as np
import pytest

from repro.gpu.kernel import KERNEL_REGISTRY
from repro.hydro.fields import FIELD_GROUPS, GHOSTS, PRIMARY_FIELDS, declare_fields
from repro.hydro.problems import BlastProblem, SodProblem, TriplePointProblem
from repro.mesh.variables import VariableRegistry


class TestFieldDeclarations:
    def setup_method(self):
        self.reg = declare_fields()

    def test_counts_by_centring(self):
        cents = {}
        for v in self.reg:
            cents[v.centring] = cents.get(v.centring, 0) + 1
        assert cents == {"cell": 10, "node": 8, "side": 4}

    def test_all_primary_fields_exist(self):
        for name in PRIMARY_FIELDS:
            assert self.reg[name].name == name

    def test_flux_axes(self):
        assert self.reg["vol_flux_x"].axis == 0
        assert self.reg["mass_flux_y"].axis == 1

    def test_uniform_ghost_width(self):
        for v in self.reg:
            assert v.ghosts == GHOSTS

    def test_fill_groups_reference_real_fields(self):
        for group, names in FIELD_GROUPS.items():
            for n in names:
                assert self.reg[n].name == n, f"{group} references unknown {n}"

    def test_double_declare_rejected(self):
        with pytest.raises(ValueError):
            declare_fields(self.reg)

    def test_hydro_kernels_registered(self):
        for name in ("hydro.ideal_gas", "hydro.viscosity", "hydro.calc_dt",
                     "hydro.pdv", "hydro.accelerate", "hydro.flux_calc",
                     "hydro.advec_cell", "hydro.advec_mom",
                     "hydro.reset_field"):
            assert name in KERNEL_REGISTRY
            assert KERNEL_REGISTRY[name].bytes_per_elem > 0

    def test_step_is_bandwidth_heavy(self):
        """The full step touches ~1 kB/cell — the bandwidth-bound premise."""
        total = sum(
            KERNEL_REGISTRY[k].bytes_per_elem
            for k in KERNEL_REGISTRY if k.startswith("hydro.")
        )
        assert 500 < total < 2500


def centers(problem, n=16):
    xc = np.linspace(problem.x_lo[0], problem.x_hi[0], n)[:, None] \
        + 0.5 * (problem.x_hi[0] - problem.x_lo[0]) / n
    yc = np.linspace(problem.x_lo[1], problem.x_hi[1], n)[None, :] \
        + 0.5 * (problem.x_hi[1] - problem.x_lo[1]) / n
    return xc[:-1], yc[:, :-1] if yc.ndim == 2 else yc


class TestSodProblem:
    def test_two_states(self):
        p = SodProblem((32, 32))
        xc = np.array([[0.25], [0.75]])
        yc = np.array([[0.5]])
        d, e = p.initial_state(xc, yc)
        assert d[0, 0] == 1.0 and d[1, 0] == 0.125
        # e = p/((gamma-1) rho)
        assert e[0, 0] == pytest.approx(2.5)
        assert e[1, 0] == pytest.approx(2.0)

    def test_interface_parameter(self):
        p = SodProblem((32, 32), interface=0.3)
        d, _ = p.initial_state(np.array([[0.4]]), np.array([[0.5]]))
        assert d[0, 0] == 0.125

    def test_energy_from_pressure(self):
        p = SodProblem()
        assert p.energy_from_pressure(1.0, 1.0) == pytest.approx(2.5)


class TestTriplePoint:
    def test_three_regions(self):
        p = TriplePointProblem()
        xc = np.array([[0.5], [3.0], [3.0]])
        yc = np.array([[0.5, 0.5, 2.0]])
        d, e = p.initial_state(xc, yc)
        # driver region
        assert d[0, 0] == 1.0
        assert e[0, 0] == pytest.approx(2.5)
        # region 3 (x>=1, y<1.5): dense, low pressure
        assert d[1, 0] == 1.0
        assert e[1, 0] == pytest.approx(0.25)
        # region 2 (x>=1, y>=1.5): light, low pressure
        assert d[2, 2] == 0.125
        assert e[2, 2] == pytest.approx(2.0)

    def test_domain_aspect(self):
        p = TriplePointProblem()
        assert p.x_hi == (7.0, 3.0)


class TestBlast:
    def test_inside_outside(self):
        p = BlastProblem((32, 32), radius=0.1)
        d, e = p.initial_state(np.array([[0.5], [0.9]]), np.array([[0.5]]))
        assert e[0, 0] > e[1, 0]
        assert d[0, 0] == d[1, 0] == 1.0

    def test_pressure_ratio(self):
        p = BlastProblem((32, 32), p_in=100.0, p_out=1.0)
        _, e = p.initial_state(np.array([[0.5], [0.05]]), np.array([[0.5]]))
        assert e[0, 0] / e[1, 0] == pytest.approx(100.0)
