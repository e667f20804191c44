"""Test problems: initial conditions for the paper's experiments.

* :class:`SodProblem` — the Sod shock tube used for the serial and
  strong-scaling studies (Figs. 9, 10).
* :class:`TriplePointProblem` — the triple-point shock interaction from
  Galera et al. used for the Titan weak-scaling study (Fig. 11): a strong
  shock sweeps left to right, generating vorticity and a moving, complex
  region of interest.
* :class:`BlastProblem` — a centred energy deposition, a common extra
  regression case exercising radially symmetric refinement.

Each problem defines the physical domain, the base resolution, gamma, and
``initial_state(xc, yc)`` returning (density, specific internal energy) on
broadcastable cell-centre coordinate arrays.  All problems start at rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Problem", "SodProblem", "TriplePointProblem", "BlastProblem"]


@dataclass
class Problem:
    """Base class: a rectangular domain with an analytic initial state."""

    base_resolution: tuple[int, int]
    x_lo: tuple[float, float] = (0.0, 0.0)
    x_hi: tuple[float, float] = (1.0, 1.0)
    gamma: float = 1.4
    end_time: float = 0.2

    def energy_from_pressure(self, p: float, rho: float) -> float:
        return p / ((self.gamma - 1.0) * rho)


class SodProblem(Problem):
    """Sod shock tube along x: (rho, p) = (1, 1) | (0.125, 0.1)."""

    def __init__(self, base_resolution=(64, 64), interface: float = 0.5):
        super().__init__(
            base_resolution=base_resolution,
            x_lo=(0.0, 0.0), x_hi=(1.0, 1.0), gamma=1.4, end_time=0.2,
        )
        self.interface = interface
        self.left = (1.0, 1.0)      # density, pressure
        self.right = (0.125, 0.1)

    def initial_state(self, xc, yc):
        rho_l, p_l = self.left
        rho_r, p_r = self.right
        left = xc < self.interface
        density = np.where(left, rho_l, rho_r) + 0.0 * yc
        energy = np.where(
            left,
            self.energy_from_pressure(p_l, rho_l),
            self.energy_from_pressure(p_r, rho_r),
        ) + 0.0 * yc
        return density, energy


class TriplePointProblem(Problem):
    """Three-state Riemann problem generating a vortical shock interaction.

    Region 1 (x < 1):            rho = 1,     p = 1
    Region 2 (x >= 1, y >= 1.5): rho = 0.125, p = 0.1
    Region 3 (x >= 1, y < 1.5):  rho = 1,     p = 0.1
    """

    def __init__(self, base_resolution=(112, 48)):
        super().__init__(
            base_resolution=base_resolution,
            x_lo=(0.0, 0.0), x_hi=(7.0, 3.0), gamma=1.4, end_time=3.5,
        )

    def initial_state(self, xc, yc):
        driver = xc < 1.0
        top = yc >= 1.5
        density = np.where(driver, 1.0, np.where(top, 0.125, 1.0)) + 0.0 * (xc + yc) * 0
        density = np.broadcast_to(density, np.broadcast_shapes(xc.shape, yc.shape)).copy()
        pressure = np.where(driver, 1.0, 0.1) + 0.0 * yc
        energy = pressure / ((self.gamma - 1.0) * density)
        return density, energy


class BlastProblem(Problem):
    """High-pressure disc at the domain centre in a cold background."""

    def __init__(self, base_resolution=(64, 64), radius: float = 0.1,
                 p_in: float = 10.0, p_out: float = 0.1):
        super().__init__(
            base_resolution=base_resolution,
            x_lo=(0.0, 0.0), x_hi=(1.0, 1.0), gamma=1.4, end_time=0.15,
        )
        self.radius = radius
        self.p_in = p_in
        self.p_out = p_out

    def initial_state(self, xc, yc):
        cx = 0.5 * (self.x_lo[0] + self.x_hi[0])
        cy = 0.5 * (self.x_lo[1] + self.x_hi[1])
        r2 = (xc - cx) ** 2 + (yc - cy) ** 2
        inside = r2 < self.radius ** 2
        density = np.ones(np.broadcast_shapes(xc.shape, yc.shape))
        pressure = np.where(inside, self.p_in, self.p_out)
        energy = pressure / ((self.gamma - 1.0) * density)
        return density, energy
