"""Kernel cost specifications and the launch configuration model.

Kernels execute *functionally* as vectorised NumPy, but each launch is
charged to the device clock through a roofline cost:

    t = t_fixed + max(bytes_moved / dram_bandwidth, flops / peak_flops)

``KernelSpec`` records the per-element byte and flop intensity of each
kernel; the same table drives both the GPU and the CPU cost models so that
speedup comparisons reflect hardware differences, not bookkeeping ones.
``LaunchConfig`` reproduces the CUDA grid/block arithmetic from the paper's
host code (Fig. 5a) so tests can check the thread-mapping logic.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["KernelSpec", "LaunchConfig", "register_kernel", "kernel_spec", "KERNEL_REGISTRY"]

DEFAULT_BLOCK_SIZE = 256


@dataclass(frozen=True)
class KernelSpec:
    """Cost model parameters for a named kernel.

    bytes_per_elem: DRAM bytes read+written per element processed.
    flops_per_elem: floating point operations per element.
    """

    name: str
    bytes_per_elem: float
    flops_per_elem: float = 0.0

    def work(self, elements: int) -> tuple[float, float]:
        """Total (bytes, flops) for a launch over ``elements`` elements."""
        return (self.bytes_per_elem * elements, self.flops_per_elem * elements)


@dataclass(frozen=True)
class LaunchConfig:
    """CUDA launch geometry: 1-D grid of 1-D blocks (as in the paper)."""

    blocks: int
    block_size: int

    @classmethod
    def for_elements(cls, elements: int, block_size: int = DEFAULT_BLOCK_SIZE) -> "LaunchConfig":
        """One thread per element: nblocks = ceil(elements / block_size)."""
        if elements < 0:
            raise ValueError("negative element count")
        blocks = (elements + block_size - 1) // block_size
        return cls(blocks=blocks, block_size=block_size)


KERNEL_REGISTRY: dict[str, KernelSpec] = {}


def register_kernel(name: str, bytes_per_elem: float, flops_per_elem: float = 0.0) -> KernelSpec:
    """Register (or replace) the cost spec for a kernel name."""
    spec = KernelSpec(name, float(bytes_per_elem), float(flops_per_elem))
    KERNEL_REGISTRY[name] = spec
    return spec


def kernel_spec(name: str) -> KernelSpec:
    """Look up a kernel's cost spec; unknown kernels get a generic one."""
    try:
        return KERNEL_REGISTRY[name]
    except KeyError:
        return KernelSpec(name, bytes_per_elem=16.0, flops_per_elem=8.0)


# Generic data-motion kernels provided by the CudaPatchData library itself.
register_kernel("pdat.copy", bytes_per_elem=16.0)
register_kernel("pdat.pack", bytes_per_elem=16.0)
register_kernel("pdat.unpack", bytes_per_elem=16.0)
register_kernel("pdat.fill", bytes_per_elem=8.0)
register_kernel("geom.refine", bytes_per_elem=24.0, flops_per_elem=16.0)
register_kernel("geom.coarsen", bytes_per_elem=24.0, flops_per_elem=12.0)
register_kernel("regrid.tag", bytes_per_elem=32.0, flops_per_elem=24.0)
register_kernel("regrid.tag_compress", bytes_per_elem=4.5)
