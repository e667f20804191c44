"""Kernel cost specifications.

Kernels execute *functionally* as vectorised NumPy, but each launch is
charged to the device clock through a roofline cost:

    t = t_fixed + max(bytes_moved / dram_bandwidth, flops / peak_flops)

``KernelSpec`` records the per-element byte and flop intensity of each
kernel; the same table drives both the GPU and the CPU cost models so that
speedup comparisons reflect hardware differences, not bookkeeping ones.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["KernelSpec", "register_kernel", "kernel_spec", "KERNEL_REGISTRY"]


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
