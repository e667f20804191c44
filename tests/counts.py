"""Modelled-event counts in a metrics registry: recorded the way the
recording sites do, and read back from a device's registry."""

from __future__ import annotations


def gpu_launches(device, kernel: str | None = None) -> float:
    """Launches counted on ``device``: of ``kernel``, or of every kernel."""
    if kernel is None:
        return device.metrics.total("kernel.launches", on="gpu")
    return device.metrics.value("kernel.launches", kernel=kernel, on="gpu")


def pcie_bytes(device, *directions: str) -> float:
    """Bytes ``device`` moved over PCIe in ``directions`` (default: both)."""
    return sum(device.metrics.value("transfer.bytes", direction=d)
               for d in directions or ("d2h", "h2d"))


def pcie_transfers(device, direction: str) -> float:
    """PCIe transfers ``device`` made in ``direction``."""
    return device.metrics.value("transfer.count", direction=direction)


def count_event(reg, family: str, values: tuple, *amounts) -> None:
    """Count one event of ``family`` the way the recording sites do."""
    for counter, amount in zip(reg.counters(family, values), amounts):
        counter.value += amount
