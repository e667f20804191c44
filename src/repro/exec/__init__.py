"""Execution backends: the single seam between the AMR framework and
whatever resource (CPU, resident GPU, copy-per-kernel GPU) runs kernels
and owns patch storage.  See :mod:`repro.exec.backend`.
"""

from .backend import (
    UNCHARGED_HOST,
    Backend,
    HostBackend,
    NonResidentDeviceBackend,
    ResidentDeviceBackend,
    array_of,
    backend_for,
    is_resident,
    read_patch_fields,
    run_on,
)
from .stats import (
    ExecStats,
    KernelCounter,
    TransferCounter,
    attribution_report,
    combined_stats,
    kernel_category,
)

def make_backend(cfg, rank=None) -> Backend:
    """The backend matching a run config's build kind.

    ``cfg`` is anything with ``use_gpu``/``resident`` flags (a
    :class:`repro.api.RunConfig`).  CPU builds with no rank return the
    shared uncharged host backend (unit-test convenience); device builds
    need a rank that owns a device.
    """
    use_gpu = getattr(cfg, "use_gpu", True)
    resident = getattr(cfg, "resident", True)
    if not use_gpu:
        return rank.host_backend if rank is not None else UNCHARGED_HOST
    if rank is None:
        raise ValueError("device backends need a rank that owns a device")
    if resident:
        if rank.resident_backend is None:
            raise ValueError(
                "resident build requested but the rank has no device")
        return rank.resident_backend
    return rank.nonresident_backend


__all__ = [
    "Backend",
    "HostBackend",
    "ResidentDeviceBackend",
    "NonResidentDeviceBackend",
    "UNCHARGED_HOST",
    "make_backend",
    "is_resident",
    "backend_for",
    "array_of",
    "run_on",
    "read_patch_fields",
    "ExecStats",
    "KernelCounter",
    "TransferCounter",
    "combined_stats",
    "kernel_category",
    "attribution_report",
]
