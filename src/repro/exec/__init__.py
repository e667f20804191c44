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
from .stats import attribution_report, kernel_category


__all__ = [
    "Backend",
    "HostBackend",
    "ResidentDeviceBackend",
    "NonResidentDeviceBackend",
    "UNCHARGED_HOST",
    "is_resident",
    "backend_for",
    "array_of",
    "run_on",
    "read_patch_fields",
    "kernel_category",
    "attribution_report",
]
