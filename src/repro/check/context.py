"""Process-wide checker activation and the seam-scope marker.

This module imports nothing from the rest of ``repro`` so any layer —
``gpu``, ``pdat``, ``exec``, ``sched`` — can consult it without import
cycles.  Two pieces of state live here:

* the *active checker* (one per process; ``--sanitize`` installs it for
  the duration of a run), and
* a *seam-scope* depth counter: host-side transfers of device-resident
  bytes are legal only while a seam scope is open, which only the
  :mod:`repro.exec` seam (and the restart path built on it) ever opens.
  :meth:`repro.pdat.patch_data.ArrayData.to_host_array` and
  ``from_host_array`` ask their memory space
  (:meth:`repro.gpu.device.Device.guard_mirror`), which raises
  :class:`~repro.check.errors.ResidencyViolation` when called on a device
  with a checker active and no seam scope open.
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = ["activate", "deactivate", "active", "seam_scope", "in_seam"]

_active = None
_seam_depth = 0


def activate(checker) -> None:
    """Install ``checker`` as the process-wide sanitizer."""
    global _active
    _active = checker


def deactivate() -> None:
    """Remove the active sanitizer (idempotent)."""
    global _active
    _active = None


def active():
    """The installed checker, or None when sanitize mode is off."""
    return _active


@contextmanager
def seam_scope():
    """Mark a region of host code as part of the backend seam."""
    global _seam_depth
    _seam_depth += 1
    try:
        yield
    finally:
        _seam_depth -= 1


def in_seam() -> bool:
    """True while at least one seam scope is open."""
    return _seam_depth > 0
