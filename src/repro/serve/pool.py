"""The shared device pool: admission control for concurrent jobs.

The service multiplexes every job over one fixed set of simulated
devices.  Each device's capacity is a :class:`Ledger` sized to the
machine model's GPU DRAM; admitting a job reserves its estimated
footprint on one ledger per rank (:meth:`Ledger.try_reserve` — a ledger
entry, no real memory moves).  A job whose footprint cannot fit on the
emptiest devices *right now* queues; one whose per-device share exceeds
a bare device's capacity can never run and is rejected at submit.
"""

from __future__ import annotations

from ..perf.machines import IPA, TITAN, Machine

__all__ = ["DevicePool", "Ledger", "NeverFits", "estimate_run_bytes"]

#: field slots per cell in the hydro stack (state + scratch + fluxes)
FIELD_SLOTS = 20
#: frame overhead for ghost layers and node/side centrings
GHOST_OVERHEAD = 1.5


def estimate_run_bytes(cfg) -> int:
    """Estimated device bytes for a whole run, all ranks together.

    A static capacity model, deliberately conservative: every refined
    level is costed as if it covered the full domain at its resolution.
    The scheduler replaces it with the observed footprint once a job
    with the same fingerprint has completed.
    """
    nx, ny = cfg.problem.base_resolution
    cells = 0
    for lvl in range(cfg.max_levels):
        cells += nx * ny * (cfg.refinement_ratio ** 2) ** lvl
    return int(cells * FIELD_SLOTS * GHOST_OVERHEAD * 8)


class Ledger:
    """One device's admission ledger: bytes promised to admitted jobs.

    A reservation is pure bookkeeping against :attr:`max_bytes` — no
    host or device memory is touched — taken with :meth:`try_reserve`
    when a job is admitted and returned with :meth:`release_reservation`
    when it leaves the device.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = int(max_bytes)
        #: bytes currently reserved
        self.reserved_bytes = 0
        #: high-water mark of :attr:`reserved_bytes`
        self.peak_bytes = 0

    @property
    def available_bytes(self) -> int:
        """Capacity headroom against :attr:`max_bytes`."""
        return max(0, self.max_bytes - self.reserved_bytes)

    def try_reserve(self, nbytes: int) -> bool:
        """Reserve ``nbytes``; False (and nothing reserved) if they do not fit."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"cannot reserve {nbytes} bytes")
        if self.reserved_bytes + nbytes > self.max_bytes:
            return False
        self.reserved_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.reserved_bytes)
        return True

    def release_reservation(self, nbytes: int) -> None:
        """Return capacity taken by :meth:`try_reserve`."""
        nbytes = int(nbytes)
        if nbytes > self.reserved_bytes:
            raise ValueError(
                f"releasing {nbytes} reserved bytes but only "
                f"{self.reserved_bytes} outstanding")
        self.reserved_bytes -= nbytes


class NeverFits(ValueError):
    """The job's per-device share exceeds an empty device's capacity."""


class DevicePool:
    """N simulated devices shared, by memory, between admitted jobs."""

    def __init__(self, ndevices: int, machine: "str | Machine" = "IPA",
                 device_bytes: int | None = None):
        if isinstance(machine, str):
            machine = {"IPA": IPA, "TITAN": TITAN}[machine.upper()]
        self.machine = machine
        if device_bytes is None:
            device_bytes = machine.gpu.memory_bytes
        self.device_bytes = int(device_bytes)
        self.ledgers = [Ledger(self.device_bytes)
                        for _ in range(int(ndevices))]

    @property
    def ndevices(self) -> int:
        return len(self.ledgers)

    def check_admissible(self, nranks: int, job_bytes: int) -> int:
        """Per-device share for a job, or raise :class:`NeverFits`."""
        per_device = -(-int(job_bytes) // max(int(nranks), 1))
        if nranks > self.ndevices:
            raise NeverFits(
                f"job needs {nranks} devices, pool has {self.ndevices}")
        if per_device > self.device_bytes:
            raise NeverFits(
                f"job needs {per_device} bytes/device, devices have "
                f"{self.device_bytes}")
        return per_device

    def try_admit(self, nranks: int, job_bytes: int) -> list[int] | None:
        """Reserve ``job_bytes`` spread over ``nranks`` devices.

        Picks the devices with the most headroom (stable on ties).
        Returns the reserved device indices, or None when the job does
        not fit right now (the caller keeps it queued).  Raises
        :class:`NeverFits` when it could not fit even on an idle pool.
        """
        per_device = self.check_admissible(nranks, job_bytes)
        order = sorted(range(self.ndevices),
                       key=lambda i: (self.ledgers[i].reserved_bytes, i))
        chosen = order[:nranks]
        if any(self.ledgers[i].available_bytes < per_device for i in chosen):
            return None
        for i in chosen:
            if not self.ledgers[i].try_reserve(per_device):
                raise AssertionError("reservation raced despite headroom")
        return chosen

    def release(self, devices: list[int], per_device: int) -> None:
        """Return a job's reservations (preemption, completion, failure)."""
        for i in devices:
            self.ledgers[i].release_reservation(per_device)
