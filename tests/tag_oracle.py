"""The per-patch tagging program the regridder's per-bucket one replaced.

Each patch's tag kernel (and, in device memory, its bit-compression
kernel) is launched through the patch's backend, charged as it runs,
then each rank's tagged patches cross the bus in one fused readback:
what ``Regridder._collect_tags`` charged before it computed a level's
tags one stacked sweep per shape bucket.  :func:`per_patch_tagging`
installs it on the regridder.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.exec.backend import array_of, backend_for
from repro.hydro.fields import GHOSTS
from repro.regrid.flagging import TAG_FIELDS, compute_tags, pack_tags
from repro.regrid.regridder import Regridder


def _tags(pds, nx, ny, thresholds) -> np.ndarray:
    return compute_tags(*(array_of(pd) for pd in pds), nx, ny, GHOSTS,
                        thresholds)


def collect_tags(self: Regridder, level) -> np.ndarray:
    """``Regridder._collect_tags`` patch by patch: global (N, 2) tag
    indices, charged launch by launch."""
    points = [np.empty((0, 2), dtype=np.int64)]
    bytes_per_rank = [0] * self.comm.size
    fused: dict = {}  # owner -> [backend, payload bytes, patches]
    for patch in level:
        nx, ny = patch.box.shape()
        pds = [patch.data(n) for n in TAG_FIELDS]
        backend = backend_for(pds[0], self.comm.rank(patch.owner))
        tags = backend.run("regrid.tag", nx * ny, _tags, pds, nx, ny,
                           self.config.thresholds, reads=pds, ghost_reads=pds)
        packed = pack_tags(tags)
        bytes_per_rank[patch.owner] += packed.nbytes
        if backend.resident:
            backend.run("regrid.tag_compress", nx * ny, pack_tags, tags,
                        reads=())
            entry = fused.setdefault(patch.owner, [backend, 0, 0])
            entry[1] += packed.nbytes if tags.any() else 0
            entry[2] += 1
        points.append(np.argwhere(tags) + patch.box.lower)
    for backend, payload, npatches in fused.values():
        backend.charge_transfer("d2h", -(-npatches // 8) + payload)
        self.last_stats.tag_readbacks += 1
    self.comm.allgather(bytes_per_rank)
    return np.concatenate(points)


@contextmanager
def per_patch_tagging(monkeypatch):
    """Inside, every regridder tags a level with :func:`collect_tags`."""
    with monkeypatch.context() as mp:
        mp.setattr(Regridder, "_collect_tags", collect_tags)
        yield
