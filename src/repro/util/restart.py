"""Checkpoint/restart: serialise a running simulation and resume it.

SAMRAI's restart database is the model: every ``PatchData`` implements
``put_to_restart``/``get_from_restart`` (paper Fig. 2), and the hierarchy
records its box structure.  Checkpoints are plain nested dicts, so they
can be kept in memory for tests or written with ``numpy.savez`` for real
runs.  GPU-resident data is staged through the host, charged like any
other transfer: each (level, variable) arena moves as a *single* slab
transfer and the per-field hooks read and write staged host segments.
A file that cannot be read back raises :class:`CheckpointFormatError`.
"""

from __future__ import annotations

import math
import tokenize
import zipfile
import zlib
from typing import TYPE_CHECKING

import numpy as np

from ..check.context import seam_scope

if TYPE_CHECKING:  # pragma: no cover
    from ..hydro.integrator import LagrangianEulerianIntegrator

__all__ = ["checkpoint", "restore", "save_npz", "load_npz",
           "CheckpointFormatError"]

FORMAT_VERSION = 1


class CheckpointFormatError(ValueError):
    """A restart file that cannot be read back — truncated, corrupted or
    missing an entry — naming the file and the entry or the cause."""


#: what decoding a damaged entry raises: a bad CRC or zip header, a
#: broken deflate stream, a short read, a garbled ``.npy`` header
_CORRUPT = (zipfile.BadZipFile, zlib.error, EOFError, ValueError,
            NotImplementedError, tokenize.TokenError)


def _stage_member(pd, arena, host: np.ndarray) -> None:
    """Point ``pd`` at its segment of the arena's flat host slab."""
    i = pd._arena_index
    off = arena.offsets[i]
    shape = arena.shapes[i]
    pd._restart_stage = host[off:off + math.prod(shape)].reshape(shape)


def _stage_arenas(level, fetch: bool):
    """Install host staging views for every arena-backed field.

    With ``fetch`` each distinct arena is copied to the host in one slab
    transfer (checkpoint; a charged D2H on a device); without it an empty
    host slab is staged per arena for ``get_from_restart`` to fill
    (restore).  Returns ``(staged_pds, arenas)`` where ``arenas`` maps
    ``id(arena)`` to ``(arena, host_slab)``; fields whose storage is not
    an arena member (a hand-built level) are left alone and keep the
    per-field transfer path.
    """
    staged: list = []
    arenas: dict[int, tuple] = {}
    for patch in level:
        for name in patch.data_names():
            pd = patch.data(name)
            arena = pd._arena
            if arena is None:
                continue
            entry = arenas.get(id(arena))
            if entry is None:
                if fetch:
                    with seam_scope():
                        host = arena.to_host_slab()
                else:
                    host = np.empty(arena.slab.size, dtype=arena.slab.dtype)
                entry = arenas[id(arena)] = (arena, host)
            _stage_member(pd, arena, entry[1])
            staged.append(pd)
    return staged, arenas


def _unstage(staged) -> None:
    for pd in staged:
        pd._restart_stage = None


def checkpoint(sim: "LagrangianEulerianIntegrator") -> dict:
    """Capture the full simulation state into a restart database."""
    db: dict = {
        "version": FORMAT_VERSION,
        "time": sim.time,
        "step_count": sim.step_count,
        "dt": sim.dt,
        "levels": [],
    }
    for level in sim.hierarchy:
        level_db: dict = {
            "level_number": level.level_number,
            "boxes": [(tuple(p.box.lower), tuple(p.box.upper)) for p in level],
            "owners": [p.owner for p in level],
            "patches": [],
        }
        staged, _ = _stage_arenas(level, fetch=True)
        try:
            for patch in level:
                patch_db: dict = {}
                for name in patch.data_names():
                    field_db: dict = {}
                    patch.data(name).put_to_restart(field_db)
                    patch_db[name] = field_db
                level_db["patches"].append(patch_db)
        finally:
            _unstage(staged)
        db["levels"].append(level_db)
    return db


def restore(sim: "LagrangianEulerianIntegrator", db: dict) -> None:
    """Rebuild the hierarchy and state of ``sim`` from a database.

    ``sim`` must be freshly constructed (same problem/config); its
    hierarchy is replaced wholesale.
    """
    from ..mesh.box import Box

    if db.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported restart version {db.get('version')}")
    sim.hierarchy.remove_finer_levels(-1)
    sim.hierarchy.levels.clear()
    for level_db in db["levels"]:
        boxes = [Box(lo, hi) for lo, hi in level_db["boxes"]]
        level = sim.hierarchy.make_level(
            level_db["level_number"], boxes, level_db["owners"]
        )
        level.allocate_all(sim.variables, sim.factory, sim.comm)
        staged, arenas = _stage_arenas(level, fetch=False)
        try:
            for patch, patch_db in zip(level, level_db["patches"]):
                for name, field_db in patch_db.items():
                    patch.data(name).get_from_restart(field_db)
            for arena, host in arenas.values():
                with seam_scope():
                    arena.from_host_slab(host)
        finally:
            _unstage(staged)
        sim.hierarchy.set_level(level)
    sim.time = db["time"]
    sim.step_count = db["step_count"]
    sim.dt = db["dt"]
    sim._invalidate_schedules()


def save_npz(db: dict, path: str) -> None:
    """Write a restart database to a ``.npz`` file."""
    flat: dict[str, np.ndarray] = {}
    header = {
        "version": db["version"], "time": db["time"],
        "step_count": db["step_count"],
        "dt": db["dt"] if db["dt"] is not None else -1.0,
        "num_levels": len(db["levels"]),
    }
    flat["_header"] = np.array(
        [header["version"], header["time"], header["step_count"],
         header["dt"], header["num_levels"]], dtype=np.float64)
    for ln, level_db in enumerate(db["levels"]):
        flat[f"L{ln}_boxes"] = np.array(
            [list(lo) + list(hi) for lo, hi in level_db["boxes"]], dtype=np.int64)
        flat[f"L{ln}_owners"] = np.array(level_db["owners"], dtype=np.int64)
        for pn, patch_db in enumerate(level_db["patches"]):
            for name, field_db in patch_db.items():
                flat[f"L{ln}_P{pn}_{name}"] = field_db["array"]
                flat[f"L{ln}_P{pn}_{name}_time"] = np.array(field_db["time"])
    np.savez_compressed(path, **flat)


def _entry(path: str, data, key: str) -> np.ndarray:
    try:
        return data[key]
    except KeyError:
        raise CheckpointFormatError(
            f"checkpoint {path}: entry {key!r} is missing") from None
    except _CORRUPT as e:
        raise CheckpointFormatError(
            f"checkpoint {path}: entry {key!r} is corrupt ({e})") from e


def load_npz(path: str) -> dict:
    """Read a restart database written by :func:`save_npz`.

    Raises :class:`CheckpointFormatError` when ``path`` is not a readable
    archive (truncated) or an entry is missing or does not decode
    (corrupted)."""
    try:
        archive = np.load(path)
    except (zipfile.BadZipFile, EOFError, ValueError) as e:
        raise CheckpointFormatError(
            f"checkpoint {path}: not a readable archive ({e})") from e
    with archive as data:
        header = _entry(path, data, "_header")
        db: dict = {
            "version": int(header[0]),
            "time": float(header[1]),
            "step_count": int(header[2]),
            "dt": None if header[3] < 0 else float(header[3]),
            "levels": [],
        }
        for ln in range(int(header[4])):
            raw_boxes = _entry(path, data, f"L{ln}_boxes")
            boxes = [((int(r[0]), int(r[1])), (int(r[2]), int(r[3])))
                     for r in raw_boxes]
            owners = [int(o) for o in _entry(path, data, f"L{ln}_owners")]
            patches = []
            prefix_names = {
                k.split("_", 2)[2] for k in data.files
                if k.startswith(f"L{ln}_P0_") and not k.endswith("_time")
            }
            for pn in range(len(boxes)):
                patch_db = {}
                for name in prefix_names:
                    key = f"L{ln}_P{pn}_{name}"
                    patch_db[name] = {
                        "array": _entry(path, data, key),
                        "time": float(_entry(path, data, f"{key}_time")),
                        "ghosts": 2,
                        "box": boxes[pn],
                    }
                patches.append(patch_db)
            db["levels"].append({
                "level_number": ln,
                "boxes": boxes,
                "owners": owners,
                "patches": patches,
            })
        return db
