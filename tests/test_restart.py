"""Tests for checkpoint/restart."""

import struct
import zipfile

import numpy as np
import pytest

from repro import (
    CudaDataFactory,
    HostDataFactory,
    LagrangianEulerianIntegrator,
    SimulationConfig,
    SodProblem,
    gather_level_field,
    make_communicator,
)
from repro.util.restart import (
    CheckpointFormatError,
    checkpoint,
    load_npz,
    restore,
    save_npz,
)


def make_sim(gpus=False):
    comm = make_communicator("IPA", 1, gpus=gpus)
    sim = LagrangianEulerianIntegrator(
        SodProblem((24, 24)), comm,
        CudaDataFactory() if gpus else HostDataFactory(),
        SimulationConfig(max_levels=2, max_patch_size=24))
    sim.initialise()
    return sim


class TestInMemoryRoundtrip:
    def test_state_restored_exactly(self):
        a = make_sim()
        a.run(max_steps=4)
        db = checkpoint(a)
        b = make_sim()
        restore(b, db)
        assert b.time == a.time
        assert b.step_count == a.step_count
        assert np.array_equal(
            gather_level_field(a.hierarchy.level(0), "density0"),
            gather_level_field(b.hierarchy.level(0), "density0"))
        assert np.array_equal(
            gather_level_field(a.hierarchy.level(1), "xvel0", fill=0.0),
            gather_level_field(b.hierarchy.level(1), "xvel0", fill=0.0))

    def test_continued_run_matches_uninterrupted(self):
        """checkpoint -> restore -> continue == run straight through."""
        straight = make_sim()
        straight.run(max_steps=8)

        first = make_sim()
        first.run(max_steps=4)
        db = checkpoint(first)
        resumed = make_sim()
        restore(resumed, db)
        resumed.run(max_steps=8)

        assert resumed.time == straight.time
        assert np.array_equal(
            gather_level_field(straight.hierarchy.level(0), "density0"),
            gather_level_field(resumed.hierarchy.level(0), "density0"))

    def test_gpu_checkpoint_matches_cpu(self):
        cpu = make_sim(gpus=False)
        gpu = make_sim(gpus=True)
        cpu.run(max_steps=3)
        gpu.run(max_steps=3)
        db_cpu = checkpoint(cpu)
        db_gpu = checkpoint(gpu)
        arr_cpu = db_cpu["levels"][0]["patches"][0]["density0"]["array"]
        arr_gpu = db_gpu["levels"][0]["patches"][0]["density0"]["array"]
        assert np.array_equal(arr_cpu, arr_gpu)

    def test_restore_into_gpu_build(self):
        """CPU checkpoint restores into a GPU-resident simulation."""
        cpu = make_sim(gpus=False)
        cpu.run(max_steps=3)
        db = checkpoint(cpu)
        gpu = make_sim(gpus=True)
        restore(gpu, db)
        gpu.run(max_steps=2)
        cpu.run(max_steps=2)
        assert np.array_equal(
            gather_level_field(cpu.hierarchy.level(0), "density0"),
            gather_level_field(gpu.hierarchy.level(0), "density0"))

    def test_version_check(self):
        sim = make_sim()
        db = checkpoint(sim)
        db["version"] = 999
        with pytest.raises(ValueError):
            restore(make_sim(), db)


class TestNpzRoundtrip:
    def test_file_roundtrip(self, tmp_path):
        a = make_sim()
        a.run(max_steps=3)
        db = checkpoint(a)
        path = str(tmp_path / "ckpt.npz")
        save_npz(db, path)
        db2 = load_npz(path)
        b = make_sim()
        restore(b, db2)
        assert b.time == a.time
        assert np.array_equal(
            gather_level_field(a.hierarchy.level(1), "energy0", fill=0.0),
            gather_level_field(b.hierarchy.level(1), "energy0", fill=0.0))

    def test_none_dt_roundtrip(self, tmp_path):
        a = make_sim()  # dt is None before the first step
        db = checkpoint(a)
        path = str(tmp_path / "c.npz")
        save_npz(db, path)
        assert load_npz(path)["dt"] is None


class TestCorruptCheckpoint:
    """A restart file that cannot be read back raises one typed error
    naming the file and the entry or the cause."""

    def _saved(self, tmp_path) -> str:
        path = str(tmp_path / "ckpt.npz")
        save_npz(checkpoint(make_sim()), path)
        return path

    def test_truncated_file(self, tmp_path):
        path = self._saved(tmp_path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:len(raw) // 2])
        with pytest.raises(CheckpointFormatError,
                           match="not a readable archive") as caught:
            load_npz(path)
        assert path in str(caught.value)

    def test_bit_flipped_entry(self, tmp_path):
        path = self._saved(tmp_path)
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo("L0_owners.npy")
        raw = bytearray(open(path, "rb").read())
        # the local header is 30 bytes plus the name and extra fields
        name_len, extra_len = struct.unpack_from(
            "<HH", raw, info.header_offset + 26)
        data = info.header_offset + 30 + name_len + extra_len
        raw[data + info.compress_size // 2] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointFormatError,
                           match="'L0_owners' is corrupt") as caught:
            load_npz(path)
        assert path in str(caught.value)

    def test_missing_entry(self, tmp_path):
        path = self._saved(tmp_path)
        with np.load(path) as data:
            kept = {k: data[k] for k in data.files
                    if k != "L0_P0_density0_time"}
        np.savez_compressed(path, **kept)
        with pytest.raises(CheckpointFormatError,
                           match="'L0_P0_density0_time' is missing") as caught:
            load_npz(path)
        assert path in str(caught.value)
        assert isinstance(caught.value, ValueError)


def make_arena_sim(gpus=True, batch=True):
    comm = make_communicator("IPA", 1, gpus=gpus)
    sim = LagrangianEulerianIntegrator(
        SodProblem((24, 24)), comm,
        CudaDataFactory() if gpus else HostDataFactory(),
        SimulationConfig(max_levels=2, max_patch_size=8,
                         batch_launches=batch))
    sim.initialise()
    return sim


class TestArenaSlabPath:
    """Device builds checkpoint/restore one slab per arena, with or
    without ``batch``: every level is allocated in arenas."""

    def _arena_count(self, sim):
        arenas = set()
        for level in sim.hierarchy:
            for patch in level:
                for name in patch.data_names():
                    arena = getattr(patch.data(name), "_arena", None)
                    if arena is not None:
                        arenas.add(id(arena))
        return len(arenas)

    def test_checkpoint_is_one_transfer_per_arena(self):
        for batch in (True, False):
            sim = make_arena_sim(gpus=True, batch=batch)
            sim.run(max_steps=2)
            rank = sim.comm.ranks[0]
            before = rank.exec_stats.transfers["d2h"].count
            checkpoint(sim)
            taken = rank.exec_stats.transfers["d2h"].count - before
            assert taken == self._arena_count(sim), batch

    def test_staging_views_are_cleared(self):
        sim = make_arena_sim(gpus=True)
        sim.run(max_steps=1)
        checkpoint(sim)
        for level in sim.hierarchy:
            for patch in level:
                for name in patch.data_names():
                    assert getattr(patch.data(name), "_restart_stage",
                                   None) is None

    def test_arena_db_matches_per_patch_db(self):
        """Slab-staged arrays are byte-identical to per-field transfers."""
        arena_sim = make_arena_sim(gpus=True)
        plain_comm = make_communicator("IPA", 1, gpus=True)
        plain_sim = LagrangianEulerianIntegrator(
            SodProblem((24, 24)), plain_comm, CudaDataFactory(),
            SimulationConfig(max_levels=2, max_patch_size=8))
        plain_sim.initialise()
        arena_sim.run(max_steps=3)
        plain_sim.run(max_steps=3)
        db_a = checkpoint(arena_sim)
        db_p = checkpoint(plain_sim)
        for la, lp in zip(db_a["levels"], db_p["levels"]):
            assert la["boxes"] == lp["boxes"]
            for pa, pp in zip(la["patches"], lp["patches"]):
                for name in pa:
                    assert np.array_equal(pa[name]["array"],
                                          pp[name]["array"]), name

    def test_restore_is_one_transfer_per_arena(self):
        for batch in (True, False):
            src = make_arena_sim(gpus=True, batch=batch)
            src.run(max_steps=2)
            db = checkpoint(src)
            dst = make_arena_sim(gpus=True, batch=batch)
            rank = dst.comm.ranks[0]
            before = rank.exec_stats.transfers["h2d"].count
            restore(dst, db)
            taken = rank.exec_stats.transfers["h2d"].count - before
            assert taken == self._arena_count(dst), batch

    def test_arena_continued_run_matches_straight(self):
        straight = make_arena_sim(gpus=True)
        straight.run(max_steps=8)
        first = make_arena_sim(gpus=True)
        first.run(max_steps=4)
        db = checkpoint(first)
        resumed = make_arena_sim(gpus=True)
        restore(resumed, db)
        resumed.run(max_steps=8)
        assert resumed.time == straight.time
        for lvl in range(2):
            assert np.array_equal(
                gather_level_field(straight.hierarchy.level(lvl), "density0",
                                   fill=0.0),
                gather_level_field(resumed.hierarchy.level(lvl), "density0",
                                   fill=0.0))
