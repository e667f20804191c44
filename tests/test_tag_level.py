"""Level tagging per shape bucket and level storage per arena.

The regridder tags a level with one stacked ``compute_tags`` per sweep
unit, executed uncharged, and charges patch by patch, in level order,
the launches ``flag_patch`` issues, from one ledger; then one fused
readback per rank.  On ragged multi-rank levels in every memory space
the tags are ``flag_patch``'s patch by patch, every clock and counter is
the per-patch program's (``tests/tag_oracle.py``), and a rank's readback
carries what ``pack_tags`` yields for each of its tagged patches.  Level
allocation checks its storage against the frames once per owner and
centring signature, and still refuses storage that does not fit.
"""

from __future__ import annotations

import numpy as np
import pytest
from counts import pcie_bytes, pcie_transfers
from tag_oracle import per_patch_tagging

from repro.comm.simcomm import make_communicator
from repro.exec.backend import backend_for
from repro.hydro.fields import declare_fields
from repro.hydro.integrator import LagrangianEulerianIntegrator, SimulationConfig
from repro.hydro.patch_integrator import (
    CleverleafPatchIntegrator,
    NonResidentGpuPatchIntegrator,
)
from repro.hydro.problems import SodProblem
from repro.mesh.box import Box
from repro.mesh.geometry import CartesianGridGeometry
from repro.mesh.patch_level import PatchLevel
from repro.mesh.variables import CudaDataFactory, HostDataFactory
from repro.regrid.flagging import flag_patch, pack_tags, tag_unit

#: where the patch data lives and which backend runs the kernels
SPACES = ("resident", "cpu", "nonresident")


def _sim(space: str):
    """A set-up 3-level Sod on 4 ranks whose odd patch sizes make every
    tagged level ragged (several shape buckets per rank)."""
    comm = make_communicator("IPA", 4, gpus=space != "cpu")
    factory = CudaDataFactory() if space == "resident" else HostDataFactory()
    pi = (NonResidentGpuPatchIntegrator() if space == "nonresident"
          else CleverleafPatchIntegrator())
    sim = LagrangianEulerianIntegrator(
        SodProblem((25, 23)), comm, factory,
        SimulationConfig(max_levels=3, max_patch_size=7), patch_integrator=pi)
    sim.initialise()
    return sim


def _tagged_levels(sim) -> list:
    """The levels a regrid tags (all but the finest)."""
    levels = list(sim.hierarchy)
    assert len(levels) == 3
    return levels[:-1]


def _charges(sim) -> list:
    return [(r.clock.time,
             r.device.default_stream.clock.time if r.device else None,
             r.metrics.snapshot()) for r in sim.comm.ranks]


@pytest.mark.parametrize("space", SPACES)
def test_bucket_tags_are_flag_patchs_patch_by_patch(space):
    sim = _sim(space)
    thresholds = sim.regridder.config.thresholds
    names = [var.name for var in sim.variables]
    tagged = 0
    for level in _tagged_levels(sim):
        owners = [bucket.owner for bucket in level.buckets]
        assert len(set(owners)) > 1 and len(owners) > len(set(owners))
        for bucket in level.buckets:
            rank = sim.comm.rank(bucket.owner)
            backend = backend_for(bucket.fields("density0")[0], rank)
            tags = tag_unit(bucket, backend, thresholds)
            assert len(tags) == len(bucket.patches)
            for patch, got in zip(bucket.patches, tags, strict=True):
                assert patch.data_names() == names
                want = flag_patch(patch, rank, thresholds)
                assert np.array_equal(got, want)
                tagged += bool(want.any())
    assert tagged


@pytest.mark.parametrize("space", SPACES)
def test_level_tagging_charges_the_per_patch_program(space, monkeypatch):
    """Set-up and two more taggings of every tagged level: the same tag
    points, clocks and counters as the per-patch program."""
    with per_patch_tagging(monkeypatch):
        ref = _sim(space)
        ref_points = [ref.regridder._collect_tags(level)
                      for level in _tagged_levels(ref) * 2]
    got = _sim(space)
    points = [got.regridder._collect_tags(level)
              for level in _tagged_levels(got) * 2]
    assert _charges(got) == _charges(ref)
    for a, b in zip(points, ref_points, strict=True):
        assert len(a) and sorted(map(tuple, a.tolist())) == sorted(
            map(tuple, b.tolist()))


def test_the_fused_readback_carries_each_tagged_patchs_packed_tags():
    """One D2H per rank and level: a bit per patch, then ``pack_tags``'
    bytes of every tagged patch (untagged ones send none)."""
    sim = _sim("resident")
    thresholds = sim.regridder.config.thresholds
    for level in _tagged_levels(sim):
        want = [0] * sim.comm.size
        patches = [0] * sim.comm.size
        for patch in level:
            tags = flag_patch(patch, sim.comm.rank(patch.owner), thresholds)
            want[patch.owner] += pack_tags(tags).nbytes if tags.any() else 0
            patches[patch.owner] += 1
        devices = [rank.device for rank in sim.comm.ranks]
        before = [(pcie_bytes(d, "d2h"), pcie_transfers(d, "d2h"))
                  for d in devices]
        sim.regridder._collect_tags(level)
        for d, (nbytes, count), payload, n in zip(devices, before, want,
                                                  patches, strict=True):
            assert pcie_transfers(d, "d2h") - count == (n > 0)
            assert pcie_bytes(d, "d2h") - nbytes == (
                -(-n // 8) + payload if n else 0)
        assert any(want)


def test_storage_that_does_not_fit_its_frame_raises(monkeypatch):
    """Level allocation cuts each arena from the bucket shapes and checks
    them against the level's frames: frames one cell wider than the
    storage are refused."""
    comm = make_communicator("IPA", 2)
    level = PatchLevel(0, [Box([0, 0], [6, 6]), Box([7, 0], [12, 6])],
                       [0, 1], CartesianGridGeometry(
                           Box([0, 0], [12, 6]), (0, 0), (1, 1)), 1, None)
    frames = PatchLevel.frames
    monkeypatch.setattr(PatchLevel, "frames",
                        lambda self, var: frames(self, var).grow(1))
    with pytest.raises(ValueError, match="frame shape"):
        level.allocate_all(declare_fields(), CudaDataFactory(), comm)

