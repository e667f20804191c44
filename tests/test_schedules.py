"""Tests for the refine (ghost fill) and coarsen (sync) schedules."""

import numpy as np
import pytest

from repro.api import ExecutionPolicy, RunConfig, run
from repro.comm.simcomm import SimCommunicator
from repro.geom.operators import (
    CellConservativeLinearRefine,
    CellMassWeightedCoarsen,
    CellVolumeWeightedCoarsen,
    NodeLinearRefine,
)
from repro.geom.interp_math import CELL_CONSERVATIVE_LINEAR, RefineStencil
from repro.gpu.device import K20X
from repro.hydro.boundary import ReflectiveBoundary
from repro.hydro.fields import FIELD_GROUPS
from repro.hydro.problems import SodProblem
from repro.mesh.box import Box
from repro.mesh.geometry import CartesianGridGeometry
from repro.mesh.hierarchy import PatchHierarchy
from repro.mesh.variables import CudaDataFactory, HostDataFactory, VariableRegistry
from repro.perf.machines import FDR_INFINIBAND, IPA_CPU_NODE
from repro.sched.builder import GraphBuilder
from repro.sched.executor import GraphExecutor
from repro.sched.task import TaskKind
from repro.xfer.coarsen_schedule import CoarsenSchedule, CoarsenSpec
from repro.xfer.message import MESSAGE_HEADER_BYTES
from repro.xfer.refine_schedule import (
    FillSpec,
    RefineSchedule,
    needed_coarse_frame,
)


def make_world(nranks=1, gpus=False):
    comm = SimCommunicator(nranks, IPA_CPU_NODE, FDR_INFINIBAND,
                           K20X if gpus else None)
    geom = CartesianGridGeometry(Box([0, 0], [15, 15]), (0, 0), (1, 1))
    hier = PatchHierarchy(geom, max_levels=2, refinement_ratio=2)
    reg = VariableRegistry()
    reg.declare("rho", "cell", 2)
    reg.declare("vel", "node", 2)
    reg.declare("fx", "side", 2, axis=0)
    factory = CudaDataFactory() if gpus else HostDataFactory()
    return comm, geom, hier, reg, factory


def two_patch_level(hier, reg, factory, comm):
    """Level 0 split into left and right halves, owners 0 and last rank."""
    boxes = [Box([0, 0], [7, 15]), Box([8, 0], [15, 15])]
    owners = [0, comm.size - 1]
    level = hier.make_level(0, boxes, owners)
    level.allocate_all(reg, factory, comm)
    hier.set_level(level)
    return level


def set_linear_field(level, reg, name):
    """Interior = i + 100*j in the global index space; ghosts = -1."""
    for patch in level:
        pd = patch.data(name)
        frame = pd.get_ghost_box()
        i = np.arange(frame.lower[0], frame.upper[0] + 1)[:, None]
        j = np.arange(frame.lower[1], frame.upper[1] + 1)[None, :]
        full = (i + 100.0 * j) * np.ones(tuple(frame.shape()))
        interior = pd.var.index_box(patch.box)
        host = np.full(tuple(frame.shape()), -1.0)
        host[interior.slices_in(frame)] = full[interior.slices_in(frame)]
        pd.from_host(host)


@pytest.mark.parametrize("gpus,nranks", [(False, 1), (False, 2), (True, 2)])
class TestSameLevelFill:
    def test_neighbour_ghosts_copied(self, gpus, nranks):
        comm, geom, hier, reg, factory = make_world(nranks, gpus)
        level = two_patch_level(hier, reg, factory, comm)
        set_linear_field(level, reg, "rho")
        specs = [FillSpec(reg["rho"], CellConservativeLinearRefine())]
        sched = RefineSchedule(level, None, specs, comm, factory)
        sched.fill()
        left = level.patches[0].data("rho")
        full = (left.to_host() if gpus else left.data.array)
        frame = left.get_ghost_box()
        # ghost column i=8,9 of the left patch now holds the right interior
        for gi in (8, 9):
            col = full[gi - frame.lower[0], 2:-2]
            expect = gi + 100.0 * np.arange(0, 16)
            assert np.array_equal(col, expect)

    def test_cross_rank_messages_charged(self, gpus, nranks):
        comm, geom, hier, reg, factory = make_world(nranks, gpus)
        level = two_patch_level(hier, reg, factory, comm)
        set_linear_field(level, reg, "rho")
        specs = [FillSpec(reg["rho"], CellConservativeLinearRefine())]
        t0 = [r.clock.time for r in comm.ranks]
        RefineSchedule(level, None, specs, comm, factory).fill()
        moved = [r.clock.time - s for r, s in zip(comm.ranks, t0)]
        assert all(m > 0 for m in moved)


class TestNeededFrames:
    def setup_method(self):
        self.reg = VariableRegistry()
        self.reg.declare("c", "cell", 2)
        self.reg.declare("n", "node", 2)
        self.reg.declare("s", "side", 2, axis=0)

    def test_cell_frame_grows_for_slopes(self):
        from repro.mesh.box import IntVector
        f = needed_coarse_frame(self.reg["c"], Box([4, 4], [7, 7]), IntVector(2, 2))
        assert f == Box([1, 1], [4, 4])

    def test_node_frame_has_plus_one(self):
        from repro.mesh.box import IntVector
        f = needed_coarse_frame(self.reg["n"], Box([4, 4], [8, 8]), IntVector(2, 2))
        assert f == Box([2, 2], [5, 5])

    def test_temp_box_inverts_frames(self):
        for name in ("c", "n", "s"):
            var = self.reg[name]
            from repro.xfer.overlap import frame_box_for, index_box_for
            box = Box([2, 2], [9, 9])
            frame = index_box_for(var, box)
            assert var.cell_box(frame) == box


class TestCoarseFineFill:
    def _world_with_fine(self, gpus=False):
        comm, geom, hier, reg, factory = make_world(1, gpus)
        level0 = hier.make_level(0, [Box([0, 0], [15, 15])], [0])
        level0.allocate_all(reg, factory, comm)
        hier.set_level(level0)
        # fine patch in the middle: cells [8,8]..[23,23] at ratio 2
        level1 = hier.make_level(1, [Box([8, 8], [23, 23])], [0])
        level1.allocate_all(reg, factory, comm)
        hier.set_level(level1)
        return comm, hier, reg, factory

    def test_fine_ghosts_interpolated_constant(self):
        comm, hier, reg, factory = self._world_with_fine()
        hier.level(0).patches[0].data("rho").fill(7.0)
        hier.level(1).patches[0].data("rho").fill(0.0)
        hier.level(1).patches[0].data("rho").data.view(
            hier.level(1).patches[0].box)[...] = 7.0
        specs = [FillSpec(reg["rho"], CellConservativeLinearRefine())]
        RefineSchedule(hier.level(1), hier.level(0), specs, comm, factory).fill()
        arr = hier.level(1).patches[0].data("rho").data.array
        assert np.all(arr == 7.0)  # ghosts got the interpolated constant

    def test_fine_node_ghosts_linear_exact(self):
        comm, hier, reg, factory = self._world_with_fine()
        # coarse node field linear in x: value = i (coarse index)
        pd0 = hier.level(0).patches[0].data("vel")
        frame0 = pd0.get_ghost_box()
        i = np.arange(frame0.lower[0], frame0.upper[0] + 1)[:, None]
        pd0.data.array[...] = i * np.ones(tuple(frame0.shape()))
        pd1 = hier.level(1).patches[0].data("vel")
        pd1.fill(np.nan)
        interior1 = pd1.var.index_box(hier.level(1).patches[0].box)
        # fine interior already valid: fine node n sits at coarse n/2
        i1 = np.arange(interior1.lower[0], interior1.upper[0] + 1)[:, None]
        pd1.data.view(interior1)[...] = i1 / 2.0
        specs = [FillSpec(reg["vel"], NodeLinearRefine())]
        RefineSchedule(hier.level(1), hier.level(0), specs, comm, factory).fill()
        frame1 = pd1.get_ghost_box()
        expect = np.arange(frame1.lower[0], frame1.upper[0] + 1)[:, None] / 2.0
        assert np.allclose(pd1.data.array, expect * np.ones(tuple(frame1.shape())))

    def test_interior_transfer_mode(self):
        """Regrid-style interior fill from coarse only (no old level)."""
        comm, hier, reg, factory = self._world_with_fine()
        hier.level(0).patches[0].data("rho").fill(3.5)
        pd1 = hier.level(1).patches[0].data("rho")
        pd1.fill(0.0)
        specs = [FillSpec(reg["rho"], CellConservativeLinearRefine())]
        RefineSchedule(hier.level(1), hier.level(0), specs, comm, factory,
                       src_level=None, interior=True).fill()
        assert np.all(pd1.interior() == 3.5)

    def test_temps_released_when_refine_raises(self):
        """An exception anywhere in a fill returns the device pool's
        in-use bytes to their pre-call value: no interpolation scratch
        outlives the call.  The refine kernel raises on the second region
        of a per-patch fill, after the first region's unit was freed."""
        base = CELL_CONSERVATIVE_LINEAR

        def combine(*args):
            Failing.calls += 1
            if Failing.calls == 2:
                raise FloatingPointError("non-physical state")
            return base.combine(*args)

        class Failing(CellConservativeLinearRefine):
            calls = 0
            stencil = RefineStencil(base.offsets, base.weights, combine)

        comm, hier, reg, factory = self._world_with_fine(gpus=True)
        for level in hier:
            level.patches[0].data("rho").fill(1.0)
        sched = RefineSchedule(hier.level(1), hier.level(0),
                               [FillSpec(reg["rho"], Failing())], comm, factory)
        assert sched.num_transactions()[1] >= 2
        device = comm.rank(0).device
        before = device.bytes_allocated
        with pytest.raises(FloatingPointError) as caught:
            sched.fill()
        # while the traceback still pins the failed call's frames (so no
        # garbage collector is doing the schedule's job for it)
        assert caught.traceback and Failing.calls == 2
        assert device.bytes_allocated == before

    def test_missing_op_raises(self):
        comm, hier, reg, factory = self._world_with_fine()
        specs = [FillSpec(reg["rho"], None)]
        with pytest.raises(ValueError):
            RefineSchedule(hier.level(1), hier.level(0), specs, comm, factory)


class TestCoarsenSchedule:
    def _world(self, gpus=False, fine=(Box([8, 8], [23, 23]),)):
        comm, geom, hier, reg, factory = make_world(1, gpus)
        level0 = hier.make_level(0, [Box([0, 0], [15, 15])], [0])
        level0.allocate_all(reg, factory, comm)
        hier.set_level(level0)
        level1 = hier.make_level(1, list(fine), [0] * len(fine))
        level1.allocate_all(reg, factory, comm)
        hier.set_level(level1)
        return comm, hier, reg, factory

    def test_volume_weighted_sync(self):
        comm, hier, reg, factory = self._world()
        hier.level(0).patches[0].data("rho").fill(1.0)
        hier.level(1).patches[0].data("rho").fill(5.0)
        specs = [CoarsenSpec(reg["rho"], CellVolumeWeightedCoarsen())]
        CoarsenSchedule(hier.level(1), hier.level(0), specs, comm).coarsen()
        arr = hier.level(0).patches[0].data("rho").interior()
        # covered coarse cells [4..11]^2 now 5, the rest 1
        assert np.all(arr[4:12, 4:12] == 5.0)
        assert arr[0, 0] == 1.0 and arr[3, 4] == 1.0

    def test_mass_weighted_sync_conserves(self):
        comm, hier, reg, factory = self._world()
        reg2 = reg  # rho acts as both data and weight
        rho_f = hier.level(1).patches[0].data("rho")
        rng = np.random.default_rng(3)
        full = rng.random(tuple(rho_f.get_ghost_box().shape())) + 0.5
        rho_f.data.array[...] = full
        coarse_rho = hier.level(0).patches[0].data("rho")
        coarse_rho.fill(0.0)
        specs = [CoarsenSpec(reg2["rho"], CellMassWeightedCoarsen(),
                             weight_name="rho")]
        CoarsenSchedule(hier.level(1), hier.level(0), specs, comm).coarsen()
        # mass-weighting a field by itself gives sum(f^2)/sum(f) per block
        interior = rho_f.interior()
        block = interior[0:2, 0:2]
        expect = (block * block).sum() / block.sum()
        assert coarse_rho.interior()[4, 4] == pytest.approx(expect)

    def test_transaction_count(self):
        comm, hier, reg, factory = self._world()
        specs = [CoarsenSpec(reg["rho"], CellVolumeWeightedCoarsen())]
        sched = CoarsenSchedule(hier.level(1), hier.level(0), specs, comm)
        assert sched.num_transactions() == 1

    def test_gpu_sync_matches_cpu(self):
        out = {}
        for gpus in (False, True):
            comm, hier, reg, factory = self._world(gpus)
            rho1 = hier.level(1).patches[0].data("rho")
            frame_shape = tuple(rho1.get_ghost_box().shape())
            data = np.random.default_rng(7).random(frame_shape)
            if gpus:
                rho1.from_host(data)
            else:
                rho1.data.array[...] = data
            hier.level(0).patches[0].data("rho").fill(0.0)
            specs = [CoarsenSpec(reg["rho"], CellVolumeWeightedCoarsen())]
            CoarsenSchedule(hier.level(1), hier.level(0), specs,
                            comm).coarsen()
            pd = hier.level(0).patches[0].data("rho")
            out[gpus] = pd.to_host() if gpus else pd.data.array.copy()
        assert np.array_equal(out[False], out[True])

    @pytest.mark.parametrize("batch", [False, True])
    def test_scratch_released_when_coarsen_raises(self, batch):
        """An exception anywhere in a sync returns the device pool's
        in-use bytes to their pre-call value: no coarsen scratch outlives
        the call, and the schedule stays usable.  The coarsen body raises
        on the second transaction: per transaction, after the first
        one's scratch was shipped and freed; level-wide, inside the one
        launch."""
        class Failing(CellVolumeWeightedCoarsen):
            calls = 0

            def _reduce(self, *args):
                Failing.calls += 1
                if Failing.calls == 2:
                    raise FloatingPointError("non-physical state")
                super()._reduce(*args)

        comm, hier, reg, factory = self._world(
            gpus=True, fine=(Box([8, 8], [15, 23]), Box([16, 8], [23, 23])))
        hier.level(1).patches[0].data("rho").fill(5.0)
        hier.level(1).patches[1].data("rho").fill(3.0)
        sched = CoarsenSchedule(hier.level(1), hier.level(0),
                                [CoarsenSpec(reg["rho"], Failing())], comm,
                                batch=batch)
        assert sched.num_transactions() == 2
        device = comm.rank(0).device
        before = device.bytes_allocated
        with pytest.raises(FloatingPointError) as caught:
            sched.coarsen()
        # while the traceback still pins the failed call's frames (so no
        # garbage collector is doing the schedule's job for it)
        assert caught.traceback and Failing.calls == 2
        assert device.bytes_allocated == before
        sched.coarsen()
        assert device.bytes_allocated == before
        rho = hier.level(0).patches[0].data("rho").to_host()[2:-2, 2:-2]
        assert np.all(rho[4:8, 4:12] == 5.0) and np.all(rho[8:12, 4:12] == 3.0)


# -- message granularity ---------------------------------------------------------


def _posted(comm, transfer) -> list:
    """The messages ``transfer()`` hands the network, in posting order."""
    posted = []
    exchange = comm.exchange

    def recording(messages):
        posted.extend(messages)
        exchange(messages)

    comm.exchange = recording
    try:
        transfer()
    finally:
        del comm.exchange
    return posted


def _recorded_packs(comm, sched) -> int:
    """PACK tasks of the schedule recorded into a graph (then executed,
    so the recorded program frees what it allocated)."""
    gb = GraphBuilder(comm)
    sched.emit_tasks(gb)
    GraphExecutor(comm).execute(gb.graph)
    return sum(t.kind is TaskKind.PACK for t in gb.graph)


def _fill_streams(sched) -> tuple[int, int]:
    """Streams a fill posts ``(per rank pair, per patch pair)``: distinct
    cross-rank (src owner, dst owner) pairs among its same-level copies
    plus those among its coarse sources; and the per-region program's
    one per cross-rank copy patch pair plus one per cross-rank (region,
    coarse source)."""
    copies = [(s, d) for _, geom in sched.items
              for s, d, _ in geom.copies if s.owner != d.owner]
    sources = [(s, ig.dst_patch) for geom, _ in sched.sig_groups
               for ig in geom.interps for s, _ in ig.sources
               if s.owner != ig.dst_patch.owner]
    rank_pairs = sum(len({(s.owner, d.owner) for s, d in pairs})
                     for pairs in (copies, sources))
    return rank_pairs, len({(id(s), id(d)) for s, d in copies}) + len(sources)


def _coarsen_streams(sched) -> tuple[int, int]:
    """Streams a sync posts ``(per rank pair, per patch pair)``."""
    cross = [(t.fine_patch.owner, t.coarse_patch.owner)
             for t in sched.transactions
             if t.fine_patch.owner != t.coarse_patch.owner]
    return len(set(cross)), len(cross)


def test_one_message_per_rank_pair_per_transfer():
    """A batched transfer sends one message per (src rank, dst rank) —
    per phase of a fill (same-level copies, then coarse sources) and per
    sync — under both sinks; the per-region program keeps one per patch
    pair; and the payload bytes are the same either way."""
    result = run(RunConfig(
        problem=SodProblem((24, 23)), max_levels=3, max_patch_size=8,
        nranks=4, max_steps=1, execution=ExecutionPolicy(batch=True)))
    sim = result.sim
    comm, hier = sim.comm, sim.hierarchy
    assert hier.num_levels == 3
    for level in hier:
        assert len({tuple(p.box.shape()) for p in level}) > 1, "ragged"

    cases = []  # (batched, per-region twin, execute, streams of each)
    for level in hier:
        coarse = hier.level(level.level_number - 1) if level.level_number else None
        for names in FIELD_GROUPS.values():
            batched = sim._fill_schedule_for(level, names)
            plain = RefineSchedule(level, coarse, sim._specs_for(names), comm,
                                   sim.factory, boundary=sim.boundary)
            cases.append((batched, plain, RefineSchedule.fill,
                          _fill_streams(batched)))
    syncs = []
    for fine_num in range(1, hier.num_levels):
        batched = sim._coarsen_schedule_for(fine_num)
        plain = CoarsenSchedule(batched.fine_level, batched.coarse_level,
                                batched.specs, comm)
        syncs.append(_coarsen_streams(batched))
        cases.append((batched, plain, CoarsenSchedule.coarsen, syncs[-1]))

    for batched, plain, execute, (rank_pairs, patch_pairs) in cases:
        assert batched.batch and not plain.batch
        grouped = _posted(comm, lambda: execute(batched))
        assert len(grouped) == rank_pairs
        assert _recorded_packs(comm, batched) == rank_pairs
        per_pair = _posted(comm, lambda: execute(plain))
        assert len(per_pair) == patch_pairs
        assert _recorded_packs(comm, plain) == patch_pairs
        assert (sum(m.nbytes - MESSAGE_HEADER_BYTES for m in grouped)
                == sum(m.nbytes - MESSAGE_HEADER_BYTES for m in per_pair))
    # every sync crosses ranks, and the two granularities differ
    assert all(rank_pairs for rank_pairs, _ in syncs)
    assert sum(p - r for *_, (r, p) in cases) > 0
