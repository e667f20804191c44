"""Kernel temporaries come from one workspace per session.

The hydro kernels carve every temporary from the patch integrator's
:class:`~repro.hydro.kernels.Workspace`, so a steady step allocates
nothing the size of a kernel operand: the allocation guard holds the
tracemalloc transient peak of one step under one patch frame, where the
expression form peaked at a dozen stacked frames.  The workspace is
exactly as large as the largest single kernel phase's carve and is
given back when the session closes.

A NaN CFL limit is not dropped by the reductions either: per launch,
per rank and across ranks the min propagates it, so the step it appears
in raises and names it.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro.api import ExecutionPolicy, RunConfig, RunSession, SodProblem
from repro.comm.simcomm import make_communicator
from repro.hydro import kernels as K
from repro.hydro.integrator import SimulationError
from repro.hydro.patch_integrator import CHUNK_BYTES
from repro.util import nan_min

#: one level of four 192 x 192 patches, one stacked bucket swept a patch
#: at a time
N, PATCH = 384, 192


def _uniform_session(steps=8):
    return RunSession(RunConfig(
        problem=SodProblem((N, N)), max_levels=1, max_patch_size=PATCH,
        execution=ExecutionPolicy(batch=True), use_gpu=False,
        max_steps=steps))


class TestWorkspace:
    def test_carves_are_contiguous_and_share_memory(self):
        ws = K.Workspace()
        a, b, m = ws.carve((2, 3, 4), 2, 1)
        assert a.flags.c_contiguous and b.flags.c_contiguous
        assert a.dtype == np.float64 and m.dtype == np.bool_
        assert ws.nbytes == 2 * 24 * 8 + 24
        (c,) = ws.carve((5,), 1)
        assert np.shares_memory(a, c)       # every carve starts at offset 0
        assert ws.nbytes == 2 * 24 * 8 + 24  # a smaller carve does not grow it

    def test_grows_to_exactly_the_largest_carve(self):
        ws = K.Workspace()
        ws.carve((10,), 1)
        ws.carve((7, 3), 3, 2)
        ws.carve((4,), 2)
        assert ws.nbytes == 21 * (3 * 8 + 2)

    def test_release_gives_the_memory_back(self):
        ws = K.Workspace()
        ws.carve((100,), 4)
        ws.release()
        assert ws.nbytes == 0
        (a,) = ws.carve((3,), 1)            # and a later carve still works
        assert a.shape == (3,) and ws.nbytes == 24

    def test_every_integrator_owns_its_own(self):
        first, second = _uniform_session(1), _uniform_session(1)
        try:
            assert first.sim.patch_integrator.workspace \
                is not second.sim.patch_integrator.workspace
        finally:
            first.close()
            second.close()


def test_steady_step_allocates_less_than_one_frame(monkeypatch):
    """After warm-up, one ``advance(1)`` peaks under one patch frame of
    transient allocation, and the workspace is exactly the largest
    kernel's need: the sum of the views of its largest carve."""
    carves = []
    carve = K.Workspace.carve

    def counting(self, shape, floats, masks=0):
        views = carve(self, shape, floats, masks)
        carves.append(sum(v.nbytes for v in views))
        return views

    monkeypatch.setattr(K.Workspace, "carve", counting)
    session = _uniform_session()
    try:
        session.advance(2)
        tracemalloc.start()
        try:
            session.advance(1)
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            session.advance(1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # NumPy's iterator still buffers strided operands, 64 KiB each,
        # whatever their size; that is all a steady step allocates
        frame = (PATCH + 4) ** 2 * 8       # one cell field of one patch
        assert peak - base < frame
        ws = session.sim.patch_integrator.workspace
        assert ws.nbytes == max(carves)
        # the largest carve is advec_cell's flux phase: 8 float and 3
        # mask buffers over the faces of one chunk of the bucket, which
        # is one patch (a frame of 192^2 is past the chunk budget)
        assert (PATCH + 4) ** 2 * 8 > CHUNK_BYTES
        faces = (PATCH + 1) * PATCH
        assert ws.nbytes == faces * (8 * 8 + 3)
    finally:
        session.close()
    assert session.sim.patch_integrator.workspace.nbytes == 0


class TestNanTimestep:
    def test_nan_min_propagates_in_any_position(self):
        for values in ([math.nan, 1.0, 2.0], [1.0, math.nan, 2.0],
                       [1.0, 2.0, math.nan]):
            assert math.isnan(nan_min(values))
        assert nan_min([3.0, 1.5, 2.0]) == 1.5

    def test_allreduce_min_keeps_a_nan_from_any_rank(self):
        comm = make_communicator("IPA", 3, gpus=False)
        assert math.isnan(comm.allreduce_min([1.0, math.nan, 0.5]))
        assert math.isnan(comm.allreduce_min([math.nan, 1.0, 0.5]))
        assert comm.allreduce_min([1.0, 2.0, 0.5]) == 0.5

    @pytest.mark.parametrize("batch", [True, False])
    def test_nan_density_raises_in_the_step_it_appears(self, batch):
        """NaN written into one finest-level patch after step 1 is the
        CFL result of step 2, which raises naming it."""
        session = RunSession(RunConfig(
            problem=SodProblem((64, 64)), max_levels=3, max_patch_size=8,
            execution=ExecutionPolicy(batch=batch), max_steps=4))
        try:
            session.advance(1)
            finest = session.sim.hierarchy.level(
                session.sim.hierarchy.num_levels - 1)
            pd = finest.patches[0].data("density0")
            frame = pd.to_host()
            frame[3, 3] = math.nan
            pd.from_host(frame)
            with pytest.raises(SimulationError, match="invalid timestep nan"):
                session.advance(1)
            assert session.sim.step_count == 1
        finally:
            session.close()
