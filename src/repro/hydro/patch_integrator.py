"""Patch integrators: advance the solution on a single patch.

This is the paper's black-box integration point (Fig. 6): the framework
drives one of these per patch and never needs to know where the data lives.
Each kernel is dispatched through the :mod:`repro.exec` backend owning the
patch's data:

* :class:`CleverleafPatchIntegrator` resolves the backend from the data's
  residency — the paper's CPU and ``Cudaleaf`` integrators in one class,
  selected by the patch-data factory used to build the hierarchy.
* :class:`NonResidentGpuPatchIntegrator` pins the copy-per-kernel ablation
  backend instead, reproducing the naive porting style the paper
  criticises (§I, §III, Wang et al.): host-resident data, GPU kernels,
  every input copied to the device and every output copied back around
  *every* launch.  It exists for the residency ablation benchmark.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING

from ..exec.backend import (
    Backend,
    backend_for,
    record_per_patch,
    stacked_of,
    write_slabs,
    zero_slabs,
)
from ..exec.batch import BatchMember, LaunchBatcher, StepParams
from ..gpu.ledger import ChargeLedger
from ..util import nan_min
from ..xfer.message import UnchargedSink
from . import kernels as K
from .fields import GHOSTS

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.simcomm import Rank, SimCommunicator
    from ..mesh.patch_level import PatchLevel

__all__ = ["CleverleafPatchIntegrator", "NonResidentGpuPatchIntegrator",
           "CHUNK_BYTES"]

#: A bucket sweep runs its kernel over chunks of the stack: the most
#: patches whose largest one-operand frame fits this many bytes (at least
#: one patch), so a kernel phase's ten or so live operands stay near one
#: core's L2 instead of streaming the whole stack through memory.
#: Measured on an Intel Xeon (2 MiB L2 per core) over one-level stacks of
#: 48^2, 96^2 and 192^2 patches, 256 KiB was the fastest budget for all
#: three; 32 KiB and below split 8^2-patch buckets and slowed them
#: (EXPERIMENTS.md, "Chunked bucket sweeps").
CHUNK_BYTES = 256 << 10

#: the primary fields' values in the ghost cells of a new level, before
#: its first halo fill (the interiors come from the problem)
INITIAL_GHOSTS = {"density0": 1.0, "energy0": 1.0e-6,
                  "xvel0": 0.0, "yvel0": 0.0}
#: the work arrays a new level's initialisation zeroes, in the order their
#: per-patch fills are charged
WORK_FIELDS = ("density1", "energy1", "pressure", "viscosity", "soundspeed",
               "xvel1", "yvel1", "vol_flux_x", "vol_flux_y", "mass_flux_x",
               "mass_flux_y", "pre_vol", "post_vol", "ener_flux",
               "node_flux", "node_mass_post", "node_mass_pre", "mom_flux")


def _chunk_patches(operands, count: int) -> int:
    """Patches per chunk of a sweep over ``count`` patches whose operand
    patch data are ``operands``: the most whose largest frame fits
    :data:`CHUNK_BYTES`, at least one and at most ``count``."""
    if count == 1:
        return 1
    frame = max(pds[0].nbytes for pds in operands)
    return max(1, min(count, CHUNK_BYTES // frame))


def _per_step(dt) -> StepParams:
    """A kernel's ``dt``: a value, or the :class:`StepParams` whose ``dt``
    the launch reads when its body runs (what a replayed step graph
    binds)."""
    return dt if isinstance(dt, StepParams) else StepParams(dt=dt)


class _Recorder:
    """A launch collector that runs nothing: each collected launch's
    charge rows go into ``ledger`` as its backend would charge it."""

    def __init__(self, ledger: ChargeLedger):
        self.ledger = ledger

    def collect(self, backend, rank, kernel, member, level=None,  # noqa: ARG002 — LaunchBatcher.collect's signature
                combine=None) -> None:
        backend.record(self.ledger, kernel, member.elements, member.reads,
                       member.writes)


class CleverleafPatchIntegrator:
    """CloverLeaf-scheme integrator over one patch, CPU or GPU resident."""

    #: when set (a :class:`repro.exec.batch.LaunchBatcher`, for the
    #: duration of one driver sweep), kernel launches are *collected*
    #: instead of executed; the driver flushes the collector into its
    #: sink — executed now, or recorded as graph tasks
    sink = None

    def __init__(self, gamma: float = 1.4):
        self.gamma = gamma
        #: where every kernel launched through this integrator carves its
        #: temporaries (one per session: kernel bodies run one at a time,
        #: whichever sink executes them)
        self.workspace = K.Workspace()

    # -- dispatch helpers ---------------------------------------------------

    def _backend(self, unit, rank: "Rank") -> Backend:
        """The backend owning this unit's field data."""
        return backend_for(unit.fields("density0")[0], rank)

    def _run(self, unit, rank: "Rank", kernel: str, elements: int,
             fn, names, reads=(), writes=(), ghost_reads=(),
             ghost_propagate=None, combine=None):
        """Dispatch one kernel over one sweep unit with its declared accesses.

        ``unit`` is a :class:`~repro.mesh.patch.Patch` or — what a batched
        sweep visits — a :class:`~repro.mesh.patch.PatchBucket` of
        same-shape patches.  ``fn`` is the kernel stated once, over its
        operand arrays in ``names`` order; it is called with the unit's
        frames (:func:`~repro.exec.backend.stacked_of`): one patch's frame
        arrays, or a bucket's stacked ``(n, f0, f1)`` arena views, which
        the slab-polymorphic kernels sweep one chunk of patches at a time
        (:data:`CHUNK_BYTES`; patches in a stack are independent, so the
        chunks need no halo and change no bit).  ``elements`` is per
        patch.

        ``ghost_reads`` names the operands whose ghost regions the stencil
        reaches (validated against halo-fill stamps under ``--sanitize``);
        ``ghost_propagate`` maps a written field to the ghost-read fields
        its out-of-interior values are *derived from* (EOS over the frame),
        so the written field inherits their halo stamps.  ``combine``
        reduces the units' kernel results when launches are fused
        (``--batch``): the CFL min, which also combines a chunked
        sweep's chunk results.
        """
        backend = self._backend(unit, rank)
        count = len(unit.patches)
        operands = [unit.fields(n) for n in names]
        read_pds = [pd for n in reads for pd in unit.fields(n)]
        write_pds = [pd for n in writes for pd in unit.fields(n)]
        ghost_pds = [pd for n in ghost_reads for pd in unit.fields(n)]
        marks = []
        if ghost_propagate:
            for dst, srcs in ghost_propagate.items():
                marks.extend(
                    ("propagate", pd, list(src_pds)) for pd, *src_pds in zip(
                        unit.fields(dst), *(unit.fields(s) for s in srcs)))

        chunk = _chunk_patches(operands, count)

        def body():
            frames = [stacked_of(pds) for pds in operands]
            if chunk == count:
                return fn(*frames)
            parts = [fn(*(f[lo:lo + chunk] for f in frames))
                     for lo in range(0, count, chunk)]
            return combine(parts) if combine is not None else None

        if self.sink is None:
            return backend.run(kernel, count * elements, body,
                               reads=read_pds, writes=write_pds,
                               ghost_reads=ghost_pds, marks=marks)
        member = BatchMember(count * elements, body, read_pds, write_pds,
                             ghost_pds, marks, count=count)
        return self.sink.collect(backend, rank, kernel, member,
                                 level=unit.patches[0].level.level_number,
                                 combine=combine)

    def _geom(self, unit):
        """Patch shape and mesh spacing, shared by every patch of a unit."""
        patch = unit.patches[0]
        nx, ny = patch.box.shape()
        dx, dy = patch.dx
        return int(nx), int(ny), GHOSTS, float(dx), float(dy)

    # -- initialisation --------------------------------------------------------

    def initialise_level(self, level: "PatchLevel", comm: "SimCommunicator",
                         problem) -> None:
        """Set initial density/energy/velocity on every patch of a level
        from a problem definition, then the EOS.

        Initial conditions are evaluated on the host (as in CLAMR and the
        paper's set-up), once per shape bucket over its stacked cell
        centres, and written with their ghost values straight into each
        owner's primary arena slabs; the work arrays are zeroed one slab
        each; the EOS runs one stacked sweep per shape bucket.  The
        modelled clock charges what the paper's set-up issues per patch,
        in turn, from one ChargeLedger: one H2D per primary field, one
        ``pdat.fill`` per work array, then the patch's EOS launch.
        """
        owners: dict[int, list] = {}
        for bucket in level.buckets:
            owners.setdefault(bucket.owner, []).append(bucket)
        for buckets in owners.values():
            write_slabs(buckets[0].fields("density0")[0].space,
                        self._write_initial, level, buckets, problem)
        zero_slabs(level, WORK_FIELDS)
        self._eos_level(level, comm, INITIAL_GHOSTS, WORK_FIELDS)

    def reset_eos(self, level: "PatchLevel", comm: "SimCommunicator") -> None:
        """Recompute the EOS (``ideal_gas``, no extension) on every patch
        of ``level``: one uncharged stacked sweep per shape bucket,
        charged as one ``hydro.ideal_gas`` launch per patch."""
        self._eos_level(level, comm, (), ())

    def _eos_level(self, level, comm, copied, zeroed) -> None:
        """The EOS over every patch of ``level``, executed one stacked
        sweep per shape bucket (chunked like a step's sweeps: one
        uncharged launch per owner, through an uncharged sink) and charged patch by patch in level
        order from one ledger: the ``copied`` fields' H2D copies and the
        ``zeroed`` fields' ``pdat.fill`` launches an uncharged slab
        program already stood for, then the patch's ``ideal_gas`` launch
        as its backend charges it."""
        sweep = LaunchBatcher(True)
        with self._collecting(sweep):
            # a level allocated patch by patch has no buckets: its patches
            # are units of one
            self._visit(level.buckets or level.patches, comm, self.ideal_gas)
        UnchargedSink(comm).flush_fusion(sweep)
        ledger = ChargeLedger()
        with self._collecting(_Recorder(ledger)):
            record_per_patch(
                ledger, level, copied, zeroed,
                lambda patch: self.ideal_gas(patch, comm.rank(patch.owner)))
        ledger.charge()

    @staticmethod
    def _visit(units, comm, kernel) -> None:
        """Issue ``kernel(unit, rank)`` for every sweep unit in ``units``
        (collected: the caller has set :attr:`sink`)."""
        for unit in units:
            kernel(unit, comm.rank(unit.owner))

    @contextmanager
    def _collecting(self, sink):
        """Launches issued inside go to ``sink`` (a collector with
        ``collect``), not to their backends."""
        before, self.sink = self.sink, sink
        try:
            yield
        finally:
            self.sink = before

    @staticmethod
    def _write_initial(level: "PatchLevel", buckets, problem) -> None:
        """Write the primaries' frames of one owner's ``buckets`` in
        place: ghost values, then the problem's interior values over the
        bucket's stacked cell centres, one chunk of patches at a time
        (:data:`CHUNK_BYTES`, so host temporaries stay chunk-sized)."""
        g = GHOSTS
        for bucket in buckets:
            count = len(bucket.patches)
            frames = {name: stacked_of(bucket.fields(name))
                      for name in INITIAL_GHOSTS}
            if count == 1:
                frames = {name: f[None] for name, f in frames.items()}
            boxes = level.box_array.take(
                [p.global_id for p in bucket.patches])
            chunk = _chunk_patches(
                [bucket.fields(name) for name in INITIAL_GHOSTS], count)
            for lo in range(0, count, chunk):
                xc, yc = level.geometry.cell_centers(
                    boxes.take(slice(lo, lo + chunk)), level.ratio_to_base)
                d, e = problem.initial_state(xc, yc)
                for name, interior in zip(INITIAL_GHOSTS, (d, e, 0.0, 0.0)):
                    f = frames[name][lo:lo + chunk]
                    f[...] = INITIAL_GHOSTS[name]
                    f[:, g:f.shape[1] - g, g:f.shape[2] - g] = interior

    # -- kernels ---------------------------------------------------------------

    def ideal_gas(self, patch, rank, predict: bool = False, ext: int = 0):
        nx, ny, g, dx, dy = self._geom(patch)
        dname, ename = ("density1", "energy1") if predict else ("density0", "energy0")
        names = (dname, ename, "pressure", "soundspeed")

        def fn(d, e, p, ss):
            K.ideal_gas(d, e, p, ss, nx, ny, g, self.gamma, ext,
                        ws=self.workspace)

        self._run(patch, rank, "hydro.ideal_gas",
                  (nx + 2 * ext) * (ny + 2 * ext), fn, names,
                  reads=(dname, ename), writes=("pressure", "soundspeed"),
                  ghost_reads=(dname, ename) if ext > 0 else (),
                  ghost_propagate={"pressure": (dname, ename),
                                   "soundspeed": (dname, ename)}
                  if ext > 0 else None)

    def viscosity(self, patch, rank):
        nx, ny, g, dx, dy = self._geom(patch)
        names = ("density0", "pressure", "viscosity", "xvel0", "yvel0")

        def fn(d, p, v, xv, yv):
            K.viscosity(d, p, v, xv, yv, nx, ny, g, dx, dy,
                        ws=self.workspace)

        self._run(patch, rank, "hydro.viscosity", nx * ny, fn, names,
                  reads=names[:2] + names[3:], writes=("viscosity",),
                  ghost_reads=("pressure",))

    def calc_dt(self, patch, rank):
        """Launch the CFL kernel.

        A direct launch returns this patch's dt (after charging its
        scalar readback); a collected launch returns None — the driver's
        flush hands back one readback handle per launch group.
        """
        nx, ny, g, dx, dy = self._geom(patch)
        names = ("density0", "soundspeed", "viscosity", "xvel0", "yvel0")

        def fn(d, ss, v, xv, yv):
            # Stacked, this is one min over every member's interior:
            # ``np.min`` is exact selection, so it equals the min of
            # per-patch mins.
            return K.calc_dt(d, ss, v, xv, yv, nx, ny, g, dx, dy,
                             ws=self.workspace)

        dt = self._run(patch, rank, "hydro.calc_dt", nx * ny, fn, names,
                       reads=names, combine=nan_min)
        if self.sink is None:
            # The reduced scalar crosses the PCIe bus (no-op on host
            # backends).
            self._backend(patch, rank).charge_transfer("d2h", 8)
        return dt

    def pdv(self, patch, rank, predict: bool, dt: "float | StepParams"):
        nx, ny, g, dx, dy = self._geom(patch)
        step = _per_step(dt)
        names = ("density0", "density1", "energy0", "energy1", "pressure",
                 "viscosity", "xvel0", "yvel0", "xvel1", "yvel1")

        def fn(d0, d1, e0, e1, p, v, xv0, yv0, xv1, yv1):
            K.pdv(predict, step.dt, d0, d1, e0, e1, p, v, xv0, yv0, xv1, yv1,
                  nx, ny, g, dx, dy, ws=self.workspace)

        self._run(patch, rank, "hydro.pdv", nx * ny, fn, names,
                  reads=("density0", "energy0") + names[4:],
                  writes=("density1", "energy1"))

    def accelerate(self, patch, rank, dt: "float | StepParams"):
        nx, ny, g, dx, dy = self._geom(patch)
        step = _per_step(dt)
        names = ("density0", "pressure", "viscosity",
                 "xvel0", "yvel0", "xvel1", "yvel1")

        def fn(d, p, v, xv0, yv0, xv1, yv1):
            K.accelerate(step.dt, d, p, v, xv0, yv0, xv1, yv1, nx, ny, g,
                         dx, dy, ws=self.workspace)

        self._run(patch, rank, "hydro.accelerate", (nx + 1) * (ny + 1), fn,
                  names, reads=names[:5], writes=("xvel1", "yvel1"),
                  ghost_reads=("density0", "pressure", "viscosity"))

    def flux_calc(self, patch, rank, dt: "float | StepParams"):
        nx, ny, g, dx, dy = self._geom(patch)
        step = _per_step(dt)
        names = ("xvel0", "yvel0", "xvel1", "yvel1", "vol_flux_x", "vol_flux_y")

        def fn(xv0, yv0, xv1, yv1, vfx, vfy):
            K.flux_calc(step.dt, xv0, yv0, xv1, yv1, vfx, vfy, nx, ny, g,
                        dx, dy, ws=self.workspace)

        self._run(patch, rank, "hydro.flux_calc", nx * ny, fn, names,
                  reads=names[:4], writes=names[4:])

    def advec_cell(self, patch, rank, direction: int, sweep_number: int):
        nx, ny, g, dx, dy = self._geom(patch)
        names = ("density1", "energy1", "vol_flux_x", "vol_flux_y",
                 "mass_flux_x", "mass_flux_y", "pre_vol", "post_vol", "ener_flux")

        def fn(d1, e1, vfx, vfy, mfx, mfy, pre, post, ef):
            K.advec_cell(direction, sweep_number, d1, e1, vfx, vfy, mfx, mfy,
                         pre, post, ef, nx, ny, g, dx, dy,
                         ws=self.workspace)

        # The kernel is handed both mass-flux arrays; only the swept
        # direction's is written, the other is declared a (vacuous) read.
        self._run(patch, rank, "hydro.advec_cell", nx * ny, fn, names,  # samrcheck: ok(decl-over-read): sanitizer handout needs the unswept mass flux declared even though the kernel never loads it
                  reads=names[:4] + (("mass_flux_y",) if direction == 0
                                     else ("mass_flux_x",)),
                  writes=("density1", "energy1", "mass_flux_x" if direction == 0
                          else "mass_flux_y", "pre_vol", "post_vol", "ener_flux"),
                  ghost_reads=names[:4])

    def advec_mom(self, patch, rank, direction: int, sweep_number: int,
                  which_vel: int):
        """Advect one velocity component.

        The driver launches ``which_vel=1`` right after ``which_vel=0``
        over the same direction and sweep, with nothing writing
        ``density1`` or the fluxes in between, so the second launch reuses
        the volumes, node fluxes and node masses the first one wrote (and
        declares the ones it loads as reads).  Both stay charged in full.
        """
        nx, ny, g, dx, dy = self._geom(patch)
        vel_name = "xvel1" if which_vel == 0 else "yvel1"
        names = (vel_name, "density1", "vol_flux_x", "vol_flux_y",
                 "mass_flux_x", "mass_flux_y", "node_flux", "node_mass_post",
                 "node_mass_pre", "mom_flux", "pre_vol", "post_vol")
        reuse = which_vel == 1

        def fn(vel, d1, vfx, vfy, mfx, mfy, nf, nmpost, nmpre, mf,
               pre, post):
            K.advec_mom(direction, sweep_number, vel, d1, vfx, vfy, mfx, mfy,
                        nf, nmpost, nmpre, mf, pre, post, nx, ny, g, dx, dy,
                        ws=self.workspace, reuse=reuse)

        mass_flux = "mass_flux_x" if direction == 0 else "mass_flux_y"
        self._run(patch, rank, "hydro.advec_mom", (nx + 1) * (ny + 1), fn,
                  names, reads=names[1:6] + (
                      ("node_flux", "node_mass_post", "node_mass_pre")
                      if reuse else ()),
                  writes=(vel_name, "node_flux", "node_mass_post",
                          "node_mass_pre", "mom_flux", "pre_vol", "post_vol"),
                  ghost_reads=(vel_name, "density1", "vol_flux_x",
                               "vol_flux_y", mass_flux))

    def reset_field(self, patch, rank):
        nx, ny, g, dx, dy = self._geom(patch)
        names = ("density0", "density1", "energy0", "energy1",
                 "xvel0", "xvel1", "yvel0", "yvel1")

        def fn(d0, d1, e0, e1, xv0, xv1, yv0, yv1):
            K.reset_field(d0, d1, e0, e1, xv0, xv1, yv0, yv1, nx, ny, g)

        self._run(patch, rank, "hydro.reset_field", nx * ny, fn, names,
                  reads=names[1::2], writes=names[0::2])


class NonResidentGpuPatchIntegrator(CleverleafPatchIntegrator):
    """GPU kernels over host-resident data, copied both ways per launch.

    Models the pre-resident porting style: the hierarchy is built with the
    host data factory, and every kernel launch goes through
    :class:`~repro.exec.backend.NonResidentDeviceBackend`, which brackets
    it with H2D copies of its inputs and D2H copies of its outputs across
    the PCIe bus.
    """

    def _backend(self, patch, rank):  # noqa: ARG002 — hook signature; resident flavour dispatches on patch
        return rank.nonresident_backend
