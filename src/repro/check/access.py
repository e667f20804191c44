"""The ``--sanitize`` runtime checker (dynamic part of samrcheck).

Three cooperating mechanisms, all observation-only (bitwise-identical
fields with the checker on — tests enforce it):

**Instrumented handouts.** While a kernel or task scope is open,
:func:`repro.exec.backend.array_of` routes every array handout through
:meth:`SanitizeChecker.on_handout`.  Declared reads receive *read-only
views* (a write through one raises immediately, attributed to the kernel
and its declaration); declared writes receive the live array; undeclared
handouts receive the live array plus a content checksum so the scope end
can classify the access as an undeclared read or write.  Outside any
scope (ambient host code, diagnostics) handouts pass through untouched.

**Ghost-generation stamping.**  Every patch-data object carries an
*interior generation*, bumped whenever a task writes its interior, and a
*ghost stamp*: the map ``source → generation`` recorded when a halo fill
copied that source's interior into this object's ghosts.  A kernel that
declares ghost reads is validated against the stamp: any source whose
interior generation has moved past the stamped one means the kernel is
reading stale halos.  The state machine runs in *emission order* (the
serial call order), which is the order that defines the intended
data-flow — execution-order replays of the same graph are covered by the
happens-before check instead.

**Happens-before replay.**  After a task graph executes, ancestor sets
over the DAG are computed and every pair of tasks whose *actual* accesses
(declared plus observed-undeclared) conflict on the same datum must have
a path between them; a missing path is exactly a lost dependency edge —
the bug class a forgotten ``writes=`` entry causes.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import DeclaredAccessError, RaceError, StaleHaloError

__all__ = ["SanitizeChecker"]

#: cap on the number of violation lines included in one raised error
_MAX_REPORTED = 20


def _crc(arr: np.ndarray) -> int:
    return zlib.crc32(np.asarray(arr).tobytes())


class _Scope:
    """One open kernel/task access scope (they never nest)."""

    __slots__ = ("label", "reads", "writes", "handouts", "task")

    def __init__(self, label, read_ids, write_ids, task=None):
        self.label = label
        self.reads = read_ids
        self.writes = write_ids
        #: id(pd) -> (pd, checksum-before or None for declared accesses,
        #: the handed-out array — checksummed again at scope end)
        self.handouts: dict[int, tuple] = {}
        self.task = task


class SanitizeChecker:
    """Shadow state and validation for one ``--sanitize`` run."""

    def __init__(self):
        #: strong refs so id() keys can never be recycled onto new objects
        self._known: dict[int, object] = {}
        #: id(pd) -> interior write generation
        self._interior_gen: dict[int, int] = {}
        #: id(dst) -> {id(src): src interior generation when stamped}
        self._ghost_stamp: dict[int, dict[int, int]] = {}
        # Sweep tracking: a run of consecutive emissions with the same
        # label is one *sweep* (the per-patch kernel loop).  Interior
        # writes made during the current sweep are invisible to ghost
        # validation — Jacobi semantics: every patch of a sweep reads its
        # neighbours' pre-sweep halos by design, and only writes that a
        # halo fill *should* have republished count as staleness.
        self._sweep_id = 0
        self._last_label: str | None = None
        #: id(pd) -> sweep in which it was last interior-written
        self._write_sweep: dict[int, int] = {}
        #: id(pd) -> its generation when the current sweep first wrote it
        self._sweep_base_gen: dict[int, int] = {}
        self._scope: _Scope | None = None
        #: counters surfaced by the CLI after a clean run
        self.tasks_checked = 0
        self.kernels_checked = 0
        self.graphs_checked = 0

    # -- naming ----------------------------------------------------------------

    def name_of(self, obj) -> str:
        name = getattr(obj, "var_name", None)
        if name is not None:
            return name
        label = getattr(obj, "label", None)
        if label is not None and hasattr(obj, "tid"):
            return f"<result of {label}>"
        return type(obj).__name__

    def _retain(self, obj) -> int:
        key = id(obj)
        self._known[key] = obj
        return key

    # -- ghost-generation machinery (emission order) ---------------------------

    def note_interior_write(self, pd) -> None:
        """Record that ``pd``'s interior has a new generation."""
        key = self._retain(pd)
        cur = self._interior_gen.get(key, 0)
        if self._write_sweep.get(key) != self._sweep_id:
            self._write_sweep[key] = self._sweep_id
            self._sweep_base_gen[key] = cur
        self._interior_gen[key] = cur + 1

    def reset_stamps(self, pd) -> None:
        """A full ghost refill of ``pd`` begins: drop its old stamps."""
        self._ghost_stamp[self._retain(pd)] = {}

    def stamp(self, dst, srcs) -> None:
        """Record that ``dst``'s ghosts now mirror each src's interior."""
        entry = self._ghost_stamp.setdefault(self._retain(dst), {})
        for src in srcs:
            skey = self._retain(src)
            if skey != id(dst):
                entry[skey] = self._interior_gen.get(skey, 0)

    def propagate_stamps(self, dst, srcs) -> None:
        """``dst``'s ghosts were *derived from* the srcs' ghosts (EOS over
        the frame): dst inherits their stamps, oldest generation wins."""
        merged: dict[int, int] = {}
        for src in srcs:
            for skey, gen in self._ghost_stamp.get(id(src), {}).items():
                if skey != id(dst):
                    merged[skey] = min(gen, merged.get(skey, gen))
        self._ghost_stamp[self._retain(dst)] = merged

    def apply_marks(self, marks) -> None:
        """Apply ghost-stamp directives: (op, dst, srcs) triples with op in
        ``reset`` / ``stamp`` / ``propagate``."""
        for op, dst, srcs in marks:
            if op == "reset":
                self.reset_stamps(dst)
            elif op == "stamp":
                self.stamp(dst, srcs)
            elif op == "propagate":
                self.propagate_stamps(dst, srcs)
            else:
                raise ValueError(f"unknown ghost mark op {op!r}")

    def validate_ghost_read(self, label: str, pd) -> None:
        """Raise if ``pd``'s ghost regions are older than what they mirror.

        Writes made during the current sweep don't count: a sweep's
        patches read each other's *pre-sweep* halos by construction.
        """
        for skey, gen in self._ghost_stamp.get(id(pd), {}).items():
            cur = self._interior_gen.get(skey, 0)
            if self._write_sweep.get(skey) == self._sweep_id:
                cur = self._sweep_base_gen.get(skey, cur)
            if cur > gen:
                src = self._known.get(skey)
                raise StaleHaloError(
                    f"stale halo: {label!r} reads ghosts of "
                    f"{self.name_of(pd)} stamped from {self.name_of(src)} at "
                    f"generation {gen}, but that interior is now generation "
                    f"{cur} — a halo fill is missing or mis-ordered"
                )

    def note_emission(self, label: str, reads=(), writes=(),  # noqa: ARG002 — declared reads are part of the emission contract
                      ghost_reads=(), ghost_only=False, marks=()) -> None:
        """One unit of work in emission (= serial) order: validate its
        ghost reads, then apply its ghost effects."""
        if label != self._last_label:
            self._sweep_id += 1
            self._last_label = label
        for pd in ghost_reads:
            self.validate_ghost_read(label, pd)
        self.apply_marks(marks)
        if not ghost_only:
            for pd in writes:
                self.note_interior_write(pd)

    # -- access scopes (execution order) ---------------------------------------

    def begin_kernel(self, label: str, reads=(), writes=(),
                     ghost_reads=(), ghost_only=False, marks=()):
        """Open a kernel scope (serial path).  Inside a task scope the
        task's own declarations govern, so this is a no-op returning None."""
        if self._scope is not None:
            return None
        self.note_emission(label, reads, writes,
                           ghost_reads=ghost_reads, ghost_only=ghost_only,
                           marks=marks)
        self.kernels_checked += 1
        self._scope = _Scope(label, {id(pd) for pd in reads},
                             {id(pd) for pd in writes})
        for pd in (*reads, *writes):
            self._retain(pd)
        return self._scope

    def end_kernel(self, scope) -> None:
        """Close a kernel scope; undeclared accesses raise immediately
        (the serial path has no graph replay to defer to)."""
        if scope is None:
            return
        self._scope = None
        problems = self._classify_undeclared(scope)
        if problems:
            raise DeclaredAccessError("\n".join(
                f"undeclared {kind} of {self.name_of(pd)} by kernel "
                f"{scope.label!r} (declare it in reads=/writes=)"
                for pd, kind in problems))

    def abort_kernel(self, scope) -> None:
        """Close a kernel scope without checking (an error is propagating)."""
        if scope is not None:
            self._scope = None

    def begin_task(self, task) -> None:
        """Open the access scope for one executing graph task."""
        if self._scope is not None:  # pragma: no cover - defensive
            self._scope = None
        self._scope = _Scope(
            task.label,
            {id(pd) for pd in task.reads},
            {id(pd) for pd in task.writes},
            task=task,
        )
        self.tasks_checked += 1

    def end_task(self, task) -> None:
        """Close a task scope; undeclared accesses are recorded on the
        task and reported by :meth:`check_graph` with full DAG context."""
        scope, self._scope = self._scope, None
        if scope is None or scope.task is not task:
            return
        # overwritten on every run: a replayed task carries only its own
        task._chk_undeclared = self._classify_undeclared(scope)

    def _classify_undeclared(self, scope) -> list:
        out = []
        for pd, before, arr in scope.handouts.values():
            if before is None:
                continue
            kind = "write" if _crc(arr) != before else "read"
            out.append((pd, kind))
        return out

    def on_handout(self, pd, arr: np.ndarray) -> np.ndarray:
        """Instrument one array handout inside the open scope."""
        scope = self._scope
        if scope is None:
            return arr
        key = id(pd)
        if key in scope.writes:
            scope.handouts.setdefault(key, (pd, None, None))
            return arr
        if key in scope.reads:
            scope.handouts.setdefault(key, (pd, None, None))
            view = arr.view()
            view.flags.writeable = False
            return view
        if key not in scope.handouts:
            self._retain(pd)
            scope.handouts[key] = (pd, _crc(arr), arr)
        return arr

    def on_slab_handout(self, pds, arr: np.ndarray) -> np.ndarray:
        """Instrument a whole-slab stacked handout (``--batch``).

        ``arr`` stacks the ``pds``' frames on axis 0; the group is the
        slab twin of per-patch handouts, so its declared role must be
        uniform — all of the scope's reads get one read-only view, all
        writes get the live array.  A bucket sweep declares each operand
        with one role for all of its patches, so a mixed or undeclared
        group is a mis-declared member: it raises here, before the
        kernel runs on the handout, rather than falling back to
        checksums.
        """
        scope = self._scope
        if scope is None:
            return arr
        keys = [id(pd) for pd in pds]
        if all(key in scope.writes for key in keys):
            for pd, key in zip(pds, keys):
                scope.handouts.setdefault(key, (pd, None, None))
            return arr
        if all(key in scope.reads for key in keys):
            for pd, key in zip(pds, keys):
                scope.handouts.setdefault(key, (pd, None, None))
            view = arr.view()
            view.flags.writeable = False
            return view
        raise DeclaredAccessError(
            f"mixed or undeclared slab handout in kernel {scope.label!r}: "
            f"every member of a stacked operand must share one declared "
            f"role (all reads or all writes)")

    # -- happens-before replay --------------------------------------------------

    def check_graph(self, graph) -> None:
        """Replay an executed DAG: report undeclared accesses and
        DAG-concurrent conflicting pairs (the missing-edge bug class)."""
        self.graphs_checked += 1
        tasks = list(graph)
        anc: dict[int, int] = {}
        for t in tasks:  # deps always precede their dependents by tid
            bits = 0
            for d in t.deps:
                bits |= anc[d.tid] | (1 << d.tid)
            anc[t.tid] = bits

        undeclared_msgs: list[str] = []
        accesses: dict[int, list[tuple]] = {}  # id(datum) -> [(task, writes?)]
        for t in tasks:
            # a task writes its own result slot (read by ``reads=[task]``)
            accesses.setdefault(id(t), []).append((t, True))
            for pd in t.writes:
                accesses.setdefault(self._retain(pd), []).append((t, True))
            for pd in t.reads:
                accesses.setdefault(self._retain(pd), []).append((t, False))
            for pd, kind in t._chk_undeclared:
                accesses.setdefault(self._retain(pd), []).append(
                    (t, kind == "write"))
                undeclared_msgs.append(
                    f"undeclared {kind} of {self.name_of(pd)} by task "
                    f"{t.label!r} (task {t.tid}) — add it to the task's "
                    f"{'writes' if kind == 'write' else 'reads'} declaration")

        race_msgs: list[str] = []
        for key, accs in accesses.items():
            if not any(w for _, w in accs):
                continue
            name = self.name_of(self._known.get(key, accs[0][0]))
            for i, (a, aw) in enumerate(accs):
                for b, bw in accs[i + 1:]:
                    if not (aw or bw) or a.tid == b.tid:
                        continue
                    ordered = (anc[b.tid] >> a.tid) & 1 or \
                              (anc[a.tid] >> b.tid) & 1
                    if not ordered:
                        race_msgs.append(
                            f"race on {name}: {a.label!r} (task {a.tid}, "
                            f"{'write' if aw else 'read'}) and {b.label!r} "
                            f"(task {b.tid}, {'write' if bw else 'read'}) "
                            f"have no happens-before path — missing edge "
                            f"{a.tid} -> {b.tid}")

        if race_msgs:
            raise RaceError("\n".join(
                (race_msgs + undeclared_msgs)[:_MAX_REPORTED]))
        if undeclared_msgs:
            raise DeclaredAccessError(
                "\n".join(undeclared_msgs[:_MAX_REPORTED]))
