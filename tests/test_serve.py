"""Tests for ``repro.serve``: the multi-tenant run service.

The load-bearing guarantee is the last class: a job that is preempted
mid-run and resumed from its checkpoint produces bitwise-identical
fields and dt history to an uninterrupted twin, on every backend.
"""

import numpy as np
import pytest

from repro.api import (ExecutionPolicy, RunConfig, RunSession, SodProblem,
                       fingerprint, run)
from repro.serve import (
    DevicePool,
    JobQueue,
    JobRecord,
    JobSpec,
    JobState,
    NeverFits,
    Scheduler,
    estimate_run_bytes,
)


def _cfg(steps=8, **overrides):
    kwargs = dict(problem=SodProblem((32, 32)), nranks=1, max_steps=steps,
                  max_patch_size=16)
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def _tight_pool(cfg, ndevices=2, headroom=1.5):
    """A pool where each device fits exactly one job of this shape."""
    return DevicePool(ndevices,
                      device_bytes=int(estimate_run_bytes(cfg) * headroom))


class TestRunSession:
    def test_sliced_advance_matches_run(self):
        cfg = _cfg(steps=8)
        straight = run(cfg)
        session = RunSession(cfg)
        taken = 0
        while not session.done:
            taken += session.advance(3)
        sliced = session.result()
        assert taken == 8
        assert sliced.dt_history == straight.dt_history
        assert sliced.final_fields == straight.final_fields

    def test_advance_past_budget_is_a_noop(self):
        session = RunSession(_cfg(steps=2))
        assert session.advance() == 2
        assert session.advance(5) == 0
        session.close()

    def test_resume_carries_dt_history(self):
        cfg = _cfg(steps=6)
        a = RunSession(cfg)
        a.advance(2)
        db = a.checkpoint_db()
        hist = list(a.dt_history)
        a.close()
        b = RunSession(cfg, init_db=db, dt_history=hist)
        b.advance()
        result = b.result()
        assert result.steps == 6
        assert len(result.dt_history) == 6
        assert result.dt_history == run(cfg).dt_history

    def test_fingerprint_scopes(self):
        a, b = _cfg(steps=8), _cfg(steps=9)
        assert fingerprint(a) == fingerprint(b)  # budget is not init state
        assert fingerprint(a, full=True) != fingerprint(b, full=True)
        c = _cfg(steps=8, max_patch_size=8)
        assert fingerprint(a) != fingerprint(c)


class TestDevicePool:
    def test_admits_on_emptiest_devices(self):
        pool = DevicePool(3, device_bytes=100)
        assert pool.try_admit(1, 60) == [0]
        assert pool.try_admit(1, 60) == [1]
        assert pool.try_admit(1, 60) == [2]
        # every device now holds 60/100: another 60 fits nowhere
        assert pool.try_admit(1, 60) is None
        pool.release([1], 60)
        assert pool.try_admit(1, 60) == [1]

    def test_multi_rank_jobs_spread_over_devices(self):
        pool = DevicePool(4, device_bytes=100)
        devices = pool.try_admit(2, 150)
        assert devices is not None and len(devices) == 2
        assert all(pool.ledgers[i].reserved_bytes == 75 for i in devices)

    def test_never_fits_raises(self):
        pool = DevicePool(2, device_bytes=100)
        with pytest.raises(NeverFits):
            pool.check_admissible(1, 101)
        with pytest.raises(NeverFits):
            pool.check_admissible(3, 30)  # more ranks than devices

    def test_reservation_ledger_balances(self):
        pool = DevicePool(2, device_bytes=100)
        devices = pool.try_admit(2, 120)
        assert pool.committed_bytes == 120
        pool.release(devices, 60)
        assert pool.committed_bytes == 0
        assert pool.peak_committed_bytes == 120


class TestJobQueue:
    def test_interactive_dequeues_before_batch(self):
        q = JobQueue()
        b = JobRecord(JobSpec("b", _cfg(), priority="batch"))
        i = JobRecord(JobSpec("i", _cfg(), priority="interactive"))
        q.push(b)
        q.push(i)
        assert list(q) == [i, b]

    def test_preempted_jobs_rejoin_at_front_of_class(self):
        q = JobQueue()
        first = JobRecord(JobSpec("first", _cfg()))
        second = JobRecord(JobSpec("second", _cfg()))
        q.push(first)
        q.push(second)
        victim = JobRecord(JobSpec("victim", _cfg()))
        q.push_front(victim)
        assert list(q) == [victim, first, second]

    def test_bad_priority_rejected(self):
        with pytest.raises(ValueError):
            JobSpec("x", _cfg(), priority="urgentest")


class TestLifecycle:
    def test_single_job_completes(self):
        cfg = _cfg(steps=6)
        scheduler = Scheduler(DevicePool(1), slice_steps=4)
        record = scheduler.submit(JobSpec("solo", cfg, tenant="t1"))
        scheduler.run()
        assert record.state is JobState.COMPLETED
        assert record.steps_done == 6
        assert record.attempts == 1
        assert record.latency is not None and record.latency > 0
        assert record.result.final_fields == run(cfg).final_fields

    def test_event_stream_orders_the_lifecycle(self):
        scheduler = Scheduler(DevicePool(1), slice_steps=2)
        scheduler.submit(JobSpec("solo", _cfg(steps=4)))
        scheduler.run()
        kinds = [e["event"] for e in scheduler.events.for_job("solo")]
        assert kinds[0] == "submitted"
        assert kinds[1] == "admitted"
        assert kinds.count("progress") == 2
        assert kinds[-1] == "completed"

    def test_metrics_are_tenant_namespaced(self):
        scheduler = Scheduler(DevicePool(2), slice_steps=4)
        scheduler.submit(JobSpec("a", _cfg(steps=2), tenant="red"))
        scheduler.submit(JobSpec("b", _cfg(steps=2), tenant="blue"))
        scheduler.run()
        reg = scheduler.registry
        assert reg.counter("serve.completed", tenant="red", job="a").value == 1
        assert reg.counter("serve.completed", tenant="blue", job="b").value == 1
        assert reg.counter("serve.steps", tenant="red", job="a").value == 2

    def test_concurrent_jobs_share_the_pool(self):
        """Two jobs overlap in service time on a roomy pool."""
        scheduler = Scheduler(DevicePool(2), slice_steps=2)
        scheduler.submit(JobSpec("a", _cfg(steps=6)))
        scheduler.submit(JobSpec("b", _cfg(steps=6)))
        scheduler.run()
        events = scheduler.events.history
        admitted = [e["job"] for e in events if e["event"] == "admitted"]
        first_done = next(e for e in events if e["event"] == "completed")
        # both admitted before either completed: genuinely concurrent
        assert set(admitted) == {"a", "b"}
        assert events.index(first_done) > max(
            i for i, e in enumerate(events) if e["event"] == "admitted")


class TestAdmission:
    def test_over_memory_job_queues_instead_of_oom(self):
        cfg = _cfg(steps=4)
        pool = _tight_pool(cfg, ndevices=1)
        scheduler = Scheduler(pool, slice_steps=2)
        a = scheduler.submit(JobSpec("a", cfg))
        b = scheduler.submit(JobSpec("b", _cfg(steps=4)))
        scheduler.round_once()
        # only one fits at a time; the other waits in the queue
        states = {a.state, b.state}
        assert JobState.RUNNING in states and JobState.QUEUED in states
        scheduler.run()
        assert a.state is JobState.COMPLETED
        assert b.state is JobState.COMPLETED
        # they were serialized: second admitted only after first finished
        events = scheduler.events.history
        second_admit = [i for i, e in enumerate(events)
                        if e["event"] == "admitted"][1]
        first_complete = next(i for i, e in enumerate(events)
                              if e["event"] == "completed")
        assert second_admit > first_complete

    def test_impossible_job_fails_at_submit(self):
        pool = DevicePool(1, device_bytes=1024)
        scheduler = Scheduler(pool)
        record = scheduler.submit(JobSpec("whale", _cfg(steps=4)))
        assert record.state is JobState.FAILED
        assert "bytes" in record.error
        assert len(scheduler.queue) == 0
        scheduler.run()  # no pending work, returns immediately

    def test_queued_job_times_out(self):
        cfg = _cfg(steps=12)
        pool = _tight_pool(cfg, ndevices=1)
        scheduler = Scheduler(pool, slice_steps=2)
        a = scheduler.submit(JobSpec("hog", cfg))
        b = scheduler.submit(JobSpec("impatient", _cfg(steps=12),
                                     timeout=1e-6))
        scheduler.run()
        assert a.state is JobState.COMPLETED
        assert b.state is JobState.FAILED
        assert "timeout" in b.error


class TestRetries:
    def test_failed_slice_retries_from_scratch(self, monkeypatch):
        import repro.serve.scheduler as sched_mod

        real = sched_mod.RunSession
        fails = {"left": 1}

        class Flaky(real):
            def advance(self, max_steps=None):
                if fails["left"] > 0:
                    fails["left"] -= 1
                    raise RuntimeError("injected device fault")
                return super().advance(max_steps)

        monkeypatch.setattr(sched_mod, "RunSession", Flaky)
        cfg = _cfg(steps=4)
        scheduler = Scheduler(DevicePool(1), slice_steps=2)
        record = scheduler.submit(JobSpec("flaky", cfg, max_retries=1))
        scheduler.run()
        assert record.state is JobState.COMPLETED
        assert record.attempts == 2
        assert [e["event"] for e in scheduler.events.for_job("flaky")
                ].count("retry") == 1
        # deterministic replay: the retried run matches a clean one
        assert record.result.final_fields == run(cfg).final_fields

    def test_retries_exhausted_fails_terminally(self, monkeypatch):
        import repro.serve.scheduler as sched_mod

        real = sched_mod.RunSession

        class AlwaysBroken(real):
            def advance(self, max_steps=None):  # noqa: ARG002
                raise RuntimeError("injected device fault")

        monkeypatch.setattr(sched_mod, "RunSession", AlwaysBroken)
        scheduler = Scheduler(DevicePool(1), slice_steps=2)
        record = scheduler.submit(JobSpec("doomed", _cfg(steps=4),
                                          max_retries=1))
        scheduler.run()
        assert record.state is JobState.FAILED
        assert record.attempts == 2
        assert "injected" in record.error
        # the failed job's reservations were returned
        assert scheduler.pool.committed_bytes == 0


class TestPlanCache:
    def test_identical_jobs_share_the_init_snapshot(self):
        cfg_a, cfg_b = _cfg(steps=4), _cfg(steps=4)
        scheduler = Scheduler(DevicePool(2), slice_steps=4)
        a = scheduler.submit(JobSpec("a", cfg_a))
        b = scheduler.submit(JobSpec("b", cfg_b))
        scheduler.run()
        assert scheduler.cache.hits >= 1
        hits = scheduler.events.of_kind("cache-hit")
        assert [e["job"] for e in hits] == ["b"]
        # restored-from-snapshot results are bitwise identical
        assert a.result.final_fields == b.result.final_fields
        assert a.result.dt_history == b.result.dt_history

    def test_observed_footprint_replaces_the_estimate(self):
        cfg = _cfg(steps=2, use_gpu=True)
        scheduler = Scheduler(DevicePool(1), slice_steps=2)
        scheduler.submit(JobSpec("first", cfg))
        scheduler.run()
        observed = scheduler.cache.observed_bytes(fingerprint(cfg))
        assert observed is not None and 0 < observed < estimate_run_bytes(cfg)


BACKENDS = {
    "host": dict(use_gpu=False),
    "resident": dict(use_gpu=True, resident=True),
    "nonresident": dict(use_gpu=True, resident=False),
    "resident-batch": dict(use_gpu=True, resident=True,
                           execution=ExecutionPolicy(batch=True)),
}


class TestPreemptResumeDeterminism:
    """The tentpole invariant: preemption never changes a single bit."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_preempted_job_matches_uninterrupted_twin(self, backend):
        overrides = BACKENDS[backend]
        batch_cfg = _cfg(steps=10, **overrides)
        pool = _tight_pool(batch_cfg, ndevices=2)
        scheduler = Scheduler(pool, slice_steps=3)
        scheduler.submit(JobSpec("batch-a", batch_cfg))
        scheduler.submit(JobSpec("batch-b", _cfg(steps=10, **overrides)))
        scheduler.round_once()
        scheduler.submit(JobSpec("urgent", _cfg(steps=4, **overrides),
                                 priority="interactive"))
        records = scheduler.run()

        assert all(r.state is JobState.COMPLETED for r in records)
        preempted = [r for r in records if r.preemptions > 0]
        assert preempted, "tight pool must have forced a preemption"
        for record in preempted:
            twin = run(record.spec.cfg)
            assert record.result.dt_history == twin.dt_history
            assert record.result.final_fields == twin.final_fields
            for k, v in record.result.final_fields.items():
                assert np.float64(v) == np.float64(twin.final_fields[k])


def _queue_line(**edits):
    """One valid queue-file line with keys replaced (None deletes)."""
    import json

    from repro.serve.cli import spec_to_json

    d = json.loads(spec_to_json(
        JobSpec("j", _cfg(execution=ExecutionPolicy(batch=True)))))
    d.update(edits)
    return json.dumps({k: v for k, v in d.items() if v is not None})


class TestQueueFile:
    """The queue file is outside input: bad lines fail typed, naming the
    line and the key, instead of escaping as TypeError/KeyError."""

    def test_round_trip(self):
        from repro.serve.cli import spec_from_json

        spec = spec_from_json(_queue_line())
        assert spec.name == "j"
        assert spec.cfg.execution == ExecutionPolicy(batch=True)
        assert fingerprint(spec.cfg, full=True) == fingerprint(
            _cfg(execution=ExecutionPolicy(batch=True)), full=True)

    @pytest.mark.parametrize("line,needle", [
        ("{not json", "not JSON"),
        (_queue_line(problem=None), "'problem'"),
        (_queue_line(problem="kelvin_helmholtz"), "'kelvin_helmholtz'"),
        # an old queue file: the removed knobs are unknown keys now
        (_queue_line(execution={"batch": True, "scheduler": True}),
         "execution key 'scheduler'"),
        (_queue_line(execution={"kernels": "slab"}),
         "execution key 'kernels'"),
        (_queue_line(regrid={"interval": 3, "every": 2}),
         "regrid key 'every'"),
    ])
    def test_bad_line_raises_queue_format_error(self, line, needle):
        from repro.serve.cli import QueueFormatError, spec_from_json

        with pytest.raises(QueueFormatError, match="queue line 7") as exc:
            spec_from_json(line, 7)
        assert needle in str(exc.value)

    def test_serve_reports_the_line_and_exits_2(self, tmp_path, capsys):
        from repro.serve.cli import serve_main

        queue = tmp_path / "q.jsonl"
        queue.write_text(_queue_line() + "\n\n"
                         + _queue_line(batch=True, execution=None,
                                      regrid={"regrid_interval": 2}) + "\n")
        assert serve_main(["--queue", str(queue)]) == 2
        err = capsys.readouterr().err
        assert "queue line 3" in err and "'regrid_interval'" in err


class TestServeLintRule:
    """serve code may only enter simulations through repro.api."""

    @staticmethod
    def _lint(tmp_path, source):
        import textwrap

        from repro.check.static import run_checks

        path = tmp_path / "src" / "repro" / "serve" / "mod.py"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return run_checks([path], do_static=False)[0]

    def test_flags_simulation_internals(self, tmp_path):
        violations = self._lint(tmp_path, """
            from repro.hydro.problems import SodProblem
            from ..mesh.hierarchy import PatchHierarchy
            import repro.exec
        """)
        assert [v.rule for v in violations] == ["serve"] * 3
        assert all("repro.api" in v.message for v in violations)

    def test_allows_facade_and_siblings(self, tmp_path):
        assert self._lint(tmp_path, """
            from ..api import RunConfig, RunSession
            from ..obs import MetricsRegistry
            from ..gpu.pool import MemoryPool
            from ..perf.machines import MACHINES
            from .job import JobSpec
            import repro.api
        """) == []

    def test_waiver_silences_the_rule(self, tmp_path):
        assert self._lint(tmp_path, """
            from ..hydro.problems import SodProblem  # samrcheck: ok
        """) == []

    def test_serve_package_is_clean(self):
        from pathlib import Path

        import repro.serve
        from repro.check.static import run_checks

        def lint_paths(paths):
            return run_checks(paths, do_static=False)[0]

        pkg = Path(repro.serve.__file__).parent
        assert lint_paths([pkg]) == []
