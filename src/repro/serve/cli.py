"""``repro submit`` / ``repro serve``: the file-queue front end.

``repro submit`` appends one JSON job description per line to a queue
file; ``repro serve`` loads every line, submits them in order to a
:class:`~repro.serve.scheduler.Scheduler` over a shared
:class:`~repro.serve.pool.DevicePool`, drives the service to completion
and prints a per-job summary (state, steps, preemptions, virtual
latency).  The queue file is the only hand-off: submission and service
can run in different invocations.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..api import (
    AUTO,
    PROBLEMS,
    ExecutionPolicy,
    ObservabilityConfig,
    RegridPolicy,
    RunConfig,
)
from .job import PRIORITIES, JobSpec, JobState
from .pool import DevicePool
from .scheduler import Scheduler

__all__ = ["submit_main", "serve_main", "spec_from_json", "spec_to_json",
           "QueueFormatError"]


class QueueFormatError(ValueError):
    """A queue-file line is not a job description this version accepts."""



def spec_to_json(spec: JobSpec) -> str:
    """One queue-file line for a job spec."""
    cfg = spec.cfg
    return json.dumps({
        "name": spec.name,
        "tenant": spec.tenant,
        "priority": spec.priority,
        "max_retries": spec.max_retries,
        "timeout": spec.timeout,
        "problem": next(k for k, v in PROBLEMS.items()
                        if isinstance(cfg.problem, v)),
        "resolution": list(cfg.problem.base_resolution),
        "machine": cfg.machine,
        "nranks": cfg.nranks,
        "use_gpu": cfg.use_gpu,
        "resident": cfg.resident,
        "max_levels": cfg.max_levels,
        "max_patch_size": cfg.max_patch_size,
        "execution": cfg.execution.as_dict(),
        "regrid": cfg.regrid.as_dict(),
        "max_steps": cfg.max_steps,
        "end_time": cfg.end_time,
        "sanitize": cfg.sanitize,
    })


def _policy(cls, d: dict, key: str, lineno: int):
    """Build one policy sub-config from its queue-file dict."""
    fields = d.get(key, {})
    unknown = sorted(set(fields) - set(cls().as_dict()))
    if unknown:
        raise QueueFormatError(
            f"queue line {lineno}: unknown {key} key {unknown[0]!r}")
    return cls(**fields)


def spec_from_json(line: str, lineno: int = 1) -> JobSpec:
    """Rebuild a job spec from one queue-file line.

    The queue file is outside input: a line that is not a JSON object,
    lacks a required key, or whose ``execution``/``regrid`` dict carries
    a key this version does not know raises :class:`QueueFormatError`
    naming the 1-based ``lineno`` and the offending key.
    """
    try:
        d = json.loads(line)
    except json.JSONDecodeError as e:
        raise QueueFormatError(
            f"queue line {lineno}: not JSON ({e.msg})") from e
    if not isinstance(d, dict):
        raise QueueFormatError(f"queue line {lineno}: not a JSON object")
    for key in ("name", "problem", "resolution"):
        if key not in d:
            raise QueueFormatError(
                f"queue line {lineno}: missing required key {key!r}")
    if d["problem"] not in PROBLEMS:
        raise QueueFormatError(
            f"queue line {lineno}: unknown problem {d['problem']!r}")
    cfg = RunConfig(
        problem=PROBLEMS[d["problem"]](tuple(d["resolution"])),
        machine=d.get("machine", "IPA"),
        nranks=d.get("nranks", 1),
        use_gpu=d.get("use_gpu", True),
        resident=d.get("resident", True),
        max_levels=d.get("max_levels", 3),
        max_patch_size=d.get("max_patch_size", 64),
        execution=_policy(ExecutionPolicy, d, "execution", lineno),
        regrid=_policy(RegridPolicy, d, "regrid", lineno),
        max_steps=d.get("max_steps"),
        end_time=d.get("end_time"),
        sanitize=d.get("sanitize", False),
        observability=ObservabilityConfig(),
    )
    return JobSpec(
        name=d["name"],
        cfg=cfg,
        tenant=d.get("tenant", "default"),
        priority=d.get("priority", "batch"),
        max_retries=d.get("max_retries", 1),
        timeout=d.get("timeout"),
    )


def _submit_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro submit",
        description="Append one job to a serve queue file")
    p.add_argument("--queue", required=True, help="queue file to append to")
    p.add_argument("--name", required=True)
    p.add_argument("--tenant", default="default")
    p.add_argument("--priority", choices=PRIORITIES, default="batch")
    p.add_argument("--max-retries", type=int, default=1)
    p.add_argument("--timeout", type=float, default=None,
                   help="virtual seconds before the job is failed")
    p.add_argument("--problem", choices=sorted(PROBLEMS), default="sod")
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--machine", default="IPA")
    p.add_argument("--nodes", type=int, default=1, dest="nranks")
    p.add_argument("--cpu", action="store_true")
    p.add_argument("--non-resident", action="store_true")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--max-patch", type=int, default=64)
    p.add_argument("--regrid-interval", type=int, default=5)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--end-time", type=float, default=None)
    p.add_argument("--batch", action="store_true")
    p.add_argument("--auto", action="store_true",
                   help="auto-tune the execution policy at admission "
                        "(probe steps run when the job is submitted)")
    p.add_argument("--sanitize", action="store_true")
    return p


def submit_main(argv=None) -> int:
    args = _submit_parser().parse_args(argv)
    if args.steps is None and args.end_time is None:
        print("need --steps or --end-time", file=sys.stderr)
        return 2
    problem = PROBLEMS[args.problem]((args.resolution, args.resolution))
    execution = ExecutionPolicy(
        mode="auto" if args.auto else "fixed",
        batch=True if args.batch else AUTO,
    )
    cfg = RunConfig(
        problem=problem, machine=args.machine, nranks=args.nranks,
        use_gpu=not args.cpu, resident=not args.non_resident,
        max_levels=args.levels, max_patch_size=args.max_patch,
        execution=execution,
        regrid=RegridPolicy(interval=args.regrid_interval),
        max_steps=args.steps,
        end_time=args.end_time,
        sanitize=args.sanitize,
    )
    spec = JobSpec(name=args.name, cfg=cfg, tenant=args.tenant,
                   priority=args.priority, max_retries=args.max_retries,
                   timeout=args.timeout)
    with open(args.queue, "a") as fh:
        fh.write(spec_to_json(spec) + "\n")
    print(f"queued {spec.name!r} ({spec.priority}, tenant={spec.tenant}) "
          f"-> {args.queue}")
    return 0


def _serve_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro serve",
        description="Run every job in a queue file over a shared device pool")
    p.add_argument("--queue", required=True, help="queue file to drain")
    p.add_argument("--devices", type=int, default=4,
                   help="devices in the shared pool")
    p.add_argument("--machine", default="IPA")
    p.add_argument("--device-bytes", type=int, default=None,
                   help="override per-device capacity (bytes)")
    p.add_argument("--slice-steps", type=int, default=4,
                   help="steps per scheduling slice")
    p.add_argument("--events", action="store_true",
                   help="print the event stream while serving")
    p.add_argument("--json", action="store_true",
                   help="emit the summary as JSON")
    return p


def serve_main(argv=None) -> int:
    args = _serve_parser().parse_args(argv)
    try:
        with open(args.queue) as fh:
            specs = [spec_from_json(line, lineno)
                     for lineno, line in enumerate(fh, 1) if line.strip()]
    except QueueFormatError as e:
        print(f"{args.queue}: {e}", file=sys.stderr)
        return 2
    if not specs:
        print("queue file is empty", file=sys.stderr)
        return 2
    pool = DevicePool(args.devices, machine=args.machine,
                      device_bytes=args.device_bytes)
    scheduler = Scheduler(pool, slice_steps=args.slice_steps)
    if args.events:
        scheduler.events.subscribe(
            lambda e: print(f"[{e['clock']:10.6f}] {e['event']:<10} "
                            f"{e['job']}", file=sys.stderr))
    for spec in specs:
        scheduler.submit(spec)
    records = scheduler.run()
    if args.json:
        print(json.dumps([{
            "job": r.name, "tenant": r.spec.tenant,
            "priority": r.spec.priority, "state": r.state.value,
            "steps": r.steps_done, "attempts": r.attempts,
            "preemptions": r.preemptions, "latency": r.latency,
            "error": r.error,
        } for r in records], indent=2))
    else:
        print(f"{'job':<16} {'priority':<12} {'state':<10} {'steps':>6} "
              f"{'preempt':>8} {'latency(s)':>12}")
        for r in records:
            lat = f"{r.latency:.6f}" if r.latency is not None else "-"
            print(f"{r.name:<16} {r.spec.priority:<12} {r.state.value:<10} "
                  f"{r.steps_done:>6} {r.preemptions:>8} {lat:>12}")
    failed = [r for r in records if r.state is JobState.FAILED]
    return 1 if failed else 0
