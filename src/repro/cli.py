"""Command-line driver: ``python -m repro [options]``.

Runs a CleverLeaf simulation from command-line options (the moral
equivalent of CloverLeaf's ``clover.in`` input deck) and prints the field
summary and runtime breakdown; optionally writes VTK dumps and a restart
checkpoint.

Subcommands: ``repro serve`` / ``repro submit`` (the multi-tenant run
service), ``repro check`` (static analysis: seam lint, declared-access
effect checking against kernel ASTs, module layering — see
``repro check --help``) and ``repro check perf`` (gate benchmark
manifests against committed perf baselines).
"""

from __future__ import annotations

import argparse
import sys

from .api import (
    AUTO,
    PROBLEMS,
    ExecutionPolicy,
    ObservabilityConfig,
    RegridPolicy,
    RunConfig,
    run,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="CleverLeaf reproduction: GPU-resident AMR hydrodynamics",
    )
    p.add_argument("--problem", choices=sorted(PROBLEMS), default="sod")
    p.add_argument("--resolution", type=int, nargs=2, default=None,
                   metavar=("NX", "NY"), help="base (coarse) resolution")
    p.add_argument("--machine", choices=["IPA", "Titan"], default="IPA")
    p.add_argument("--nodes", type=int, default=1,
                   help="simulated node count")
    p.add_argument("--cpu", action="store_true",
                   help="run the CPU build (default: GPU resident)")
    p.add_argument("--non-resident", action="store_true",
                   help="GPU build that copies per kernel (ablation)")
    p.add_argument("--levels", type=int, default=3, help="max AMR levels")
    p.add_argument("--max-patch", type=int, default=64)
    p.add_argument("--regrid-interval", type=int, default=5)
    p.add_argument("--regrid-incremental", action="store_true",
                   help="incremental regrid: reuse clustered boxes when a "
                        "level's buffered tag bitmap is unchanged, keep "
                        "levels whose boxes+owners did not move, and serve "
                        "transfer schedules from the (src,dst)-keyed cache "
                        "(bitwise identical; changes time only)")
    p.add_argument("--balance", choices=["sfc", "hilbert", "lpt"],
                   default="sfc",
                   help="distribution map: 'sfc' splits the Morton curve "
                        "into contiguous weight-balanced segments (falls "
                        "back to LPT when imbalance exceeds the threshold), "
                        "'hilbert' uses a Hilbert curve, 'lpt' is pure "
                        "longest-processing-time greedy")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--end-time", type=float, default=None)
    p.add_argument("--overlap", action="store_true",
                   help="record each step into task graphs and overlap "
                        "halo transfers with compute on per-rank copy "
                        "streams (bitwise identical to the serial path)")
    p.add_argument("--batch", action="store_true",
                   help="level-wide launches and rank-pair messages: "
                        "sweep each kernel once per patch shape over the "
                        "level's arena, fused into one launch per level, "
                        "and send one message per rank pair per transfer "
                        "instead of per-patch launches and patch-pair "
                        "messages (bitwise identical; changes modelled "
                        "time only)")
    p.add_argument("--auto", action="store_true",
                   help="auto-tune the execution policy: probe a few steps "
                        "per candidate (serial / batch / overlap+batch) "
                        "and pick the best modelled grind; flags "
                        "you pass explicitly stay pinned, the tuner only "
                        "decides the rest (bitwise identical to the chosen "
                        "flags run by hand)")
    p.add_argument("--sanitize", action="store_true",
                   help="run with the samrcheck sanitizer: verify declared "
                        "accesses, replay the DAG's happens-before relation, "
                        "and flag residency/stale-halo violations (bitwise "
                        "identical to a normal run; exits non-zero on a "
                        "violation)")
    p.add_argument("--trace", metavar="FILE.json", default=None,
                   help="write a Chrome-trace/Perfetto timeline of the run "
                        "(one track per rank × stream; load in "
                        "ui.perfetto.dev).  Observation-only: the traced "
                        "run is bitwise identical to an untraced one")
    p.add_argument("--metrics-interval", type=int, default=None,
                   metavar="N", help="record a rank-merged metrics snapshot "
                                     "every N steps")
    p.add_argument("--profile", action="store_true",
                   help="print the per-kernel / per-transfer attribution "
                        "table collected at the execution-backend seam")
    p.add_argument("--vtk", metavar="DIR", default=None,
                   help="write VTK dumps to this directory at the end")
    p.add_argument("--checkpoint", metavar="FILE.npz", default=None,
                   help="write a restart checkpoint at the end")
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Service subcommands: everything else is the single-run front end.
    if argv and argv[0] == "serve":
        from .serve.cli import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "submit":
        from .serve.cli import submit_main

        return submit_main(argv[1:])
    if argv and argv[0] == "check":
        if len(argv) > 1 and argv[1] == "perf":
            from .check.perf import perf_main

            return perf_main(argv[2:])
        from .check.static import check_main

        return check_main(argv[1:])
    args = build_parser().parse_args(argv)
    problem_cls = PROBLEMS[args.problem]
    problem = (problem_cls(tuple(args.resolution)) if args.resolution
               else problem_cls())
    machine = args.machine
    gpus_per_node = 2 if machine.upper() == "IPA" else 1
    use_gpu = not args.cpu
    nranks = args.nodes * (gpus_per_node if use_gpu else 1)

    # Flags the user passed pin policy fields; everything else stays
    # "auto" — resolved statically (off) in fixed mode, decided by probe
    # measurement under --auto.
    execution = ExecutionPolicy(
        mode="auto" if args.auto else "fixed",
        overlap=True if args.overlap else AUTO,
        batch=True if args.batch else AUTO,
    )
    regrid = RegridPolicy(
        interval=args.regrid_interval,
        incremental=True if args.regrid_incremental else AUTO,
        balance=args.balance,
    )
    cfg = RunConfig(
        problem=problem,
        machine=machine,
        nranks=nranks,
        use_gpu=use_gpu,
        resident=not args.non_resident,
        max_levels=args.levels,
        max_patch_size=args.max_patch,
        execution=execution,
        regrid=regrid,
        max_steps=args.steps if args.steps is not None else (
            None if args.end_time is not None else 20),
        end_time=args.end_time,
        sanitize=args.sanitize,
        observability=ObservabilityConfig(
            trace_path=args.trace,
            metrics_interval=args.metrics_interval,
        ),
        checkpoint_path=args.checkpoint,
    )
    build = ("CPU" if not use_gpu
             else "GPU resident" if cfg.resident else "GPU copy-per-kernel")
    if args.auto:
        mode = ", auto-tuned execution policy"
    else:
        ep, _ = cfg.resolved_policies()
        mode = ", task-graph scheduler + overlap" if ep.overlap else ""
        if ep.batch:
            mode += ", batched launches"
    if cfg.sanitize:
        mode += ", sanitize"
    print(f"running {args.problem} on {args.nodes} {machine} node(s), "
          f"{nranks} rank(s), {build} build{mode}")
    try:
        res = run(cfg)
    except Exception as e:
        from .check.errors import CheckError

        if isinstance(e, CheckError):
            print(f"\nsanitize: {type(e).__name__}:\n{e}", file=sys.stderr)
            return 2
        raise
    sim = res.sim

    tuned = res.policies.get("tuned")
    if tuned:
        ep = res.policies.get("execution", {})
        print(f"auto-tuned: picked '{tuned['winner']}' from "
              f"{len(tuned['probes'])} probes of {tuned['probe_steps']} "
              f"step(s) — overlap={ep.get('overlap')} "
              f"batch={ep.get('batch')}")
    print(f"\nadvanced {res.steps} steps to t = {sim.time:.5f}; "
          f"{res.cells} cells on {sim.hierarchy.num_levels} levels")
    s = res.final_fields
    print(f"mass = {s['mass']:.6f}  internal = {s['ie']:.6f}  "
          f"kinetic = {s['ke']:.6f}")
    if res.sanitize_counters is not None:
        c = res.sanitize_counters
        print(f"sanitize: clean — {c['tasks']} tasks, {c['kernels']} serial "
              f"kernels, {c['graphs']} graphs checked")
    print(f"\nmodelled runtime: {res.runtime:.4f}s "
          f"(grind {res.grind_time:.3e} s/cell/step)")
    total = sum(res.timers.get(k, 0.0)
                for k in ("hydro", "timestep", "sync", "regrid")) or 1.0
    for name in ("hydro", "timestep", "sync", "regrid"):
        t = res.timers.get(name, 0.0)
        print(f"  {name:9s} {t:9.4f}s ({t / total:6.1%})")

    if args.profile:
        from .exec.stats import attribution_report
        from .obs.metrics import MetricsRegistry
        merged = MetricsRegistry.merged(r.metrics for r in sim.comm.ranks)
        print(f"\n== execution profile ({sim.comm.size} rank(s), summed) ==")
        for line in attribution_report(merged):
            print(line)

    if res.trace_path:
        print(f"\ntrace written: {res.trace_path} "
              f"({len(res.trace_spans)} spans)")
    if args.vtk:
        from .util.visit import write_hierarchy
        index = write_hierarchy(sim, args.vtk)
        print(f"\nVTK dump written: {index}")
    if res.checkpoint_path:
        print(f"checkpoint written: {res.checkpoint_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
