"""The repo's end-to-end benchmark: one command, two clocks.

Driver form (one workload, one mode; see BENCHMARK.json)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit, runs the correctness checks,
and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Exit status is non-zero if a check failed.

Suite form (every workload, both modes, each in a fresh subprocess)::

    python3 benchmarks/e2e/run.py [--seed N] [--seconds S] [--out FILE.json]

and ``--compare A.json B.json`` judges two suite files (see compare.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
SUITE_SCHEMA = "repro.e2e_bench/1"


def _prepare_imports() -> None:
    """One thread for the numeric libraries, ``src`` on the path.

    Must run before NumPy is imported.  The load is one Python thread;
    extra BLAS/OpenMP threads on a 2-core sandbox only add jitter.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"run.py: no program to measure: {SRC / 'repro'} "
                         "is missing")
    sys.path.insert(0, str(SRC))


def _units() -> dict[str, str]:
    from layers import PER_LAYER
    from measure import END_TO_END

    return {**{m[0]: m[1] for m in END_TO_END},
            **{name: unit for name, unit, _ in PER_LAYER}}


def _print_record(record: dict) -> None:
    units = _units()
    head = (f"{record['workload']}  seed={record['seed']}  "
            f"trace={record['trace']}")
    print(head)
    for name, value in record["metrics"].items():
        print(f"  {name:36s} {value:16.6g} {units[name]}")
    info = record["info"]
    if record["trace"] == 0:
        print(f"  (n = {info['step_samples']} steps in {info['passes']} passes"
              f" of {info['steps_per_pass']}; {info['setup_samples']} set-ups;"
              f" {info['patches']} patches, {info['cells']} cells;"
              f" wall/cpu {info['wall_over_cpu']:.3f})")
    elif record["metrics"]:
        print(f"  (dominant layer: {info['dominant_layer']}; "
              f"{info['spans']} spans -> {info['trace_file']})")
    for check, ok in record["checks"].items():
        print(f"  check {check:28s} {'ok' if ok else 'FAILED'}")
    for error in record["errors"]:
        print(error, file=sys.stderr)


def run_one(workload_name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload in this process; returns the full record."""
    from layers import PER_LAYER
    from measure import PUBLISHED, measure_end_to_end, measure_layers
    from workloads import by_name

    workload = by_name(workload_name)
    if trace:
        record = measure_layers(workload, seed)
        published = [name for name, _, _ in PER_LAYER]
    else:
        record = measure_end_to_end(workload, seed, seconds)
        published = list(PUBLISHED)
    record.update(workload=workload.name, seed=seed, trace=trace,
                  published=published)
    return record


def _driver_line(record: dict) -> str:
    units = _units()
    metrics = {name: {"value": record["metrics"][name], "unit": units[name]}
               for name in record["published"] if name in record["metrics"]}
    return json.dumps({"correct": record["correct"],
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def run_suite(seed: int, seconds: float, out: Path) -> int:
    """Every workload x {untraced, traced}, each in a fresh subprocess."""
    from workloads import WORKLOADS

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    runs = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            part = out_dir / f"run_{workload.name}_t{trace}.json"
            part.unlink(missing_ok=True)
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"),
                 "--workload", workload.name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace),
                 "--out", str(part)],
                stdout=subprocess.PIPE, text=True, check=False)
            print(proc.stdout.rsplit("\n", 2)[0])  # all but the driver line
            if not part.exists():
                print(f"{workload.name} trace={trace}: no result "
                      f"(exit {proc.returncode})", file=sys.stderr)
                runs.append({"workload": workload.name, "seed": seed,
                             "trace": trace, "correct": False, "attempted": 1,
                             "failed": 1, "metrics": {}, "checks": {},
                             "errors": ["run produced no result"],
                             "info": {}})
                continue
            runs.append(json.loads(part.read_text()))
    with open(out, "w") as fh:
        json.dump({"schema": SUITE_SCHEMA, "seed": seed, "seconds": seconds,
                   "runs": runs}, fh, indent=1)
    failed = [f"{r['workload']}(trace={r['trace']})"
              for r in runs if not r["correct"]]
    print(f"wrote {out}; " + (f"FAILED: {', '.join(failed)}" if failed
                              else "all checks passed"))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    run_seconds = json.loads(
        (HERE.parents[1] / "BENCHMARK.json").read_text())["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run one workload (driver form)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=run_seconds,
                    help="how long one untraced run measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="write the full record(s) here")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    type=Path, help="judge suite B against suite A")
    args = ap.parse_args(argv)

    _prepare_imports()
    if args.compare:
        from compare import compare_files

        return compare_files(*args.compare)
    if args.workload is None:
        return run_suite(args.seed, args.seconds,
                         args.out or HERE / "out" / "suite.json")

    record = run_one(args.workload, args.seed, args.seconds, args.trace)
    _print_record(record)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1))
    measured = [record["metrics"].get(name) for name in record["published"]]
    if not all(v is not None and math.isfinite(v) for v in measured):
        return 2  # nothing measurable: no result line, non-zero exit
    print(_driver_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
