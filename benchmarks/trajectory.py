"""Turn ``benchmarks/e2e/run.py --out`` records into TRAJECTORY.jsonl rows::

    python benchmarks/trajectory.py --pr 22 --source "run.py --seconds 20" A.json [B.json ...]

One row per (workload, seed): the six end-to-end metrics of its untraced
record, the layer metrics of its traced record (``null`` where a record
was not given, and in rows older than a column) and ``wc -l`` over
``src/repro``.  Rows are appended to
``benchmarks/results/TRAJECTORY.jsonl`` (``--to`` writes elsewhere).
"""

import argparse
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = ("setup_s", "cell_updates_per_s", "step_wall_ms_p50",
              "peak_rss_mb", "modelled_grind_ns", "device_peak_mb")
LAYER = ("xfer.fill_s", "xfer.schedule_build_s", "pdat.alloc_s",
         "exec.copy_batch_s", "exec.slab_fused_ratio", "exec.stacked_ratio",
         "mesh.box_news_per_step", "mesh.intvector_news_per_step",
         "sched.tasks", "comm.messages", "gpu.kernel_launches",
         "harness.calib_ms")


def rows(paths, pr: int, source: str) -> list[dict]:
    lines = sum(len(p.read_text().splitlines())
                for p in (ROOT / "src" / "repro").rglob("*.py"))
    merged: dict = {}
    for path in paths:
        doc = json.loads(Path(path).read_text())
        for run in doc.get("runs", [doc]):  # a suite, or one --workload record
            row = merged.setdefault((run["workload"], run["seed"]), {
                "pr": pr, "workload": run["workload"], "seed": run["seed"],
                "source": source, **dict.fromkeys(END_TO_END + LAYER),
                "src_repro_lines": lines})
            row.update((name, float(f"{run['metrics'][name]:.6g}"))
                       for name in (LAYER if run["trace"] else END_TO_END)
                       if name in run["metrics"])
    return list(merged.values())


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("records", nargs="+", type=Path)
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--source", required=True, help="how the records were made")
    ap.add_argument("--to", type=Path,
                    default=ROOT / "benchmarks" / "results" / "TRAJECTORY.jsonl")
    args = ap.parse_args()
    with open(args.to, "a") as out:
        for row in rows(args.records, args.pr, args.source):
            out.write(json.dumps(row) + "\n")
