#!/usr/bin/env python
"""Triple-point shock interaction on a simulated Titan partition.

The paper's weak-scaling workload (Galera et al.): a strong shock sweeps
left to right through a three-state domain, generating vorticity and a
complex, *moving* region of interest — exactly what stresses regridding.
This example runs it on 8 simulated Titan nodes and reports how the patch
hierarchy tracks the flow, the per-rank load balance, and the paper's
runtime decomposition.

Run:  python examples/triple_point.py
"""

import numpy as np

from repro import (
    CudaDataFactory,
    LagrangianEulerianIntegrator,
    SimulationConfig,
    TriplePointProblem,
    field_summary,
    make_communicator,
)
from repro.obs.metrics import STEP_PHASES

NODES = 8
STEPS = 24


def hierarchy_report(sim) -> str:
    parts = []
    for level in sim.hierarchy:
        boxes = level.box_array
        parts.append(
            f"L{level.level_number}: {len(level):3d} patches "
            f"{level.total_cells():7d} cells"
            + (f" bbox x=[{boxes.lower[:, 0].min()},{boxes.upper[:, 0].max()}]"
               if len(level) else "")
        )
    return " | ".join(parts)


def main() -> None:
    comm = make_communicator("Titan", nranks=NODES, gpus=True)
    sim = LagrangianEulerianIntegrator(
        TriplePointProblem((112, 48)),
        comm,
        CudaDataFactory(),
        SimulationConfig(max_levels=3, max_patch_size=32,
                         refinement_ratio=2),
    )
    sim.initialise()
    print(f"initial: {hierarchy_report(sim)}")

    for step in range(STEPS):
        sim.step()
        if (step + 1) % 6 == 0:
            s = field_summary(sim.hierarchy)
            print(f"step {sim.step_count:3d} t={sim.time:.3f} "
                  f"ke={s['ke']:.4f}  {hierarchy_report(sim)}")

    # Load balance across the 8 "nodes".
    loads = [0] * NODES
    for level in sim.hierarchy:
        for count, rank_cells in enumerate(level.cells_per_rank(NODES)):
            loads[count] += rank_cells
    mean = np.mean(loads)
    print(f"\nper-node cell loads: {loads}")
    print(f"load imbalance (max/mean): {max(loads) / mean:.2f}")

    timers = sim.timer_summary()
    total = sum(timers.get(k, 0) for k in STEP_PHASES)
    print(f"\nmodelled runtime on {NODES} Titan nodes: {total:.3f}s")
    for name in STEP_PHASES:
        t = timers.get(name, 0.0)
        print(f"  {name:9s} {t:8.4f}s  ({t / total:5.1%})")
    print("(paper SV-B: hydrodynamics dominates; sync and regrid are "
          "small fractions that grow with node count)")


if __name__ == "__main__":
    main()
