#!/usr/bin/env python
"""Quickstart: a GPU-resident AMR shock-tube simulation in ~20 lines.

Builds a two-rank "IPA node" (two simulated K20x GPUs), runs the Sod
problem with 3 levels of refinement, and prints the hierarchy, conserved
quantities, the runtime breakdown, and the PCIe traffic that proves the
data stayed resident on the GPUs.

Run:  python examples/quickstart.py
"""

from repro import (
    CudaDataFactory,
    LagrangianEulerianIntegrator,
    SimulationConfig,
    SodProblem,
    field_summary,
    make_communicator,
)
from repro.obs.metrics import STEP_PHASES


def main() -> None:
    comm = make_communicator("IPA", nranks=2, gpus=True)
    sim = LagrangianEulerianIntegrator(
        SodProblem((128, 128)),
        comm,
        CudaDataFactory(),
        SimulationConfig(max_levels=3, max_patch_size=64),
    )

    sim.initialise()
    print("Initial hierarchy:")
    for level in sim.hierarchy:
        print(f"  level {level.level_number}: {len(level):3d} patches, "
              f"{level.total_cells():7d} cells, dx = {level.dx[0]:.4f}")

    before = field_summary(sim.hierarchy)
    sim.run(max_steps=20)
    after = field_summary(sim.hierarchy)

    print(f"\nAdvanced {sim.step_count} steps to t = {sim.time:.4f} "
          f"(modelled wall time {sim.elapsed():.4f}s on 2 K20x)")
    print(f"  mass:   {before['mass']:.6f} -> {after['mass']:.6f}")
    print(f"  energy: {before['ie'] + before['ke']:.6f} -> "
          f"{after['ie'] + after['ke']:.6f} (ie + ke)")

    print("\nRuntime breakdown (slowest rank):")
    timers = sim.timer_summary()
    for name in STEP_PHASES:
        print(f"  {name:9s} {timers.get(name, 0.0):.4f}s")
        if name == "regrid":
            # the regrid's own steps, nested inside (not added to) it
            for sub in sorted(k for k in timers if k.startswith("regrid.")):
                print(f"    {sub[len('regrid.'):]:9s} {timers[sub]:.4f}s")

    dev = comm.rank(0).device
    resident_bytes = dev.bytes_allocated
    m = dev.metrics
    moved = (m.value("transfer.bytes", direction="d2h")
             + m.value("transfer.bytes", direction="h2d"))
    launches = m.total("kernel.launches", on="gpu")
    print(f"\nResidency: {resident_bytes / 1e6:.1f} MB lives on GPU 0; "
          f"only {moved / 1e6:.1f} MB ever crossed the PCIe bus "
          f"({launches:.0f} kernel launches).")


if __name__ == "__main__":
    main()
