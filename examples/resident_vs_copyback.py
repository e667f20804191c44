#!/usr/bin/env python
"""Residency demonstration: why the paper keeps data on the GPU.

Runs the identical simulation three ways —

1. CPU build (host data, 16-core node),
2. naive GPU port (host data, every kernel brackets H2D/D2H copies —
   the Wang-et-al style the paper's related-work section critiques),
3. resident GPU build (the paper's contribution) —

and prints runtime plus the PCIe ledger.  The physics is bit-for-bit
identical in all three; only where the bytes live differs.

Run:  python examples/resident_vs_copyback.py
"""

import numpy as np

from repro import gather_level_field
from repro.api import RunConfig, run
from repro.hydro.problems import BlastProblem

STEPS = 12


def main() -> None:
    base = dict(
        problem=BlastProblem((160, 160)),
        machine="IPA",
        nranks=1,
        max_levels=2,
        max_patch_size=160,
        max_steps=STEPS,
    )
    runs = {
        "CPU (16-core node)": RunConfig(use_gpu=False, **base),
        "GPU, copy-per-kernel": RunConfig(use_gpu=True, resident=False, **base),
        "GPU, resident": RunConfig(use_gpu=True, resident=True, **base),
    }

    results = {}
    fields = {}
    for name, cfg in runs.items():
        res = run(cfg)
        results[name] = res
        fields[name] = gather_level_field(res.sim.hierarchy.level(0), "density0")

    ref = fields["CPU (16-core node)"]
    for name, field in fields.items():
        assert np.array_equal(field, ref), f"{name} diverged from CPU!"
    print(f"All three builds produce bit-identical physics "
          f"({STEPS} steps, {results['GPU, resident'].cells} cells).\n")

    print(f"{'build':24s} {'runtime':>10s} {'PCIe MB':>9s} {'transfers':>10s}")
    for name, res in results.items():
        dev = res.sim.comm.rank(0).device
        if dev is None:
            pcie, ntx = 0.0, 0
        else:
            pcie = sum(dev.metrics.value("transfer.bytes", direction=d)
                       for d in ("d2h", "h2d")) / 1e6
            ntx = int(sum(dev.metrics.value("transfer.count", direction=d)
                          for d in ("d2h", "h2d")))
        print(f"{name:24s} {res.runtime:9.4f}s {pcie:9.1f} {ntx:10d}")

    resident = results["GPU, resident"].runtime
    copying = results["GPU, copy-per-kernel"].runtime
    cpu = results["CPU (16-core node)"].runtime
    print(f"\nresident vs copy-per-kernel: {copying / resident:.2f}x faster")
    print(f"resident vs CPU node:        {cpu / resident:.2f}x faster")
    print("The copy-per-kernel build can even lose to the CPU — the paper's"
          "\nmotivation for building a fully resident AMR library.")


if __name__ == "__main__":
    main()
