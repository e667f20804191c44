"""Ablation: tag bit-compression and untagged-patch skipping (paper SIV-C).

Before regridding, flags computed on the GPU must reach the host.  The
paper compresses the int tag array to a bit array (32x smaller) and skips
the transfer entirely for patches with no flags.  This bench measures the
D2H bytes for the three strategies on a real mid-run hierarchy.
"""

import numpy as np
import pytest

from repro.api import RunConfig, build_simulation
from repro.hydro.problems import SodProblem
from repro.regrid.flagging import flag_patch

from _report import emit, table


@pytest.fixture(scope="module")
def mid_run_sim():
    cfg = RunConfig(problem=SodProblem((128, 128)), machine="IPA", nranks=1,
                    use_gpu=True, max_levels=2, max_patch_size=32, max_steps=4)
    sim = build_simulation(cfg)
    sim.initialise()
    sim.run(max_steps=4)
    return sim


@pytest.fixture(scope="module")
def strategies(mid_run_sim):
    sim = mid_run_sim
    sim._prepare_for_tagging()
    int_bytes = bits_bytes = skip_bytes = 0
    patches = tagged = 0
    for level in list(sim.hierarchy)[:-1]:  # tag levels only
        for patch in level:
            rank = sim.comm.rank(patch.owner)
            tags = flag_patch(patch, rank, sim.config.regrid.thresholds)
            n = tags.size
            patches += 1
            int_bytes += 4 * n                      # naive: int per cell
            bits_bytes += -(-n // 8)                # compressed bits
            if tags.any():
                tagged += 1
                skip_bytes += -(-n // 8)            # + skip untagged
    return {
        "int": int_bytes, "bits": bits_bytes, "skip": skip_bytes,
        "patches": patches, "tagged": tagged,
    }


def test_tagbits_table(strategies, benchmark):
    s = strategies

    def render():
        return table(
            "Tag transfer ablation (D2H bytes per regrid, mid-run Sod)",
            ["strategy", "bytes", "vs int tags"],
            [
                ["int tags (naive)", s["int"], "1.0x"],
                ["bit-compressed", s["bits"], f"{s['int'] / s['bits']:.0f}x smaller"],
                ["bits + skip untagged", s["skip"],
                 f"{s['int'] / max(s['skip'], 1):.0f}x smaller"],
            ],
        )
    lines = benchmark(render)
    lines.append(f"patches flagged: {s['tagged']}/{s['patches']} "
                 "(untagged patches skip the transfer entirely)")
    emit("ablation_tagbits", lines,
         config={"problem": "sod 128x128", "levels": 2, "max_patch": 32,
                 "steps": 4},
         metrics=dict(s))


def test_compression_is_32x(strategies):
    """int32 -> bit: exactly 32x fewer bytes (modulo padding)."""
    ratio = strategies["int"] / strategies["bits"]
    assert 30 <= ratio <= 33


def test_skipping_helps_when_flags_are_sparse(strategies):
    assert strategies["skip"] <= strategies["bits"]


def test_device_counters_reflect_compressed_path(mid_run_sim):
    """The D2H bytes actually charged match the compressed sizes."""
    sim = mid_run_sim
    dev = sim.comm.rank(0).device
    before = dev.metrics.value("transfer.bytes", direction="d2h")
    level = sim.hierarchy.level(0)
    patch = level.patches[0]
    tags = flag_patch(patch, sim.comm.rank(0), sim.config.regrid.thresholds)
    moved = dev.metrics.value("transfer.bytes", direction="d2h") - before
    n = tags.size
    if tags.any():
        assert moved == 4 + (-(-n // 8))
    else:
        assert moved == 4
