"""Tests for the CLI driver and the VTK visualisation writer."""

import contextlib
import io
import os

import numpy as np
import pytest

from repro import (
    HostDataFactory,
    LagrangianEulerianIntegrator,
    SimulationConfig,
    SodProblem,
    make_communicator,
)
from repro.cli import build_parser, main
from repro.util.visit import write_hierarchy, write_patch_vtk


def make_sim():
    comm = make_communicator("IPA", 1, gpus=False)
    sim = LagrangianEulerianIntegrator(
        SodProblem((16, 16)), comm, HostDataFactory(),
        SimulationConfig(max_levels=2, max_patch_size=16))
    sim.initialise()
    return sim


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.problem == "sod"
        assert args.machine == "IPA"
        assert not args.cpu

    def test_all_options(self):
        args = build_parser().parse_args([
            "--problem", "blast", "--resolution", "32", "32",
            "--machine", "Titan", "--nodes", "4", "--cpu",
            "--levels", "2", "--steps", "3",
        ])
        assert args.problem == "blast"
        assert args.resolution == [32, 32]
        assert args.nodes == 4

    def test_bad_problem_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--problem", "nope"])


#: the ``--profile`` run of the verify recipe, on three builds
PROFILE_RUN = ["--problem", "sod", "--resolution", "32", "32",
               "--levels", "2", "--steps", "2", "--profile"]


@pytest.fixture(scope="module")
def profiles():
    out = {}
    for build, flags in (("cpu", ["--cpu"]), ("gpu", []),
                         ("nonresident", ["--non-resident"])):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main([*PROFILE_RUN, *flags]) == 0
        out[build] = buf.getvalue()
    return out


def _profile_rows(out: str, title: str) -> list[list[str]]:
    """The rows of one ``--profile`` table, split into columns."""
    lines = out.splitlines()
    start = lines.index(f"-- {title} --") + 3  # title, header, rule
    rows = []
    for line in lines[start:]:
        if not line.strip():
            break
        rows.append(line.split())
    return rows


TRANSFERS = "transfer attribution (PCIe / on-device)"


class TestProfile:
    def test_cpu_kernels_only_and_no_transfers(self, profiles):
        kernels = _profile_rows(profiles["cpu"], "kernel attribution")
        assert kernels and all(row[1] == "cpu" for row in kernels)
        assert _profile_rows(profiles["cpu"], TRANSFERS) == []

    def test_gpu_run_crosses_pcie_both_ways(self, profiles):
        kernels = _profile_rows(profiles["gpu"], "kernel attribution")
        assert any(row[1] == "gpu" for row in kernels)
        directions = {row[0] for row in _profile_rows(profiles["gpu"],
                                                      TRANSFERS)}
        assert {"d2h", "h2d"} <= directions

    def test_nonresident_moves_ten_times_the_transfers(self, profiles):
        def transfers(build):
            return sum(int(row[1])
                       for row in _profile_rows(profiles[build], TRANSFERS))

        assert transfers("gpu") > 0
        assert transfers("nonresident") >= 10 * transfers("gpu")


class TestMain:
    def test_basic_run(self, capsys):
        rc = main(["--resolution", "16", "16", "--steps", "2",
                   "--levels", "2", "--max-patch", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "advanced 2 steps" in out
        assert "mass" in out and "hydro" in out

    def test_cpu_build(self, capsys):
        rc = main(["--resolution", "16", "16", "--steps", "1", "--cpu",
                   "--levels", "1"])
        assert rc == 0
        assert "CPU build" in capsys.readouterr().out

    def test_vtk_and_checkpoint_outputs(self, tmp_path, capsys):
        vtk_dir = str(tmp_path / "viz")
        ckpt = str(tmp_path / "c.npz")
        rc = main(["--resolution", "16", "16", "--steps", "1",
                   "--levels", "2", "--max-patch", "16",
                   "--vtk", vtk_dir, "--checkpoint", ckpt])
        assert rc == 0
        assert os.path.exists(ckpt)
        assert any(f.endswith(".visit") for f in os.listdir(vtk_dir))

    def test_end_time_mode(self, capsys):
        rc = main(["--resolution", "16", "16", "--end-time", "0.01",
                   "--levels", "1"])
        assert rc == 0


class TestVtkWriter:
    def test_patch_file_structure(self, tmp_path):
        sim = make_sim()
        patch = sim.hierarchy.level(0).patches[0]
        path = str(tmp_path / "p.vtk")
        write_patch_vtk(patch, path)
        text = open(path).read()
        assert text.startswith("# vtk DataFile")
        assert "DATASET STRUCTURED_POINTS" in text
        assert "CELL_DATA 256" in text
        assert "POINT_DATA 289" in text
        assert "SCALARS density0 double 1" in text
        assert "SCALARS xvel0 double 1" in text

    def test_values_roundtrip(self, tmp_path):
        sim = make_sim()
        patch = sim.hierarchy.level(0).patches[0]
        path = str(tmp_path / "p.vtk")
        write_patch_vtk(patch, path, cell_fields=("density0",), node_fields=())
        lines = open(path).read().splitlines()
        start = lines.index("LOOKUP_TABLE default") + 1
        values = np.array(
            [float(v) for ln in lines[start:start + 16] for v in ln.split()])
        from repro.hydro.diagnostics import host_interior
        expect = host_interior(patch, "density0").T.reshape(-1)
        assert np.allclose(values, expect)

    def test_hierarchy_dump(self, tmp_path):
        sim = make_sim()
        index = write_hierarchy(sim, str(tmp_path), dump_name="t0")
        lines = open(index).read().splitlines()
        npatches = sum(len(l) for l in sim.hierarchy)
        assert lines[0] == f"!NBLOCKS {npatches}"
        assert len(lines) == npatches + 1
        for fname in lines[1:]:
            assert os.path.exists(os.path.join(str(tmp_path), fname))

    def test_fine_level_origin_offset(self, tmp_path):
        sim = make_sim()
        fine = sim.hierarchy.level(1).patches[0]
        path = str(tmp_path / "f.vtk")
        write_patch_vtk(fine, path)
        for ln in open(path):
            if ln.startswith("SPACING"):
                dx = float(ln.split()[1])
                assert dx == pytest.approx(1.0 / 32)
                break
