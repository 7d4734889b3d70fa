"""Command line behavior: subcommands, error categories, reproducibility."""

import filecmp
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from netmesh import ScenarioError, cli, topology
from netmesh.cli import main
from netmesh.topology import Grid
from netmesh.views import GridView

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parent.parent


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _scenario_with(tmp_path, name, **edits):
    """Copy of a bundled scenario with each key of ``edits`` set to its value."""
    lines = [
        line.replace("../meshes", str(ROOT / "meshes"))
        for line in (ROOT / "scenarios" / name).read_text().splitlines()
        if line.partition("=")[0].strip() not in edits
    ]
    scen = tmp_path / "bad.txt"
    scen.write_text("\n".join(lines + [f"{k} = {v}" for k, v in edits.items()]) + "\n")
    return scen


def _vessels_with_node(tmp_path, node, coords):
    """Copy of meshes/vessels.msh with node ``node`` at ``coords``."""
    lines = (ROOT / "meshes" / "vessels.msh").read_text().splitlines()
    nodes = range(lines.index("$Nodes") + 2, lines.index("$EndNodes"))
    row = next(no for no in nodes if lines[no].split()[0] == str(node))
    lines[row] = f"{node} {coords}"
    mesh = tmp_path / "moved.msh"
    mesh.write_text("\n".join(lines) + "\n")
    return mesh


class TestInfo:
    def test_network_mesh(self, capsys):
        code, out, err = run(capsys, "info", DATA / "network.msh")
        assert code == 0
        assert "grid dimension: 1" in out
        assert "elements: 3" in out
        assert "vertices: 4" in out
        assert "boundary facets: 3" in out
        assert "junction facets (3 or more incident elements): 1" in out
        assert "multiplicity 3: 1" in out

    def test_surface_mesh_reports_junction(self, capsys):
        code, out, err = run(capsys, "info", DATA / "surface.msh")
        assert code == 0
        assert "grid dimension: 2" in out
        assert "elements: 3" in out
        assert "edges: 7" in out
        assert "boundary facets: 6" in out
        assert "junction facets (3 or more incident elements): 1" in out
        assert "multiplicity 3: 1" in out

    @pytest.mark.parametrize("mesh,census", [
        ("square", ["boundary facets: 4", "junction facets (3 or more incident elements): 0"]),
        ("vessels", ["boundary facets: 3", "junction facets (3 or more incident elements): 1",
                     "  multiplicity 3: 1"]),
    ])
    def test_facets_of_two_elements_are_no_junctions(self, capsys, mesh, census):
        """Both meshes have inner facets shared by exactly two elements; the census counts none."""
        code, out, err = run(capsys, "info", ROOT / "meshes" / f"{mesh}.msh")
        assert code == 0
        assert out[out.index("boundary facets"):].splitlines() == census

    @pytest.mark.parametrize("command", ["info", "refine"])
    def test_network_mesh_logs_each_warning_once(self, tmp_path, command):
        # the surface read finds no triangles; only the network read that follows logs
        mesh = tmp_path / "points.msh"
        mesh.write_text("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n2\n1 0 0 0\n2 1 0 0\n$EndNodes\n"
                        "$Elements\n3\n1 15 0 1\n2 1 0 1 2\n3 15 0 2\n$EndElements\n")
        out = ["--out", str(tmp_path / "refined.vtk")] if command == "refine" else []
        proc = subprocess.run(
            [sys.executable, "-m", "netmesh", "-v", command, str(mesh), *out],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        assert proc.returncode == 0
        assert [line for line in proc.stderr.splitlines() if "netmesh.gmsh_io" in line] == [
            "WARNING netmesh.gmsh_io: skipping unsupported element type 15 (line 11)",
            "WARNING netmesh.gmsh_io: skipping unsupported element type 15 (line 13)",
            "INFO netmesh.gmsh_io: read 1 elements (0 other-dimensional ignored, 2 unsupported skipped)",
        ]


class TestRefine:
    def test_zero_steps_copies_the_mesh(self, capsys, tmp_path):
        out_path = tmp_path / "flat.vtk"
        code, out, err = run(
            capsys, "refine", ROOT / "meshes" / "square.msh", "--steps", 0, "--out", out_path
        )
        assert code == 0
        assert "2 cells" in out
        assert out_path.exists()

    def test_network_refinement_quadruples_cells(self, capsys, tmp_path):
        # the segments of a line network and the triangles of the T-junction surface
        for mesh, cells in [(DATA / "network.msh", "12 cells"),
                            (ROOT / "meshes" / "tjunction.msh", "48 cells, 35 points")]:
            out_path = tmp_path / "net.vtk"
            code, out, err = run(capsys, "refine", mesh, "--steps", 2, "--out", out_path)
            assert code == 0
            assert cells in out

    def test_wavelet_refinement_on_surface(self, capsys, tmp_path):
        out_path = tmp_path / "wavelet.vtk"
        code, out, err = run(
            capsys,
            "refine", ROOT / "meshes" / "square.msh",
            "--steps", 2, "--parametrization", "wavelet", "--out", out_path,
        )
        assert code == 0
        assert "32 cells" in out
        # the lifted center of the square sits at the wavelet peak
        assert "0 0 0.2" in out_path.read_text()

    @pytest.mark.parametrize("mesh", ["tjunction", "square"])
    def test_affine_refinement_matches_golden_bytes(self, capsys, tmp_path, mesh):
        """Affine midpoints are exact IEEE means, so ids, order and bits are pinned."""
        out_path = tmp_path / f"{mesh}.vtk"
        code, _, _ = run(
            capsys, "refine", ROOT / "meshes" / f"{mesh}.msh", "--steps", 3, "--out", out_path
        )
        assert code == 0
        assert out_path.read_bytes() == (DATA / "golden" / "refine" / f"{mesh}_3.vtk").read_bytes()

    def test_wavelet_refinement_matches_golden_cells(self, capsys, tmp_path):
        """The wavelet surface moves the points, not the cells: its connectivity
        is the affine golden's.  Its coordinates go through BLAS and libm, so
        only their count is pinned."""
        out_path = tmp_path / "wavelet.vtk"
        code, out, _ = run(
            capsys,
            "refine", ROOT / "meshes" / "square.msh",
            "--steps", 3, "--parametrization", "wavelet", "--out", out_path,
        )
        assert code == 0
        assert "128 cells, 81 points" in out
        text = out_path.read_text()
        golden = (DATA / "golden" / "refine" / "square_3.vtk").read_text()
        assert "\nPOINTS 81 double\n" in text
        assert text[text.index("\nCELLS "):] == golden[golden.index("\nCELLS "):]

    def test_steps_past_the_leaf_bound_are_refused_before_refining(self, capsys, tmp_path, monkeypatch):
        """2 triangles times 4**8 leaves pass the bound of 100,000; 4**7 do not.
        A huge count is refused as fast, since no power of it is formed."""
        monkeypatch.setattr(Grid, "pre_adapt", None)  # refining would raise TypeError
        for steps in (8, 1_000_000_000):
            out_path = tmp_path / "big.vtk"
            code, out, err = run(
                capsys, "refine", ROOT / "meshes" / "square.msh", "--steps", steps, "--out", out_path
            )
            assert (code, out) == (3, "")
            assert err == (f"scenario-error: --steps {steps} would refine 2 elements to more than "
                           "the bound of 100000 leaves; this mesh allows at most 7 steps\n")
            assert not out_path.exists()

    @pytest.mark.parametrize("mesh,allowed", [("square", 2), ("network", 3)])
    def test_the_leaf_bound_admits_exactly_its_count(self, capsys, tmp_path, monkeypatch, mesh, allowed):
        """Under a bound of 32, 2 triangles reach it in 2 steps and 3 segments
        (24 leaves after 3) pass it in 4."""
        monkeypatch.setattr(topology, "MAX_ELEMENTS", 32)
        path = ROOT / "meshes" / "square.msh" if mesh == "square" else DATA / "network.msh"
        out_path = tmp_path / "ok.vtk"
        code, out, _ = run(capsys, "refine", path, "--steps", allowed, "--out", out_path)
        assert code == 0 and out.startswith(f"wrote {out_path}: ")
        with pytest.raises(ScenarioError, match=f"allows at most {allowed} steps$"):
            cli.cmd_refine(path, allowed + 1, None, tmp_path / "big.vtk")


class TestErrorCategories:
    def test_parse_error_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.msh"
        bad.write_text("$MeshFormat\n2.2 1 8\n$EndMeshFormat\n")
        code, out, err = run(capsys, "info", bad)
        assert code == 2
        assert err.startswith("parse-error:")

    def test_scenario_error_is_3(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "refine", DATA / "network.msh",
            "--parametrization", "moebius", "--out", tmp_path / "x.vtk",
        )
        assert code == 3
        assert err.startswith("scenario-error:")
        assert "moebius" in err

    def test_negative_steps_is_a_scenario_error(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "refine", DATA / "network.msh", "--steps", -1, "--out", tmp_path / "x.vtk"
        )
        assert code == 3

    @pytest.mark.parametrize("command,steps", [("flow", -1), ("roots", -3)])
    def test_negative_demo_steps_option_is_3(self, capsys, tmp_path, command, steps):
        scenario = ROOT / "scenarios" / ("vessels.txt" if command == "flow" else "roots.txt")
        code, out, err = run(capsys, command, scenario, "--out", tmp_path / "out", "--steps", steps)
        assert code == 3
        assert "--steps must be nonnegative" in err
        assert not (tmp_path / "out").exists()

    def test_mesh_error_is_4(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "refine", DATA / "network.msh",
            "--parametrization", "wavelet", "--out", tmp_path / "x.vtk",
        )
        assert code == 4
        assert err.startswith("mesh-error:")

    def test_io_error_is_5(self, capsys, tmp_path):
        code, out, err = run(capsys, "info", tmp_path / "nowhere.msh")
        assert code == 5
        assert err.startswith("io-error:")

    @pytest.mark.parametrize("command,extra", [("info", ()), ("refine", ("--out", "x.vtk"))])
    def test_undecodable_mesh_is_a_parse_error(self, capsys, tmp_path, monkeypatch, command, extra):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "noise.msh"
        bad.write_bytes(np.random.default_rng(3).integers(0, 256, 300, dtype=np.uint8).tobytes())
        code, out, err = run(capsys, command, bad, *extra)
        assert code == 2
        assert err.startswith("parse-error:") and "not UTF-8" in err

    @pytest.mark.parametrize("command,name", [("flow", "vessels.txt"), ("roots", "roots.txt")])
    def test_undecodable_scenario_is_a_scenario_error(self, capsys, tmp_path, command, name):
        scen = tmp_path / "bad.txt"
        scen.write_bytes((ROOT / "scenarios" / name).read_bytes() + b"\xff = 1\n")
        code, out, err = run(capsys, command, scen, "--out", tmp_path / "out")
        assert code == 3
        assert err.startswith("scenario-error:") and "not UTF-8" in err

    def test_scenario_parse_problem_is_3(self, capsys, tmp_path):
        scen = tmp_path / "broken.txt"
        scen.write_text("mesh = ../meshes/vessels.msh\ndt = quick\n")
        code, out, err = run(capsys, "flow", scen, "--out", tmp_path / "out")
        assert code == 3
        assert "'dt'" in err

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("dt", "0", "dt must be positive and finite"),
            ("dt", "inf", "dt must be positive and finite"),
            ("eps_refine", "0.05", "eps_coarsen < eps_refine"),
            ("eps_refine", "0.01", "eps_coarsen < eps_refine"),
            ("radius", "nan", "radius must be positive and finite"),
            ("l_p", "-1", "l_p must be nonnegative"),
            ("viscosty", "1e-3", "unknown key 'viscosty'"),
            ("inflow_velocity", "1e308", "out of floating-point range"),
            ("viscosity", "1e308", "out of floating-point range"),
            ("radius", "1e-300", "out of floating-point range"),
            ("dt", "1e-320", "out of floating-point range"),
            ("dt", "1e308", "dt * steps must be finite"),
            ("viscosity", "-1", "viscosity must be positive"),
            ("adapt_every", "-1", "adapt_every must be nonnegative"),
            ("max_refinement_level", "-1", "max_refinement_level must be nonnegative"),
            ("output_prefix", "../escaped", "output_prefix must be a file name"),
            ("output_prefix", "..", "output_prefix must be a file name"),
            ("output_prefix", "a\0b", "output_prefix must be a file name"),
            ("mesh", "/x\0y.msh", "mesh must hold no NUL byte"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_bad_flow_scenario_is_3(self, capsys, tmp_path, key, value, message):
        scen = _scenario_with(tmp_path, "vessels.txt", **{key: value})
        code, out, err = run(capsys, "flow", scen, "--out", tmp_path / "out", "--steps", 2)
        assert code == 3
        assert err.startswith("scenario-error:")
        assert message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("gravity_bias", "nan", "gravity_bias must be finite"),
            ("collar_pressure", "nan", "collar_pressure must be finite"),
            ("k_x", "nan", "k_x must be finite"),
            ("k_x", "-1", "k_x must be positive"),
            ("k_r", "nan", "k_r must be finite"),
            ("radius", "nan", "radius must be finite"),
            ("segment_length", "nan", "segment_length must be finite"),
            ("segment_length", "-0.01", "segment_length must be positive"),
            ("branch_probability", "2", "branch_probability must lie in [0, 1]"),
            ("initial_segments", "0", "initial_segments must be at least 1"),
            ("k_x", "1e308", "out of floating-point range"),
            ("k_r", "1e308", "out of floating-point range"),
            ("radius", "1e308", "out of floating-point range"),
            ("gravity_bias", "1e200", "out of floating-point range"),
            ("output_prefix", "../escaped", "output_prefix must be a file name"),
            ("output_prefix", "sub/x", "output_prefix must be a file name"),
            ("output_prefix", "a\0b", "output_prefix must be a file name"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_bad_roots_scenario_is_3(self, capsys, tmp_path, key, value, message):
        # --steps 3: the solves and growth rounds where overflowing values show
        # (gravity_bias in the first branch); other inputs are refused before step 0
        scen = _scenario_with(tmp_path, "roots.txt", **{key: value})
        code, out, err = run(capsys, "roots", scen, "--out", tmp_path / "out", "--steps", 3)
        assert code == 3
        assert err.startswith("scenario-error:")
        assert message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command,name,edits",
        [
            ("flow", "vessels.txt", {"dt": "abc", "radius": "-1", "viscosity": "xyz", "gamma": "1.0"}),
            ("roots", "roots.txt", {"steps": "abc", "initial_segments": "0", "k_r": "xyz", "radius": "-1"}),
        ],
    )
    def test_every_bad_key_in_one_line(self, capsys, tmp_path, command, name, edits):
        # a parse failure and a broken rule, each in a run key and a physics key
        scen = _scenario_with(tmp_path, name, **edits)
        code, out, err = run(capsys, command, scen, "--out", tmp_path / "out")
        assert code == 3
        assert err.startswith(f"scenario-error: {scen}: ")
        assert err.count("\n") == 1
        for key in edits:
            assert f"{key} must" in err or f"key '{key}': cannot parse" in err
        assert not (tmp_path / "out").exists()

    def test_growth_past_the_bound_is_3(self, capsys, tmp_path, monkeypatch):
        # the bundled root has 8 segments and 9 after step 0; step 1 would leave 10
        monkeypatch.setattr(topology, "MAX_ELEMENTS", 9)
        scen = ROOT / "scenarios" / "roots.txt"
        code, out, err = run(capsys, "roots", scen, "--out", tmp_path / "out", "--steps", 3)
        assert code == 3
        assert err == "scenario-error: grow would leave 10 leaf elements, more than the bound of 9\n"

    @pytest.mark.parametrize("bound,step,leaves", [(17, 8, 18), (18, 12, 19), (19, None, None)])
    def test_adapt_past_the_bound_is_3(self, capsys, tmp_path, monkeypatch, bound, step, leaves):
        """The demo adapts at every second step to 10, 16, 16, 18, 18 and 19
        leaves: the first adapt past the bound ends the run before its step's
        snapshot, and a bound of 19 admits all 12 steps."""
        monkeypatch.setattr(topology, "MAX_ELEMENTS", bound)
        code, out, err = run(capsys, "flow", ROOT / "scenarios" / "vessels.txt", "--out", tmp_path)
        if step is None:
            assert (code, err) == (0, "") and (tmp_path / "flow_0012.vtk").exists()
            return
        assert (code, out) == (3, "")
        assert err == (f"scenario-error: adapt would leave {leaves} leaf elements, "
                       f"more than the bound of {bound}\n")
        assert (tmp_path / f"flow_{step - 1:04d}.vtk").exists()
        assert not (tmp_path / f"flow_{step:04d}.vtk").exists()

    def test_initial_root_past_the_bound_is_3(self, capsys, tmp_path, monkeypatch):
        # the bound holds before the first segment is built, not only in a growth round
        monkeypatch.setattr(topology, "MAX_ELEMENTS", 10)
        scen = _scenario_with(tmp_path, "roots.txt", initial_segments="11")
        code, out, err = run(capsys, "roots", scen, "--out", tmp_path / "out", "--steps", 0)
        assert code == 3
        assert err.startswith("scenario-error:")
        assert "initial_segments must be at most 10" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,name", [("flow", "vessels.txt"), ("roots", "roots.txt")])
    def test_negative_scenario_steps_is_3(self, capsys, tmp_path, command, name):
        scen = _scenario_with(tmp_path, name, steps="-1")
        code, out, err = run(capsys, command, scen, "--out", tmp_path / "out")
        assert code == 3
        assert "steps must be nonnegative" in err

    @pytest.mark.parametrize("coords", ["4 nan 0", "4 -inf 0"])
    def test_non_finite_node_is_a_parse_error(self, capsys, tmp_path, coords):
        mesh = _vessels_with_node(tmp_path, 7, coords)
        code, out, err = run(capsys, "info", mesh)
        assert code == 2
        assert err.startswith("parse-error:")
        assert "node 7 has a non-finite coordinate" in err
        scen = _scenario_with(tmp_path, "vessels.txt", mesh=mesh)
        code, out, err = run(capsys, "flow", scen, "--out", tmp_path / "out")
        assert code == 2
        assert "node 7 has a non-finite coordinate" in err

    @pytest.mark.parametrize("coords", ["1 0 0", "1e308 0 0"])
    def test_degenerate_segment_is_4_and_alone_on_stderr(self, tmp_path, coords):
        # node 3 onto node 2 (zero length) or out to 1e308 (squared length overflows)
        mesh = _vessels_with_node(tmp_path, 3, coords)
        scen = _scenario_with(tmp_path, "vessels.txt", mesh=mesh)
        proc = subprocess.run(
            [sys.executable, "-m", "netmesh", "flow", str(scen), "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        assert proc.returncode == 4
        assert proc.stderr.startswith("mesh-error: degenerate 1-simplex with corners [[1.0, 0.0, 0.0], [")
        assert proc.stderr.count("\n") == 1

    def test_unknown_roots_key_is_3(self, capsys, tmp_path):
        scen = tmp_path / "bad.txt"
        scen.write_text((ROOT / "scenarios" / "roots.txt").read_text() + "brnach_probability = 0.5\n")
        code, out, err = run(capsys, "roots", scen, "--out", tmp_path / "out", "--steps", 1)
        assert code == 3
        assert "unknown key 'brnach_probability'" in err


class TestDemos:
    def test_roots_demo_builds_one_leaf_view_per_revision(self, capsys, tmp_path, monkeypatch):
        builds = []  # (grid, revision) of every leaf view built
        init = GridView.__init__

        def counting(view, grid, level):
            init(view, grid, level)
            if level is None:
                builds.append((id(grid), view._revision))

        monkeypatch.setattr(GridView, "__init__", counting)
        scenario = ROOT / "scenarios" / "roots.txt"
        code, _, _ = run(capsys, "roots", scenario, "--out", tmp_path / "o", "--steps", 6)
        assert code == 0
        # the initial root, then one revision per growth round
        assert len(builds) == len(set(builds)) == 7

    def test_flow_demo_runs_and_is_deterministic(self, capsys, tmp_path):
        scenario = ROOT / "scenarios" / "vessels.txt"
        code_a, out_a, _ = run(capsys, "flow", scenario, "--out", tmp_path / "a", "--steps", 3)
        code_b, out_b, _ = run(capsys, "flow", scenario, "--out", tmp_path / "b", "--steps", 3)
        assert code_a == code_b == 0
        assert out_a == out_b
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert "flow_0000.vtk" in files_a and "summary.txt" in files_a
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "a", tmp_path / "b", files_a, shallow=False
        )
        assert not mismatch and not errors

    def test_flow_summary_reports_mass(self, capsys, tmp_path):
        scenario = ROOT / "scenarios" / "vessels.txt"
        code, out, _ = run(capsys, "flow", scenario, "--out", tmp_path / "o", "--steps", 1)
        assert code == 0
        assert "mass=" in out
        assert "step 0:" in out and "step 1:" in out

    def test_roots_demo_seed_override(self, capsys, tmp_path):
        scenario = ROOT / "scenarios" / "roots.txt"
        code_a, out_a, _ = run(
            capsys, "roots", scenario, "--out", tmp_path / "a", "--steps", 3, "--seed", 7
        )
        code_b, out_b, _ = run(
            capsys, "roots", scenario, "--out", tmp_path / "b", "--steps", 3, "--seed", 7
        )
        code_c, out_c, _ = run(
            capsys, "roots", scenario, "--out", tmp_path / "c", "--steps", 3, "--seed", 8
        )
        assert code_a == code_b == code_c == 0
        assert out_a == out_b
        assert out_a != out_c
        assert (tmp_path / "a" / "summary.txt").read_bytes() == (
            tmp_path / "b" / "summary.txt"
        ).read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [("flow", "scenarios/vessels.txt"), ("roots", "scenarios/roots.txt", "--seed", 2024)],
    )
    def test_demo_output_matches_golden_bytes(self, capsys, tmp_path, argv):
        """Twice in one process, as the benchmark runs it: what one run's writes
        keep must not reach the next run's output."""
        command, scenario, *options = argv
        golden = DATA / "golden" / command
        names = sorted(p.name for p in golden.iterdir())
        for out in (tmp_path / "first", tmp_path / "second"):
            code, _, _ = run(capsys, command, ROOT / scenario, "--out", out, *options)
            assert code == 0
            assert sorted(p.name for p in out.iterdir()) == names
            for name in names:
                assert (out / name).read_bytes() == (golden / name).read_bytes(), name

    def test_roots_summary_reports_flux(self, capsys, tmp_path):
        scenario = ROOT / "scenarios" / "roots.txt"
        code, out, _ = run(capsys, "roots", scenario, "--out", tmp_path / "o", "--steps", 2)
        assert code == 0
        assert "collar_flux=" in out
        assert "uptake=" in out
        assert "final: elements=" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "netmesh", "info", str(DATA / "network.msh")],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0
    assert "elements: 3" in proc.stdout
