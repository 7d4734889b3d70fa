"""Each output check passes on a right result and rejects a perturbed one.

    python3 -m pytest bench/test_checks.py -q

The right results come from the generators' own descriptions or from the
program on small inputs; each perturbation changes one value.
"""

from __future__ import annotations

import copy
import pathlib
import sys

import numpy as np
import pytest

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import generate  # noqa: E402
from workloads import level0_census, run_netmesh, sweep  # noqa: E402

import netmesh  # noqa: E402


# -- vessel tree --------------------------------------------------------------


@pytest.fixture(scope="module")
def vessel(tmp_path_factory):
    directory = tmp_path_factory.mktemp("vessel")
    tree = generate.vessel_tree(5, directory)
    inflow = generate.VESSEL_INFLOW_VELOCITY * np.pi * generate.VESSEL_RADIUS**2
    oracle = checks.KirchhoffOracle(
        tree,
        generate.VESSEL_RADIUS,
        generate.VESSEL_VISCOSITY,
        generate.VESSEL_GAMMA,
        inflow,
        generate.VESSEL_OUTFLOW_PRESSURE,
    )
    # a snapshot whose cells are the generator's segments, at the exact pressures
    points, cells = [], []
    for _, start, end, _ in tree.segments:
        cells.append((len(points), len(points) + 1))
        points += [start, end]
    snap = checks.Snapshot(np.array(points), np.array(cells), {})
    # merge coincident points so the cells share their vertices
    _, first, inverse = np.unique(
        np.round(snap.points, 9), axis=0, return_index=True, return_inverse=True
    )
    snap = checks.Snapshot(snap.points[first], inverse.reshape(-1)[snap.cells], {})
    snap.cell_data["pressure"] = oracle.cell_pressures(snap)
    g = checks.poiseuille_conductance_per_length(
        generate.VESSEL_RADIUS, generate.VESSEL_VISCOSITY, generate.VESSEL_GAMMA
    )
    return {"dir": directory, "tree": tree, "oracle": oracle, "snap": snap, "inflow": inflow, "g": g}


def _balance(v, snap):
    return checks.vessel_balance(
        snap, v["g"], v["inflow"], v["tree"].nodes[0], generate.VESSEL_OUTFLOW_PRESSURE
    )


def _perturbed_pressure(snap, cell, factor):
    out = copy.deepcopy(snap)
    out.cell_data["pressure"][cell] *= factor
    return out


def test_oracle_accepts_exact_pressures_and_rejects_a_perturbed_cell(vessel):
    assert vessel["oracle"].check(vessel["snap"]) == []
    assert vessel["oracle"].check(_perturbed_pressure(vessel["snap"], 7, 1 + 1e-6))


def test_balance_accepts_exact_pressures_and_rejects_a_perturbed_cell(vessel):
    assert _balance(vessel, vessel["snap"]) == []
    assert _balance(vessel, _perturbed_pressure(vessel["snap"], 7, 1 + 1e-6))


def _two_point_pressures(v, half_conductance):
    """Cell pressures of a two-point scheme on the generator's segments, solved with numpy.

    ``half_conductance[i]`` links cell i to each of its ends.  A junction
    is a star of these, so cells i and j meeting there couple with
    g_i g_j / sum_k g_k; a tip holds cell i at the outflow pressure through
    g_i, and Q_in enters through the inflow end.
    """
    snap = v["snap"]
    g = half_conductance
    n = len(snap.cells)
    a = np.zeros((n, n))
    b = np.zeros(n)
    incident = {}
    for i, cell in enumerate(snap.cells):
        for vertex in cell:
            incident.setdefault(int(vertex), []).append(i)
    inflow_vertex = int(np.argmin(np.linalg.norm(snap.points - v["tree"].nodes[0], axis=1)))
    for vertex, cells in incident.items():
        if vertex == inflow_vertex:
            b[cells[0]] += v["inflow"]
        elif len(cells) == 1:
            a[cells[0], cells[0]] += g[cells[0]]
            b[cells[0]] += g[cells[0]] * generate.VESSEL_OUTFLOW_PRESSURE
        else:
            total = g[cells].sum()
            for i in cells:
                for j in cells:
                    if i != j:
                        a[i, i] += g[i] * g[j] / total
                        a[i, j] -= g[i] * g[j] / total
    out = copy.deepcopy(snap)
    out.cell_data["pressure"] = np.linalg.solve(a, b)
    return out


def test_oracle_and_balance_accept_half_cell_conductances(vessel):
    lengths = np.linalg.norm(
        np.diff(vessel["snap"].points[vessel["snap"].cells], axis=1)[:, 0], axis=1
    )
    snap = _two_point_pressures(vessel, 2.0 * vessel["g"] / lengths)
    assert vessel["oracle"].check(snap) == []
    assert _balance(vessel, snap) == []


def test_oracle_and_balance_reject_a_length_free_coupling(vessel):
    """The coupling t_i t_j / sum t_k with t_i independent of the cell length."""
    snap = _two_point_pressures(vessel, np.full(len(vessel["snap"].cells), vessel["g"]))
    assert vessel["oracle"].check(snap)
    assert _balance(vessel, snap)


def test_transport_check_rejects_overshoot_and_excess_solute(vessel):
    out = vessel["dir"] / "flow2"
    run_netmesh(["flow", str(vessel["dir"] / "vessel_tree.txt"), "--out", str(out), "--steps", "2"])
    row = checks.read_summary(out / "summary.txt")[2]
    snap = checks.read_vtk(out / "flow_0002.vtk")
    args = (generate.VESSEL_RADIUS, generate.VESSEL_C_IN, vessel["inflow"])
    assert checks.vessel_transport(snap, row, *args) == []

    overshoot = copy.deepcopy(snap)
    overshoot.cell_data["concentration"][0] = 1.0 + 1e-6
    assert checks.vessel_transport(overshoot, row, *args)
    negative = copy.deepcopy(snap)
    negative.cell_data["concentration"][-1] = -1e-6
    assert checks.vessel_transport(negative, row, *args)
    excess = dict(row, mass=row["mass"] * (1 + 1e-6))
    assert checks.vessel_transport(snap, excess, *args)


# -- root growth --------------------------------------------------------------


@pytest.fixture(scope="module")
def root_run(tmp_path_factory):
    directory = tmp_path_factory.mktemp("roots")
    generate.root_scenario(generate.root_growth_seeds(3)[0], directory)
    out = directory / "out"
    run_netmesh(["roots", str(directory / "roots.txt"), "--out", str(out), "--steps", "4"])
    return out


def test_root_summary_rejects_a_flux_that_misses_the_uptake(root_run):
    rows = checks.read_summary(root_run / "summary.txt")
    scale = 1.0
    assert checks.root_summary(rows, scale) == []
    rows[0]["collar_flux"] *= 1 + 1e-6
    assert checks.root_summary(rows, scale)


def test_uptake_drops_flag_every_step_below_an_earlier_one():
    rows = [{"step": k, "uptake": u} for k, u in enumerate([3.3, 6.6, 13.1, 25.6])]
    rows.append({"step": None})
    assert checks.root_uptake_drops(rows) == []
    # from step 2 on the collar has lost its Dirichlet condition
    rows[2]["uptake"], rows[3]["uptake"] = 1e-17, 2e-17
    assert checks.root_uptake_drops(rows) == [2, 3]


def test_root_tree_rejects_a_cycle_a_gap_and_a_wrong_length(root_run):
    snap = checks.read_vtk(root_run / "roots_0003.vtk")
    length = generate.ROOT_SEGMENT_LENGTH
    assert checks.root_tree(snap, length) == []

    cycle = copy.deepcopy(snap)
    cycle.cells = np.vstack([cycle.cells, [[0, 2]]])
    assert checks.root_tree(cycle, length)
    gap = copy.deepcopy(snap)
    gap.cells = gap.cells[1:]
    assert checks.root_tree(gap, length)
    stretched = copy.deepcopy(snap)
    stretched.points[stretched.cells[-1, 1]] *= 1.001
    assert checks.root_tree(stretched, length)


# -- foam lattice -------------------------------------------------------------


@pytest.fixture(scope="module")
def foam(tmp_path_factory):
    directory = tmp_path_factory.mktemp("foam")
    lattice = generate.lattice_surface(2, directory)
    grid = netmesh.read_gmsh(directory / "lattice.msh", netmesh.GridConfig(2, 3))
    for el in grid.leaf_view().elements()[::5]:
        grid.mark(1, el)
    grid.pre_adapt()
    grid.adapt()
    grid.post_adapt()
    view = grid.leaf_view()
    fragments, pairs = sweep(view, view.elements())
    netmesh.write_vtk(view, directory / "foam.vtk")
    snap = checks.read_vtk(directory / "foam.vtk")
    return {"lattice": lattice, "snap": snap, "fragments": fragments, "pairs": pairs, "dir": directory}


def test_foam_round_accepts_the_program_s_sweep(foam):
    assert checks.foam_round(foam["snap"], foam["lattice"].area, foam["fragments"], foam["pairs"]) == []


def test_foam_round_rejects_a_moved_vertex(foam):
    snap = copy.deepcopy(foam["snap"])
    snap.points[0] += 1e-3
    assert checks.foam_round(snap, foam["lattice"].area, foam["fragments"], foam["pairs"])


def test_foam_round_rejects_a_missing_fragment_and_a_one_sided_neighbour(foam):
    fragments = foam["fragments"].copy()
    fragments[3, 1] *= 0.5
    assert checks.foam_round(foam["snap"], foam["lattice"].area, fragments, foam["pairs"])
    assert checks.foam_round(
        foam["snap"], foam["lattice"].area, foam["fragments"], foam["pairs"][1:]
    )


def test_junction_census_matches_the_program_and_rejects_a_miscount(foam):
    census = level0_census(
        netmesh.read_gmsh(foam["dir"] / "lattice.msh", netmesh.GridConfig(2, 3))
    )
    expected = foam["lattice"].edge_multiplicity
    assert checks.junction_census(census, expected) == []
    census[4] -= 1
    census[3] += 1
    assert checks.junction_census(census, expected)
