"""The three workloads: vessel-tree, root-growth and foam-adapt.

A workload generates its inputs once from the seed, then runs whole
repetitions.  ``repetition`` times one pass from the input files to the
last output, normalised by the host speed (see ``timing``), and
``check`` verifies that pass's outputs.  ``check`` runs in a forked
child process, so it must not change the workload's state.  Every
repetition attempts the same operations, so the share of failed
operations is the same in every run.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import checks
import generate

import netmesh
from netmesh import cli, roots


@dataclass
class Repetition:
    wall_s: float  # normalised, input files to last output
    setup_s: float  # normalised, input files to the state before the first step
    leaf_steps: int  # leaf elements summed over steps or rounds
    speed: float  # normalised over raw time of the whole repetition
    data: dict = field(default_factory=dict)  # what the checks need


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def run_netmesh(argv):
    """Run the ``netmesh`` command in-process; its printed summary is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"netmesh {' '.join(argv)} exited with {code}")


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    return path


class VesselTree:
    """``netmesh flow`` on the generated vessel tree, with its ``--steps 0`` set-up."""

    name = "vessel-tree"

    def __init__(self, seed, work):
        self.work = work
        self.tree = generate.vessel_tree(seed, work / "input")
        self.scenario = str(work / "input" / "vessel_tree.txt")
        self.inflow = generate.VESSEL_INFLOW_VELOCITY * np.pi * generate.VESSEL_RADIUS**2
        self.oracle = checks.KirchhoffOracle(
            self.tree,
            generate.VESSEL_RADIUS,
            generate.VESSEL_VISCOSITY,
            generate.VESSEL_GAMMA,
            self.inflow,
            generate.VESSEL_OUTFLOW_PRESSURE,
        )
        self.conductance = checks.poiseuille_conductance_per_length(
            generate.VESSEL_RADIUS, generate.VESSEL_VISCOSITY, generate.VESSEL_GAMMA
        )

    def repetition(self, sampler):
        setup_dir = _fresh(self.work / "setup")
        full_dir = _fresh(self.work / "flow")
        t0 = time.perf_counter()
        run_netmesh(["flow", self.scenario, "--out", str(setup_dir), "--steps", "0"])
        t1 = time.perf_counter()
        run_netmesh(["flow", self.scenario, "--out", str(full_dir)])
        t2 = time.perf_counter()
        rows = checks.read_summary(full_dir / "summary.txt")
        return Repetition(
            wall_s=sampler.normalised(t1, t2),
            setup_s=sampler.normalised(t0, t1),
            leaf_steps=int(sum(row["leaf_elements"] for row in rows)),
            speed=sampler.normalised(t0, t2) / (t2 - t0),
            data={"dirs": (setup_dir, full_dir)},
        )

    def check(self, rep):
        """One operation per pressure solve and per transport step.

        A pressure solve fails when the Poiseuille oracle rejects it; the
        water balance must then agree.  Any other rejection is a problem.
        """
        out = Outcome()
        for directory in rep.data["dirs"]:
            rows = checks.read_summary(directory / "summary.txt")
            for row in rows:
                snap = checks.read_vtk(directory / f"flow_{row['step']:04d}.vtk")
                out.attempted += 1  # the pressure solve behind this snapshot
                oracle = self.oracle.check(snap)
                balance = checks.vessel_balance(
                    snap,
                    self.conductance,
                    self.inflow,
                    self.tree.nodes[0],
                    generate.VESSEL_OUTFLOW_PRESSURE,
                )
                if oracle:
                    out.failed += 1
                    if not balance:
                        out.problems.append(
                            f"step {row['step']}: the oracle rejects a solve that balances"
                        )
                elif balance:
                    out.problems += balance
                if row["step"] > 0:
                    out.attempted += 1  # the transport step
                    out.problems += checks.vessel_transport(
                        snap, row, generate.VESSEL_RADIUS, generate.VESSEL_C_IN, self.inflow
                    )
        return out


class RootGrowth:
    """``netmesh roots`` on the generated scenario, with ``--steps 0`` set-ups."""

    name = "root-growth"
    SETUP_CALLS = 5

    def __init__(self, seed, work):
        self.work = work
        self.scenario = str(work / "input" / "roots.txt")
        self._write_scenario(seed)
        self.grids = []
        self.first_summary = None
        final = generate.ROOT_INITIAL_SEGMENTS * 2**generate.ROOT_STEPS
        self.uptake_scale = checks.root_uptake_scale(
            generate.ROOT_K_R,
            generate.ROOT_RADIUS,
            final,
            generate.ROOT_SEGMENT_LENGTH,
            generate.ROOT_SOIL_PRESSURE,
            generate.ROOT_COLLAR_PRESSURE,
        )

    def _write_scenario(self, seed):
        """Write the scenario with the first candidate growth seed whose first step
        sprouts a branch at the collar.

        Under ``roots.indicator_evaluate`` the collar segment sprouts a
        branch at the collar with probability 1/2 at every step, and from
        then on ``assemble_solve_root_pressure`` drops the collar's
        Dirichlet condition.  Taking a seed on which this happens at the
        first step makes the same solves fail on every seed, instead of a
        seed-dependent number.  When no candidate does it, the first is used.
        """
        candidates = generate.root_growth_seeds(seed)
        probe = self.work / "probe"
        for growth_seed in candidates:
            generate.root_scenario(growth_seed, self.work / "input")
            run_netmesh(["roots", self.scenario, "--out", str(_fresh(probe)), "--steps", "2"])
            if checks.collar_cells(checks.read_vtk(probe / "roots_0001.vtk")) > 1:
                return
        generate.root_scenario(candidates[0], self.work / "input")

    def _capture(self):
        """Keep the grid ``netmesh roots`` builds, for the final audit."""
        build = roots.build_vertical_root

        def capturing(*args, **kwargs):
            grid, collar = build(*args, **kwargs)
            self.grids.append(grid)
            return grid, collar

        roots.build_vertical_root = capturing
        return build

    def repetition(self, sampler):
        setup_dir = _fresh(self.work / "setup")
        full_dir = _fresh(self.work / "roots")
        self.grids.clear()
        original = self._capture()
        try:
            marks = [time.perf_counter()]
            for _ in range(self.SETUP_CALLS):
                run_netmesh(["roots", self.scenario, "--out", str(setup_dir), "--steps", "0"])
                marks.append(time.perf_counter())
            run_netmesh(["roots", self.scenario, "--out", str(full_dir)])
            end = time.perf_counter()
        finally:
            roots.build_vertical_root = original
        summary = (full_dir / "summary.txt").read_text()
        if self.first_summary is None:
            self.first_summary = summary
        rows = checks.read_summary(full_dir / "summary.txt")
        setups = [sampler.normalised(a, b) for a, b in zip(marks, marks[1:])]
        return Repetition(
            wall_s=sampler.normalised(marks[-1], end),
            setup_s=statistics.median(setups),
            leaf_steps=int(sum(row["elements"] for row in rows if row["step"] is not None)),
            speed=sampler.normalised(marks[0], end) / (end - marks[0]),
            data={
                "dirs": (setup_dir, full_dir),
                "grid": self.grids[-1],
                "same_summary": summary == self.first_summary,
            },
        )

    def check(self, rep):
        """One operation per set-up call and per growth step.

        A growth step fails when its uptake falls below an earlier step's.
        """
        out = Outcome(attempted=self.SETUP_CALLS)
        setup_dir, full_dir = rep.data["dirs"]
        expected_setup = f"final: elements={generate.ROOT_INITIAL_SEGMENTS}\n"
        if (setup_dir / "summary.txt").read_text() != expected_setup:
            out.problems.append("set-up summary differs from the initial chain")
        if not rep.data["same_summary"]:
            out.problems.append("two runs with the same seed wrote different summaries")
        rows = checks.read_summary(full_dir / "summary.txt")
        out.problems += checks.root_summary(rows, self.uptake_scale)
        out.failed += len(checks.root_uptake_drops(rows))
        for row in rows:
            if row["step"] is None:
                continue
            out.attempted += 1
            snap = checks.read_vtk(full_dir / f"roots_{row['step']:04d}.vtk")
            expected = generate.ROOT_INITIAL_SEGMENTS * 2 ** row["step"]
            if len(snap.cells) != int(row["elements"]) or len(snap.cells) != expected:
                out.problems.append(f"step {row['step']}: {len(snap.cells)} segments")
            out.problems += [
                f"step {row['step']}: {p}"
                for p in checks.root_tree(snap, generate.ROOT_SEGMENT_LENGTH)
            ]
        audit = netmesh.audit_grid(rep.data["grid"])
        out.problems += [f"audit: {p}" for p in audit[:5]]
        return out


class FoamAdapt:
    """Library-level 2D adaptation of a cubic-lattice surface behind a spherical front."""

    name = "foam-adapt"
    ROUNDS = 6
    MAX_LEVEL = 2

    def __init__(self, seed, work):
        self.work = work
        self.lattice = generate.lattice_surface(seed, work / "input")
        self.mesh = work / "input" / "lattice.msh"
        self.radius = 0.4 * self.lattice.n * self.lattice.spacing
        self.census_problems = self._census()

    def _census(self):
        census = level0_census(netmesh.read_gmsh(self.mesh, netmesh.GridConfig(2, 3)))
        return checks.junction_census(census, self.lattice.edge_multiplicity)

    def _round(self, grid, view, number, out_dir):
        """Sweep every leaf's intersections, write VTK, mark around the front, adapt."""
        elements = view.elements()
        fragments, pairs = sweep(view, elements)
        netmesh.write_vtk(view, out_dir / f"foam_{number:04d}.vtk", title="foam front")
        lat = self.lattice
        centre = lat.front_start + lat.front_velocity * (number + 1) / self.ROUNDS
        for el in elements:
            distance = abs(float(np.linalg.norm(el.geometry.center() - centre)) - self.radius)
            if distance < lat.spacing * 0.5**el.level:
                if el.level < self.MAX_LEVEL:
                    grid.mark(1, el)
            else:
                grid.mark(-1, el)
        grid.pre_adapt()
        grid.adapt()
        grid.post_adapt()
        return len(elements), fragments, pairs

    def repetition(self, sampler):
        out_dir = _fresh(self.work / "foam")
        out_dir.mkdir(parents=True)
        rounds = []
        t0 = time.perf_counter()
        grid = netmesh.read_gmsh(self.mesh, netmesh.GridConfig(2, 3))
        view = grid.leaf_view()
        t1 = time.perf_counter()
        for number in range(self.ROUNDS):
            if number:
                view = grid.leaf_view()
            rounds.append(self._round(grid, view, number, out_dir))
        t2 = time.perf_counter()
        wall = sampler.normalised(t0, t2)
        return Repetition(
            wall_s=wall,
            setup_s=sampler.normalised(t0, t1),
            leaf_steps=sum(r[0] for r in rounds),
            speed=wall / (t2 - t0),
            data={"dir": out_dir, "rounds": rounds, "grid": grid},
        )

    def check(self, rep):
        """One operation per adaptation round."""
        out = Outcome(problems=list(self.census_problems))
        for number, (_, fragments, pairs) in enumerate(rep.data["rounds"]):
            out.attempted += 1
            snap = checks.read_vtk(rep.data["dir"] / f"foam_{number:04d}.vtk")
            out.problems += [
                f"round {number}: {p}"
                for p in checks.foam_round(snap, self.lattice.area, fragments, pairs)
            ]
        audit = netmesh.audit_grid(rep.data["grid"])
        out.problems += [f"audit: {p}" for p in audit[:5]]
        return out


def sweep(view, elements):
    """Fragment lengths per (leaf, facet) and (inside id, outside id) neighbour pairs."""
    fragments = np.zeros((len(elements), 3))
    pairs = []
    for i, el in enumerate(elements):
        for grp in netmesh.intersections(view, el):
            fragments[i, grp.index_in_inside] += grp.geometry.volume()
            for k in range(grp.neighbor_count):
                pairs.append((el.id, grp.outside(k).id))
    return fragments, pairs


def level0_census(grid):
    """{junction multiplicity: level-0 facets}, as ``intersections`` reports them."""
    view = grid.level_view(0)
    multiplicity = {}
    for el in view.elements():
        for grp in netmesh.intersections(view, el):
            multiplicity[el.sub_entity(1, grp.index_in_inside).id] = grp.neighbor_count + 1
    census = {}
    for m in multiplicity.values():
        census[m] = census.get(m, 0) + 1
    return census


WORKLOADS = {w.name: w for w in (VesselTree, RootGrowth, FoamAdapt)}
