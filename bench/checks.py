"""Output checks, computed without netmesh.

Each check reads what the program wrote (legacy VTK snapshots and
``summary.txt`` files) or what a workload collected from the public API,
and compares it with a computation made here from the generator's own
description of the input, or with a property the method must have.
Every check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict

import numpy as np

# -- legacy VTK -------------------------------------------------------------


class Snapshot:
    """Points, cells and cell data of one legacy ASCII VTK file."""

    def __init__(self, points, cells, cell_data):
        self.points = points
        self.cells = cells
        self.cell_data = cell_data


def read_vtk(path):
    lines = open(path).read().split("\n")
    i = 0
    points = cells = None
    cell_data = {}
    while i < len(lines):
        words = lines[i].split()
        if not words:
            i += 1
            continue
        if words[0] == "POINTS":
            n = int(words[1])
            points = np.array([lines[i + 1 + k].split() for k in range(n)], dtype=float)
            i += n + 1
        elif words[0] == "CELLS":
            n = int(words[1])
            cells = np.array([lines[i + 1 + k].split()[1:] for k in range(n)], dtype=int)
            i += n + 1
        elif words[0] == "SCALARS":
            n = len(cells)
            cell_data[words[1]] = np.array(lines[i + 2 : i + 2 + n], dtype=float)
            i += n + 2
        else:
            i += 1
    return Snapshot(points, cells, cell_data)


def read_summary(path):
    """Summary lines as dicts of their ``key=value`` fields (numbers as floats)."""
    rows = []
    for line in open(path).read().splitlines():
        fields = dict(re.findall(r"(\w+)=(\S+)", line))
        head = line.split(":", 1)[0]
        row = {k: float(v) for k, v in fields.items()}
        row["step"] = int(head.split()[1]) if head.startswith("step") else None
        rows.append(row)
    return rows


def _cell_lengths(snap):
    a, b = snap.points[snap.cells[:, 0]], snap.points[snap.cells[:, 1]]
    return np.linalg.norm(b - a, axis=1)


# -- vessel tree --------------------------------------------------------------


def poiseuille_conductance_per_length(radius, viscosity, gamma):
    """Q = G / L * (p_a - p_b) along a straight vessel, G = pi R^4 / (2 mu (2 + gamma))."""
    return math.pi * radius**4 / (2.0 * viscosity * (2.0 + gamma))


class KirchhoffOracle:
    """Node pressures of the vessel tree from its Kirchhoff network, solved with numpy.

    Branch resistance is L / G; the root node receives the inflow Q_in and
    every tip is held at the outflow pressure.  Cell-centre pressures
    follow by linear interpolation along the branch, which is exact for
    Poiseuille flow.
    """

    def __init__(self, tree, radius, viscosity, gamma, inflow, outflow_pressure):
        g = poiseuille_conductance_per_length(radius, viscosity, gamma)
        n = len(tree.nodes)
        tips = set(tree.tips)
        a = np.zeros((n, n))
        b = np.zeros(n)
        for u, v, length in tree.branches:
            c = g / length
            for p, q in ((u, v), (v, u)):
                a[p, p] += c
                a[p, q] -= c
        b[0] = inflow
        for t in tips:
            a[t, :] = 0.0
            a[t, t] = 1.0
            b[t] = outflow_pressure
        self.node_pressure = np.linalg.solve(a, b)
        self.scale = float(np.max(np.abs(self.node_pressure)))
        self._ends = np.array([(u, v) for u, v, _ in tree.branches])
        self._branch_length = np.array([length for _, _, length in tree.branches])
        seg = tree.segments
        self._branch = np.array([s[0] for s in seg])
        self._start = np.array([s[1] for s in seg])
        direction = np.array([s[2] - s[1] for s in seg])
        self._length = np.linalg.norm(direction, axis=1)
        self._unit = direction / self._length[:, None]
        self._arc = np.array([s[3] for s in seg])

    def cell_pressures(self, snap):
        """Oracle pressure at the centre of every cell of a snapshot.

        Cells are matched to the segment they lie on 32 at a time, which
        keeps the arrays of the match small beside the program's own grid.
        """
        chunk = 32
        centre = 0.5 * (snap.points[snap.cells[:, 0]] + snap.points[snap.cells[:, 1]])
        seg = np.empty(len(centre), dtype=int)
        along = np.empty(len(centre))
        for lo in range(0, len(centre), chunk):
            rel = centre[lo : lo + chunk, None, :] - self._start[None, :, :]
            a = np.einsum("csk,sk->cs", rel, self._unit)
            off = np.linalg.norm(rel - a[..., None] * self._unit[None], axis=2)
            off += np.where((a < -1e-9) | (a > self._length + 1e-9), np.inf, 0.0)
            best = np.argmin(off, axis=1)
            seg[lo : lo + chunk] = best
            along[lo : lo + chunk] = a[np.arange(len(best)), best]
        branch = self._branch[seg]
        pu, pv = self.node_pressure[self._ends[branch]].T
        return pu + (pv - pu) * (self._arc[seg] + along) / self._branch_length[branch]

    def check(self, snap, rtol=1e-8):
        p = snap.cell_data["pressure"]
        expected = self.cell_pressures(snap)
        err = float(np.max(np.abs(p - expected)))
        if err > rtol * self.scale:
            return [
                f"cell pressures differ from the Poiseuille network by up to "
                f"{err / self.scale:.3g} of the pressure scale"
            ]
        return []


def vessel_balance(snap, conductance, inflow, inflow_point, outflow_pressure, rtol=1e-8):
    """Two-point water fluxes from the snapshot's pressures balance everywhere.

    Half-cell conductance 2 G / l_i; each junction vertex takes the
    conductance-weighted mean of its cells' pressures, so the fluxes the
    cells send into a junction sum to zero there by construction.  What
    must hold is that each cell's fluxes balance its boundary source: Q_in
    through the inflow vertex, the Dirichlet outflow at the tips, nothing
    else (the walls are closed), and that total outflow equals Q_in.
    """
    problems = []
    p = snap.cell_data["pressure"]
    g = 2.0 * conductance / _cell_lengths(snap)
    incident = defaultdict(list)
    for i, (a, b) in enumerate(snap.cells):
        incident[a].append(i)
        incident[b].append(i)
    inflow_vertex = int(np.argmin(np.linalg.norm(snap.points - inflow_point, axis=1)))
    vertex_p = {}
    for v, cells in incident.items():
        if len(cells) > 1:
            w = g[cells]
            vertex_p[v] = float(np.dot(w, p[cells]) / np.sum(w))
        elif v != inflow_vertex:
            vertex_p[v] = outflow_pressure
    outflow = 0.0
    worst = 0.0
    for i, (a, b) in enumerate(snap.cells):
        net = 0.0
        for v in (a, b):
            if v == inflow_vertex:
                net -= inflow
            else:
                flux = g[i] * (p[i] - vertex_p[v])
                net += flux
                if len(incident[v]) == 1:
                    outflow += flux
        worst = max(worst, abs(net))
    if worst > rtol * inflow:
        problems.append(f"cell water balance violated by up to {worst / inflow:.3g} of Q_in")
    if abs(outflow - inflow) > rtol * inflow:
        problems.append(f"Dirichlet outflow {outflow:.6g} differs from inflow {inflow:.6g}")
    return problems


def vessel_transport(snap, summary_row, radius, c_in, inflow, atol=1e-12):
    """Concentrations within [0, c_in]; solute never exceeds Q_in c_in t."""
    problems = []
    c = snap.cell_data["concentration"]
    if np.min(c) < -atol * c_in or np.max(c) > c_in * (1.0 + atol):
        problems.append(
            f"step {summary_row['step']}: concentration range "
            f"[{np.min(c):.3g}, {np.max(c):.3g}] leaves [0, {c_in}]"
        )
    mass = summary_row["mass"]
    injected = inflow * c_in * summary_row["t"]
    if mass > injected * (1.0 + 1e-9):
        problems.append(
            f"step {summary_row['step']}: solute {mass:.12e} exceeds injected {injected:.12e}"
        )
    written = float(np.sum(math.pi * radius**2 * _cell_lengths(snap) * c))
    if abs(written - mass) > 1e-9 * max(abs(mass), injected, 1e-300):
        problems.append(
            f"step {summary_row['step']}: summary mass {mass:.12e} differs from "
            f"the snapshot's {written:.12e}"
        )
    if int(summary_row["leaf_elements"]) != len(snap.cells):
        problems.append(f"step {summary_row['step']}: summary leaf count differs from snapshot")
    return problems


# -- root growth --------------------------------------------------------------


def root_uptake_scale(k_r, radius, segments, segment_length, soil_pressure, collar_pressure):
    """Largest possible uptake: every segment at the collar pressure."""
    return k_r * 2.0 * math.pi * radius * segments * segment_length * abs(
        soil_pressure - collar_pressure
    )


def root_summary(rows, scale, rtol=1e-8):
    """Collar flux equals total uptake on every step line."""
    problems = []
    for row in rows:
        if row["step"] is None:
            continue
        flux, uptake = row["collar_flux"], row["uptake"]
        if abs(flux - uptake) > rtol * max(abs(flux), abs(uptake), scale):
            problems.append(f"step {row['step']}: collar flux {flux:.12e} != uptake {uptake:.12e}")
    return problems


def root_uptake_drops(rows, rtol=1e-8):
    """Steps whose total uptake falls below an earlier step's.

    Growth adds segments and keeps the old ones as they were.  In the
    two-point scheme every segment is a conductance from the soil to the
    xylem and every junction a star of half-cell conductances, so growth
    only adds conductances between the soil and the collar.  By Rayleigh's
    monotonicity law the uptake then never falls from one step to the next.
    """
    drops = []
    best = None
    for row in rows:
        if row["step"] is None:
            continue
        if best is not None and row["uptake"] < best * (1.0 - rtol):
            drops.append(row["step"])
        best = row["uptake"] if best is None else max(best, row["uptake"])
    return drops


def collar_cells(snap):
    """Segments that touch the collar, the origin of the initial chain."""
    at_origin = np.linalg.norm(snap.points, axis=1) < 1e-12
    return int(np.count_nonzero(at_origin[snap.cells].any(axis=1)))


def root_tree(snap, segment_length, rtol=1e-9):
    """Connected, one element fewer than vertices, every segment of the fixed length."""
    problems = []
    n_points, n_cells = len(snap.points), len(snap.cells)
    if n_cells != n_points - 1:
        problems.append(f"{n_cells} segments on {n_points} vertices is not a tree")
    parent = list(range(n_points))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in snap.cells:
        parent[find(a)] = find(b)
    components = len({find(x) for x in range(n_points)})
    if components != 1:
        problems.append(f"network falls into {components} pieces")
    lengths = _cell_lengths(snap)
    worst = float(np.max(np.abs(lengths - segment_length)))
    if worst > rtol * segment_length:
        problems.append(f"a segment differs from segment_length by {worst:.3g}")
    return problems


# -- foam lattice -------------------------------------------------------------

# corner pairs of triangle facets 0, 1, 2 in the DUNE reference numbering
TRIANGLE_FACETS = ((0, 1), (0, 2), (1, 2))


def triangle_areas(snap):
    p = snap.points
    a, b, c = p[snap.cells[:, 0]], p[snap.cells[:, 1]], p[snap.cells[:, 2]]
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def foam_round(snap, lattice_area, fragments, pairs, rtol=1e-10):
    """Leaf area, facet partition by fragments, and mutual neighbours of one round.

    ``fragments[i, f]`` is the summed length of the intersection fragments
    of leaf ``i`` on its facet ``f``; ``pairs`` lists (inside id, outside
    id) for every neighbour reported by the sweep.
    """
    problems = []
    area = float(np.sum(triangle_areas(snap)))
    if abs(area - lattice_area) > rtol * lattice_area:
        problems.append(f"leaf area {area!r} differs from lattice area {lattice_area!r}")
    if len(fragments) != len(snap.cells):
        problems.append("the sweep saw a different number of leaves than the snapshot")
        return problems
    p = snap.points
    for f, (a, b) in enumerate(TRIANGLE_FACETS):
        length = np.linalg.norm(p[snap.cells[:, b]] - p[snap.cells[:, a]], axis=1)
        worst = float(np.max(np.abs(fragments[:, f] - length) / length))
        if worst > rtol:
            problems.append(f"facet {f}: fragments miss the facet length by {worst:.3g}")
    seen = set(pairs)
    one_sided = sum(1 for a, b in seen if (b, a) not in seen)
    if one_sided:
        problems.append(f"{one_sided} neighbour relations are not mutual")
    return problems


def junction_census(observed, expected):
    """Level-0 census {multiplicity: edges} against the generator's count."""
    wanted = {m: expected.get(m, 0) for m in (2, 3, 4)}
    got = {m: observed.get(m, 0) for m in (2, 3, 4)}
    extra = {m: n for m, n in observed.items() if m not in wanted and n}
    if got != wanted or extra:
        return [f"junction census {dict(observed)} differs from the generator's {wanted}"]
    return []
