"""Deterministic benchmark inputs, generated from a seed.

Every generator writes plain files that the program reads (MSH meshes and
``key = value`` scenarios) and returns the facts the output checks need,
computed here without netmesh: the Kirchhoff network of the vessel tree,
the lattice area and junction census of the foam surface.  The same seed
always gives byte-identical files.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

# -- vessel tree ------------------------------------------------------------

# Branch level k is split into SEGMENTS[k] segments of nominal length
# SEGMENT_LENGTH[k]; every length stays below 2, the length at which the
# scheme's length-free transmissibility happens to be exact.
VESSEL_SEGMENTS = (12, 8, 6, 5, 4, 4)
VESSEL_SEGMENT_LENGTH = (0.25, 0.2, 0.16, 0.13, 0.11, 0.09)
VESSEL_RADIUS = 1.0e-3
VESSEL_VISCOSITY = 3.0e-3
VESSEL_GAMMA = 2.0
VESSEL_INFLOW_VELOCITY = 1.0
VESSEL_OUTFLOW_PRESSURE = 0.0
VESSEL_C_IN = 1.0
VESSEL_DT = 0.1
VESSEL_STEPS = 8

INFLOW_TAG, INTERIOR_TAG, OUTFLOW_TAG = 1, 2, 3


@dataclass
class VesselTree:
    """The generated network as the Kirchhoff oracle sees it.

    ``nodes`` are the branch ends, node 0 the inflow end; ``branches``
    holds (node a, node b, length); ``segments`` holds (branch, start
    point, end point, arc start) of every MSH line element, in file order.
    """

    nodes: np.ndarray
    branches: list
    segments: list
    tips: list


def _rotate_about(v, axis, angle):
    axis = axis / np.linalg.norm(axis)
    return (
        v * math.cos(angle)
        + np.cross(axis, v) * math.sin(angle)
        + axis * float(axis @ v) * (1.0 - math.cos(angle))
    )


def _perpendicular(v):
    helper = np.array([1.0, 0.0, 0.0]) if abs(v[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    p = np.cross(v, helper)
    return p / np.linalg.norm(p)


def vessel_tree(seed, directory):
    """Write ``vessel_tree.msh`` and ``vessel_tree.txt``; return the tree.

    A binary tree of Y-junctions whose first junction is four-way (the
    root branch feeds three children).  The seed draws the branch
    directions only, so the network's topology and segment lengths, and
    with them the amount of work, are the same for every seed.
    """
    rng = np.random.default_rng([seed, 1])
    levels = len(VESSEL_SEGMENTS)
    nodes = [np.zeros(3)]
    branches = []
    segments = []
    elements = []  # (tag, point index a, point index b)
    points = [np.zeros(3)]
    tips = []

    # (start point index, direction, level, start node)
    stack = [(0, np.array([0.0, 0.0, -1.0]), 0, 0)]
    while stack:
        start_point, direction, level, start_node = stack.pop()
        n_seg = VESSEL_SEGMENTS[level]
        h = VESSEL_SEGMENT_LENGTH[level]
        tag = INFLOW_TAG if level == 0 else (OUTFLOW_TAG if level == levels - 1 else INTERIOR_TAG)
        origin = points[start_point]
        branch = len(branches)
        prev = start_point
        for s in range(n_seg):
            p = origin + direction * (h * (s + 1))
            points.append(p)
            cur = len(points) - 1
            elements.append((tag, prev, cur))
            segments.append((branch, points[prev], p, h * s))
            prev = cur
        end_node = len(nodes)
        nodes.append(points[prev])
        branches.append((start_node, end_node, h * n_seg))
        if level == levels - 1:
            tips.append(end_node)
            continue
        children = 3 if level == 0 else 2
        axis0 = _perpendicular(direction)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        for c in range(children):
            azimuth = phase + 2.0 * math.pi * c / children
            tilt_axis = _rotate_about(axis0, direction, azimuth)
            tilt = math.radians(rng.uniform(25.0, 40.0))
            child = _rotate_about(direction, tilt_axis, tilt)
            stack.append((prev, child / np.linalg.norm(child), level + 1, end_node))

    directory.mkdir(parents=True, exist_ok=True)
    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", str(len(points))]
    lines += [f"{i + 1} {float(p[0])!r} {float(p[1])!r} {float(p[2])!r}" for i, p in enumerate(points)]
    lines += ["$EndNodes", "$Elements", str(len(elements))]
    lines += [
        f"{i + 1} 1 2 {tag} {tag} {a + 1} {b + 1}" for i, (tag, a, b) in enumerate(elements)
    ]
    lines.append("$EndElements")
    (directory / "vessel_tree.msh").write_text("\n".join(lines) + "\n")
    (directory / "vessel_tree.txt").write_text(
        "\n".join(
            [
                "mesh = vessel_tree.msh",
                f"radius = {VESSEL_RADIUS!r}",
                f"viscosity = {VESSEL_VISCOSITY!r}",
                f"gamma = {VESSEL_GAMMA!r}",
                "l_p = 0.0",
                "l_c = 0.0",
                "sigma_c = 0.0",
                "d_e = 1.0e-3",
                f"inflow_tags = {INFLOW_TAG}",
                f"inflow_velocity = {VESSEL_INFLOW_VELOCITY!r}",
                f"outflow_tags = {OUTFLOW_TAG}",
                f"outflow_pressure = {VESSEL_OUTFLOW_PRESSURE!r}",
                f"concentration_tags = {INFLOW_TAG}",
                f"concentration_value = {VESSEL_C_IN!r}",
                f"dt = {VESSEL_DT!r}",
                f"steps = {VESSEL_STEPS}",
                "adapt_every = 1",
                "eps_refine = 0.3",
                "eps_coarsen = 0.05",
                "max_refinement_level = 2",
                "output_prefix = flow",
            ]
        )
        + "\n"
    )
    return VesselTree(nodes=np.array(nodes), branches=branches, segments=segments, tips=tips)


# -- root growth ------------------------------------------------------------

ROOT_STEPS = 5
ROOT_SEGMENT_LENGTH = 0.01
ROOT_INITIAL_SEGMENTS = 128
ROOT_K_X = 4.32e-2
ROOT_K_R = 1.73e-4
ROOT_RADIUS = 2.0e-3
ROOT_SOIL_PRESSURE = -2.9429e-2
ROOT_COLLAR_PRESSURE = -1.2e6


def root_growth_seeds(seed):
    """32 candidate growth seeds of the root scenario for one benchmark seed.

    The workload takes the first candidate under which the program's first
    step sprouts a branch at the collar (see ``workloads.RootGrowth``).
    """
    return [int(g) for g in np.random.default_rng([seed, 2]).integers(0, 2**31, size=32)]


def root_scenario(growth_seed, directory):
    """Write ``roots.txt``: a vertical chain where every segment grows at every step.

    Branch and elongation probabilities are 1, so the segment count doubles
    at every step for every seed; the growth seed draws the directions and
    the end each branch sprouts from.  A long initial chain spreads those
    draws over many vertices, which keeps the junction sizes, and with them
    the work, nearly the same from seed to seed.
    """
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "roots.txt").write_text(
        "\n".join(
            [
                f"seed = {growth_seed}",
                f"steps = {ROOT_STEPS}",
                f"initial_segments = {ROOT_INITIAL_SEGMENTS}",
                f"segment_length = {ROOT_SEGMENT_LENGTH!r}",
                "branch_probability = 1.0",
                "elongation_probability = 1.0",
                "gravity_bias = 0.5",
                f"k_x = {ROOT_K_X!r}",
                f"k_r = {ROOT_K_R!r}",
                f"radius = {ROOT_RADIUS!r}",
                f"soil_pressure = {ROOT_SOIL_PRESSURE!r}",
                f"collar_pressure = {ROOT_COLLAR_PRESSURE!r}",
                "output_prefix = roots",
            ]
        )
        + "\n"
    )


# -- foam lattice -----------------------------------------------------------

LATTICE_N = 3
LATTICE_SPACING = 1.0


@dataclass
class Lattice:
    """Faces of an n x n x n cubic lattice, each unit square cut into two triangles."""

    n: int
    spacing: float
    area: float
    edge_multiplicity: Counter  # junction multiplicity -> number of level-0 edges
    front_start: np.ndarray
    front_velocity: np.ndarray


def lattice_surface(seed, directory):
    """Write ``lattice.msh``; return the lattice with its own census.

    The seed picks the diagonal of each square and the path of the
    spherical front that drives adaptation.
    """
    rng = np.random.default_rng([seed, 3])
    n, h = LATTICE_N, LATTICE_SPACING

    def vid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    coords = [
        (i * h, j * h, k * h)
        for i in range(n + 1)
        for j in range(n + 1)
        for k in range(n + 1)
    ]
    triangles = []
    squares = 0
    lattice_edges = Counter()  # undirected lattice edge -> squares containing it
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for normal in range(3):
        a, b = [u for u in range(3) if u != normal]
        for base in np.ndindex(n + 1, n + 1, n + 1):
            if base[a] == n or base[b] == n:
                continue
            c0 = tuple(base)
            c1 = tuple(x + y for x, y in zip(base, units[a]))
            c2 = tuple(x + y + z for x, y, z in zip(base, units[a], units[b]))
            c3 = tuple(x + y for x, y in zip(base, units[b]))
            v = [vid(*c) for c in (c0, c1, c2, c3)]
            squares += 1
            for p, q in ((0, 1), (1, 2), (2, 3), (3, 0)):
                lattice_edges[frozenset((v[p], v[q]))] += 1
            if rng.random() < 0.5:
                triangles += [(v[0], v[1], v[2]), (v[0], v[2], v[3])]
            else:
                triangles += [(v[0], v[1], v[3]), (v[1], v[2], v[3])]

    multiplicity = Counter(lattice_edges.values())
    multiplicity[2] += squares  # every diagonal is shared by its two triangles

    directory.mkdir(parents=True, exist_ok=True)
    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", str(len(coords))]
    lines += [f"{i + 1} {x!r} {y!r} {z!r}" for i, (x, y, z) in enumerate(coords)]
    lines += ["$EndNodes", "$Elements", str(len(triangles))]
    lines += [
        f"{i + 1} 2 2 1 1 {a + 1} {b + 1} {c + 1}" for i, (a, b, c) in enumerate(triangles)
    ]
    lines.append("$EndElements")
    (directory / "lattice.msh").write_text("\n".join(lines) + "\n")

    # The front crosses the lattice along one body diagonal, mapped by a
    # random symmetry of the cube, so every seed sees the same amount of
    # front in a different place.
    extent = n * h
    start = np.full(3, -0.2 * extent)
    target = np.full(3, 1.2 * extent)
    axes = rng.permutation(3)
    flips = rng.random(3) < 0.5
    start, target = start[axes], target[axes]
    start[flips] = extent - start[flips]
    target[flips] = extent - target[flips]
    return Lattice(
        n=n,
        spacing=h,
        area=squares * h * h,
        edge_multiplicity=multiplicity,
        front_start=start,
        front_velocity=target - start,
    )
