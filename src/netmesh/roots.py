"""Root-network water uptake with seeded random growth.

Water flow follows a Darcy analogy: axial flux between segments uses the
same junction splitting as the vessel solver with element coefficient
K_x, the radial exchange with the soil is a solution-dependent source
K_r * 2 pi r l * (p_soil - p), the collar vertex carries the only
Dirichlet condition and every tip is no-flow.

Growth decisions are drawn from per-element xoshiro256** streams seeded
by hashing (seed, element id, step), so results do not depend on
iteration order and whole runs are bit-reproducible.  Tip segments may
elongate straight ahead; other segments may sprout a lateral branch in a
random direction pulled downwards by the gravity bias.  Gravity enters
the geometry only, never the flow operator.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError, SingularSystemError
from .flow import checked_solve, facet_table, two_point_system
# not called here: bench/tracing.py patches these two names in this module
from .flow import junction_two_point_transmissibilities  # noqa: F401
from .intersections import intersections  # noqa: F401
from .topology import LINE

log = logging.getLogger(__name__)

# every key a roots scenario may hold
SCENARIO_KEYS = (
    "seed", "steps", "branch_probability", "elongation_probability", "gravity_bias",
    "segment_length", "initial_segments", "k_x", "k_r", "radius", "soil_pressure",
    "collar_pressure", "output_prefix",
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x):
    """splitmix64 finalizer (Steele et al.): a strong 64-bit bijection."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & _MASK64


def stream_seed(seed, element_id, step):
    """Collision-resistant 64-bit hash of (seed, element id, step)."""
    h = _mix64(seed)
    h = _mix64(h ^ ((element_id + _GOLDEN) & _MASK64))
    h = _mix64(h ^ ((step + 0xD1B54A32D192ED03) & _MASK64))
    return h


class Xoshiro256StarStar:
    """xoshiro256** 1.0 (Blackman & Vigna), state filled via splitmix64.

    Hand-rolled so that streams are stable across platforms and library
    versions; decisions drawn from it must never change under upgrades.
    """

    __slots__ = ("_s",)

    def __init__(self, seed):
        state = seed & _MASK64
        s = []
        for _ in range(4):
            state = (state + _GOLDEN) & _MASK64
            s.append(_mix64(state))
        self._s = s

    def next_raw(self):
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform(self):
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_raw() >> 11) * 2.0**-53

    def direction(self, dim):
        """Uniform unit vector via rejection sampling in the cube."""
        while True:
            v = np.array([2.0 * self.uniform() - 1.0 for _ in range(dim)])
            n2 = float(v @ v)
            if 1e-12 < n2 <= 1.0:
                return v / math.sqrt(n2)


@dataclass(frozen=True)
class GrowthIndicator:
    """Per-step random growth law; deterministic given the seed."""

    seed: int = 0
    branch_probability: float = 0.05
    elongation_probability: float = 0.5
    gravity_bias: float = 1.0
    segment_length: float = 0.01
    anchored_ids: tuple = ()  # vertex ids never treated as growable tips (the collar)


@dataclass(frozen=True)
class GrowthDecision:
    kind: str  # "elongate" | "branch"
    attach: object  # leaf vertex entity the new segment connects to
    coords: np.ndarray  # position of the new vertex


def leaf_degree(grid, vertex):
    """Number of leaf elements meeting the vertex, over its whole copy chain."""
    level, slot = vertex.level, vertex.slot
    while grid._verts[level][slot].father is not None:
        level, slot = level - 1, grid._verts[level][slot].father
    count = 0
    while True:
        rec = grid._verts[level][slot]
        for el_slot in rec.incident:
            if not grid._elems[level][el_slot].children:
                count += 1
        if rec.finer is None:
            return count
        level, slot = level + 1, rec.finer


def indicator_evaluate(indicator, grid, element, step):
    """Growth decision for one leaf segment at one step, or None.

    A segment with a free tip (leaf degree 1, not anchored) elongates
    straight ahead with the elongation probability; any other segment
    may sprout a lateral branch at a randomly picked end vertex, in a
    random direction tilted downwards by the gravity bias.  A branch
    picked at an anchored vertex attaches at the other end instead, so
    the collar stays a boundary facet.  The draw order (elongate, branch,
    vertex pick, direction) is part of the reproducibility contract.
    """
    rng = Xoshiro256StarStar(stream_seed(indicator.seed, element.id, step))
    r_elongate = rng.uniform()
    r_branch = rng.uniform()

    verts = [element.sub_entity(1, i) for i in range(2)]
    tips = [v for v in verts if v.id not in indicator.anchored_ids and leaf_degree(grid, v) == 1]
    if tips:
        if r_elongate >= indicator.elongation_probability:
            return None
        tip = tips[0]
        other = verts[1] if tip is verts[0] else verts[0]
        axis = tip.coords - other.coords
        norm = float(np.linalg.norm(axis))
        coords = tip.coords + axis / norm * indicator.segment_length
        return GrowthDecision("elongate", tip, coords)

    if r_branch >= indicator.branch_probability:
        return None
    attach, other = verts if rng.uniform() < 0.5 else verts[::-1]
    if attach.id in indicator.anchored_ids:
        attach = other
    w = grid.world_dim
    down = np.zeros(w)
    down[-1] = -indicator.gravity_bias
    while True:
        d = rng.direction(w) + down
        norm = float(np.linalg.norm(d))
        if norm > 1e-9:
            break
    coords = attach.coords + d / norm * indicator.segment_length
    return GrowthDecision("branch", attach, coords)


@dataclass
class RootProblem:
    """Darcy-type root hydraulics; one collar Dirichlet value, no-flow tips."""

    axial_conductance: float = 4.32e-2  # K_x
    radial_conductivity: float = 1.73e-4  # K_r
    root_radius: float = 2.0e-3
    soil_pressure: float = -2.9429e-2
    collar_pressure: float = -1.2e6
    collar_vertex_id: int = 0

    def validate(self):
        if self.axial_conductance <= 0.0:
            raise ScenarioError("axial conductance K_x must be positive")
        if self.radial_conductivity < 0.0:
            raise ScenarioError("radial conductivity K_r must be nonnegative")
        if self.root_radius <= 0.0:
            raise ScenarioError("root radius must be positive")


def assemble_solve_root_pressure(problem, view, k_x=None, k_r=None, radius=None):
    """Xylem pressure per leaf segment.

    Axial two-point fluxes use the junction splitting with per-element
    coefficient K_x; the radial source K_r * 2 pi r l * (p_S - p) enters
    the diagonal.  Only the collar facet is Dirichlet (half-cell
    coupling with the element's own coefficient); everything else is
    no-flow.
    """
    problem.validate()
    table = facet_table(view)
    n = table.size
    t = np.full(n, problem.axial_conductance) if k_x is None else np.asarray(k_x, float)
    kr = np.full(n, problem.radial_conductivity) if k_r is None else np.asarray(k_r, float)
    r = np.full(n, problem.root_radius) if radius is None else np.asarray(radius, float)
    soil = kr * 2.0 * math.pi * r * table.lengths
    collar = table.boundary_values({problem.collar_vertex_id: problem.collar_pressure})
    pinned = np.any(soil != 0) or not np.all(np.isnan(collar))
    if not pinned:
        raise SingularSystemError(
            "root pressure system is singular (collar not on the network, no radial conductivity)"
        )
    no_inflow = table.boundary_values({})
    a, b = two_point_system(table, t, soil, problem.soil_pressure, collar, no_inflow)
    return checked_solve(a, b, "root pressure", " (collar not on the network?)")


def total_uptake(problem, view, p, k_r=None, radius=None):
    """Sum of radial source terms K_r A_r (p_S - p_i) over the leaf segments."""
    table = facet_table(view)
    n = table.size
    kr = np.full(n, problem.radial_conductivity) if k_r is None else np.asarray(k_r, float)
    r = np.full(n, problem.root_radius) if radius is None else np.asarray(radius, float)
    a_r = 2.0 * math.pi * r * table.lengths
    return _running_sum(kr * a_r * (problem.soil_pressure - np.asarray(p, float)))


def _running_sum(terms):
    """Left-to-right sum from 0.0, as a loop adds; np.sum adds pairwise."""
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def grow_grid(grid, indicator, variables, step=0):
    """One growth round: the six-step insert/store/grow/reconstruct protocol.

    ``variables`` maps names to per-leaf-element arrays (aligned with the
    current leaf index set).  Returns (report, new_variables); fresh
    segments inherit every variable from the element whose indicator
    decision created them.  Tips of fresh segments are free boundary
    vertices and therefore no-flow by construction.
    """
    # (1) indicator pass
    view = grid.leaf_view()
    ix = view.index_set
    elements = view.elements()
    decisions = []
    for el in elements:
        d = indicator_evaluate(indicator, grid, el, step)
        if d is not None:
            decisions.append((el, d))

    # (2) queue the new segments: vertex from the indicator, one line each
    sources = []  # queue position -> originating element id
    for el, d in decisions:
        new_idx = grid.queue_vertex(d.coords)
        grid.queue_element(LINE, [ix.index_of(d.attach), new_idx])
        sources.append(el.id)

    # (3) store variables by persistent id
    store = {}
    for el in elements:
        i = ix.index_of(el)
        store[el.id] = {name: a[i] for name, a in variables.items()}

    # (4) grow
    grid.grow()
    report = grid.growth_report
    inserted = dict(report.inserted)  # queue position -> new element id

    # (5) resize and reconstruct: inherit from the originating neighbor
    new_view = grid.leaf_view()
    new_ix = new_view.index_set
    new_elements = new_view.elements()
    out = {name: np.zeros(len(new_elements)) for name in variables}
    by_new_id = {eid: sources[q] for q, eid in inserted.items()}
    for el in new_elements:
        i = new_ix.index_of(el)
        values = store.get(el.id)
        if values is None:
            values = store[by_new_id[el.id]]
        for name in out:
            out[name][i] = values[name]

    # (6) clear the is_new markers
    grid.post_grow()
    log.debug(
        "growth step %d: %d inserted, %d skipped", step, len(report.inserted), len(report.skipped)
    )
    return report, out


def collar_flux(problem, view, p, k_x=None):
    """Water flux through the collar facet, positive towards the collar."""
    table = facet_table(view)
    t = np.full(table.size, problem.axial_conductance) if k_x is None else np.asarray(k_x, float)
    collar = table.boundary_values({problem.collar_vertex_id: problem.collar_pressure})
    i = table.inside[~np.isnan(collar)]
    return _running_sum(t[i] * (np.asarray(p, float)[i] - problem.collar_pressure))


def run_scenario(scenario, out_dir, steps=None, seed=None):
    """Root demo: repeated pressure solve and random growth on a vertical root.

    Starts from a straight downward chain, solves the uptake pressure,
    writes a VTK snapshot and a summary line per step, then grows the
    network with the seeded indicator.  Per-element conductances and the
    radius travel with the grid as inherited variables.
    """
    import pathlib

    from .vtk_io import write_vtk

    s = scenario
    rng_seed = s.get_int("seed", 0)
    n_steps = s.get_int("steps", 5)
    branch_p = s.get_float("branch_probability", 0.05)
    elongation_p = s.get_float("elongation_probability", 0.5)
    gravity = s.get_float("gravity_bias", 1.0)
    seg_len = s.get_float("segment_length", 0.01)
    segments = s.get_int("initial_segments", 8)
    k_x = s.get_float("k_x", 4.32e-2)
    k_r = s.get_float("k_r", 1.73e-4)
    radius = s.get_float("radius", 2.0e-3)
    soil_p = s.get_float("soil_pressure", -2.9429e-2)
    collar_p = s.get_float("collar_pressure", -1.2e6)
    prefix = s.get_str("output_prefix", "roots")
    s.check(known=SCENARIO_KEYS)
    if steps is not None:
        n_steps = steps
    if seed is not None:
        rng_seed = seed

    grid, collar = build_vertical_root(segments, seg_len)
    indicator = GrowthIndicator(
        seed=rng_seed,
        branch_probability=branch_p,
        elongation_probability=elongation_p,
        gravity_bias=gravity,
        segment_length=seg_len,
        anchored_ids=(collar,),
    )
    problem = RootProblem(
        axial_conductance=k_x,
        radial_conductivity=k_r,
        root_radius=radius,
        soil_pressure=soil_p,
        collar_pressure=collar_p,
        collar_vertex_id=collar,
    )
    variables = {
        "k_x": np.full(segments, k_x),
        "k_r": np.full(segments, k_r),
        "radius": np.full(segments, radius),
        "pressure": np.zeros(segments),
    }

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = []
    for step in range(n_steps):
        view = grid.leaf_view()
        p = assemble_solve_root_pressure(
            problem, view, k_x=variables["k_x"], k_r=variables["k_r"], radius=variables["radius"]
        )
        variables["pressure"] = p
        flux = collar_flux(problem, view, p, k_x=variables["k_x"])
        uptake = total_uptake(problem, view, p, k_r=variables["k_r"], radius=variables["radius"])
        with open(out / f"{prefix}_{step:04d}.vtk", "w") as sink:
            write_vtk(
                view,
                sink,
                cell_data={"pressure": p, "radius": variables["radius"]},
                title="root network state",
            )
        line = (
            f"step {step}: elements={view.size(0)} collar_flux={flux:.12e} "
            f"uptake={uptake:.12e}"
        )
        summary.append(line)
        log.info(line)
        _, variables = grow_grid(grid, indicator, variables, step=step)

    view = grid.leaf_view()
    line = f"final: elements={view.size(0)}"
    summary.append(line)
    log.info(line)
    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    return summary


def build_vertical_root(segments, segment_length, world_dim=3):
    """Straight downward chain from the origin; returns (grid, collar vertex id)."""
    from .topology import GridConfig, GridFactory

    f = GridFactory(GridConfig(1, world_dim))
    for i in range(segments + 1):
        coords = np.zeros(world_dim)
        coords[-1] = -i * segment_length
        f.insert_vertex(coords)
    for i in range(segments):
        f.insert_element(LINE, [i, i + 1])
    grid = f.create_grid()
    collar_id = grid._verts[0][0].id
    return grid, collar_id
