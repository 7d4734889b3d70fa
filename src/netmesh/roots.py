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

A growth round draws the decisions of all its segments in one vectorized
pass (:func:`round_decisions`), with the streams held as numpy ``uint64``
arrays.  The scalar generator :class:`Xoshiro256StarStar` and
:func:`indicator_evaluate` are the reference that pass matches bit for
bit: the same elements, attach vertices and coordinates.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

# bench/tracing.py wraps a function where a module holds it by name: grow_grid
# calls the leaf-data transfer as flow.*, where it is wrapped, and the two names
# marked F401 are held here only to be wrapped
from . import flow
from .errors import ScenarioError, SingularSystemError
from .flow import checked_solve, facet_table, squared_norms, two_point_system
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

# Growth bound: the most leaf segments a growth round may leave.  Growth is
# exponential: at branch probability 0.3 a root of 8 segments has 24,992
# after 20 steps (peak memory 143 MB), and 30 steps do not finish in ten
# minutes.  The bound is four times that count.
MAX_ELEMENTS = 100_000

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


# explicit uint64 operands: numpy 1.x and 2.x promote uint64 with other integers
# differently, and uint64 with int64 goes to float
_U64 = np.uint64


def _mix64_array(x):
    """:func:`_mix64` over a ``uint64`` array; array arithmetic wraps silently."""
    x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
    return x ^ (x >> _U64(31))


def _rotl_array(x, k):
    return (x << _U64(k)) | (x >> _U64(64 - k))


class _Streams:
    """One :class:`Xoshiro256StarStar` per entry of a ``uint64`` seed array.

    A draw advances every stream held; :meth:`keep` drops the streams that
    draw no further, so each stream still sees its own draws in order.
    """

    def __init__(self, seeds):
        state, s = seeds, []
        for _ in range(4):
            state = state + _U64(_GOLDEN)
            s.append(_mix64_array(state))
        self._s = np.stack(s)

    def keep(self, rows):
        self._s = self._s[:, rows]

    def uniform(self):
        s0, s1, s2, s3 = self._s  # row views: the updates below write the state
        result = _rotl_array(s1 * _U64(5), 7) * _U64(9)
        t = s1 << _U64(17)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3[:] = _rotl_array(s3, 45)
        return (result >> _U64(11)).astype(float) * 2.0**-53


def _stream_seeds(seed, ids, step):
    """:func:`stream_seed` over an array of element ids; the scalars stay Python ints."""
    h = _mix64_array((ids.astype(_U64) + _U64(_GOLDEN)) ^ _U64(_mix64(seed)))
    return _mix64_array(h ^ _U64((step + 0xD1B54A32D192ED03) & _MASK64))


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
    chain = grid._vertex_chain(vertex.level, vertex.slot)
    return sum(not rec.children and slot in rec.v for level, slot in chain for rec in grid._elems[level])


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


def round_decisions(indicator, view, step):
    """The decisions of :func:`indicator_evaluate` for every element of ``view``.

    Returns ``(positions, ends, coords)``: the ascending view indices of
    the elements that grow, the end (0 or 1) each new segment attaches
    to, and the new vertex coordinates, one row per decision.  End ids,
    leaf degrees and corners come from the view's facet table.  All
    streams draw together; a draw advances only the streams that make it
    at that point, and the cube rejection and the norm retry of a branch
    direction run as rounds over the streams still pending.
    """
    table = facet_table(view)
    w = view.grid.world_dim
    streams = _Streams(_stream_seeds(indicator.seed, table.ids, step))
    r_elongate = streams.uniform()
    r_branch = streams.uniform()
    anchored = np.isin(table.end_ids, np.array(indicator.anchored_ids, dtype=np.int64))
    tips = (table.end_degrees == 1) & ~anchored
    has_tip = tips.any(axis=1)
    elongate = has_tip & ~(r_elongate >= indicator.elongation_probability)
    branch = ~has_tip & ~(r_branch >= indicator.branch_probability)
    ends = np.where(tips[:, 0], 0, 1)  # the first tip
    coords = np.empty((table.size, w))

    rows = np.flatnonzero(elongate)
    tip = table.corners[rows, ends[rows]]
    axis = tip - table.corners[rows, 1 - ends[rows]]
    coords[rows] = tip + axis / np.sqrt(squared_norms(axis))[:, None] * indicator.segment_length

    rows = np.flatnonzero(branch)
    streams.keep(rows)
    pick = np.where(streams.uniform() < 0.5, 0, 1)
    ends[rows] = np.where(anchored[rows, pick], 1 - pick, pick)
    down = np.zeros(w)
    down[-1] = -indicator.gravity_bias
    d = np.empty((len(rows), w))
    norm = np.empty(len(rows))
    pending = np.arange(len(rows))
    while len(pending):
        v = np.stack([2.0 * streams.uniform() - 1.0 for _ in range(w)], axis=1)
        n2 = squared_norms(v)
        inside = np.flatnonzero((1e-12 < n2) & (n2 <= 1.0))
        tilted = v[inside] / np.sqrt(n2[inside])[:, None] + down
        tilted_norm = np.sqrt(squared_norms(tilted))
        good = tilted_norm > 1e-9
        done = inside[good]
        d[pending[done]] = tilted[good]
        norm[pending[done]] = tilted_norm[good]
        left = np.ones(len(pending), dtype=bool)
        left[done] = False
        pending = pending[left]
        streams.keep(left)
    attach = table.corners[rows, ends[rows]]
    coords[rows] = attach + d / norm[:, None] * indicator.segment_length

    chosen = np.flatnonzero(elongate | branch)
    return chosen, ends[chosen], coords[chosen]


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
        scalars = ("axial_conductance", "radial_conductivity", "root_radius",
                   "soil_pressure", "collar_pressure")
        problems = [f"{name} must be finite" for name in scalars
                    if not math.isfinite(getattr(self, name))]
        if self.axial_conductance <= 0.0:
            problems.append("axial conductance K_x must be positive")
        if self.radial_conductivity < 0.0:
            problems.append("radial conductivity K_r must be nonnegative")
        if self.root_radius <= 0.0:
            problems.append("root radius must be positive")
        if problems:
            raise ScenarioError("; ".join(problems))


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


class GrowthRound(tuple):
    """``(report, new_variables)`` of one growth round.

    ``view`` is the post-grow leaf view that ``new_variables`` are aligned
    with.  The grid holds its leaf view only weakly, so a caller that keeps
    ``view`` for its next step keeps ``grid.leaf_view()`` from building it
    again.
    """

    def __new__(cls, report, variables, view):
        grown = super().__new__(cls, (report, variables))
        grown.view = view
        return grown


def grow_grid(grid, indicator, variables, step=0):
    """One growth round: the six-step insert/store/grow/reconstruct protocol.

    ``variables`` maps names to per-leaf-element arrays (aligned with the
    current leaf index set).  Returns a :class:`GrowthRound`, which
    unpacks as (report, new_variables); fresh segments inherit every
    variable from the element whose indicator decision created them.
    Tips of fresh segments are free boundary vertices and therefore
    no-flow by construction.  Raises :class:`ScenarioError` before
    queueing anything when the round would leave more than
    :data:`MAX_ELEMENTS` leaf segments.
    """
    # (1) indicator pass, over the whole view at once
    view = grid.leaf_view()
    positions, ends, coords = round_decisions(indicator, view, step)
    count = view.size(0) + len(positions)
    if count > MAX_ELEMENTS:
        raise ScenarioError(
            f"growth step {step} would grow the root to {count} segments, "
            f"more than the bound of {MAX_ELEMENTS}"
        )

    # (2) queue the new segments: vertex from the indicator, one line each
    for attach, xyz in zip(view.corner_indices()[positions, ends].tolist(), coords):
        grid.queue_element(LINE, [attach, grid.queue_vertex(xyz)])
    sources = view.ids(0)[positions].tolist()  # queue position -> originating element id

    # (3) store variables by persistent id
    store = flow.store_leaf_data(grid, view, variables)

    # (4) grow
    grid.grow()
    report = grid.growth_report

    # (5) resize and reconstruct: inherit from the originating neighbor
    for q, eid in report.inserted:
        store[eid] = store[sources[q]]
    view = grid.leaf_view()
    out = flow.restore_leaf_data(view, store, tuple(variables))

    # (6) close the grow transaction
    grid.post_grow()
    log.debug(
        "growth step %d: %d inserted, %d skipped", step, len(report.inserted), len(report.skipped)
    )
    return GrowthRound(report, out, view)


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

    # imported at call time on purpose: bench/tracing.py wraps write_vtk in
    # vtk_io, and a module-level import would hide the VTK layer from it
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
    floats = {
        "branch_probability": branch_p, "elongation_probability": elongation_p,
        "gravity_bias": gravity, "segment_length": seg_len, "k_x": k_x, "k_r": k_r,
        "radius": radius, "soil_pressure": soil_p, "collar_pressure": collar_p,
    }
    problems = [f"{name} must be finite" for name, v in floats.items() if not math.isfinite(v)]
    problems += [f"{name} must be positive" for name in ("segment_length", "radius", "k_x")
                 if floats[name] <= 0.0]
    if k_r < 0.0:
        problems.append("k_r must be nonnegative")
    problems += [f"{name} must lie in [0, 1]"
                 for name in ("branch_probability", "elongation_probability")
                 if not 0.0 <= floats[name] <= 1.0]
    if segments < 1:
        problems.append("initial_segments must be at least 1")
    if segments > MAX_ELEMENTS:
        problems.append(f"initial_segments must be at most {MAX_ELEMENTS}")
    if n_steps < 0:
        problems.append("steps must be nonnegative")
    if problems:
        raise ScenarioError(f"{s.source}: " + "; ".join(problems))
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
    view = grid.leaf_view()
    for step in range(n_steps):
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
        grown = grow_grid(grid, indicator, variables, step=step)
        _, variables = grown
        view = grown.view  # held here, the grid keeps it only weakly

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
