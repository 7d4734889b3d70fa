"""Cell-centered finite volumes for flow and transport on vessel networks.

Pressure: one unknown per leaf element.  Element transmissibility
t_i = pi R_i^4 / (2 mu (2 + gamma)) is a conductance times a length, so
a cell of length l_i conducts g_i = 2 t_i / l_i between its center and
each of its facets (the half-cell conductance).  The two-point
transmissibility between junction partners i, j is g_i g_j / sum of g_k
over *all* elements incident to the junction, so junctions of any
multiplicity are assembled alike; for two partners it is the series
conductance of the two half cells.  Dirichlet boundary facets couple
with the element's own g_i.  This reproduces exact linear profiles on
chains of one radius and any cell lengths.
Wall filtration adds 2 pi R L_p l_i (p_i - p_tissue).

Transport: implicit Euler on solute amounts A_i l_i c_i with full upwind
advection driven by the pressure fluxes (through the same half-cell
conductances), two-point diffusion D_e on the amounts, and transmural
Kedem-Katchalsky exchange
2 pi R l [L_c (c - c_tissue) + L_p (p - p_tissue)(1 - sigma_c) c]
acting as a wall loss.  Outflow advects the upwind cell value and
neglects diffusion; inflow carries the prescribed concentration on the
designated facets and zero elsewhere.

Boundary conditions are keyed by the persistent id of the boundary
vertex, which survives refinement, coarsening and growth.

Every scheme reads one :class:`FacetTable` per view: plain arrays built
by grouping the segment ends by persistent vertex id, indexed by the
view's index set.  :func:`two_point_system` assembles the vessel
pressure and the root pressure (``roots``) from it; transport, the
refinement indicator and the boundary lookups read the same table.
"""

from __future__ import annotations

import logging
import math
import pathlib
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import DimensionMismatchError, LifecycleError, ScenarioError
from .errors import SingularGeometryError, SingularSystemError
# bench/tracing.py wraps intersections where a module holds it by name; held only for that
from .intersections import intersections  # noqa: F401

log = logging.getLogger(__name__)

_TWO_PI = 2.0 * math.pi

# every key a flow scenario may hold: run_scenario and problem_from_scenario
SCENARIO_KEYS = (
    "mesh", "radius", "initial_concentration", "dt", "steps", "eps_refine", "eps_coarsen",
    "max_refinement_level", "adapt_every", "output_prefix",
    "viscosity", "gamma", "l_p", "l_c", "sigma_c", "d_e", "tissue_pressure",
    "tissue_concentration", "inflow_tags", "outflow_tags", "concentration_tags",
    "inflow_velocity", "outflow_pressure", "concentration_value",
)


@dataclass
class VesselProblem:
    """Physical parameters and boundary data of a vessel network."""

    viscosity: float = 3.0e-3
    gamma: float = 2.0
    l_p: float = 0.0
    l_c: float = 0.0
    sigma_c: float = 0.0
    d_e: float = 0.0
    tissue_pressure: float = 0.0
    tissue_concentration: float = 0.0
    dirichlet_pressure: dict = field(default_factory=dict)       # vertex id -> p
    neumann_velocity: dict = field(default_factory=dict)         # vertex id -> inflow speed
    dirichlet_concentration: dict = field(default_factory=dict)  # vertex id -> c

    def validate(self):
        scalars = ("viscosity", "gamma", "l_p", "l_c", "sigma_c", "d_e",
                   "tissue_pressure", "tissue_concentration")
        problems = [f"{name} must be finite" for name in scalars
                    if not math.isfinite(getattr(self, name))]
        boundary = (self.dirichlet_pressure, self.neumann_velocity, self.dirichlet_concentration)
        if not all(math.isfinite(v) for values in boundary for v in values.values()):
            problems.append("boundary values must be finite")
        if self.viscosity <= 0.0:
            problems.append("viscosity must be positive")
        if self.gamma < 2.0:
            problems.append("gamma must be at least 2 (blunt velocity profile)")
        if not 0.0 <= self.sigma_c <= 1.0:
            problems.append("sigma_c must lie in [0, 1]")
        problems += [f"{name} must be nonnegative" for name in ("l_p", "l_c", "d_e")
                     if getattr(self, name) < 0.0]
        extra = set(self.dirichlet_concentration) - set(self.neumann_velocity)
        if extra:
            problems.append(
                "concentration boundaries must be inflow boundaries "
                f"(vertex ids {sorted(extra)} carry c but no inflow velocity)"
            )
        if problems:
            raise ScenarioError("; ".join(problems))


def element_transmissibility(radius, viscosity, gamma):
    """t = pi R^4 / (2 mu (2 + gamma)); vectorized over ``radius``."""
    radius = np.asarray(radius, dtype=float)
    if not np.all(radius > 0.0):
        raise ScenarioError("vessel radius must be positive")
    if not viscosity > 0.0:
        raise ScenarioError("viscosity must be positive")
    if gamma <= -2.0:
        raise ScenarioError("gamma must exceed -2")
    return math.pi * radius**4 / (2.0 * viscosity * (2.0 + gamma))


class FacetTable:
    """Plain arrays of one network view for the finite-volume schemes.

    Every copy of a logical vertex carries one persistent id, so a
    junction is exactly the set of leaf segments with an end vertex of
    that id.  The table groups the 2N segment ends by one sort over
    (vertex id, element id); element ``i`` is the element with index
    ``i`` in the view.  Per element: persistent ``ids`` and ``lengths``.
    Per segment end, as ``(n, 2)`` arrays over element and facet: the
    persistent vertex id ``end_ids`` and the leaf degree ``end_degrees``
    (the size of the end's group); ``corners`` holds the end coordinates,
    ``(n, 2, world_dim)``.  Per facet record, in sweep order (element,
    facet 0 then 1, neighbours by ascending id): ``inside`` and
    ``outside`` element indices (``outside`` is -1 on a boundary facet),
    the persistent id of the ``facet`` (the junction vertex) and the
    ``junction`` number (-1 on a boundary facet).  Junctions are numbered as the sweep first
    reaches them; ``member_junction`` and ``member_element`` list each
    one row per element, by ascending element id.
    """

    def __init__(self, view):
        grid = view.grid
        if grid.dim != 1:
            raise DimensionMismatchError("facet tables exist only on network (dim 1) views")
        ids, vids, corners = [], [], []
        for el in view.elements():
            rec = grid._elems[el.level][el.slot]
            verts = grid._verts[el.level]
            a, b = verts[rec.v[0]], verts[rec.v[1]]
            ids.append(rec.id)
            vids += (a.id, b.id)
            corners += (a.coords, b.coords)
        n = len(ids)
        self.ids = np.array(ids, dtype=np.int64)
        self.corners = corners = np.array(corners, dtype=float).reshape(n, 2, grid.world_dim)
        # sqrt(d . d) as AffineGeometry.volume computes it (np.linalg.norm differs in the
        # last bit); a zero or overflowing d . d is the degenerate segment it refuses
        with np.errstate(all="ignore"):
            squared = squared_norms(corners[:, 1] - corners[:, 0])
        bad = np.flatnonzero((squared == 0.0) | (squared == math.inf))
        if len(bad):
            raise SingularGeometryError(f"degenerate 1-simplex with corners {corners[bad[0]].tolist()}")
        self.lengths = np.sqrt(squared)

        # segment end k = 2 i + facet, sorted by vertex id, then element id
        vid = np.array(vids, dtype=np.int64)
        owner = np.repeat(np.arange(n, dtype=np.int64), 2)
        order = np.lexsort((self.ids[owner], vid))
        place = np.empty_like(order)
        place[order] = np.arange(2 * n)
        starts = np.ones(2 * n, dtype=bool)
        starts[1:] = vid[order][1:] != vid[order][:-1]
        group = (np.cumsum(starts) - 1)[place]
        first = np.flatnonzero(starts)
        size = np.diff(np.append(first, 2 * n))
        self.end_ids = vid.reshape(n, 2)
        self.end_degrees = size[group].reshape(n, 2)

        # junctions: groups of two or more ends, numbered as the sweep reaches them
        reached = np.full(len(first), 2 * n)
        np.minimum.at(reached, group, np.arange(2 * n))
        shared = np.flatnonzero(size > 1)
        junction = np.full(len(first), -1, dtype=np.int64)
        junction[shared[np.argsort(reached[shared])]] = np.arange(len(shared))

        # one record per end and neighbour, or one boundary record
        count = np.maximum(size[group] - 1, 1)
        end = np.repeat(np.arange(2 * n), count)
        inner = size[group[end]] > 1
        pos = first[group[end]] + np.arange(len(end)) - np.repeat(np.cumsum(count) - count, count)
        pos += inner & (pos >= place[end])  # skip the end itself
        self.inside = owner[end]
        self.outside = np.where(inner, owner[order[pos]], -1)
        self.facet = vid[end]
        self.junction = junction[group[end]]

        by_junction = np.repeat(junction, size)  # per sorted end
        rows = np.argsort(by_junction, kind="stable")[np.count_nonzero(by_junction < 0):]
        self.member_junction = by_junction[rows]
        self.member_element = owner[order[rows]]

    @property
    def size(self):
        return len(self.ids)

    def pair_transmissibilities(self, t):
        """Per record t_i t_j / (sum of t_k over the junction, by ascending id); 0 on the boundary."""
        t = np.asarray(t, dtype=float)
        denom = np.bincount(self.member_junction, weights=t[self.member_element])
        inner = self.outside >= 0
        i, j = self.inside[inner], self.outside[inner]
        tij = np.zeros(len(self.inside))
        tij[inner] = t[i] * t[j] / denom[self.junction[inner]]
        return tij

    def boundary_values(self, values, default=np.nan):
        """Per record ``values[facet id]`` on the boundary facets it names, else ``default``."""
        out = np.full(len(self.inside), default, dtype=float)
        for r in np.flatnonzero(self.outside < 0).tolist():
            out[r] = values.get(int(self.facet[r]), default)
        return out


def squared_norms(d):
    """Row-wise d . d of an (m, w) array with the bits of ``v @ v`` on each row.

    A batched matmul rounds each row as the 1-D product does; elementwise
    sums add in another order and differ in the last bit.
    """
    return (d[:, None, :] @ d[:, :, None])[:, 0, 0]


def facet_table(view):
    """The view's :class:`FacetTable`, built on first use and kept on the view.

    A view refuses use after any grid change, so the table never goes stale.
    """
    view._check_fresh()
    if view._facet_table is None:
        view._facet_table = FacetTable(view)
    return view._facet_table


def junction_two_point_transmissibilities(view, t):
    """Map (junction vertex id, id_i, id_j) -> t_ij, ids ordered ascending.

    Where one pair meets in several facet records, the first record in
    sweep order gives the value.
    """
    table = facet_table(view)
    tij = table.pair_transmissibilities(t)
    out = {}
    for r in np.flatnonzero(table.outside >= 0):
        a, b = table.ids[table.inside[r]], table.ids[table.outside[r]]
        out.setdefault((int(table.facet[r]), int(min(a, b)), int(max(a, b))), tij[r])
    return out


def _triplets(table, head, slots):
    """COO (rows, cols, vals) in the order an element loop adds them.

    Row i takes one diagonal entry per ``head`` item, a (values, keep)
    pair over the elements, then, record by record in sweep order, one
    entry per ``slots`` item, a (columns, values, keep) triple over the
    facet records.  scipy and ``np.bincount`` sum duplicates in the order
    a row lists them, so this order fixes the last bits of the system.
    """
    keep = np.stack([k for _, _, k in slots], axis=1)
    diagonal = [np.flatnonzero(k) for _, k in head]
    rows = diagonal + [np.broadcast_to(table.inside[:, None], keep.shape)[keep]]
    cols = diagonal + [np.stack([c for c, _, _ in slots], axis=1)[keep]]
    vals = [v[k] for v, k in head] + [np.stack([v for _, v, _ in slots], axis=1)[keep]]
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _system(table, matrix, rhs):
    """Sparse (A, b) from (head, slots) entry lists as :func:`_triplets` takes them."""
    n = table.size
    rows, cols, vals = _triplets(table, *matrix)
    a = scipy.sparse.csr_matrix(scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)))
    rows, _, vals = _triplets(table, *rhs)
    return a, np.bincount(rows, weights=vals, minlength=n)


def two_point_system(table, t, sink, sink_value, dirichlet, inflow):
    """Sparse (A, b) of the two-point flux scheme on one facet table.

    ``t`` is the per-element coefficient, split at junctions into
    t_i t_j / sum t_k; ``sink`` is a per-element diagonal term pulling
    towards ``sink_value``.  ``dirichlet`` (boundary value) and ``inflow``
    (flux into the element) are per-record arrays, NaN where they do not
    apply; a Dirichlet facet couples with the element's own t_i.
    """
    t = np.asarray(t, dtype=float)
    i, j = table.inside, table.outside
    inner = j >= 0
    fixed = ~np.isnan(dirichlet)
    fed = ~fixed & ~np.isnan(inflow)
    leaks = sink != 0
    tij = table.pair_transmissibilities(t)
    return _system(
        table,
        ([(sink, leaks)], [(i, np.where(inner, tij, t[i]), inner | fixed), (j, -tij, inner)]),
        ([(sink * sink_value, leaks)], [(i, t[i] * dirichlet, fixed), (i, inflow, fed)]),
    )


def assemble_pressure(view, problem, radius):
    """Sparse system (A, b) for the leaf pressures."""
    table = facet_table(view)
    radius = np.asarray(radius, dtype=float)
    t = element_transmissibility(radius, problem.viscosity, problem.gamma)
    g = 2.0 * t / table.lengths
    leak = _TWO_PI * radius * problem.l_p * table.lengths
    inflow = table.boundary_values(problem.neumann_velocity) * math.pi * radius[table.inside] ** 2
    dirichlet = table.boundary_values(problem.dirichlet_pressure)
    return two_point_system(table, g, leak, problem.tissue_pressure, dirichlet, inflow)


def checked_solve(a, b, what, hint=""):
    """spsolve, rejecting non-finite solutions and inexact ones.

    The largest residual entry may be at most 1e-12 of
    max(max|b|, max|A| max|x|), the size of the largest term in A x = b.
    The scale has no floor, so it holds for systems of any units.
    """
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        x = scipy.sparse.linalg.spsolve(a, b)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(f"{what} system is singular{hint}")
    entries = np.max(np.abs(a.data)) if a.nnz else 0.0
    scale = max(np.max(np.abs(b)), entries * np.max(np.abs(x)))
    if np.max(np.abs(a @ x - b)) > 1e-12 * scale:
        raise SingularSystemError(f"{what} solve did not converge to a solution")
    return x


def solve_pressure(view, problem, radius):
    """Direct sparse solve; raises SingularSystemError for closed no-leak systems."""
    a, b = assemble_pressure(view, problem, radius)
    return checked_solve(a, b, "pressure", " (no Dirichlet facet and no wall conductivity?)")


@dataclass
class FlowState:
    """Per-leaf-element unknowns and parameters, aligned with the leaf index set."""

    pressure: np.ndarray
    concentration: np.ndarray
    radius: np.ndarray
    time: float = 0.0


def transport_step(view, problem, state, dt):
    """One implicit Euler step; returns the new concentration array."""
    if not 0.0 < dt < math.inf:
        raise ValueError("time step must be positive and finite")
    table = facet_table(view)
    i, j = table.inside, table.outside
    lengths = table.lengths
    radius = state.radius
    p = state.pressure
    g = 2.0 * element_transmissibility(radius, problem.viscosity, problem.gamma) / lengths
    area = math.pi * radius**2
    storage = area * lengths / dt
    every = np.ones(table.size, dtype=bool)

    # transmural exchange (loss when vessel exceeds tissue values)
    wall = _TWO_PI * radius * lengths
    exchange = wall * (
        problem.l_c + problem.l_p * (p - problem.tissue_pressure) * (1.0 - problem.sigma_c)
    )

    # flux out of the inside element through each facet record
    inner = j >= 0
    p_out = table.boundary_values(problem.dirichlet_pressure)
    v_in = table.boundary_values(problem.neumann_velocity)
    fixed = ~np.isnan(p_out)
    fed = ~fixed & ~np.isnan(v_in)
    q = np.where(
        inner,
        table.pair_transmissibilities(g) * (p[i] - p[j]),
        np.where(fixed, g[i] * (p[i] - p_out), -v_in * math.pi * radius[i] ** 2),
    )
    # full upwind; boundary outflow carries no diffusion, backflow through
    # a pressure facet advects c = 0, inflow facets their prescribed c
    upwind = np.where(inner, (q > 0.0) | (q < 0.0), (fixed | fed) & (q >= 0.0))
    c_in = table.boundary_values(problem.dirichlet_concentration, default=0.0)
    diffuse = inner & bool(problem.d_e)
    dist = 0.5 * (lengths[i] + lengths[j])
    matrix = (
        [(storage, every), (exchange, every)],
        [
            (np.where(inner & (q < 0.0), j, i), q, upwind),
            (i, problem.d_e * area[i] / dist, diffuse),
            (j, -problem.d_e * area[j] / dist, diffuse),
        ],
    )
    source = storage * state.concentration + wall * problem.l_c * problem.tissue_concentration
    rhs = ([(source, every)], [(i, -(q * c_in), fed & ~(q >= 0.0))])
    a, b = _system(table, matrix, rhs)
    return checked_solve(a, b, "transport")


def total_amount(view, state):
    """Conserved solute amount sum A_i l_i c_i over the leaf elements."""
    lengths = facet_table(view).lengths
    return float(np.sum(math.pi * state.radius**2 * lengths * state.concentration))


# -- adaptivity driver ----------------------------------------------------


def refinement_indicator(view, concentration, eps_refine=0.3, eps_coarsen=0.05):
    """Marks (+1/0/-1 per leaf element) from relative neighbor jumps.

    ratio_i = (dc_i - dc_min) / (dc_max - dc_min) with dc_i the largest
    absolute concentration difference to any junction partner and the
    extrema taken globally; refine at ratio >= eps_refine, coarsen below
    eps_coarsen.  A flat field (dc_max == dc_min) coarsens everywhere.
    """
    if not (0.0 <= eps_coarsen < eps_refine <= 1.0):
        raise ValueError("thresholds must satisfy 0 <= eps_coarsen < eps_refine <= 1")
    table = facet_table(view)
    n = table.size
    inner = table.outside >= 0
    i, j = table.inside[inner], table.outside[inner]
    c = np.asarray(concentration, dtype=float)
    jump = np.zeros(n)
    np.maximum.at(jump, i, np.abs(c[i] - c[j]))
    lo, hi = float(np.min(jump)), float(np.max(jump))
    if hi <= lo:
        return np.full(n, -1, dtype=int)
    ratio = (jump - lo) / (hi - lo)
    marks = np.zeros(n, dtype=int)
    marks[ratio >= eps_refine] = 1
    marks[ratio < eps_coarsen] = -1
    return marks


def store_leaf_data(grid, view, arrays):
    """Snapshot named per-element arrays by persistent id (call after pre_adapt).

    Sibling groups flagged to vanish also store a volume-weighted average
    onto their father's id so coarsening can restore sensible values.
    """
    elements = view.elements()
    store = {el.id: {name: a[i] for name, a in arrays.items()} for i, el in enumerate(elements)}
    for el in elements:
        if not el.might_vanish:
            continue
        father = el.father()
        if father is None or father.id in store:
            continue
        kids = father.children()
        weights = np.array([k.geometry.volume() for k in kids])
        values = {}
        for name in arrays:
            vals = np.array([store[k.id][name] for k in kids])
            values[name] = float(np.sum(weights * vals) / np.sum(weights))
        store[father.id] = values
    return store


def restore_leaf_data(view, store, names):
    """Rebuild arrays on the new leaf view; children inherit stored ancestors."""
    elements = view.elements()
    out = {name: np.zeros(len(elements)) for name in names}
    for i, el in enumerate(elements):
        values = None
        probe = el
        while probe is not None:
            if probe.id in store:
                values = store[probe.id]
                break
            probe = probe.father()
        if values is None:
            raise LifecycleError(
                f"no stored data for element id {el.id} or its ancestors "
                "(was store_leaf_data called after pre_adapt?)"
            )
        for name in names:
            out[name][i] = values[name]
    return out


def boundary_vertex_ids_by_marker(view, markers):
    """Ids of boundary vertices whose adjacent element carries one of the markers."""
    wanted = set(markers)
    table = facet_table(view)
    marked = np.array([el.marker in wanted for el in view.elements()], dtype=bool)
    return set(table.facet[(table.outside < 0) & marked[table.inside]].tolist())


def problem_from_scenario(scenario, view):
    """Build a VesselProblem from a key-value scenario, BCs assigned by element marker."""
    s = scenario
    prob = VesselProblem(
        viscosity=s.get_float("viscosity", 3.0e-3),
        gamma=s.get_float("gamma", 2.0),
        l_p=s.get_float("l_p", 0.0),
        l_c=s.get_float("l_c", 0.0),
        sigma_c=s.get_float("sigma_c", 0.0),
        d_e=s.get_float("d_e", 0.0),
        tissue_pressure=s.get_float("tissue_pressure", 0.0),
        tissue_concentration=s.get_float("tissue_concentration", 0.0),
    )
    inflow_tags = s.get_int_list("inflow_tags", [])
    outflow_tags = s.get_int_list("outflow_tags", [])
    concentration_tags = s.get_int_list("concentration_tags", [])
    inflow_velocity = s.get_float("inflow_velocity", 0.0)
    outflow_pressure = s.get_float("outflow_pressure", 0.0)
    concentration_value = s.get_float("concentration_value", 0.0)
    s.check()
    if not set(concentration_tags) <= set(inflow_tags):
        raise ScenarioError(
            "concentration_tags must be a subset of inflow_tags "
            f"(offending tags: {sorted(set(concentration_tags) - set(inflow_tags))})"
        )
    for vid in boundary_vertex_ids_by_marker(view, outflow_tags):
        prob.dirichlet_pressure[vid] = outflow_pressure
    for vid in boundary_vertex_ids_by_marker(view, inflow_tags):
        prob.neumann_velocity[vid] = inflow_velocity
    for vid in boundary_vertex_ids_by_marker(view, concentration_tags):
        prob.dirichlet_concentration[vid] = concentration_value
    prob.validate()
    return prob


def run_scenario(scenario, out_dir, steps=None):
    """Vessel demo: pressure solve, then an adaptive implicit transport loop.

    Writes one VTK snapshot per step plus a plain-text summary (leaf
    counts and total solute mass) into ``out_dir``; returns the summary
    lines.  Purely deterministic: identical scenarios produce identical
    bytes.
    """
    # read_gmsh and write_vtk are imported here, at call time, on purpose:
    # bench/tracing.py wraps them in their home modules, and a module-level
    # import would bind the unwrapped functions and hide both layers
    from .gmsh_io import read_gmsh
    from .topology import GridConfig
    from .vtk_io import write_vtk

    s = scenario
    mesh = s.get_str("mesh")
    radius_value = s.get_float("radius", 2.0e-3)
    initial_c = s.get_float("initial_concentration", 0.0)
    dt = s.get_float("dt", 0.1)
    n_steps = s.get_int("steps", 10)
    eps_refine = s.get_float("eps_refine", 0.3)
    eps_coarsen = s.get_float("eps_coarsen", 0.05)
    max_level = s.get_int("max_refinement_level", 2)
    adapt_every = s.get_int("adapt_every", 1)
    prefix = s.get_str("output_prefix", "flow")
    s.check(known=SCENARIO_KEYS)
    problems = []
    if not 0.0 < radius_value < math.inf:
        problems.append("radius must be positive and finite")
    if not math.isfinite(initial_c):
        problems.append("initial_concentration must be finite")
    if not 0.0 < dt < math.inf:
        problems.append("dt must be positive and finite")
    if not 0.0 <= eps_coarsen < eps_refine <= 1.0:
        problems.append("thresholds must satisfy 0 <= eps_coarsen < eps_refine <= 1")
    if n_steps < 0:
        problems.append("steps must be nonnegative")
    if problems:
        raise ScenarioError(f"{s.source}: " + "; ".join(problems))
    if steps is not None:
        n_steps = steps
    if not math.isfinite(dt * n_steps):
        raise ScenarioError(f"{s.source}: dt * steps must be finite")

    mesh_path = pathlib.Path(mesh)
    if not mesh_path.is_absolute() and s.source is not None:
        mesh_path = pathlib.Path(s.source).parent / mesh_path
    grid = read_gmsh(mesh_path, GridConfig(1, 3))
    view = grid.leaf_view()
    problem = problem_from_scenario(s, view)

    n = view.size(0)
    state = FlowState(
        pressure=np.zeros(n),
        concentration=np.full(n, initial_c),
        radius=np.full(n, radius_value),
    )
    state.pressure = solve_pressure(view, problem, state.radius)

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = []

    def snapshot(step_no):
        data = {
            "pressure": state.pressure,
            "concentration": state.concentration,
            "radius": state.radius,
        }
        with open(out / f"{prefix}_{step_no:04d}.vtk", "w") as sink:
            write_vtk(view, sink, cell_data=data, title="vessel network state")
        line = (
            f"step {step_no}: t={state.time:.6g} leaf_elements={view.size(0)} "
            f"mass={total_amount(view, state):.12e}"
        )
        summary.append(line)
        log.info(line)

    snapshot(0)
    for step_no in range(1, n_steps + 1):
        state.concentration = transport_step(view, problem, state, dt)
        state.time += dt
        if adapt_every > 0 and step_no % adapt_every == 0:
            marks = refinement_indicator(view, state.concentration, eps_refine, eps_coarsen)
            view, state, _ = adapt_with_state(grid, marks, state, max_level=max_level)
            state.pressure = solve_pressure(view, problem, state.radius)
        snapshot(step_no)

    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    return summary


def adapt_with_state(grid, marks, state, max_level=None):
    """Mark, adapt and transfer a FlowState; returns (new_view, new_state, changed)."""
    view = grid.leaf_view()
    for i, el in enumerate(view.elements()):  # the index set numbers elements in this order
        m = marks[i]
        if m > 0 and max_level is not None and el.level >= max_level:
            continue
        if m:
            grid.mark(m, el)
    grid.pre_adapt()
    store = store_leaf_data(
        grid,
        view,
        {"pressure": state.pressure, "concentration": state.concentration, "radius": state.radius},
    )
    changed = grid.adapt()
    new_view = grid.leaf_view()
    data = restore_leaf_data(new_view, store, ("pressure", "concentration", "radius"))
    grid.post_adapt()
    new_state = FlowState(
        pressure=data["pressure"],
        concentration=data["concentration"],
        radius=data["radius"],
        time=state.time,
    )
    return new_view, new_state, changed
