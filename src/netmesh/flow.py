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
from the view's own arrays (element ids, corner indices, vertex ids and
coordinates) by grouping the segment ends by persistent vertex id,
indexed by the view's index set.  :func:`two_point_system` assembles the vessel
pressure and the root pressure (``roots``) from it; transport, the
refinement indicator and the boundary lookups read the same table.
"""

from __future__ import annotations

import logging
import math
import pathlib
import warnings
from dataclasses import dataclass, field, fields
from itertools import repeat

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import gmsh_io, vtk_io
from .errors import DimensionMismatchError, LifecycleError
from .errors import SingularGeometryError, SingularSystemError
from .geometry import AffineGeometry
# bench/tracing.py wraps a function where a module holds it by name: run_scenario calls
# the MSH reader and the VTK writer through their modules, and intersections is held
# here only to be wrapped
from .intersections import intersections  # noqa: F401
from .scenario import FILE_NAME, FINITE, NONNEGATIVE, POSITIVE, POSITIVE_FINITE, UNIT_INTERVAL
from .scenario import refuse_broken
from .topology import GridConfig

log = logging.getLogger(__name__)

_TWO_PI = 2.0 * math.pi


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
        """Raise ScenarioError naming every broken :data:`SCENARIO` rule and boundary fault."""
        boundary = (self.dirichlet_pressure, self.neumann_velocity, self.dirichlet_concentration)
        finite = all(math.isfinite(v) for values in boundary for v in values.values())
        stray = sorted(set(self.dirichlet_concentration) - set(self.neumann_velocity))
        refuse_broken(SCENARIO, vars(self), not finite and "boundary values must be finite",
                      stray and "concentration boundaries must be inflow boundaries "
                      f"(vertex ids {stray} carry c but no inflow velocity)")


def element_transmissibility(radius, viscosity, gamma):
    """t = pi R^4 / (2 mu (2 + gamma)), vectorized over ``radius``; held to :data:`SCENARIO`."""
    radius = np.asarray(radius, dtype=float)
    refuse_broken(SCENARIO, {"radius": radius, "viscosity": viscosity, "gamma": gamma})
    return math.pi * radius**4 / (2.0 * viscosity * (2.0 + gamma))


class FacetTable:
    """Plain arrays of one network view for the finite-volume schemes.

    Every copy of a logical vertex carries one persistent id, so a
    junction is exactly the set of leaf segments with an end vertex of
    that id.  The table is built from the view's arrays, with no walk of
    its own: it groups the 2N segment ends by one sort over (vertex id,
    element id); element ``i`` is the element with index ``i`` in the
    view.  Per element: persistent ``ids`` and ``lengths``.
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
        if view.grid.dim != 1:
            raise DimensionMismatchError("facet tables exist only on network (dim 1) views")
        ends = view.corner_indices()
        self.ids = view.ids(0)
        n = len(self.ids)
        self.corners = corners = view.coordinates()[ends]
        # sqrt(d . d) as AffineGeometry.volume computes it (np.linalg.norm differs in the
        # last bit); a zero or overflowing d . d is the degenerate segment it refuses
        with np.errstate(all="ignore"):
            squared = squared_norms(corners[:, 1] - corners[:, 0])
        bad = np.flatnonzero((squared == 0.0) | (squared == math.inf))
        if len(bad):
            raise SingularGeometryError(f"degenerate 1-simplex with corners {corners[bad[0]].tolist()}")
        self.lengths = np.sqrt(squared)

        # segment end k = 2 i + facet, sorted by vertex id, then element id
        vid = view.ids(1)[ends].reshape(2 * n)
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


def element_arrays(view, /, **arrays):
    """The named arrays as float arrays, in order; DimensionMismatchError names the first
    that does not hold one value per element of ``view``."""
    n = view.size(0)
    out = [np.asarray(a, dtype=float) for a in arrays.values()]
    for name, a in zip(arrays, out):
        if a.shape != (n,):
            got = f"{a.size} values" if a.ndim == 1 else f"shape {a.shape}"
            raise DimensionMismatchError(f"{name} has {got} for {n} leaf elements")
    return out


def assemble_pressure(view, problem, radius):
    """Sparse system (A, b) for the leaf pressures."""
    table = facet_table(view)
    radius, = element_arrays(view, radius=radius)
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
    entries = np.max(np.abs(a.data), initial=0.0)
    scale = max(np.max(np.abs(b), initial=0.0), entries * np.max(np.abs(x), initial=0.0))
    if np.max(np.abs(a @ x - b), initial=0.0) > 1e-12 * scale:
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

    def _arrays(self):
        """The per-element arrays by name, in the order a snapshot writes them."""
        return {"pressure": self.pressure, "concentration": self.concentration, "radius": self.radius}


def transport_step(view, problem, state, dt):
    """One implicit Euler step; returns the new concentration array."""
    if not 0.0 < dt < math.inf:
        raise ValueError("time step must be positive and finite")
    table = facet_table(view)
    i, j = table.inside, table.outside
    lengths = table.lengths
    radius, p, c = element_arrays(view, radius=state.radius, pressure=state.pressure,
                                  concentration=state.concentration)
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
    source = storage * c + wall * problem.l_c * problem.tissue_concentration
    rhs = ([(source, every)], [(i, -(q * c_in), fed & ~(q >= 0.0))])
    a, b = _system(table, matrix, rhs)
    return checked_solve(a, b, "transport")


def total_amount(view, state):
    """Conserved solute amount sum A_i l_i c_i over the leaf elements."""
    lengths = facet_table(view).lengths
    radius, c = element_arrays(view, radius=state.radius, concentration=state.concentration)
    return float(np.sum(math.pi * radius**2 * lengths * c))


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
    c, = element_arrays(view, concentration=concentration)
    jump = np.zeros(n)
    np.maximum.at(jump, i, np.abs(c[i] - c[j]))
    lo, hi = float(np.min(jump, initial=np.inf)), float(np.max(jump, initial=-np.inf))
    if hi <= lo:
        return np.full(n, -1, dtype=int)
    ratio = (jump - lo) / (hi - lo)
    marks = np.zeros(n, dtype=int)
    marks[ratio >= eps_refine] = 1
    marks[ratio < eps_coarsen] = -1
    return marks


class LeafData(dict):
    """Per-element values stored by persistent id: id -> row of ``columns``.

    ``columns`` maps each name to a float array with one row per stored
    id.  Rows ``0 .. n - 1`` hold the elements of the view the data was
    stored from, in index order; :meth:`add` appends rows for more ids.
    """

    def __init__(self, ids, columns):
        super().__init__(zip(ids, range(len(ids))))
        self.columns = columns

    def add(self, ids, values):
        """Store one more row per id, for ids not stored yet; ``values`` maps
        every stored name to the new rows in the order of ``ids``."""
        first = len(self)
        self.update(zip(ids, range(first, first + len(ids))))
        for name, column in self.columns.items():
            self.columns[name] = np.concatenate((column, np.asarray(values[name], dtype=float)))


def store_leaf_data(grid, view, arrays):
    """Snapshot named per-element arrays by persistent id (call after pre_adapt).

    Returns a :class:`LeafData` over float copies of the arrays, which
    must be aligned with the view's element index set.  Sibling groups
    flagged to vanish also store a volume-weighted average onto their
    father's id so coarsening can restore sensible values.  The weights
    are the volumes of the view's element corners; a group's rows are
    summed in view order, which is the order of the father's children.
    """
    columns = {name: a.copy() for name, a in zip(arrays, element_arrays(view, **arrays))}
    store = LeafData(view.ids(0).tolist(), columns)
    vanishing = grid._vanishing
    families = {}  # father id -> the view rows of its children, all vanishing together
    for row, place in enumerate(view.places(0)):
        if place in vanishing:
            families.setdefault(grid._id(0, *grid._father(*place)), []).append(row)
    averaged = {}  # father id -> {name: volume-weighted average of its children}
    for father, rows in families.items():
        weights = np.array([AffineGeometry(c).volume() for c in view._element_corners()[rows]])
        averaged[father] = {
            name: float(np.sum(weights * column[rows]) / np.sum(weights))
            for name, column in columns.items()
        }
    if averaged:
        store.add(list(averaged), {name: [v[name] for v in averaged.values()] for name in columns})
    return store


def restore_leaf_data(view, store, names):
    """Rebuild arrays on the new leaf view; children inherit stored ancestors.

    Each element's row is gathered by its id, else from its father, else
    (two adapts since the store) from its nearest stored ancestor.
    """
    grid, places = view.grid, view.places(0)
    ids = view.ids(0).tolist()
    rows = np.fromiter(map(store.get, ids, repeat(-1)), np.int64, len(ids))
    for i in np.flatnonzero(rows < 0).tolist():
        place = grid._father(*places[i])
        while place is not None and (key := grid._id(0, *place)) not in store:
            place = grid._father(*place)
        if place is None:
            raise LifecycleError(
                f"no stored data for element id {ids[i]} or its ancestors "
                "(was store_leaf_data called after pre_adapt?)"
            )
        rows[i] = store[key]
    return {name: store.columns[name][rows] for name in names}


def boundary_markers(view):
    """Boundary vertex id -> marker of the tree root of the one leaf at it."""
    table = facet_table(view)
    grid, places = view.grid, view.places(0)
    return {int(table.facet[r]): grid._marker(*places[table.inside[r]])
            for r in np.flatnonzero(table.outside < 0).tolist()}


# every key a flow scenario may hold, as Scenario.read takes it; the physics keys and
# thresholds default as VesselProblem and refinement_indicator do
SCENARIO = {
    "mesh": ("str", None, (lambda p: "\0" not in p, "hold no NUL byte")),
    "radius": ("float", 2.0e-3, POSITIVE_FINITE),
    "initial_concentration": ("float", 0.0, FINITE),
    "dt": ("float", 0.1, POSITIVE_FINITE),
    "steps": ("int", 10, NONNEGATIVE),
    "eps_refine": ("float", refinement_indicator.__defaults__[0]),
    "eps_coarsen": ("float", refinement_indicator.__defaults__[1]),
    "max_refinement_level": ("int", 2, NONNEGATIVE),
    "adapt_every": ("int", 1, NONNEGATIVE),
    "output_prefix": ("str", "flow", FILE_NAME),
    "viscosity": ("float", VesselProblem.viscosity, FINITE, POSITIVE),
    "gamma": ("float", VesselProblem.gamma, FINITE,
              (lambda v: v >= 2.0, "be at least 2 (blunt velocity profile)")),
    "l_p": ("float", VesselProblem.l_p, FINITE, NONNEGATIVE),
    "l_c": ("float", VesselProblem.l_c, FINITE, NONNEGATIVE),
    "sigma_c": ("float", VesselProblem.sigma_c, FINITE, UNIT_INTERVAL),
    "d_e": ("float", VesselProblem.d_e, FINITE, NONNEGATIVE),
    "tissue_pressure": ("float", VesselProblem.tissue_pressure, FINITE),
    "tissue_concentration": ("float", VesselProblem.tissue_concentration, FINITE),
    "inflow_tags": ("int_list", ()),
    "outflow_tags": ("int_list", ()),
    "concentration_tags": ("int_list", ()),
    "inflow_velocity": ("float", 0.0, FINITE),
    "outflow_pressure": ("float", 0.0, FINITE),
    "concentration_value": ("float", 0.0, FINITE),
}


def read_scenario(scenario, steps=None):
    """Every :data:`SCENARIO` value, ``steps`` overriding the file's; one ScenarioError
    names every bad or unknown key and every broken rule between keys."""
    s = scenario
    v = s.read(SCENARIO)
    if steps is not None:
        v["steps"] = steps
    s.require(0.0 <= v["eps_coarsen"] < v["eps_refine"] <= 1.0,
              "thresholds must satisfy 0 <= eps_coarsen < eps_refine <= 1")
    s.require(math.isfinite(v["dt"] * v["steps"]), "dt * steps must be finite")
    extra = sorted(set(v["concentration_tags"]) - set(v["inflow_tags"]))
    s.require(not extra, "concentration_tags must be a subset of inflow_tags "
              f"(offending tags: {extra})")
    s.check(known=SCENARIO)
    return v


def problem_from_scenario(values, view):
    """A VesselProblem from :func:`read_scenario` values, BCs assigned by element marker."""
    prob = VesselProblem(**{f.name: values[f.name] for f in fields(VesselProblem) if f.name in values})
    for vid, marker in boundary_markers(view).items():
        if marker in values["outflow_tags"]:
            prob.dirichlet_pressure[vid] = values["outflow_pressure"]
        if marker in values["inflow_tags"]:
            prob.neumann_velocity[vid] = values["inflow_velocity"]
        if marker in values["concentration_tags"]:
            prob.dirichlet_concentration[vid] = values["concentration_value"]
    prob.validate()
    return prob


def run_scenario(scenario, out_dir, steps=None):
    """Vessel demo: pressure solve, then an adaptive implicit transport loop.

    Writes one VTK snapshot per step plus a plain-text summary (leaf
    counts and total solute mass) into ``out_dir``; returns the summary
    lines.  Purely deterministic: identical scenarios produce identical
    bytes.
    """
    v = read_scenario(scenario, steps)
    dt, adapt_every, prefix = v["dt"], v["adapt_every"], v["output_prefix"]
    # a relative mesh path is relative to the scenario file; an absolute one replaces the parent
    grid = gmsh_io.read_gmsh(pathlib.Path(scenario.source).parent / v["mesh"], GridConfig(1, 3))
    view = grid.leaf_view()
    problem = problem_from_scenario(v, view)

    n = view.size(0)
    state = FlowState(
        pressure=np.zeros(n),
        concentration=np.full(n, v["initial_concentration"]),
        radius=np.full(n, v["radius"]),
    )
    state.pressure = solve_pressure(view, problem, state.radius)

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = []

    def snapshot(step_no):
        with open(out / f"{prefix}_{step_no:04d}.vtk", "w") as sink:
            vtk_io.write_vtk(view, sink, cell_data=state._arrays(), title="vessel network state")
        line = (
            f"step {step_no}: t={state.time:.6g} leaf_elements={view.size(0)} "
            f"mass={total_amount(view, state):.12e}"
        )
        summary.append(line)
        log.info(line)

    snapshot(0)
    for step_no in range(1, v["steps"] + 1):
        state.concentration = transport_step(view, problem, state, dt)
        state.time += dt
        if adapt_every > 0 and step_no % adapt_every == 0:
            eps = v["eps_refine"], v["eps_coarsen"]
            marks = refinement_indicator(view, state.concentration, *eps)
            view, state, _ = adapt_with_state(grid, marks, state, v["max_refinement_level"])
            state.pressure = solve_pressure(view, problem, state.radius)
        snapshot(step_no)

    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    return summary


def adapt_with_state(grid, marks, state, max_level):
    """Mark, adapt and transfer a FlowState; returns (new_view, new_state, changed)."""
    view = grid.leaf_view()
    marks = np.asarray(marks)  # one per leaf, in index order; none refines at max_level
    levels = np.fromiter((level for level, _ in view.places(0)), np.int64, view.size(0))
    if marks.shape == levels.shape:  # else mark_leaves refuses it, with nothing marked
        marks = np.where((marks > 0) & (levels >= max_level), 0, marks)
    grid.mark_leaves(marks)
    grid.pre_adapt()
    arrays = state._arrays()
    store = store_leaf_data(grid, view, arrays)
    changed = grid.adapt()
    new_view = grid.leaf_view()
    new_state = FlowState(**restore_leaf_data(new_view, store, tuple(arrays)), time=state.time)
    grid.post_adapt()
    return new_view, new_state, changed
