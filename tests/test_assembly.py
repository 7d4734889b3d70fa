"""Differential tests of the facet-table assembly.

Random Y, T and four-way networks with random radii are refined at
random to mixed levels.  Dense systems are then assembled straight from
``intersections``, element by element, and compared with what the
vessel and root solvers assemble; the refinement indicator is compared
with a brute-force scan over all pairs of leaf elements.  The table
itself, which groups segment ends by vertex id, is compared array by
array with one written out over ``intersections`` (in ``check_grid``).
"""

import math

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_grid
from gridcheck import check_grid
from netmesh import intersections
from netmesh.errors import DimensionMismatchError
from netmesh.flow import VesselProblem, assemble_pressure, facet_table, refinement_indicator
from netmesh.roots import RootProblem, assemble_solve_root_pressure
from transactions import network_round, rounds

ARMS = {
    "Y": [(-1.0, 0.0), (0.5, 0.8), (0.5, -0.8)],
    "T": [(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
    "four-way": [(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, -1.0)],
}


def random_network(kind, rng):
    """Junction at the origin, arms of 1-3 segments, refined to mixed levels.

    Returns the grid and the vertex ids of the arm tips.
    """
    verts = [(0.0, 0.0, 0.0)]
    elements = []
    tips = []
    for dx, dy in ARMS[kind]:
        previous = 0
        for k in range(1, int(rng.integers(1, 4)) + 1):
            verts.append((k * dx, k * dy, 0.1 * k))
            elements.append((previous, len(verts) - 1))
            previous = len(verts) - 1
        tips.append(previous)
    grid = make_grid(1, 3, verts, elements)
    tip_ids = [grid._verts[0][slot].id for slot in tips]
    for _ in range(int(rng.integers(0, 3))):
        for el in grid.leaf_view().elements():
            if rng.uniform() < 0.5:
                grid.mark(1, el)
        grid.pre_adapt()
        grid.adapt()
        grid.post_adapt()
    return grid, tip_ids


def dense_two_point(view, t, sink, sink_value, dirichlet, inflow):
    """Dense (A, b) written out longhand over the intersection groups."""
    ix = view.index_set
    n = view.size(0)
    a = np.zeros((n, n))
    b = np.zeros(n)
    for el in view.elements():
        i = ix.index_of(el)
        a[i, i] += sink[i]
        b[i] += sink[i] * sink_value
        for grp in intersections(view, el):
            vid = el.sub_entity(1, grp.index_in_inside).id
            if grp.boundary:
                if vid in dirichlet:
                    a[i, i] += t[i]
                    b[i] += t[i] * dirichlet[vid]
                elif vid in inflow:
                    b[i] += inflow[vid][i]
                continue
            partners = [ix.index_of(grp.outside(k)) for k in range(grp.neighbor_count)]
            total = t[i] + sum(t[j] for j in partners)
            for j in partners:
                a[i, i] += t[i] * t[j] / total
                a[i, j] -= t[i] * t[j] / total
    return a, b


def lengths_of(view):
    return np.array([el.geometry.volume() for el in view.elements()])


def assert_close(got, expected):
    scale = max(np.abs(expected).max(), 1e-300)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * scale)


network = st.tuples(st.sampled_from(sorted(ARMS)), st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None)
@given(network)
def test_vessel_pressure_matches_dense_assembly(case):
    kind, seed = case
    rng = np.random.default_rng(seed)
    grid, tips = random_network(kind, rng)
    view = grid.leaf_view()
    n = view.size(0)
    radius = rng.uniform(0.5e-3, 2e-3, n)
    problem = VesselProblem(l_p=float(rng.choice([0.0, 1e-6])), tissue_pressure=0.3)
    problem.neumann_velocity = {tips[0]: 0.7}
    problem.dirichlet_pressure = {vid: float(rng.uniform(-1, 1)) for vid in tips[1:]}
    a, b = assemble_pressure(view, problem, radius)

    t = math.pi * radius**4 / (2.0 * problem.viscosity * (2.0 + problem.gamma))
    g = 2.0 * t / lengths_of(view)  # half-cell conductances
    leak = 2.0 * math.pi * radius * problem.l_p * lengths_of(view)
    inflow = {tips[0]: 0.7 * math.pi * radius**2}
    dense_a, dense_b = dense_two_point(
        view, g, leak, problem.tissue_pressure, problem.dirichlet_pressure, inflow
    )
    assert_close(a.toarray(), dense_a)
    assert_close(b, dense_b)


@settings(max_examples=30, deadline=None)
@given(network)
def test_root_pressure_matches_dense_assembly(case):
    kind, seed = case
    rng = np.random.default_rng(seed)
    grid, tips = random_network(kind, rng)
    view = grid.leaf_view()
    n = view.size(0)
    k_x = rng.uniform(0.01, 0.1, n)
    k_r = rng.uniform(0.0, 2e-4, n)
    radius = rng.uniform(1e-3, 3e-3, n)
    problem = RootProblem(collar_vertex_id=tips[0])

    systems = []
    spsolve = scipy.sparse.linalg.spsolve

    def spy(a, b):
        systems.append((a.toarray(), b.copy()))
        return spsolve(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scipy.sparse.linalg, "spsolve", spy)
        assemble_solve_root_pressure(problem, view, k_x=k_x, k_r=k_r, radius=radius)

    soil = k_r * 2.0 * math.pi * radius * lengths_of(view)
    dense_a, dense_b = dense_two_point(
        view, k_x, soil, problem.soil_pressure, {tips[0]: problem.collar_pressure}, {}
    )
    (a, b), = systems
    assert_close(a, dense_a)
    assert_close(b, dense_b)


@settings(max_examples=30, deadline=None)
@given(network)
def test_refinement_indicator_matches_brute_force_neighbours(case):
    kind, seed = case
    rng = np.random.default_rng(seed)
    grid, _ = random_network(kind, rng)
    view = grid.leaf_view()
    ix = view.index_set
    concentration = rng.uniform(0.0, 1.0, view.size(0))
    concentration[rng.uniform(size=view.size(0)) < 0.3] = 0.5  # some equal neighbours

    # leaf segments are neighbours exactly when they share a vertex id
    ends = {ix.index_of(el): {v.id for v in el.vertices()} for el in view.elements()}
    jump = np.zeros(view.size(0))
    for i in ends:
        for j in ends:
            if i != j and ends[i] & ends[j]:
                jump[i] = max(jump[i], abs(concentration[i] - concentration[j]))
    lo, hi = jump.min(), jump.max()
    expected = np.full(view.size(0), -1)
    if hi > lo:
        ratio = (jump - lo) / (hi - lo)
        expected = np.where(ratio >= 0.3, 1, np.where(ratio < 0.05, -1, 0))

    marks = refinement_indicator(view, concentration, 0.3, 0.05)
    np.testing.assert_array_equal(marks, expected)


@settings(max_examples=30, deadline=None)
@given(network, rounds(["refine", "coarsen", "grow"], min_size=0, max_size=5))
# two grow rounds with one seed put two fresh vertices at one point, and a join links them
@example(case=("T", 42196570),
         transactions=[("grow", 195), ("grow", 0), ("grow", 195), ("grow", 42196568)])
def test_table_matches_intersections(case, transactions):
    """Bit-identical arrays (``check_grid``) after random refine, coarsen and
    grow transactions.  Growth joins leaf vertices of different levels, so
    ends from several levels share one junction; a join can also make a
    zero-length segment, which the table and its longhand both refuse."""
    kind, seed = case
    grid, _ = random_network(kind, np.random.default_rng(seed))
    check_grid(grid)
    for transaction, seed in transactions:
        network_round(grid, transaction, seed)
        check_grid(grid)


def test_two_segment_loop_keeps_one_junction_per_vertex():
    """Two segments sharing both end vertices meet at two junctions.

    Keyed by the sorted member ids, as the table once was, both vertices
    would share one junction number.  Every junction has the same two
    members either way, so the denominators, and with them the pair
    transmissibilities t_i t_j / (t_i + t_j) = 0.75 on every record, agree.
    """
    grid = make_grid(1, 3, [(0, 0, 0), (1, 0, 0)], [(0, 1), (1, 0)])
    check_grid(grid)
    table = facet_table(grid.leaf_view())
    np.testing.assert_array_equal(table.junction, [0, 1, 1, 0])
    np.testing.assert_array_equal(table.member_junction, [0, 0, 1, 1])
    np.testing.assert_array_equal(table.pair_transmissibilities([1.0, 3.0]), [0.75] * 4)


def test_table_refuses_a_surface_view(two_triangles):
    with pytest.raises(DimensionMismatchError):
        facet_table(two_triangles.leaf_view())
