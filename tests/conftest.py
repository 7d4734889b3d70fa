"""Shared grid builders for the test suite."""

import numpy as np
import pytest

from gridcheck import check_intersections
from intersection_walk import assert_table_matches_walk
from netmesh import LINE, TRIANGLE, GridConfig, GridFactory


def make_grid(dim, world_dim, vertices, elements, parametrizations=None, markers=None):
    """Factory shortcut: vertices as coordinate rows, elements as index tuples."""
    factory = GridFactory(GridConfig(dim, world_dim))
    for v in vertices:
        factory.insert_vertex(np.asarray(v, dtype=float))
    kind = LINE if dim == 1 else TRIANGLE
    for i, conn in enumerate(elements):
        phi = parametrizations[i] if parametrizations else None
        marker = markers[i] if markers else 0
        factory.insert_element(kind, list(conn), parametrization=phi, marker=marker)
    return factory.create_grid()


@pytest.fixture
def chain4():
    """Four unit segments along the x axis."""
    verts = [(float(i), 0.0, 0.0) for i in range(5)]
    return make_grid(1, 3, verts, [(i, i + 1) for i in range(4)])


@pytest.fixture
def y_junction():
    """Three segments meeting at one vertex (non-manifold point)."""
    verts = [(0, 0, 0), (1, 0, 0), (2, 1, 0), (2, -1, 0)]
    return make_grid(1, 3, verts, [(0, 1), (1, 2), (1, 3)])


@pytest.fixture
def single_triangle():
    return make_grid(2, 3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])


@pytest.fixture
def two_triangles():
    """Unit square split along the diagonal; shared edge (0, 2)."""
    verts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    return make_grid(2, 3, verts, [(0, 1, 2), (0, 2, 3)])


@pytest.fixture
def t_junction():
    """Three triangles fanning around one shared edge."""
    verts = [(0, 0, 0), (1, 0, 0), (0.5, 1, 0), (0.5, -1, 0), (0.5, 0, 1)]
    return make_grid(2, 3, verts, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])


def vertex_or_edge(kind):
    """A grid and a leaf handle of it that is not an element: a ``Vertex`` of
    a 4-segment chain or an ``Edge`` of a triangle."""
    if kind == "Vertex":
        grid = make_grid(1, 3, [(float(i), 0.0, 0.0) for i in range(5)], [(i, i + 1) for i in range(4)])
        return grid, grid.leaf_view().vertices()[1]
    grid = make_grid(2, 3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])
    return grid, grid.leaf_view().entities(1)[0]


def refine_all(grid, rounds=1):
    for _ in range(rounds):
        for el in grid.leaf_view().elements():
            grid.mark(1, el)
        grid.pre_adapt()
        grid.adapt()
        grid.post_adapt()
    return grid


def brute_force_leaf_view(grid):
    """(level, slot) of every leaf-view entity per codim, from the records alone.

    Leaf elements; edges with a leaf triangle; and, per vertex id, the
    finest copy that touches a leaf element. Each list is in (level, slot)
    order.
    """
    elements, edges, finest = [], [], {}
    for level, (elem_recs, vert_recs) in enumerate(zip(grid._elems, grid._verts)):
        leaves = [t for t, rec in enumerate(elem_recs) if not rec.children]
        elements += [(level, t) for t in leaves]
        edges += [(level, s) for s in sorted({s for t in leaves for s in elem_recs[t].edges})]
        for s in sorted({s for t in leaves for s in elem_recs[t].v}):
            finest[vert_recs[s].id] = (level, s)  # a finer copy overwrites a coarser one
    expected = {0: elements, grid.dim: sorted(finest.values())}
    if grid.dim == 2:
        expected[1] = edges
    return expected


def assert_view_arrays_match_entities(view):
    """The arrays a view keeps say what its entity wrappers say.

    Ids and places follow index order, each row of corner indices is the
    index of that element's corner vertices, and each coordinate row has
    the bits of that vertex's coordinates.
    """
    grid = view.grid
    for codim in range(grid.dim + 1):
        entities = view.entities(codim)
        assert view.ids(codim).tolist() == [e.id for e in entities]
        assert list(view.places(codim)) == [(e.level, e.slot) for e in entities]
    ix = view.index_set
    corners = [[ix.index_of(v) for v in el.vertices()] for el in view.elements()]
    assert view.corner_indices().tolist() == corners
    coordinates = view.coordinates()
    assert coordinates.shape == (view.size(grid.dim), grid.world_dim)
    assert [row.tobytes() for row in coordinates] == [v.coords.tobytes() for v in view.vertices()]


def assert_leaf_view_is_brute_force(grid):
    view = grid.leaf_view()
    for codim, expected in brute_force_leaf_view(grid).items():
        assert [(e.level, e.slot) for e in view.entities(codim)] == expected
    assert_view_arrays_match_entities(view)
    for level in range(grid.max_level + 1):
        assert_view_arrays_match_entities(grid.level_view(level))


def assert_intersections_agree(grid, contract=True):
    """On the leaf view and every level view, the intersection table says what
    the per-element walk says, and (with ``contract``) passes the gridcheck."""
    for view in [grid.leaf_view()] + [grid.level_view(level) for level in range(grid.max_level + 1)]:
        assert_table_matches_walk(view)
        if contract:
            check_intersections(view)
