"""Shared grid builders for the test suite."""

import numpy as np
import pytest

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
    for level, (elem_recs, edge_recs, vert_recs) in enumerate(zip(grid._elems, grid._edges, grid._verts)):
        leaves = {t for t, rec in enumerate(elem_recs) if not rec.children}
        elements += [(level, t) for t in sorted(leaves)]
        edges += [(level, s) for s, rec in enumerate(edge_recs) if leaves.intersection(rec.incident)]
        for s, rec in enumerate(vert_recs):
            if leaves.intersection(rec.incident):
                finest[rec.id] = (level, s)  # a finer copy overwrites a coarser one
    expected = {0: elements, grid.dim: sorted(finest.values())}
    if grid.dim == 2:
        expected[1] = edges
    return expected


def assert_leaf_view_is_brute_force(grid):
    view = grid.leaf_view()
    for codim, expected in brute_force_leaf_view(grid).items():
        assert [(e.level, e.slot) for e in view.entities(codim)] == expected
