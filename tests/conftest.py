"""Shared grid builders for the test suite; ``gridcheck.check_grid`` checks what they build."""

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


def vertex_or_edge(kind):
    """A grid and a leaf handle of it that is not an element: a ``Vertex`` of
    a 4-segment chain or an ``Edge`` of a triangle."""
    if kind == "Vertex":
        grid = make_grid(1, 3, [(float(i), 0.0, 0.0) for i in range(5)], [(i, i + 1) for i in range(4)])
        return grid, grid.leaf_view().vertices()[1]
    grid = make_grid(2, 3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])
    return grid, grid.leaf_view().entities(1)[0]


def same_bits(got, expected):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


def refine_all(grid, rounds=1):
    for _ in range(rounds):
        for el in grid.leaf_view().elements():
            grid.mark(1, el)
        grid.pre_adapt()
        grid.adapt()
        grid.post_adapt()
    return grid
