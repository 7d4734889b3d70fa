import math

import numpy as np
import pytest

from netmesh import LINE, TRIANGLE, FactoryError, GridConfig, GridFactory
from netmesh.parametrization import (
    QuadraticLine,
    QuadraticTriangle,
    WaveletGraph,
    lift_to_wavelet,
    radial_wavelet,
)

from conftest import refine_all


def test_radial_wavelet_at_origin():
    assert radial_wavelet(0.0, 0.0) == 0.2


def test_radial_wavelet_decays():
    assert abs(radial_wavelet(5.0, 5.0)) < 0.2 * math.exp(-5.0)


def test_quadratic_line_interpolates_nodes():
    nodes = np.array([[0, 0, 0], [2, 0, 0], [1, 1, 0]], dtype=float)
    phi = QuadraticLine(nodes)
    assert np.allclose(phi([0.0]), nodes[0])
    assert np.allclose(phi([1.0]), nodes[1])
    assert np.allclose(phi([0.5]), nodes[2])  # mid node sits at t = 1/2


def test_quadratic_triangle_interpolates_nodes():
    nodes = np.array(
        [
            [0, 0, 0],
            [1, 0, 0],
            [0, 1, 0],
            [0.5, 0, 0.3],  # edge (0,1)
            [0.5, 0.5, 0.3],  # edge (1,2)
            [0, 0.5, 0.3],  # edge (0,2)
        ],
        dtype=float,
    )
    phi = QuadraticTriangle(nodes)
    ref = {
        (0.0, 0.0): nodes[0],
        (1.0, 0.0): nodes[1],
        (0.0, 1.0): nodes[2],
        (0.5, 0.0): nodes[3],
        (0.5, 0.5): nodes[4],
        (0.0, 0.5): nodes[5],
    }
    for local, expected in ref.items():
        assert np.allclose(phi(np.array(local)), expected, atol=1e-14)


def curved_segment_grid():
    """One segment parametrized onto the unit upper half circle."""

    def phi(local):
        t = float(np.asarray(local).reshape(-1)[0])
        angle = math.pi * (1.0 - t)
        return np.array([math.cos(angle), math.sin(angle), 0.0])

    f = GridFactory(GridConfig(1, 3))
    f.insert_vertex([-1.0, 0.0, 0.0])
    f.insert_vertex([1.0, 0.0, 0.0])
    f.insert_element(LINE, [0, 1], parametrization=phi)
    return f.create_grid()


def test_refined_vertices_follow_parametrization():
    g = curved_segment_grid()
    refine_all(g, 3)
    for v in g.leaf_view().vertices():
        assert np.hypot(v.coords[0], v.coords[1]) == pytest.approx(1.0, abs=1e-12)


def test_refined_midpoint_is_affine_without_parametrization(chain4):
    g = chain4
    el = g.leaf_view().elements()[0]
    g.mark(1, el)
    g.pre_adapt(); g.adapt(); g.post_adapt()
    coords = sorted(tuple(v.coords) for v in g.leaf_view().vertices())
    assert (0.5, 0.0, 0.0) in coords


def test_hanging_vertex_on_curved_tree_leaves_hole():
    """Coarse neighbors keep straight edges, so curved refinement opens gaps."""
    corners = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 0]], dtype=float)

    def bump_chart(local):
        x, y = np.asarray(local, dtype=float)
        flat = corners[0] + (corners[1:] - corners[0]).T @ np.array([x, y])
        z = 0.3 * (1.0 - x - y) * x  # vanishes at all three corners
        return np.array([flat[0], flat[1], z])

    f = GridFactory(GridConfig(2, 3))
    for coords in [(0, 0, 0), (1, 0, 0), (0.5, 1, 0), (0.5, -1, 0)]:
        f.insert_vertex(np.array(coords, dtype=float))
    f.insert_element(TRIANGLE, [0, 1, 2], parametrization=bump_chart)
    f.insert_element(TRIANGLE, [0, 1, 3])
    g = f.create_grid()

    curved = next(e for e in g.leaf_view().elements() if tuple(e.geometry.center()[:2]) == (0.5, 1 / 3))
    g.mark(1, curved)
    g.pre_adapt(); g.adapt(); g.post_adapt()
    view = g.leaf_view()
    # the new vertex on the shared edge floats above the neighbor's straight edge
    lifted = next(v for v in view.vertices() if tuple(v.coords[:2]) == (0.5, 0.0) and v.level == 1)
    assert lifted.coords[2] == pytest.approx(0.075)
    flat_neighbor = next(e for e in view.elements() if e.level == 0)
    assert all(v.coords[2] == 0.0 for v in flat_neighbor.vertices())


def test_wavelet_graph_matches_lift():
    planar = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0]])
    phi = WaveletGraph(planar)
    for local in ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.25, 0.5]):
        pos = phi(np.array(local))
        assert pos[2] == pytest.approx(radial_wavelet(pos[0], pos[1]), abs=1e-15)
    corner = lift_to_wavelet([-1.0, -1.0])
    assert np.allclose(phi(np.array([0.0, 0.0])), corner)


def test_factory_warns_on_corner_mismatch():
    """A parametrization that moves the corners is accepted with a warning."""

    def phi(local):
        t = float(np.asarray(local).reshape(-1)[0])
        return np.array([t * 2.0 + 0.5, 0.0, 0.0])  # ends at 0.5 and 2.5, not 0 and 2

    f = GridFactory(GridConfig(1, 3))
    f.insert_vertex([0.0, 0.0, 0.0])
    f.insert_vertex([2.0, 0.0, 0.0])
    f.insert_element(LINE, [0, 1], parametrization=phi)
    with pytest.warns(UserWarning):
        f.create_grid()


def _one_segment(phi, ends):
    f = GridFactory(GridConfig(1, 3))
    f.insert_vertices(ends)
    f.insert_element(LINE, [0, 1], parametrization=phi)
    return f.create_grid()


def test_parametrization_that_reuses_its_buffer_moves_no_earlier_vertex():
    """A phi that writes every image into one array it returns: each refined
    vertex keeps the position it was made at."""
    buffer = np.zeros(3)

    def phi(local):
        t = float(np.asarray(local).reshape(-1)[0])
        buffer[:] = (t, t * t, 0.0)
        return buffer

    g = refine_all(_one_segment(phi, [(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]), 2)
    coords = sorted(tuple(v.coords) for v in g.leaf_view().vertices())
    assert coords == [(t, t * t, 0.0) for t in (0.0, 0.25, 0.5, 0.75, 1.0)]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_parametrization_image_is_refused(bad):
    """phi(t) = (t, nan, 0) refuses the midpoint as a queued vertex is refused,
    instead of making the vertex [0.5, nan, 0]."""
    corners = {0.0: (0.0, 0.0, 0.0), 1.0: (1.0, 0.0, 0.0)}

    def phi(local):
        t = float(np.asarray(local).reshape(-1)[0])
        return np.array(corners.get(t, (t, bad, 0.0)))

    g = _one_segment(phi, list(corners.values()))
    g.mark(1, g.leaf_view().elements()[0])
    g.pre_adapt()
    with pytest.raises(FactoryError, match=r"finite, got \[0.5, (nan|inf), 0.0\]"):
        g.adapt()
