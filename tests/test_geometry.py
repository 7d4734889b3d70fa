import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netmesh import AffineGeometry
from netmesh.errors import DimensionMismatchError, SingularGeometryError


def test_segment_volume_and_center():
    geo = AffineGeometry(np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]]))
    assert geo.volume() == pytest.approx(5.0)
    assert np.allclose(geo.center(), [1.5, 2.0, 0.0])


def test_triangle_volume_in_3d():
    # right triangle with legs 2 and 2 lifted off the plane
    geo = AffineGeometry(np.array([[0, 0, 1], [2, 0, 1], [0, 2, 1]], dtype=float))
    assert geo.volume() == pytest.approx(2.0)
    assert geo.integration_element() == pytest.approx(4.0)


def test_point_geometry_is_trivial():
    geo = AffineGeometry(np.array([[2.0, -1.0, 0.5]]))
    assert geo.volume() == 1.0
    assert np.allclose(geo.center(), [2.0, -1.0, 0.5])
    assert np.allclose(geo.to_global(np.zeros(0)), [2.0, -1.0, 0.5])


def test_to_global_maps_reference_corners():
    corners = np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 3.0]])
    geo = AffineGeometry(corners)
    assert np.allclose(geo.to_global([0.0, 0.0]), corners[0])
    assert np.allclose(geo.to_global([1.0, 0.0]), corners[1])
    assert np.allclose(geo.to_global([0.0, 1.0]), corners[2])


def test_to_local_inverts_to_global():
    corners = np.array([[0, 0, 0], [1, 0, 0.5], [0, 1, -0.25]], dtype=float)
    geo = AffineGeometry(corners)
    local = np.array([0.3, 0.25])
    assert np.allclose(geo.to_local(geo.to_global(local)), local, atol=1e-14)


def test_to_local_projects_offmanifold_points():
    """For a point off the surface, to_local gives the closest-point preimage."""
    geo = AffineGeometry(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float))
    local = geo.to_local(np.array([0.25, 0.25, 7.0]))
    assert np.allclose(local, [0.25, 0.25], atol=1e-12)
    # residual is orthogonal to the tangent plane
    residual = np.array([0.25, 0.25, 7.0]) - geo.to_global(local)
    jt = geo.jacobian_transposed()
    assert np.allclose(jt @ residual, 0.0, atol=1e-10)


def test_jacobian_shapes():
    geo = AffineGeometry(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float))
    assert geo.jacobian_transposed().shape == (2, 3)
    assert geo.jacobian_inverse_transposed().shape == (3, 2)


def test_jacobian_inverse_is_pseudo_inverse():
    corners = np.array([[0, 0, 0], [2, 0, 1], [0, 3, -1]], dtype=float)
    geo = AffineGeometry(corners)
    jt = geo.jacobian_transposed()
    jit = geo.jacobian_inverse_transposed()
    assert np.allclose(jt @ jit, np.eye(2), atol=1e-12)


@pytest.mark.parametrize(
    "corners",
    [
        [[0.0, 0.0], [0.0, 0.0]],  # zero-length segment
        [[0, 0, 0], [1, 0, 0], [2, 0, 0]],  # collinear triangle
        [[1, 1, 1], [1, 1, 1], [1, 1, 1]],  # fully collapsed
    ],
)
def test_degenerate_simplices_detected(corners):
    geo = AffineGeometry(np.array(corners, dtype=float))
    assert geo.is_degenerate()


def test_nearly_degenerate_relative_scale():
    # a tiny but well-shaped triangle must NOT count as degenerate
    geo = AffineGeometry(1e-8 * np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float))
    assert not geo.is_degenerate()


def test_to_local_on_degenerate_geometry_raises():
    geo = AffineGeometry(np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float))
    with pytest.raises(SingularGeometryError):
        geo.to_local(np.array([0.5, 0.5, 0.0]))


def test_corner_array_must_be_two_dimensional():
    with pytest.raises(DimensionMismatchError):
        AffineGeometry(np.array([1.0, 2.0, 3.0]))


def test_simplex_must_fit_into_world():
    with pytest.raises(DimensionMismatchError):
        AffineGeometry(np.array([[0.0], [1.0], [2.0]]))  # triangle in R^1


coord = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(coord, coord, coord), min_size=3, max_size=3))
@example([(1.1, 0.0, 1.25), (1.1, 1.25, 1.25), (1.1, 1.1, 1.25)])  # collinear corners
# thin but regular: normal equations square its condition number and miss by 3e-6
@example([(0.0, 0.0, 4.0), (0.0, 1.0, 0.0), (0.0, 1.0, 6.103515625e-05)])
def test_local_global_round_trip_random_triangles(pts):
    corners = np.array(pts)
    geo = AffineGeometry(corners)
    if geo.is_degenerate():
        return
    local = np.array([0.2, 0.3])
    back = geo.to_local(geo.to_global(local))
    assert np.allclose(back, local, atol=1e-9 * max(1.0, np.abs(corners).max()))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 50), st.floats(0, 2 * math.pi))
def test_segment_volume_is_euclidean_length(r, angle):
    a = np.zeros(3)
    b = np.array([r * math.cos(angle), r * math.sin(angle), 0.1 * r])
    geo = AffineGeometry(np.vstack([a, b]))
    assert geo.volume() == pytest.approx(np.linalg.norm(b - a), rel=1e-12)
