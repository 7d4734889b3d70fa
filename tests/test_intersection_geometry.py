"""Intersection geometries are built on first access and read no grid state.

The expected values are the formulas that built every geometry up front,
written out here over the public entity API: a fragment is the finest
facet edge among the inside and its outsides, its corners in an element
are the parameter interval of that edge on the element's facet edge,
turned to the element's corner order, and its global corners are those
local corners under the inside element's map.

The last tests run random adapt, grow and remove rounds on the same fan
(``transactions``).  After each round one runs ``gridcheck.check_grid``,
which among much else finds that fragments tile every leaf facet; the
other checks that every corner, volume and centre has the bits of the
numpy array expressions written out below, which the Python-float
arithmetic and the shared per-element corners must reproduce.  The
global geometries of a view's fragments take det(A^T A) and the corner
scale from one batch; their measures, degeneracy and Jacobians must have
the bits of a lone ``AffineGeometry``.
"""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_grid, same_bits
from gridcheck import check_grid
from netmesh import SingularGeometryError, intersections
from netmesh.geometry import REFERENCE_CORNERS, AffineGeometry, AffineStack
from netmesh.topology import TRIANGLE_EDGES
from transactions import adapt, fan_grid, grow, remove, rounds


def eager_local(element, facet, frag):
    """Corners of edge ``frag`` in ``element``, which holds it on its ``facet``."""
    via = element.sub_entity(1, facet)
    a, b = 0.0, 1.0
    edge = frag
    while edge != via:
        father = edge.father()
        side = 0 if father.children()[0] == edge else 1
        a, b = (a + side) / 2.0, (b + side) / 2.0
        edge = father
    ia, ib = TRIANGLE_EDGES[facet]
    if via.vertices()[0].id != element.vertices()[ia].id:
        a, b = 1.0 - a, 1.0 - b
    ref = REFERENCE_CORNERS[2]
    return np.stack([ref[ia] * (1.0 - t) + ref[ib] * t for t in (a, b)])


def eager_geometries(grp):
    """(in inside, in each outside, global) corners as the eager code built them."""
    el = grp.inside
    edges = [el.sub_entity(1, grp.index_in_inside)] + [
        grp.outside(k).sub_entity(1, grp.index_in_outside(k)) for k in range(grp.neighbor_count)
    ]
    frag = max(edges, key=lambda e: e.level)
    local = eager_local(el, grp.index_in_inside, frag)
    outside = [
        eager_local(grp.outside(k), grp.index_in_outside(k), frag)
        for k in range(grp.neighbor_count)
    ]
    ig = el.geometry
    return local, outside, np.stack([ig.to_global(c) for c in local])


def read_geometries(grp):
    return (
        grp.geometry_in_inside.corners,
        [grp.geometry_in_outside(k).corners for k in range(grp.neighbor_count)],
        grp.geometry.corners,
    )


def assert_same(got, expected):
    (local, outside, world), (e_local, e_outside, e_world) = got, expected
    np.testing.assert_allclose(local, e_local, rtol=0, atol=1e-14)
    assert len(outside) == len(e_outside)
    for o, e in zip(outside, e_outside):
        np.testing.assert_allclose(o, e, rtol=0, atol=1e-14)
    np.testing.assert_allclose(world, e_world, rtol=0, atol=1e-14)


@pytest.fixture
def count_geometries(monkeypatch):
    counter = {"built": 0}
    init = AffineGeometry.__init__

    def counting(obj, corners):
        counter["built"] += 1
        init(obj, corners)

    monkeypatch.setattr(AffineGeometry, "__init__", counting)
    return counter


@pytest.mark.parametrize("dim", [1, 2])
def test_topology_sweep_builds_no_geometry(dim, count_geometries):
    if dim == 1:
        grid = make_grid(1, 3, [(0, 0, 0), (1, 0, 0), (2, 1, 0), (2, -1, 0)], [(0, 1), (1, 2), (1, 3)])
    else:
        grid = fan_grid()
    el = grid.leaf_view().elements()[0]
    grid.mark(1, el)
    grid.pre_adapt()
    grid.adapt()
    grid.post_adapt()
    view = grid.leaf_view()
    neighbours = 0
    for el in view.elements():
        for grp in intersections(view, el):
            for k in range(grp.neighbor_count):
                neighbours += grp.outside(k).id >= 0
                grp.index_in_outside(k)
    assert neighbours > 0
    assert count_geometries["built"] == 0


def test_geometries_are_built_once(count_geometries):
    grid = fan_grid()
    view = grid.leaf_view()
    grp = next(g for g in intersections(view, view.elements()[0]) if g.neighbor_count == 2)
    first = read_geometries(grp)
    built = count_geometries["built"]
    assert built == 4  # in inside, in two outsides, global
    assert grp.geometry is grp.geometry
    assert grp.geometry_in_outside(1) is grp.geometry_in_outside(1)
    assert_same(read_geometries(grp), first)
    assert count_geometries["built"] == built


def test_dropped_groups_leave_no_garbage_cycle():
    """Groups whose geometries were read are freed by reference counting alone."""
    grid = fan_grid()
    adapt(grid, np.random.default_rng(3), refine=0.6, coarsen=0.0)
    view = grid.leaf_view()
    elements = view.elements()
    gc.collect()
    gc.disable()
    try:
        for el in elements:
            for grp in intersections(view, el):
                grp.geometry.volume()
                grp.geometry_in_inside.corners
                for k in range(grp.neighbor_count):
                    grp.geometry_in_outside(k).corners
        del grp
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_zero_length_fragment_is_singular():
    """A fragment on a collapsed facet is derived with the other fragments of
    its element and still refuses a volume."""
    grid = make_grid(2, 3, [(0, 0, 0), (0, 0, 0), (0, 1, 0), (1, 0, 0)], [(0, 1, 2), (0, 3, 1)])
    view = grid.leaf_view()
    for el in view.elements():
        groups = intersections(view, el)
        collapsed = [grp for grp in groups if grp.neighbor_count == 1]
        assert len(collapsed) == 1
        with pytest.raises(SingularGeometryError):
            collapsed[0].geometry.volume()
        assert [grp.geometry.volume() for grp in groups if grp.neighbor_count == 0] == [1.0, 1.0]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_geometries_match_eager_formulas(seed, rounds):
    rng = np.random.default_rng(seed)
    grid = fan_grid()
    for _ in range(rounds):
        adapt(grid, rng)
    view = grid.leaf_view()
    for el in view.elements():
        for grp in intersections(view, el):
            assert_same(read_geometries(grp), eager_geometries(grp))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_geometries_read_after_adapt_equal_those_before(seed):
    rng = np.random.default_rng(seed)
    grid = fan_grid()
    adapt(grid, rng)
    view = grid.leaf_view()
    groups = [grp for el in view.elements() for grp in intersections(view, el)]
    expected = [eager_geometries(grp) for grp in groups]
    normals = [grp.unit_outer_normal() for grp in groups]
    early = {i: read_geometries(grp) for i, grp in enumerate(groups) if i % 2}
    for el in view.elements():
        grid.mark(1 if rng.uniform() < 0.5 else -1, el)
    grid.pre_adapt()
    grid.adapt()
    grid.post_adapt()
    for i, grp in enumerate(groups):
        got = read_geometries(grp)
        assert_same(got, expected[i])
        if i in early:
            assert_same(got, early[i])
        np.testing.assert_array_equal(grp.unit_outer_normal(), normals[i])


fan_rounds = rounds([adapt, grow, remove])


@settings(max_examples=60, deadline=None)
@given(fan_rounds)
def test_random_transactions_keep_facets_partitioned(transactions):
    """Random adapt, grow and remove rounds on the fan keep every leaf facet
    partitioned, and the grid passes ``check_grid`` after each."""
    grid = fan_grid()
    for transaction, seed in transactions:
        transaction(grid, np.random.default_rng(seed))
        check_grid(grid)


# -- bit identity with the numpy expressions -------------------------------


def numpy_threshold(corners):
    """Determinant below which numpy's corner scale made a simplex degenerate."""
    scale = float(((corners - corners[0]) ** 2).sum(axis=1).max())
    return 64.0 * np.finfo(float).eps * scale ** (len(corners) - 1), scale


def numpy_is_degenerate(corners):
    """``AffineGeometry.is_degenerate`` as numpy arrays computed it."""
    k = len(corners) - 1
    if k == 0:
        return False
    a = (corners[1:] - corners[0]).T
    gram = a.T @ a
    det = float(gram[0, 0]) if k == 1 else float(gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0])
    threshold, scale = numpy_threshold(corners)
    return scale == 0.0 or det <= threshold


def numpy_volume(corners):
    """``AffineGeometry.volume`` as numpy arrays computed it, None if degenerate."""
    if numpy_is_degenerate(corners):
        return None
    a = (corners[1:] - corners[0]).T
    gram = a.T @ a
    if len(corners) == 2:
        return math.sqrt(float(gram[0, 0]))
    return 0.5 * math.sqrt(float(gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]))


def numpy_reference_corners(fragment):
    """Corners of a (facet, a, b, flip) fragment as numpy rows of REFERENCE_CORNERS made them."""
    facet, a, b, flip = fragment
    if flip:
        a, b = 1.0 - a, 1.0 - b
    ia, ib = TRIANGLE_EDGES[facet]
    ref = REFERENCE_CORNERS[2]
    return np.array([ref[ia] * (1.0 - t) + ref[ib] * t for t in (a, b)])


def assert_same_geometry(geo, corners):
    assert same_bits(geo.corners, corners)
    volume = numpy_volume(corners)
    assert geo.is_degenerate() == (volume is None)
    if volume is not None:
        assert same_bits(geo.volume(), volume)


def assert_numpy_bits(grid):
    """Element and fragment geometries equal the numpy expressions bit for bit.

    The fragment numbers (facet, parameter interval, flip) are the ones the
    sweep found; this pins the arithmetic that turns them into geometries.
    """
    view = grid.leaf_view()
    for el in view.elements():
        corners = np.array([v.coords for v in el.vertices()])
        assert_same_geometry(el.geometry, corners)
        assert same_bits(el.geometry.center(), corners.mean(axis=0))
        for grp in intersections(view, el):
            local = numpy_reference_corners(grp._fragment)
            assert_same_geometry(grp.geometry_in_inside, local)
            assert_same_geometry(grp.geometry, corners[0] + local @ (corners[1:] - corners[0]))
            for k in range(grp.neighbor_count):
                outside = numpy_reference_corners(grp._outsides[k][2])
                assert_same_geometry(grp.geometry_in_outside(k), outside)


@settings(max_examples=30, deadline=None)
@given(fan_rounds)
def test_random_transactions_keep_the_numpy_bits(transactions):
    """Random adapt, grow and remove rounds on the fan leave every geometry bit as numpy made it."""
    grid = fan_grid()
    assert_numpy_bits(grid)
    for transaction, seed in transactions:
        transaction(grid, np.random.default_rng(seed))
        assert_numpy_bits(grid)


# down to subnormal; up to where scale**k still fits a float after the column spread below
SCALES = [5e-324, 1e-310, 1e-170, 1e-150, 1e-8, 1.0, 1e8, 1e70]


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 2),
    st.integers(2, 3),
    st.sampled_from(SCALES),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 1e-300, 1e-16, 1e-9, 1.0]),
)
def test_is_degenerate_matches_numpy(k, w, scale, seed, bend):
    """Tiny, huge, subnormal and near-collinear corners classify as numpy did."""
    rng = np.random.default_rng(seed)
    # columns a few orders of magnitude apart, so the summation order shows
    corners = rng.normal(size=(k + 1, w)) * scale * 10.0 ** rng.uniform(-3.0, 3.0, size=w)
    if k == 2:  # third corner on the line through the first two, bent off it by ``bend``
        t = rng.uniform(-1.0, 2.0)
        corners[2] = corners[0] + t * (corners[1] - corners[0]) + bend * scale * rng.normal(size=w)
    assert_numpy_classification(corners)


ROUNDING_SENSITIVE = [
    # a compensated sum (the built-in sum from Python 3.12 on) gives
    # 1e16 + 2 for 1e16 + 1 + 1, numpy's plain one 1e16
    [[1e16, -0.0, 0.0], [1.0, -0.0, 1.0], [1.0, -0.0, 0.0]],  # centre column
    [[0.0, 0.0, 0.0], [1e8, 1.0, 1.0]],  # squares of the corner scale
    [[0.0, 0.0, 0.0], [1e8, 1.0, 1.0], [0.0, 1e8, 0.0]],
    # numpy sums negative zeros to +0.0
    [[-0.0, 0.0], [-0.0, 1.0]],
]


@pytest.mark.parametrize("corners", ROUNDING_SENSITIVE)
def test_rounding_sensitive_corners_match_numpy(corners):
    """Sums whose rounding or sign depends on how they are added classify and centre as numpy did."""
    assert_numpy_classification(np.array(corners))


@pytest.mark.parametrize("size", [1e80, 1e100])
def test_overflowing_corner_scale_is_singular(size):
    """A triangle whose scale**2 overflows is singular, as a 1e160 triangle is."""
    with np.errstate(over="ignore"):  # the determinant overflows to inf on the way
        geo = AffineGeometry([[0.0, 0.0, 0.0], [size, 0.0, 0.0], [0.0, size, 0.0]])
        with pytest.raises(SingularGeometryError):
            geo.volume()


def assert_numpy_classification(corners):
    geo = AffineGeometry(corners)
    assert_same_geometry(geo, corners)
    assert same_bits(geo.center(), corners.mean(axis=0))
    assert_scale_on_threshold(geo, corners)


def assert_scale_on_threshold(geo, corners):
    """Pin the corner scale to the bit: a determinant on numpy's threshold is
    degenerate, one step above it is not, for ``is_degenerate`` and ``volume``."""
    threshold, _ = numpy_threshold(corners)
    if len(corners) > 1 and threshold > 0.0:
        geo._det = threshold
        assert geo.is_degenerate()
        with pytest.raises(SingularGeometryError):
            geo.volume()
        det = geo._det = math.nextafter(threshold, math.inf)
        assert not geo.is_degenerate()
        assert same_bits(geo.volume(), (1.0 if len(corners) == 2 else 0.5) * math.sqrt(det))


def assert_stack_is_lone(stack):
    """Every geometry of an ``AffineStack`` has the bits of a lone instance.

    ``volume`` and ``is_degenerate`` are read first, from the det and scale
    the stack handed over, then the Jacobians, which derive A alone.
    """
    batch = AffineStack(stack)
    for i, corners in enumerate(stack):
        got, lone = batch.geometry(i), AffineGeometry(corners.copy())
        assert same_bits(got.corners, lone.corners)
        assert got.is_degenerate() == lone.is_degenerate()
        if not lone.is_degenerate():
            assert same_bits(got.volume(), lone.volume())
            assert same_bits(got.integration_element(), lone.integration_element())
            assert same_bits(got.jacobian_inverse_transposed(), lone.jacobian_inverse_transposed())
        assert same_bits(got.jacobian_transposed(), lone.jacobian_transposed())
        if corners.shape[1] < 8:  # where numpy's row sums are plain ones
            assert_scale_on_threshold(batch.geometry(i), corners)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(1, 6),
    st.sampled_from(SCALES),
    st.integers(0, 2**32 - 1),
)
def test_stack_derives_the_bits_of_lone_geometries(k, extra, n, scale, seed):
    """Measures, degeneracy and Jacobians of a random stack equal what each
    simplex derives alone."""
    w = max(k, 1) + extra
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(n, k + 1, w)) * scale * 10.0 ** rng.uniform(-3.0, 3.0, size=w)
    assert_stack_is_lone(stack)


@pytest.mark.parametrize("corners", ROUNDING_SENSITIVE)
def test_stack_of_rounding_sensitive_corners_is_lone(corners):
    corners = np.array(corners)
    assert_stack_is_lone(np.stack([corners, corners[::-1], 2.0 * corners]))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 2),
    st.integers(0, 6),
    st.integers(1, 6),
    st.sampled_from(SCALES),
    st.integers(0, 2**32 - 1),
)
def test_stack_scale_has_the_bits_of_numpy_scale(k, extra, n, scale, seed):
    """The corner scale a stack derives for the degeneracy test is numpy's
    largest row sum of squares, bit for bit; from eight world coordinates
    on the stack leaves it to each geometry."""
    w = k + extra
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(n, k + 1, w)) * scale * 10.0 ** rng.uniform(-3.0, 3.0, size=w)
    batch = AffineStack(stack)
    for i, corners in enumerate(stack):
        if w < 8:
            assert same_bits(batch.geometry(i)._scale, numpy_threshold(corners)[1])
        else:
            assert batch.geometry(i)._scale is None
    assert_stack_is_lone(stack)
