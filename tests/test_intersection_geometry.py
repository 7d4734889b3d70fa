"""Intersection geometries are built on first access and read no grid state.

The expected values are the formulas that built every geometry up front,
written out here over the public entity API: a fragment is the finest
facet edge among the inside and its outsides, its corners in an element
are the parameter interval of that edge on the element's facet edge,
turned to the element's corner order, and its global corners are those
local corners under the inside element's map.

The last tests run random adapt, grow and remove rounds on the same fan.
After each round they check that fragments tile every leaf facet, and that
every corner, volume and centre has the bits of the numpy array
expressions written out below, which the Python-float arithmetic and the
shared per-element corners must reproduce.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_leaf_view_is_brute_force, make_grid
from netmesh import SingularGeometryError, intersections
from netmesh.geometry import REFERENCE_CORNERS, AffineGeometry
from netmesh.topology import TRIANGLE, TRIANGLE_EDGES, audit_grid

# three triangles fanning around the edge (0, 1), one more on the edge (1, 2)
FAN = (
    [(0, 0, 0), (1, 0, 0), (0.5, 1, 0), (0.5, -1, 0), (0.5, 0, 1), (1.5, 1, 0)],
    [(0, 1, 2), (0, 1, 3), (0, 1, 4), (1, 5, 2)],
)


def fan_grid():
    return make_grid(2, 3, *FAN)


def adapt(grid, rng, refine=0.4, coarsen=0.3):
    for el in grid.leaf_view().elements():
        u = rng.uniform()
        if u < refine and el.level < 3:
            grid.mark(1, el)
        elif u > 1.0 - coarsen:
            grid.mark(-1, el)
    grid.pre_adapt()
    grid.adapt()
    grid.post_adapt()


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


def grow(grid, rng, share=0.3):
    """Queue a triangle on a random edge of about ``share`` of the leaves, with a fresh apex."""
    view = grid.leaf_view()
    ix = view.index_set
    for el in view.elements():
        if rng.uniform() < share:
            corners = el.vertices()
            a, b = rng.choice(3, size=2, replace=False)
            apex = grid.queue_vertex(corners[a].coords + rng.normal(size=3))
            grid.queue_element(TRIANGLE, [ix.index_of(corners[a]), ix.index_of(corners[b]), apex])
    grid.grow()
    grid.post_grow()


def remove(grid, rng, share=0.2):
    """Remove about ``share`` of the leaves, always keeping the first."""
    for el in grid.leaf_view().elements()[1:]:
        if rng.uniform() < share:
            grid.remove_element(el)
    grid.grow()
    grid.post_grow()


def assert_partitioned(grid):
    """Fragments tile each leaf facet, neighbours are mutual, and the audit is clean."""
    assert audit_grid(grid) == []
    view = grid.leaf_view()
    ref = REFERENCE_CORNERS[2]
    pairs = set()
    for el in view.elements():
        spans = {facet: [] for facet in range(3)}
        for grp in intersections(view, el):
            ia, ib = TRIANGLE_EDGES[grp.index_in_inside]
            d = ref[ib] - ref[ia]
            t = sorted(float((c - ref[ia]) @ d / (d @ d)) for c in grp.geometry_in_inside.corners)
            spans[grp.index_in_inside].append(t)
            pairs.update((el.id, grp.outside(k).id) for k in range(grp.neighbor_count))
        for pieces in spans.values():
            pieces.sort()
            ends = [0.0] + [b for _, b in pieces]
            starts = [a for a, _ in pieces] + [1.0]
            np.testing.assert_allclose(starts, ends, rtol=0, atol=1e-12)
    assert all((b, a) in pairs for a, b in pairs)


transactions = st.lists(
    st.tuples(st.sampled_from([adapt, grow, remove]), st.integers(0, 2**32 - 1)),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(transactions)
def test_random_transactions_keep_facets_partitioned(rounds):
    """Random adapt, grow and remove rounds on the fan keep every leaf facet partitioned.

    The leaf view also holds exactly what a brute-force pass over the
    records finds.
    """
    grid = fan_grid()
    for transaction, seed in rounds:
        transaction(grid, np.random.default_rng(seed))
        assert_leaf_view_is_brute_force(grid)
        assert_partitioned(grid)


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


def same_bits(got, expected):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


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
@given(transactions)
def test_random_transactions_keep_the_numpy_bits(rounds):
    """Random adapt, grow and remove rounds on the fan leave every geometry bit as numpy made it."""
    grid = fan_grid()
    assert_numpy_bits(grid)
    for transaction, seed in rounds:
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


@pytest.mark.parametrize(
    "corners",
    [
        # a compensated sum (the built-in sum from Python 3.12 on) gives
        # 1e16 + 2 for 1e16 + 1 + 1, numpy's plain one 1e16
        [[1e16, -0.0, 0.0], [1.0, -0.0, 1.0], [1.0, -0.0, 0.0]],  # centre column
        [[0.0, 0.0, 0.0], [1e8, 1.0, 1.0]],  # squares of the corner scale
        [[0.0, 0.0, 0.0], [1e8, 1.0, 1.0], [0.0, 1e8, 0.0]],
        # numpy sums negative zeros to +0.0
        [[-0.0, 0.0], [-0.0, 1.0]],
    ],
)
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
    # pin the corner scale to the bit: a determinant on numpy's threshold is
    # degenerate, one step above it is not
    threshold, _ = numpy_threshold(corners)
    if threshold > 0.0:
        geo._det = threshold
        assert geo.is_degenerate()
        geo._det = math.nextafter(threshold, math.inf)
        assert not geo.is_degenerate()
