"""Intersection geometries are built on first access and read no grid state.

The expected values are the formulas that built every geometry up front,
written out here over the public entity API: a fragment is the finest
facet edge among the inside and its outsides, its corners in an element
are the parameter interval of that edge on the element's facet edge,
turned to the element's corner order, and its global corners are those
local corners under the inside element's map.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_grid
from netmesh import intersections
from netmesh.geometry import REFERENCE_CORNERS, AffineGeometry
from netmesh.topology import TRIANGLE_EDGES

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
