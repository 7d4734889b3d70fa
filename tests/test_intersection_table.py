"""The view's intersection table against the per-element walk and the grid contract.

A view builds one intersection table on the first ``intersections`` call
and keeps it; every group it hands out must equal what the per-element
walk in ``intersection_walk`` finds (facet, fragment, outsides by id,
facet and fragment) and pass ``gridcheck.check_intersections``, on the
leaf view and every level view of the fixture meshes; ``check_grid``
checks both.
"""

import gc
import pathlib
import weakref

import numpy as np
import pytest

from conftest import make_grid, refine_all
from gridcheck import check_grid
from netmesh import GridConfig, intersections, pairwise_intersections, read_gmsh
from netmesh.errors import StaleEntityError
from netmesh.views import GridView
from transactions import fan_grid

ROOT = pathlib.Path(__file__).resolve().parent.parent
MESHES = {
    "meshes/square.msh": 2,
    "meshes/tjunction.msh": 2,
    "meshes/vessels.msh": 1,
    "tests/data/network.msh": 1,
    "tests/data/quadratic_line.msh": 1,
    "tests/data/quadratic_surface.msh": 2,
    "tests/data/surface.msh": 2,
}


def refine_first(grid):
    """Refine the first leaf element only, so that hanging nodes appear."""
    grid.mark(1, grid.leaf_view().elements()[0])
    grid.pre_adapt()
    grid.adapt()
    grid.post_adapt()
    return grid


FIXTURES = {
    "chain4": lambda: make_grid(
        1, 3, [(float(i), 0.0, 0.0) for i in range(5)], [(i, i + 1) for i in range(4)]
    ),
    "y_junction": lambda: make_grid(
        1, 3, [(0, 0, 0), (1, 0, 0), (2, 1, 0), (2, -1, 0)], [(0, 1), (1, 2), (1, 3)]
    ),
    "loop": lambda: make_grid(1, 3, [(0, 0, 0), (1, 0, 0)], [(0, 1), (1, 0)]),
    "two_triangles": lambda: make_grid(
        2, 3, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], [(0, 1, 2), (0, 2, 3)]
    ),
    "fan": fan_grid,
    **{
        name: (lambda name=name, dim=dim: read_gmsh(ROOT / name, GridConfig(dim, 3)))
        for name, dim in MESHES.items()
    },
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_table_matches_walk_on_fixture_meshes(name):
    """Unrefined, refined everywhere, then refined at one element twice.

    A quadratic mesh refines onto its curved surface: a hanging node there
    lies off the coarse neighbour's straight facet, so the contract's
    geometry holds only while the grid is conforming.
    """
    grid = FIXTURES[name]()
    check_grid(grid)
    refine_all(grid)
    check_grid(grid)
    for _ in range(2):
        refine_first(grid)
        check_grid(grid, contract="quadratic" not in name)


def cubic_lattice(shape):
    """Every unit square face of a block of ``shape`` unit cubes, cut into two
    triangles.  An edge inside the block lies on four squares."""
    corners = list(np.ndindex(*(n + 1 for n in shape)))
    index = {p: i for i, p in enumerate(corners)}
    steps = np.eye(3, dtype=int)
    triangles = []
    for normal in range(3):
        a, b = (axis for axis in range(3) if axis != normal)
        for p in map(np.array, corners):
            if p[a] < shape[a] and p[b] < shape[b]:
                square = [p, p + steps[a], p + steps[a] + steps[b], p + steps[b]]
                v = [index[tuple(q.tolist())] for q in square]
                triangles += [(v[0], v[1], v[2]), (v[0], v[2], v[3])]
    return make_grid(2, 3, [tuple(map(float, p)) for p in corners], triangles)


def chain_length(grid, level, slot):
    """Edges from an edge up through its fathers, itself included."""
    length = 1
    while (slot := grid._edges[level][slot].father) is not None:
        level, length = level - 1, length + 1
    return length


def test_table_matches_walk_behind_a_front_on_a_cubic_lattice():
    """A spherical front moves over a 2 x 2 x 1 block of cubes in four rounds,
    refining to level 3 near it and coarsening away from it.  Groups of
    three and four elements then lie on several levels, on facet edges four
    levels deep.  The front turns back once, so an element made later, and
    with a larger id, can share a group with a finer one made before it."""
    grid = cubic_lattice((2, 2, 1))
    assert grid.leaf_view().size(0) == 40
    sizes, deep = [], set()
    for x in (1, 0, 1, 2):  # the centre runs along the middle of the block, turning back once
        centre = np.array([2 * x / 3, 1.0, 0.5])
        for el in grid.leaf_view().elements():
            if abs(np.linalg.norm(el.geometry.center() - centre) - 0.6) >= 0.7 * 0.5**el.level:
                grid.mark(-1, el)
            elif el.level < 3:
                grid.mark(1, el)
        grid.pre_adapt()
        grid.adapt()
        grid.post_adapt()
        check_grid(grid)
        view = grid.leaf_view()
        sizes.append(view.size(0))
        for el in view.elements():
            for grp in intersections(view, el):
                members = [(el, grp.index_in_inside)] + [
                    (grp.outside(k), grp.index_in_outside(k)) for k in range(grp.neighbor_count)
                ]
                if len(members) > 2 and len({m.level for m, _ in members}) > 1:
                    finest, facet = max(members, key=lambda member: member[0].level)
                    edge = finest.sub_entity(1, facet)
                    deep.add((len(members), chain_length(grid, edge.level, edge.slot)))
    assert grid.max_level == 3 and sizes[-1] < max(sizes)
    assert {(3, 4), (4, 4)} <= deep


def test_intersections_on_a_stale_view_are_refused(chain4):
    old = chain4.leaf_view()
    chain4.mark(1, old.elements()[1])
    chain4.pre_adapt()
    chain4.adapt()
    chain4.post_adapt()
    new = chain4.leaf_view().elements()[0]
    for call in (intersections, pairwise_intersections):
        with pytest.raises(StaleEntityError, match="view created before"):
            call(old, new)


def test_table_is_built_on_the_first_call_and_kept(y_junction):
    view = GridView(y_junction, None)
    assert view._intersection_table is None
    el = view.elements()[0]
    intersections(view, el)
    table = view._intersection_table
    assert table is not None
    intersections(view, view.elements()[1])
    assert view._intersection_table is table


def test_the_next_leaf_view_drops_the_tables_of_the_stale_one(y_junction):
    view = y_junction.leaf_view()
    intersections(view, view.elements()[0])
    refine_all(y_junction)
    assert view._intersection_table is not None
    assert y_junction.leaf_view() is not view
    assert view._intersection_table is None


def test_outsides_are_the_views_own_wrappers(t_junction):
    view = t_junction.leaf_view()
    wrappers = view.elements()
    for el in wrappers:
        for grp in intersections(view, el):
            assert grp.inside is el
            for k in range(grp.neighbor_count):
                assert any(grp.outside(k) is w for w in wrappers)


def test_groups_are_fresh_per_call(two_triangles):
    view = two_triangles.leaf_view()
    el = view.elements()[0]
    first, again = intersections(view, el), intersections(view, el)
    assert all(a is not b for a, b in zip(first, again))
    assert first[0].geometry is not again[0].geometry
    np.testing.assert_array_equal(first[0].geometry.corners, again[0].geometry.corners)


def test_a_sweep_leaves_no_group_or_geometry_behind():
    """The table keeps nothing a sweep made: with the view still alive and
    the cyclic collector paused, dropping the groups frees every group and
    every geometry read from them."""
    grid = fan_grid()
    refine_first(grid)
    refine_first(grid)
    view = grid.leaf_view()
    gc.collect()
    gc.disable()
    try:
        refs = []
        for el in view.elements():
            for grp in intersections(view, el):
                refs.append(weakref.ref(grp))
                refs.append(weakref.ref(grp.geometry))
                refs.append(weakref.ref(grp.geometry_in_inside))
                for k in range(grp.neighbor_count):
                    refs.append(weakref.ref(grp.geometry_in_outside(k)))
        del grp
        assert view._intersection_table is not None
        alive = [ref() for ref in refs if ref() is not None]
        assert alive == []
    finally:
        gc.enable()
