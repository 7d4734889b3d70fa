"""The view's column gathers against the per-record walk they replaced.

``GridView._build`` keeps, per codim, the places and ids of what a view
holds, the corner indices of its elements and the coordinates of its
vertices; ``tests/view_walk.py`` keeps the per-record walk that built
them before.  Both must agree on the leaf view and on every level view:
after each round of random fan transactions in worlds of dimension 2-4,
and on refined and coarsened surfaces.  The leaf view keeps, of the
copies of a vertex, the finest one that touches a leaf element, which
need not be the vertex's finest copy.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import cubic_lattice, foam_lattice, make_grid, refine_all, same_bits
from netmesh import GridConfig, read_gmsh
from transactions import FAN_TRANSACTIONS, embedded_grid, play, rounds
from view_walk import WalkedView

ROOT = Path(__file__).resolve().parents[1]


def assert_views_match_the_walk(grid):
    for level in [None, *range(grid.max_level + 1)]:
        view = grid.leaf_view() if level is None else grid.level_view(level)
        walked = WalkedView(grid, level)
        for codim in range(grid.dim + 1):
            assert view.places(codim) == walked._places[codim], (level, codim)
            assert view.ids(codim).tolist() == list(walked._index[codim]), (level, codim)
        assert view.corner_indices().dtype == np.int64
        assert view.corner_indices().tolist() == walked._arrays[0].tolist(), level
        assert same_bits(view.coordinates(), walked._arrays[grid.dim]), level


@pytest.mark.parametrize("world_dim", [2, 3, 4])
@settings(max_examples=20, deadline=None)
@given(transactions=rounds(FAN_TRANSACTIONS))
def test_views_match_the_walk_after_each_fan_round(world_dim, transactions):
    grid = embedded_grid("fan", world_dim)
    assert_views_match_the_walk(grid)
    for transaction in transactions:
        play(grid, *transaction)
        assert_views_match_the_walk(grid)


def adapt_all(grid, mark, first_only=False):
    leaves = grid.leaf_view().elements()
    for el in leaves[:1] if first_only else leaves:
        grid.mark(mark, el)
    grid.pre_adapt()
    grid.adapt()
    grid.post_adapt()


def behind_a_front(grid):
    """Refine to level 2 near a sphere moving through a 2 x 2 x 1 block and
    coarsen away from it, the rounds of the intersection-table test."""
    for x in (1, 0, 1, 2):
        centre = np.array([2 * x / 3, 1.0, 0.5])
        for el in grid.leaf_view().elements():
            if abs(np.linalg.norm(el.geometry.center() - centre) - 0.6) >= 0.7 * 0.5**el.level:
                grid.mark(-1, el)
            elif el.level < 2:
                grid.mark(1, el)
        grid.pre_adapt()
        grid.adapt()
        grid.post_adapt()
        yield


SURFACES = {
    "square": lambda tmp: read_gmsh(ROOT / "meshes" / "square.msh", GridConfig(2, 3)),
    "tjunction": lambda tmp: read_gmsh(ROOT / "meshes" / "tjunction.msh", GridConfig(2, 3)),
    "lattice": lambda tmp: cubic_lattice((2, 2, 1)),
    "foam_lattice": foam_lattice,
}


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_views_match_the_walk_on_refined_and_coarsened_surfaces(name, tmp_path):
    """Refined everywhere, at the first leaf twice (hanging nodes), then
    coarsened everywhere twice; the cubic lattice also behind a moving
    front, and the foam-adapt benchmark's lattice (``conftest.foam_lattice``)."""
    grid = SURFACES[name](tmp_path)
    assert_views_match_the_walk(grid)
    steps = [lambda: refine_all(grid), lambda: adapt_all(grid, 1, first_only=True),
             lambda: adapt_all(grid, 1, first_only=True), lambda: adapt_all(grid, -1),
             lambda: adapt_all(grid, -1)]
    for step in steps:
        step()
        assert_views_match_the_walk(grid)
    if name == "lattice":
        for _ in behind_a_front(grid):
            assert_views_match_the_walk(grid)


def test_a_vertex_keeps_the_copy_that_touches_a_leaf_not_its_finest():
    """Two segments; the first is refined, then its second child, and the
    last grandchild is removed.  The middle vertex keeps its level-1 copy,
    which only the refined child uses, while the leaf touching it is the
    second segment, on level 0: the leaf view keeps that level-0 copy."""
    grid = make_grid(1, 3, [(0, 0, 0), (1, 0, 0), (2, 0, 0)], [(0, 1), (1, 2)])
    adapt_all(grid, 1, first_only=True)
    child = grid.level_view(1).elements()[1]
    grid.mark(1, child)
    grid.pre_adapt()
    grid.adapt()
    grid.post_adapt()
    grid.remove_element(grid.level_view(2).elements()[1])
    grid.grow()
    grid.post_grow()
    copy = grid.level_view(1).elements()[1].vertices()[1]
    assert grid._vertex_chain(0, 1) == [(0, 1), (copy.level, copy.slot)]
    view = grid.leaf_view()
    assert view.places(1)[view.index_set.index_of(copy)] == (0, 1)
    assert_views_match_the_walk(grid)
