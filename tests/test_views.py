import contextlib
import io
import weakref
from pathlib import Path

import numpy as np
import pytest

from netmesh import GridConfig, cli, read_gmsh, topology
from netmesh.errors import DimensionMismatchError, StaleEntityError

from conftest import make_grid, refine_all, same_bits
from gridcheck import check_grid

ROOT = Path(__file__).parent.parent


def test_leaf_indices_are_consecutive(two_triangles):
    check_grid(refine_all(two_triangles))  # among much else, indices 0..n-1 per codim


def test_level_view_contains_exactly_that_level(two_triangles):
    refine_all(two_triangles)
    lv0 = two_triangles.level_view(0)
    lv1 = two_triangles.level_view(1)
    assert lv0.size(0) == 2
    assert lv1.size(0) == 8
    assert all(el.level == 1 for el in lv1.elements())


def test_leaf_view_mixes_levels_after_local_refinement(two_triangles):
    g = two_triangles
    el0 = g.leaf_view().elements()[0]
    g.mark(1, el0)
    g.pre_adapt()
    g.adapt()
    g.post_adapt()
    levels = sorted({el.level for el in g.leaf_view().elements()})
    assert levels == [0, 1]
    assert g.leaf_view().size(0) == 5


def test_view_is_invalidated_by_adapt(two_triangles):
    view = two_triangles.leaf_view()
    refine_all(two_triangles)
    with pytest.raises(StaleEntityError):
        view.elements()
    with pytest.raises(StaleEntityError):
        view.size(0)


def test_leaf_view_is_built_once_per_revision(y_junction):
    g = y_junction
    view = g.leaf_view()
    assert g.leaf_view() is view
    refine_all(g)
    fresh = g.leaf_view()
    assert fresh is not view and fresh.size(0) == 6
    assert g.leaf_view() is fresh


def test_grid_holds_its_leaf_view_weakly(y_junction):
    # a strong reference would tie grid and view in a cycle, so an unused
    # grid would outlive its last reference until the cycle collector runs
    ref = weakref.ref(y_junction.leaf_view())
    assert ref() is None


def test_index_of_foreign_entity_fails(two_triangles, single_triangle):
    view = two_triangles.leaf_view()
    other = single_triangle.leaf_view().elements()[0]
    with pytest.raises(StaleEntityError):
        view.index_set.index_of(other)


def test_ids_stable_under_refinement(two_triangles):
    before = {el.id for el in two_triangles.leaf_view().elements()}
    refine_all(two_triangles)
    # fathers left the leaf view, children got fresh ids
    after = {el.id for el in two_triangles.leaf_view().elements()}
    assert before.isdisjoint(after)
    # but fathers keep their ids on their level
    lv0 = two_triangles.level_view(0)
    assert {el.id for el in lv0.elements()} == before


def test_vertex_chain_resolution_across_levels(chain4):
    g = chain4
    v0 = next(v for v in g.leaf_view().vertices() if tuple(v.coords) == (0, 0, 0))
    refine_all(g)
    new_leaf = g.leaf_view()
    ix = new_leaf.index_set
    # the old level-0 wrapper resolves through its finer copies to the leaf slot
    idx = ix.index_of(v0)
    match = next(v for v in new_leaf.vertices() if ix.index_of(v) == idx)
    assert tuple(match.coords) == (0, 0, 0)
    assert match.id == v0.id


def test_leaf_vertices_unique_per_chain(chain4):
    refine_all(chain4, 2)
    view = chain4.leaf_view()
    ids = [v.id for v in view.vertices()]
    assert len(ids) == len(set(ids))
    assert view.size(1) == 17  # 4 elements refined twice: 16 segments, 17 vertices


def test_contains_matches_membership(two_triangles):
    g = two_triangles
    el = g.leaf_view().elements()[0]
    g.mark(1, el)
    g.pre_adapt()
    g.adapt()
    g.post_adapt()
    view = g.leaf_view()
    refined_root = g.level_view(0).elements()[0]
    assert not view.contains(refined_root)
    for child in refined_root.children():
        assert view.contains(child)
    check_grid(g)


def test_stale_handle_is_refused_after_compaction(chain4):
    g = chain4
    old = g.leaf_view().elements()
    ids = [el.id for el in old]
    g.remove_element(old[0])
    g.grow()
    g.post_grow()
    view = g.leaf_view()
    # the compaction moved the element after it into the old handle's slot
    assert view.elements()[old[1].slot].id == ids[2]
    with pytest.raises(StaleEntityError):
        view.index_set.index_of(old[1])
    with pytest.raises(StaleEntityError):
        view.contains(old[1])


def test_contains_refuses_foreign_entity(two_triangles, single_triangle):
    view = two_triangles.leaf_view()
    other = single_triangle.leaf_view().elements()[0]
    assert not view.contains(other)
    assert view.contains(view.elements()[0])


@pytest.mark.parametrize("thing", [None, 3, "x"])
def test_contains_and_index_of_refuse_a_non_entity(two_triangles, thing):
    view = two_triangles.leaf_view()
    for call in (view.contains, view.index_set.index_of):
        with pytest.raises(DimensionMismatchError, match=f"expected an entity, got a {type(thing).__name__}$"):
            call(thing)


def test_vertex_copies_in_leaf_and_level_views(chain4):
    refine_all(chain4)
    coarse = chain4.level_view(0).vertices()[0]
    level1 = chain4.level_view(1)
    fine = next(v for v in level1.vertices() if v.id == coarse.id)
    # a level view answers only for copies of its own level
    assert level1.contains(fine) and not level1.contains(coarse)
    with pytest.raises(StaleEntityError):
        level1.index_set.index_of(coarse)
    # the leaf view keeps the fine copy and gives both copies its index
    leaf = chain4.leaf_view()
    assert leaf.contains(fine) and not leaf.contains(coarse)
    assert leaf.index_set.index_of(coarse) == leaf.index_set.index_of(fine)


def test_arrays_of_a_stale_view_are_refused(chain4):
    view = chain4.leaf_view()
    refine_all(chain4)
    for read in (view.corner_indices, view.coordinates, lambda: view.ids(0), lambda: view.places(1)):
        with pytest.raises(StaleEntityError):
            read()


def wrappers_built_by_demo(monkeypatch, tmp_path, demo, scenario):
    """Names of the entity wrapper types one bundled demo run builds, in order."""
    built = []
    init = topology._Entity.__init__

    def counting(entity, grid, level, slot, id=None):
        built.append(type(entity).__name__)
        init(entity, grid, level, slot, id)

    monkeypatch.setattr(topology._Entity, "__init__", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([demo, str(ROOT / "scenarios" / scenario), "--out", str(tmp_path)]) == 0
    return built


def test_roots_demo_builds_no_entity_wrapper(monkeypatch, tmp_path):
    assert wrappers_built_by_demo(monkeypatch, tmp_path, "roots", "roots.txt") == []


def test_flow_demo_builds_no_entity_wrapper(monkeypatch, tmp_path):
    # the leaf-data transfer weighs a vanishing family by the view's corner array
    assert wrappers_built_by_demo(monkeypatch, tmp_path, "flow", "vessels.txt") == []


def assert_wrappers_match_handles(grid, wrappers):
    """Each view-made wrapper and a fresh ``grid.element`` handle at its place
    agree on the id and on the bits of the corners and the centre."""
    for el in wrappers:
        handle = grid.element(el.level, el.slot)
        assert el.id == handle.id
        assert same_bits(el.geometry.corners, handle.geometry.corners)
        assert same_bits(el.geometry.center(), handle.geometry.center())


@pytest.mark.parametrize("mesh", ["surface.msh", "quadratic_surface.msh"])
def test_view_wrappers_agree_with_grid_handles(mesh):
    """Across a refine round and a coarsening round, view wrappers keep the
    ids and corners that the records give; wrappers made before a refine
    that compacted nothing still read them."""
    grid = read_gmsh(ROOT / "tests" / "data" / mesh, GridConfig(2, 3))
    before = grid.leaf_view().elements()
    assert_wrappers_match_handles(grid, before)
    refine_all(grid)
    assert_wrappers_match_handles(grid, before)
    assert_wrappers_match_handles(grid, grid.leaf_view().elements())
    leaves = grid.leaf_view().elements()
    first = leaves[0].father()
    for el in leaves:  # coarsen the first family, refine every third other leaf
        grid.mark(-1 if el.father() == first else int(el.id % 3 == 0), el)
    grid.pre_adapt()
    grid.adapt()
    grid.post_adapt()
    with pytest.raises(StaleEntityError, match="outlived"):
        before[0].id  # the coarsening compacted the arenas
    for level in range(grid.max_level + 1):
        assert_wrappers_match_handles(grid, grid.level_view(level).elements())
    assert_wrappers_match_handles(grid, grid.leaf_view().elements())


def test_wrappers_and_handles_go_stale_together(two_triangles):
    """After a compacting adapt, a view wrapper and a grid handle whose id was
    read refuse ``id`` and ``geometry`` alike."""
    refine_all(two_triangles)
    wrapper = two_triangles.leaf_view().elements()[0]
    handle = two_triangles.element(wrapper.level, wrapper.slot)
    assert handle.id == wrapper.id
    for el in two_triangles.leaf_view().elements():
        two_triangles.mark(-1, el)
    two_triangles.pre_adapt()
    two_triangles.adapt()
    two_triangles.post_adapt()
    for entity in (wrapper, handle):
        for read in (lambda: entity.id, lambda: entity.geometry):
            with pytest.raises(StaleEntityError, match="outlived"):
                read()
