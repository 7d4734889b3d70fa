import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmesh import LINE, audit_grid, intersections
from netmesh.errors import DimensionMismatchError, FactoryError, LifecycleError, StaleEntityError
from netmesh.roots import leaf_degree

from conftest import (
    assert_intersections_agree,
    assert_leaf_view_is_brute_force,
    make_grid,
    refine_all,
    vertex_or_edge,
)


def test_queue_vertex_indices_continue_leaf_range(chain4):
    g = chain4
    # 5 leaf vertices -> provisional indices start at 5
    assert g.queue_vertex(np.array([5.0, 0.0, 0.0])) == 5
    assert g.queue_vertex(np.array([6.0, 0.0, 0.0])) == 6
    g.queue_element(LINE, [4, 5])
    g.queue_element(LINE, [5, 6])
    assert g.grow() is True
    g.post_grow()
    assert g.leaf_view().size(0) == 6
    assert audit_grid(g) == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_queued_vertex_must_be_finite(chain4, bad):
    with pytest.raises(FactoryError, match="finite"):
        chain4.queue_vertex(np.array([5.0, bad, 0.0]))
    assert chain4._queued_vertices == []


def test_grown_elements_carry_is_new_until_post_grow(chain4):
    g = chain4
    iv = g.queue_vertex(np.array([5.0, 0.0, 0.0]))
    g.queue_element(LINE, [4, iv])
    g.grow()
    fresh = [el for el in g.leaf_view().elements() if el.is_new]
    assert len(fresh) == 1
    assert fresh[0].father() is None  # grown elements root their own tree
    g.post_grow()
    assert all(not el.is_new for el in g.leaf_view().elements())


def test_unknown_vertex_index_rejected(chain4):
    with pytest.raises(FactoryError):
        chain4.queue_element(LINE, [0, 99])


def test_remove_leaf_element(chain4):
    g = chain4
    victim = g.leaf_view().elements()[3]
    g.remove_element(victim)
    g.grow()
    g.post_grow()
    assert g.leaf_view().size(0) == 3
    assert audit_grid(g) == []


def test_remove_element_of_another_grid_is_refused(chain4):
    other = make_grid(1, 3, [(float(i), 0.0, 0.0) for i in range(5)], [(i, i + 1) for i in range(4)])
    with pytest.raises(StaleEntityError, match="different grid"):
        chain4.remove_element(other.leaf_view().elements()[3])
    chain4.grow()
    chain4.post_grow()
    assert chain4.leaf_view().size(0) == 4
    assert other.leaf_view().size(0) == 4


@pytest.mark.parametrize("kind", ["Vertex", "Edge"])
def test_remove_element_refuses_a_vertex_or_edge(kind):
    grid, entity = vertex_or_edge(kind)
    size = grid.leaf_view().size(0)
    with pytest.raises(DimensionMismatchError, match=f"got a {kind}"):
        grid.remove_element(entity)
    assert grid.grow() is False  # the refused call queued nothing
    grid.post_grow()
    assert grid.leaf_view().size(0) == size


@pytest.mark.parametrize("thing", [3, None, "x"])
def test_remove_element_refuses_a_non_handle(chain4, thing):
    with pytest.raises(DimensionMismatchError, match=f"got a {type(thing).__name__}"):
        chain4.remove_element(thing)
    assert chain4.mark(1, chain4.leaf_view().elements()[0])  # refused in any phase but idle
    assert chain4.grow() is False  # the refused call queued nothing


def test_insertions_processed_before_removals(chain4):
    g = chain4
    # remove the last segment but extend from its far vertex in the same
    # transaction: the new element must still find that vertex
    victim = g.leaf_view().elements()[3]
    iv = g.queue_vertex(np.array([5.0, 0.0, 0.0]))
    g.queue_element(LINE, [4, iv])
    g.remove_element(victim)
    g.grow()
    g.post_grow()
    assert g.leaf_view().size(0) == 4
    assert audit_grid(g) == []


def test_growth_at_refined_tip_lands_on_tip_level(chain4):
    g = chain4
    tip = g.leaf_view().elements()[3]
    g.mark(1, tip)
    g.pre_adapt(); g.adapt(); g.post_adapt()
    view = g.leaf_view()
    # the free end vertex now lives at level 1
    end = next(v for v in view.vertices() if tuple(v.coords) == (4, 0, 0))
    ix = view.index_set
    iv = g.queue_vertex(np.array([5.0, 0.0, 0.0]))
    g.queue_element(LINE, [ix.index_of(end), iv])
    g.grow()
    report = g.growth_report
    g.post_grow()
    assert len(report.inserted) == 1
    new_id = report.inserted[0][1]
    new_el = next(el for el in g.leaf_view().elements() if el.id == new_id)
    assert new_el.level == end.level  # attaches at the copy's own level
    assert audit_grid(g) == []


def test_growth_report_lists_skipped_elements(chain4):
    g = chain4
    refine_all(g)  # all vertices now have level-1 copies
    view = g.leaf_view()
    ix = view.index_set
    v_left = next(v for v in view.vertices() if tuple(v.coords) == (0, 0, 0))
    v_right = next(v for v in view.vertices() if tuple(v.coords) == (4, 0, 0))
    g.queue_element(LINE, [ix.index_of(v_left), ix.index_of(v_right)])
    g.grow()
    report = g.growth_report
    g.post_grow()
    # both copies exist on a common level, so this insertion succeeds
    assert len(report.inserted) == 1 or len(report.skipped) == 1


def test_remove_nonleaf_rejected(chain4):
    g = chain4
    refine_all(g)
    father = g.level_view(0).elements()[0]
    with pytest.raises(FactoryError):
        g.remove_element(father)


def test_post_grow_requires_grow(chain4):
    with pytest.raises(LifecycleError):
        chain4.post_grow()


def test_removing_one_of_four_siblings_keeps_grid_consistent(two_triangles):
    g = two_triangles
    refine_all(g)
    kids = g.level_view(0).elements()[0].children()
    assert len(kids) == 4
    g.remove_element(kids[0])
    g.grow()
    g.post_grow()
    assert g.leaf_view().size(0) == 7
    assert audit_grid(g) == []
    # the surviving siblings are still coherent leaves of the same father
    father = g.level_view(0).elements()[0]
    assert len(father.children()) == 3


def test_same_vertex_used_by_two_queued_elements(chain4):
    g = chain4
    iv = g.queue_vertex(np.array([4.0, 1.0, 0.0]))
    iv2 = g.queue_vertex(np.array([4.0, -1.0, 0.0]))
    g.queue_element(LINE, [4, iv])
    g.queue_element(LINE, [4, iv2])
    g.grow()
    g.post_grow()
    assert g.leaf_view().size(0) == 6
    # vertex 4 now joins three segments
    from netmesh import intersections

    view = g.leaf_view()
    el = next(e for e in view.elements() if tuple(e.geometry.center()) == (3.5, 0.0, 0.0))
    grp = next(x for x in intersections(view, el) if not x.boundary and x.geometry.center()[0] == 4.0)
    assert grp.neighbor_count == 2
    assert audit_grid(g) == []


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["refine", "coarsen", "grow"]), st.integers(0, 2**32 - 1)),
        min_size=1,
        max_size=6,
    )
)
def test_vertex_chain_users_agree(transactions):
    """leaf_degree, the intersection groups and the leaf index set see one chain.

    Random refine, coarsen and grow transactions on a Y network; after each,
    every facet vertex of every leaf element has leaf degree one more than
    its group's neighbor count, every copy in its chain has one index, and
    the leaf view holds what a brute-force pass over the records finds.
    """
    grid = make_grid(1, 3, [(0, 0, 0), (1, 0, 0), (2, 1, 0), (2, -1, 0)], [(0, 1), (1, 2), (1, 3)])
    for kind, seed in transactions:
        rng = np.random.default_rng(seed)
        view = grid.leaf_view()
        if kind == "grow":
            ix = view.index_set
            for el in view.elements():
                if rng.uniform() < 0.3:
                    v = el.vertices()[int(rng.integers(2))]
                    fresh = grid.queue_vertex(v.coords + rng.normal(size=3))
                    grid.queue_element(LINE, [ix.index_of(v), fresh])
            grid.grow()
            grid.post_grow()
        else:
            for el in view.elements():
                if rng.uniform() < 0.5:
                    grid.mark(1 if kind == "refine" else -1, el)
            grid.pre_adapt()
            grid.adapt()
            grid.post_adapt()
        assert audit_grid(grid) == []
        assert_leaf_view_is_brute_force(grid)
        assert_intersections_agree(grid)

        view = grid.leaf_view()
        ix = view.index_set
        for el in view.elements():
            for grp in intersections(view, el):
                v = el.sub_entity(1, grp.index_in_inside)
                assert leaf_degree(grid, v) == 1 + grp.neighbor_count
                chain = grid._vertex_chain(v.level, v.slot)
                assert len({ix.index_of(grid.vertex(*copy)) for copy in chain}) == 1
