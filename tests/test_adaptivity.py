import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmesh import (
    LINE, TRIANGLE, FactoryError, GridConfig, ScenarioError, adaptivity, audit_grid, cli, intersections, read_gmsh,
    topology,
)
from netmesh.errors import DimensionMismatchError, LifecycleError, StaleEntityError
from netmesh.geometry import REFERENCE_CORNERS
from netmesh.adaptivity import local_to_root

import refine_rows
from conftest import make_grid, refine_all, same_bits, vertex_or_edge
from gridcheck import check_grid
from transactions import FAN_TRANSACTIONS, NETWORK_TRANSACTIONS, embedded_grid, play, rounds


def leaf_elements(grid):
    return grid.leaf_view().elements()


def _partly_refined(shape, rounds):
    """A four-segment chain or a four-triangle fan whose first leaves are
    refined, one round per list of flags."""
    if shape == "chain":
        grid = make_grid(1, 3, [(float(i), 0.0, 0.0) for i in range(5)], [(i, i + 1) for i in range(4)])
    else:
        square = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0.5, 0.5, 0)]
        grid = make_grid(2, 3, square, [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)])
    for flags in rounds:
        for el, flag in zip(grid.leaf_view().elements(), flags):
            if flag:
                grid.mark(1, el)
        grid.pre_adapt()
        grid.adapt()
        grid.post_adapt()
    return grid


class TestMarking:
    def test_mark_leaf_returns_true(self, chain4):
        el = leaf_elements(chain4)[0]
        assert chain4.mark(1, el) is True
        assert chain4.get_mark(el) == 1

    def test_mark_nonleaf_returns_false(self, chain4):
        refine_all(chain4)
        father = chain4.level_view(0).elements()[0]
        assert chain4.mark(1, father) is False
        assert chain4.get_mark(father) == 0

    def test_large_refcounts_clamp_to_one_round(self, chain4):
        el = leaf_elements(chain4)[0]
        chain4.mark(5, el)
        assert chain4.get_mark(el) == 1
        chain4.mark(-3, el)
        assert chain4.get_mark(el) == -1

    def test_element_of_another_grid_is_refused(self, chain4):
        other = make_grid(1, 3, [(float(i), 0.0, 0.0) for i in range(5)], [(i, i + 1) for i in range(4)])
        foreign = leaf_elements(other)[0]
        with pytest.raises(StaleEntityError, match="different grid"):
            chain4.mark(1, foreign)
        with pytest.raises(StaleEntityError, match="different grid"):
            chain4.get_mark(foreign)
        assert other.get_mark(foreign) == 0

    @pytest.mark.parametrize("kind", ["Vertex", "Edge"])
    def test_mark_refuses_a_vertex_or_edge(self, kind):
        grid, entity = vertex_or_edge(kind)
        with pytest.raises(DimensionMismatchError, match=f"got a {kind}"):
            grid.mark(1, entity)
        assert grid.pre_adapt() is False  # still idle, nothing marked

    @pytest.mark.parametrize("kind", ["Vertex", "Edge"])
    def test_get_mark_refuses_a_vertex_or_edge(self, kind):
        grid, entity = vertex_or_edge(kind)
        with pytest.raises(DimensionMismatchError, match=f"got a {kind}"):
            grid.get_mark(entity)

    @pytest.mark.parametrize("thing", [3, None, "x", (0, 1)])
    def test_mark_and_get_mark_refuse_a_non_handle(self, chain4, thing):
        with pytest.raises(DimensionMismatchError, match=f"got a {type(thing).__name__}"):
            chain4.mark(1, thing)
        with pytest.raises(DimensionMismatchError, match=f"got a {type(thing).__name__}"):
            chain4.get_mark(thing)
        assert chain4.pre_adapt() is False  # still idle, nothing marked

    @pytest.mark.parametrize(
        "count", [0.5, 1.0, float("nan"), np.float64(2.0), "1", None, True, np.bool_(False)]
    )
    def test_ref_count_must_be_an_integer(self, chain4, count):
        el = leaf_elements(chain4)[0]
        chain4.mark(-1, el)
        message = f"ref counts must be integers, got {re.escape(repr(count))}$"
        with pytest.raises(FactoryError, match=message):
            chain4.mark(count, el)
        assert chain4.get_mark(el) == -1  # a refused call stores nothing

    @pytest.mark.parametrize(
        "count, stored", [(np.int8(3), 1), (np.uint64(0), 0), (np.int64(-7), -1), (2**70, 1)]
    )
    def test_numpy_and_large_integers_are_ref_counts(self, chain4, count, stored):
        el = leaf_elements(chain4)[0]
        assert chain4.mark(count, el) is True
        assert chain4.get_mark(el) == stored

    def test_mark_leaves_marks_each_leaf_in_index_order(self, chain4):
        refine_all(chain4)
        view = chain4.leaf_view()
        chain4.mark_leaves(np.array([5, 0, -2, 1, 0, 0, -1, 3], dtype=np.int8))
        assert [chain4.get_mark(el) for el in view.elements()] == [1, 0, -1, 1, 0, 0, -1, 1]
        chain4.mark_leaves(np.zeros(8, dtype=np.uint8))  # zeros clear earlier marks
        assert not any(chain4.get_mark(el) for el in view.elements())

    @pytest.mark.parametrize(
        "counts, shown",
        [([1.0, 0, 0, 0], "float64"), ([True, False, True, False], "bool"),
         (["1", "0", "0", "0"], "<U1"), ([None, 1, 1, 1], "object")],
    )
    def test_mark_leaves_refuses_a_non_integer_dtype(self, chain4, counts, shown):
        chain4.mark(-1, leaf_elements(chain4)[0])
        with pytest.raises(FactoryError, match=f"ref counts must be integers, got {re.escape(shown)}$"):
            chain4.mark_leaves(counts)
        assert [chain4.get_mark(el) for el in leaf_elements(chain4)] == [-1, 0, 0, 0]

    @pytest.mark.parametrize("counts", [[1, 1, 1], [1] * 5, [[1, 1, 1, 1]], 1])
    def test_mark_leaves_refuses_a_count_per_leaf_of_the_wrong_shape(self, chain4, counts):
        with pytest.raises(DimensionMismatchError, match="for 4 leaf elements"):
            chain4.mark_leaves(np.array(counts))
        assert chain4.pre_adapt() is False  # still idle, nothing marked

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["chain", "surface"]), st.data())
    def test_mark_leaves_equals_the_per_element_loop(self, shape, data):
        """On grids refined up to twice, with marks set before the call,
        ``mark_leaves`` stores what ``mark`` on each leaf in index order stores."""
        rounds = data.draw(st.lists(st.lists(st.booleans(), min_size=8, max_size=8), max_size=2))
        grids = [_partly_refined(shape, rounds) for _ in range(2)]
        n = grids[0].leaf_view().size(0)
        earlier = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(-3, 3)), max_size=4))
        counts = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        for grid in grids:
            leaves = grid.leaf_view().elements()
            for i, count in earlier:
                grid.mark(count, leaves[i])
        grids[0].mark_leaves(np.array(counts))
        for count, leaf in zip(counts, grids[1].leaf_view().elements()):
            grids[1].mark(count, leaf)
        marks = [[grid.get_mark(el) for el in grid.leaf_view().elements()] for grid in grids]
        assert marks[0] == marks[1]
        assert grids[0].pre_adapt() == grids[1].pre_adapt()
        assert grids[0]._vanishing == grids[1]._vanishing

    def test_marks_cleared_after_adapt(self, chain4):
        el = leaf_elements(chain4)[0]
        chain4.mark(1, el)
        chain4.pre_adapt()
        chain4.adapt()
        chain4.post_adapt()
        for leaf in leaf_elements(chain4):
            assert chain4.get_mark(leaf) == 0


class TestLifecycle:
    def test_adapt_requires_pre_adapt(self, chain4):
        chain4.mark(1, leaf_elements(chain4)[0])
        with pytest.raises(LifecycleError):
            chain4.adapt()

    def test_post_adapt_requires_adapt(self, chain4):
        with pytest.raises(LifecycleError):
            chain4.post_adapt()

    def test_grow_queue_blocked_during_adapt(self, chain4):
        chain4.mark(1, leaf_elements(chain4)[0])
        chain4.pre_adapt()
        with pytest.raises(LifecycleError):
            chain4.queue_vertex(np.array([9.0, 0.0, 0.0]))
        chain4.adapt()
        chain4.post_adapt()

    def test_adapt_blocked_during_grow(self, chain4):
        chain4.queue_vertex(np.array([9.0, 0.0, 0.0]))
        with pytest.raises(LifecycleError):
            chain4.pre_adapt()

    # phase -> (public calls that reach it from idle, calls that close it)
    PHASES = {
        "idle": ((), ()),
        "queued": (("queue_vertex", "queue_element"), ("grow", "post_grow")),
        "preadapted": (("mark", "pre_adapt"), ("adapt", "post_adapt")),
        "adapted": (("mark", "pre_adapt", "adapt"), ("post_adapt",)),
        "grown": (("queue_vertex", "queue_element", "grow"), ("post_grow",)),
    }
    ACCEPTED = {
        "idle": {"mark", "mark_leaves", "pre_adapt", "queue_vertex", "queue_element",
                 "remove_element", "grow"},
        "queued": {"queue_vertex", "queue_element", "remove_element", "grow"},
        "preadapted": {"adapt"},
        "adapted": {"post_adapt"},
        "grown": {"post_grow"},
    }
    CALLS = ("mark", "mark_leaves", "pre_adapt", "adapt", "post_adapt", "queue_vertex",
             "queue_element", "remove_element", "grow", "post_grow")

    @staticmethod
    def _call(grid, name):
        leaf = leaf_elements(grid)[-1]
        if name == "mark":
            return grid.mark(1, leaf)
        if name == "mark_leaves":
            return grid.mark_leaves(np.ones(grid.leaf_view().size(0), dtype=np.int64))
        if name == "queue_vertex":
            return grid.queue_vertex(np.array([9.0, 0.0, 0.0]))
        if name == "queue_element":
            return grid.queue_element(LINE, [0, grid.leaf_view().size(1) - 1])
        if name == "remove_element":
            return grid.remove_element(leaf)
        return getattr(grid, name)()

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("phase", list(PHASES))
    def test_every_call_in_every_phase(self, chain4, phase, call):
        g = chain4
        opening, closing = self.PHASES[phase]
        for name in opening:
            self._call(g, name)
        if call in self.ACCEPTED[phase]:
            self._call(g, call)
            return
        with pytest.raises(LifecycleError):
            self._call(g, call)
        for name in closing:
            self._call(g, name)
        check_grid(g)
        refine_all(g)  # the grid is idle again: a whole adapt cycle runs
        check_grid(g)


def test_refined_segment_children_halve_length(chain4):
    g = chain4
    el = leaf_elements(g)[0]
    g.mark(1, el)
    g.pre_adapt()
    assert g.adapt() is True
    g.post_adapt()
    kids = g.level_view(0).elements()[0].children()
    assert len(kids) == 2
    for kid in kids:
        assert kid.geometry.volume() == pytest.approx(0.5)
    check_grid(g)


def test_red_triangle_refinement_yields_four_congruent_children(single_triangle):
    g = single_triangle
    refine_all(g)
    kids = g.level_view(0).elements()[0].children()
    assert len(kids) == 4
    areas = [k.geometry.volume() for k in kids]
    assert np.allclose(areas, 0.125)
    assert sum(areas) == pytest.approx(0.5)


def _orientation(el):
    """Tangent of a segment, normal of a triangle."""
    jt = el.geometry.jacobian_transposed()
    return jt[0] if len(jt) == 1 else np.cross(jt[0], jt[1])


@pytest.mark.parametrize(
    "dim,corners",
    [(1, [(1.0, 2.0, 0.5), (3.0, -2.0, 4.5)]), (2, [(1.0, 0.0, 0.5), (5.0, 1.0, 0.0), (2.0, 4.0, 2.0)])],
)
def test_children_sit_where_their_embeddings_say(dim, corners):
    """The red-refinement table, checked against geometry on dyadic corners
    (every point is exact): each leaf's corners are its root's map of the
    leaf's reference corners composed into the root; child i keeps its
    father's corner i as its own corner i; every child keeps its father's
    orientation."""
    grid = refine_all(make_grid(dim, 3, corners, [tuple(range(dim + 1))]), 2)
    for el in grid.leaf_view().elements():
        root = el.root_element().geometry
        for v, ref in zip(el.vertices(), REFERENCE_CORNERS[dim]):
            assert same_bits(v.coords, root.to_global(local_to_root(grid, el.level, el.slot, ref)))
    for level in range(grid.max_level):
        for father in grid.level_view(level).elements():
            kids = father.children()
            assert len(kids) == 2 ** dim
            for i, corner in enumerate(father.vertices()):
                assert same_bits(kids[i].vertices()[i].coords, corner.coords)
            assert all(_orientation(kid) @ _orientation(father) > 0 for kid in kids)


def test_shared_edge_split_once(two_triangles):
    refine_all(two_triangles)
    view = two_triangles.leaf_view()
    # 2 triangles -> 8 children; the 5 macro edges split into 10 halves,
    # plus 3 interior edges per triangle
    assert view.size(0) == 8
    assert view.size(1) == 16
    assert view.size(2) == 9  # 4 corners + 5 edge midpoints (diagonal shared)


def _edge_ids(el):
    """Edge id of a triangle by the ids of its two corners."""
    edges = [el.sub_entity(1, k) for k in range(3)]
    return {frozenset(v.id for v in e.vertices()): e.id for e in edges}


def test_triangles_over_the_same_corners_share_their_interior_edges():
    """The second triangle lists the corners in another order, so it finds
    its halves on the other side of each father edge, and the edges between
    midpoints that the first triangle made."""
    grid = make_grid(2, 3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2), (2, 0, 1)])
    refine_all(grid)
    check_grid(grid)
    view = grid.leaf_view()
    assert view.size(1) == 9  # 6 halves + 3 interior edges, not 12
    first, second = (father.children() for father in grid.level_view(0).elements())
    for a, b in zip(first, [second[1], second[2], second[0], second[3]]):  # same corners
        assert _edge_ids(a) == _edge_ids(b)
    interior = [kids[3] for kids in (first, second)]
    groups = intersections(view, interior[0])
    assert len(groups) == 3
    for grp in groups:
        assert interior[1] in [grp.outside(k) for k in range(grp.neighbor_count)]


def test_a_grown_triangle_shares_a_half_edge_with_a_child(two_triangles):
    """The second triangle's unshared edges split in the pass that made the
    first triangle's children; a triangle grown over one of those halves
    finds it among the level's edges."""
    grid = refine_all(two_triangles)
    view = grid.leaf_view()
    ix = {tuple(v.coords): ix for ix, v in enumerate(view.vertices())}
    fresh = grid.queue_vertex(np.array([0.25, 1.5, 0.0]))
    grid.queue_element(TRIANGLE, [ix[0.5, 1.0, 0.0], ix[0.0, 1.0, 0.0], fresh])
    grid.grow()
    [(_, grown_id)] = grid.growth_report.inserted
    grid.post_grow()
    check_grid(grid)
    leaves = grid.leaf_view().elements()
    grown = next(el for el in leaves if el.id == grown_id)
    pair = frozenset(v.id for v in grown.vertices()[:2])
    child = next(el for el in leaves if el.id != grown_id and pair in _edge_ids(el))
    assert child.level == grown.level == 1
    assert _edge_ids(grown)[pair] == _edge_ids(child)[pair]


def test_is_new_flags_during_adapt_cycle(chain4):
    g = chain4
    g.mark(1, leaf_elements(g)[0])
    g.pre_adapt()
    g.adapt()
    fresh = [el for el in leaf_elements(g) if el.is_new]
    assert len(fresh) == 2
    g.post_adapt()
    assert all(not el.is_new for el in leaf_elements(g))


def test_might_vanish_requires_unanimous_siblings(chain4):
    g = chain4
    refine_all(g)
    kids = g.level_view(0).elements()[0].children()
    g.mark(-1, kids[0])  # only one of two siblings
    assert g.pre_adapt() is False  # nothing may vanish without unanimity
    assert not kids[0].might_vanish
    g.adapt()
    g.post_adapt()
    assert g.leaf_view().size(0) == 8  # nothing coarsened

    kids = g.level_view(0).elements()[0].children()
    g.mark(-1, kids[0])
    g.mark(-1, kids[1])
    g.pre_adapt()
    assert kids[0].might_vanish and kids[1].might_vanish
    g.adapt()
    g.post_adapt()
    assert g.leaf_view().size(0) == 7
    check_grid(g)


def test_coarsen_macro_elements_is_a_no_op(chain4):
    g = chain4
    for el in leaf_elements(g):
        g.mark(-1, el)
    g.pre_adapt()
    # macro elements have no father; nothing can vanish
    assert all(not el.might_vanish for el in leaf_elements(g))
    g.adapt()
    g.post_adapt()
    assert g.leaf_view().size(0) == 4


def test_hanging_nodes_of_depth_two(two_triangles):
    g = two_triangles
    el = g.leaf_view().elements()[0]
    g.mark(1, el)
    g.pre_adapt(); g.adapt(); g.post_adapt()
    # refine one child again: neighbor keeps level 0, depth-2 hanging nodes
    child = next(el for el in g.leaf_view().elements() if el.level == 1)
    g.mark(1, child)
    g.pre_adapt(); g.adapt(); g.post_adapt()
    levels = sorted({el.level for el in g.leaf_view().elements()})
    assert levels == [0, 1, 2]
    check_grid(g)


def test_coarsening_then_refining_same_transaction(chain4):
    g = chain4
    refine_all(g)
    els = leaf_elements(g)
    # coarsen the first father's pair, refine another leaf
    first_kids = g.level_view(0).elements()[0].children()
    g.mark(-1, first_kids[0])
    g.mark(-1, first_kids[1])
    other = next(e for e in els if e.father() != first_kids[0].father())
    g.mark(1, other)
    g.pre_adapt()
    g.adapt()
    g.post_adapt()
    check_grid(g)
    # 8 - 2 + 1 (pair -> father) + 1 (split adds one leaf)
    assert g.leaf_view().size(0) == 8


def test_adapt_returns_false_without_refinement(chain4):
    g = chain4
    refine_all(g)
    kids = g.level_view(0).elements()[0].children()
    g.mark(-1, kids[0])
    g.mark(-1, kids[1])
    g.pre_adapt()
    assert g.adapt() is False  # pure coarsening
    g.post_adapt()


# -- a refused midpoint image refines nothing --------------------------------


def _chain_with_curved_first_segment(bad_at):
    """Two unit segments along x; the first has ``phi(t) = (t, 0, 0)`` except
    ``(t, nan, 0)`` at the parameters in ``bad_at``."""
    def phi(local):
        t = float(np.asarray(local).reshape(-1)[0])
        return np.array([t, np.nan if t in bad_at else 0.0, 0.0])

    return make_grid(1, 3, [(0, 0, 0), (1, 0, 0), (2, 0, 0)], [(0, 1), (1, 2)], [phi, None])


def test_refused_image_refines_nothing():
    grid = _chain_with_curved_first_segment({0.5})
    before = grid.leaf_view()
    ids, coordinates = before.ids(0).tolist(), before.coordinates().copy()
    for el in before.elements():
        grid.mark(1, el)
    grid.pre_adapt()
    with pytest.raises(FactoryError, match=r"finite, got \[0.5, nan, 0.0\]"):
        grid.adapt()
    assert audit_grid(grid) == []
    with pytest.raises(StaleEntityError):
        before.ids(0)
    grid.post_adapt()
    after = grid.leaf_view()
    assert grid.max_level == 0
    assert after.ids(0).tolist() == ids
    assert same_bits(after.coordinates(), coordinates)
    assert not any(grid.get_mark(el) for el in after.elements())
    check_grid(grid)


def test_refused_image_after_coarsening_leaves_no_stale_view():
    """Coarsening ran and compacted the arenas before the refused image: the
    leaf view made before the call is refused and a new one is built."""
    grid = refine_all(_chain_with_curved_first_segment({0.25}))
    before = grid.leaf_view()
    curved, straight = grid.level_view(0).elements()
    grid.mark(1, curved.children()[0])  # its midpoint is t = 0.25
    for kid in straight.children():
        grid.mark(-1, kid)
    assert grid.pre_adapt() is True
    with pytest.raises(FactoryError):
        grid.adapt()
    assert audit_grid(grid) == []
    with pytest.raises(StaleEntityError):
        before.places(0)
    grid.post_adapt()
    after = grid.leaf_view()
    assert after is not before
    assert [(el.level, el.slot) for el in after.elements()] == [(0, 1), (1, 0), (1, 1)]
    check_grid(grid)


def test_shared_edge_takes_its_image_from_the_first_tree():
    """Two trees share the diagonal; the second one's phi is NaN at its
    midpoint.  The first tree in (level, slot) order places that midpoint,
    so the second phi is never asked for it and refinement succeeds, with
    no image evaluated twice."""
    calls = []

    def phi(local):
        x, y = np.asarray(local, dtype=float)
        calls.append((x, y))
        # corners (0,0,0), (1,1,0), (0,1,0): local edge 0 is the shared diagonal
        return np.array([x, x + y, np.nan if (x, y) == (0.5, 0.0) else 0.0])

    grid = make_grid(
        2, 3, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], [(0, 1, 2), (0, 2, 3)], [None, phi]
    )
    calls.clear()
    refine_all(grid)
    assert sorted(calls) == [(0.0, 0.5), (0.5, 0.5)]
    check_grid(grid)
    coords = {tuple(v.coords) for v in grid.leaf_view().vertices()}
    assert (0.5, 0.5, 0.0) in coords and len(coords) == 9


# -- the leaf bound ------------------------------------------------------------

def _marked_after(shape, transactions, seed):
    """The fan or the Y network after ``transactions``, its leaves marked
    -1 (three in five), 0 or 1 from ``seed``."""
    grid = embedded_grid(shape, 3)
    for transaction in transactions:
        play(grid, *transaction)
    grid.mark_leaves(np.random.default_rng(seed).choice([-1, -1, -1, 0, 1], size=grid.leaf_view().size(0)))
    return grid


@pytest.mark.parametrize("shape,names", [("fan", FAN_TRANSACTIONS), ("y", NETWORK_TRANSACTIONS)])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_the_adapt_bound_admits_exactly_its_count(shape, names, data):
    """``pre_adapt`` counts the leaves the adapt leaves, refined leaves and
    vanishing sibling groups included: a bound one below refuses with
    nothing changed, so the same marks pass the bound itself."""
    transactions = data.draw(rounds(names, min_size=0, max_size=4))
    seed = data.draw(st.integers(0, 2**32 - 1))
    free = _marked_after(shape, transactions, seed)
    free.pre_adapt()
    free.adapt()
    free.post_adapt()
    count = free.leaf_view().size(0)

    grid = _marked_after(shape, transactions, seed)
    leaves = grid.leaf_view().elements()
    marks = [grid.get_mark(el) for el in leaves]
    with mock.patch.object(topology, "MAX_ELEMENTS", count - 1):
        with pytest.raises(ScenarioError, match=f"^adapt would leave {count} leaf elements, "
                                                f"more than the bound of {count - 1}$"):
            grid.pre_adapt()
    assert [grid.get_mark(el) for el in leaves] == marks
    assert not any(el.might_vanish for el in leaves)
    with mock.patch.object(topology, "MAX_ELEMENTS", count):
        grid.pre_adapt()  # the phase is still idle
    grid.adapt()
    grid.post_adapt()
    assert grid.leaf_view().size(0) == count
    check_grid(grid)


# -- the array pass against the per-leaf loop ---------------------------------

ROOT = Path(__file__).resolve().parents[1]


def _by_leaves(transaction, *args):
    """``transaction(*args)`` with every adapt refining through the per-leaf loop."""
    with mock.patch.object(adaptivity, "adapt", refine_rows.adapt_by_leaves):
        return transaction(*args)


def _same_refinement(make, *rounds):
    """Two grids from ``make()``; each round (a function of the grid) runs on
    both, through the array pass and through the per-leaf loop, and leaves
    the same records.  Returns the grid of the array pass."""
    grid, ref = make(), make()
    for run in rounds:
        run(grid)
        _by_leaves(run, ref)
        assert refine_rows.records(grid) == refine_rows.records(ref)
        assert audit_grid(grid) == []
    return grid


def _refine(*flags, level=None):
    """A round marking the leaves (of ``level``, or all) whose flag is set, then adapting."""
    def run(grid):
        leaves = [el for el in grid.leaf_view().elements() if level is None or el.level == level]
        for el, flag in zip(leaves, flags or [1] * len(leaves)):
            if flag:
                grid.mark(1, el)
        grid.pre_adapt()
        grid.adapt()
        grid.post_adapt()
    return run


@pytest.mark.parametrize("shape,names", [("fan", FAN_TRANSACTIONS), ("y", NETWORK_TRANSACTIONS)])
@pytest.mark.parametrize("world_dim", [1, 2, 3, 4])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_the_array_pass_equals_the_per_leaf_loop(shape, names, world_dim, data):
    """After every transaction, the grid refined level by level in array passes
    holds the records of the grid refined leaf by leaf: ids, slots, corners,
    edges, fathers, children, finer copies, coordinate and embedding bits."""
    transactions = data.draw(rounds(names, min_size=1, max_size=6))
    dim = 2 if shape == "fan" else 1
    _same_refinement(lambda: embedded_grid(shape, max(world_dim, dim)),
                     *(lambda grid, t=t: play(grid, *t) for t in transactions))


def test_an_edge_split_earlier_in_the_same_pass():
    """The diagonal of the square is split by the first triangle; the second
    takes its midpoint and halves, and makes no copy of the shared corners."""
    grid = _same_refinement(lambda: make_grid(2, 3, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
                                              [(0, 1, 2), (0, 2, 3)]), _refine())
    assert grid.leaf_view().size(2) == 9


def _refine_one_per_level(grid):
    """Mark the first leaf of each level in the leaf view, then adapt."""
    levels = set()
    for el in grid.leaf_view().elements():
        if el.level not in levels:
            levels.add(el.level)
            grid.mark(1, el)
    grid.pre_adapt()
    grid.adapt()
    grid.post_adapt()


@pytest.mark.parametrize("shape", ["chain", "fan"])
def test_two_levels_refined_in_one_adapt(shape):
    """Leaves of two levels, then of three, marked together refine in one
    adapt, coarsest level first."""
    grid = _same_refinement(lambda: _partly_refined(shape, []), *[_refine_one_per_level] * 3)
    assert grid.max_level == 3


def test_triangles_over_the_same_corners_in_one_pass_and_in_two():
    """Refined together, the second triangle shares the edges between
    midpoints that the first made in the same pass; refined one adapt after
    the other, it finds them among the level's edges."""
    def make():
        return make_grid(2, 3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2), (2, 0, 1)])

    together = _same_refinement(make, _refine())
    apart = _same_refinement(make, _refine(1, 0), _refine(1, level=0))
    assert together.leaf_view().size(1) == apart.leaf_view().size(1) == 9


def _midpoints_joined_by_a_grown_triangle(remove):
    """A centre triangle whose three neighbours are refined, so its edge
    midpoints exist on level 1; a triangle grown there joins two of them.
    With ``remove``, the grow also removes a leaf, and its compaction remaps
    the slots of every level that loses one."""
    def make():
        corners = [(0, 0, 0), (2, 0, 0), (1, 2, 0), (1, -2, 0), (3, 2, 0), (-1, 2, 0)]
        return make_grid(2, 3, corners, [(0, 1, 2), (0, 1, 3), (1, 2, 4), (2, 0, 5)])

    def grow(grid):
        view = grid.leaf_view()
        index = {tuple(v.coords): i for i, v in enumerate(view.vertices())}
        fresh = grid.queue_vertex(np.array([1.0, 0.5, 1.0]))
        grid.queue_element(TRIANGLE, [index[1.0, 0.0, 0.0], index[1.5, 1.0, 0.0], fresh])
        if remove:
            grid.remove_element(next(el for el in view.elements() if el.level == 1))
        grid.grow()
        grid.post_grow()

    return _same_refinement(make, _refine(0, 1, 1, 1), grow, _refine(1, level=0))


@pytest.mark.parametrize("remove", [False, True], ids=["slots-kept", "slots-compacted"])
def test_an_edge_between_midpoints_that_a_grown_triangle_made(remove):
    """Refining the centre reuses the grown triangle's edge between two of its
    midpoints, which a scan of the level finds."""
    grid = _midpoints_joined_by_a_grown_triangle(remove)
    check_grid(grid)
    centre = grid.level_view(0).elements()[0]
    grown = next(el for el in grid.leaf_view().elements() if el.father() is None and el.level == 1)
    shared = {e.id for kid in centre.children() for e in (kid.sub_entity(1, k) for k in range(3))}
    assert len(shared & {grown.sub_entity(1, k).id for k in range(3)}) == 1


@pytest.mark.parametrize("name,dim", [("quadratic_line.msh", 1), ("quadratic_surface.msh", 2)])
def test_parametrized_meshes_refine_as_by_the_loop(name, dim):
    """The images of curved trees: every round's midpoints carry the loop's bits."""
    _same_refinement(lambda: read_gmsh(ROOT / "tests" / "data" / name, GridConfig(dim, 3)),
                     _refine(), _refine(1, 0, 1), _refine())


def test_the_wavelet_square_refines_as_by_the_loop():
    """Every macro triangle of the square has a chart of its own on the wavelet surface."""
    _same_refinement(lambda: cli._wavelet_grid(read_gmsh(ROOT / "meshes" / "square.msh", GridConfig(2, 3))),
                     _refine(), _refine(1, 0, 0, 1, 1), _refine())
