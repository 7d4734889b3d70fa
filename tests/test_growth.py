from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmesh import LINE, TRIANGLE, intersections, topology
from netmesh.errors import DimensionMismatchError, FactoryError, LifecycleError, ScenarioError, StaleEntityError

from conftest import make_grid, refine_all, vertex_or_edge
from gridcheck import check_grid
from growth_rows import grow_by_rows, records
from transactions import FAN_TRANSACTIONS, NETWORK_TRANSACTIONS, embedded_grid, network_round, play, rounds


def assert_staged_nothing(grid):
    """After refused queue calls on a grid with nothing queued before them:
    the next provisional index is the first one, and grow changes nothing."""
    assert grid.queue_vertex(np.zeros(grid.world_dim)) == grid.leaf_view().size(grid.dim)
    assert grid.grow() is False
    grid.post_grow()


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
    check_grid(g)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_queued_vertex_must_be_finite(chain4, bad):
    with pytest.raises(FactoryError, match="finite"):
        chain4.queue_vertex(np.array([5.0, bad, 0.0]))
    assert_staged_nothing(chain4)


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
    check_grid(g)


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
    check_grid(g)


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
    check_grid(g)


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
    check_grid(g)
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
    check_grid(g)


@settings(max_examples=30, deadline=None)
@given(rounds(["refine", "coarsen", "grow"]))
def test_vertex_chain_users_agree(transactions):
    """leaf_degree, the intersection groups and the leaf index set see one
    chain (``check_grid``) after random transactions on a Y network."""
    grid = make_grid(1, 3, [(0, 0, 0), (1, 0, 0), (2, 1, 0), (2, -1, 0)], [(0, 1), (1, 2), (1, 3)])
    for transaction, seed in transactions:
        network_round(grid, transaction, seed)
        check_grid(grid)


def test_refused_queue_call_keeps_no_view_across_an_adapt(chain4):
    """A refused first queue call stages nothing, not even the leaf view its
    indices would address: after an adapt they address the new one."""
    with pytest.raises(FactoryError, match="unknown vertex index 99"):
        chain4.queue_element(LINE, [0, 99])
    refine_all(chain4)
    view = chain4.leaf_view()
    tip = next(v for v in view.vertices() if tuple(v.coords) == (4.0, 0.0, 0.0))
    fresh = chain4.queue_vertex(np.array([5.0, 0.0, 0.0]))
    assert fresh == view.size(1) == 9
    chain4.queue_element(LINE, [view.index_set.index_of(tip), fresh])
    assert chain4.grow() is True
    chain4.post_grow()
    grown = chain4.leaf_view().elements()[-1]
    assert [tuple(v.coords) for v in grown.vertices()] == [(4.0, 0.0, 0.0), (5.0, 0.0, 0.0)]
    check_grid(chain4)


@pytest.mark.parametrize("shape,names", [("fan", FAN_TRANSACTIONS), ("y", NETWORK_TRANSACTIONS)])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_the_grow_bound_admits_exactly_its_count(shape, names, data):
    """``queue_elements`` counts the pre-grow leaves, less the queued removals,
    plus the rows staged before it and its own: a bound one below refuses the
    call with the queue, the phase and the grid unchanged, the count itself
    is admitted, and a queued removal lowers the count by one unless it
    takes its father's last child."""
    grid = embedded_grid(shape, 3)
    for transaction, seed in data.draw(rounds(names, min_size=0, max_size=3)):
        play(grid, transaction, seed)
    view = grid.leaf_view()
    kind, corners, count = LINE if grid.dim == 1 else TRIANGLE, view.corner_indices(), view.size(0) + 3

    def over(bound, rows):
        """``queue_elements(rows)`` under ``bound``, refused as leaving ``bound + 1`` leaves."""
        staged, before, phase = list(getattr(grid._queue, "_elements", [])), records(grid), grid._phase
        with mock.patch.object(topology, "MAX_ELEMENTS", bound):
            with pytest.raises(ScenarioError, match=f"^grow would leave {bound + 1} leaf elements, "
                                                    f"more than the bound of {bound}$"):
                grid.queue_elements(kind, rows)
        assert list(getattr(grid._queue, "_elements", [])) == staged
        assert (records(grid), grid._phase) == (before, phase)

    over(view.size(0), corners[:1])  # a refused first call keeps the phase idle
    assert grid._queue is None
    fresh = grid.queue_vertices(5.0 + np.arange(12.0).reshape(4, 3))
    rows = np.column_stack((np.repeat(corners[:1, 1:], 4, axis=0), fresh))
    grid.queue_elements(kind, rows[:1])
    over(count - 1, rows[1:3])
    with mock.patch.object(topology, "MAX_ELEMENTS", count):
        assert grid.queue_elements(kind, rows[1:3]).tolist() == [1, 2]
        over(count, rows[3:])
        last = view.elements()[-1]
        grid.remove_element(last)
        if last.father() is not None and len(last.father().children()) == 1:
            over(count, rows[3:])  # its father is a leaf again: the count stays
        else:
            assert grid.queue_elements(kind, rows[3:]).tolist() == [3]
    assert grid.grow() is True
    grid.post_grow()
    assert grid.leaf_view().size(0) == count
    check_grid(grid)


def test_a_father_whose_children_are_all_removed_counts_as_a_leaf(chain4):
    """Refined once, chain4 has 8 leaves; removing both children of one
    father leaves that father a leaf again, so two more rows leave
    8 - 2 + 1 + 2 = 9 leaves: refused under a bound of 8, and grown to
    exactly 9 under a bound of 9."""
    view = refine_all(chain4).leaf_view()
    for child in view.elements()[0].father().children():
        chain4.remove_element(child)
    fresh = chain4.queue_vertices([[5.0, 1.0, 0.0], [6.0, 1.0, 0.0]])
    rows = [[view.corner_indices()[-1, 1], fresh[0]], fresh]
    with mock.patch.object(topology, "MAX_ELEMENTS", 8):
        with pytest.raises(ScenarioError, match="^grow would leave 9 leaf elements, more than the bound of 8$"):
            chain4.queue_elements(LINE, rows)
    assert chain4._queue._elements == []
    with mock.patch.object(topology, "MAX_ELEMENTS", 9):
        assert chain4.queue_elements(LINE, rows).tolist() == [0, 1]
    assert chain4.grow() is True
    chain4.post_grow()
    assert chain4.leaf_view().size(0) == 9
    check_grid(chain4)


class TestBatchQueue:
    """``queue_vertices`` and ``queue_elements`` take whole arrays and refuse a
    batch as a whole: a refused batch stages none of its rows."""

    def test_batches_continue_the_index_ranges(self, chain4):
        first = chain4.queue_vertices(np.array([[5.0, 0.0, 0.0], [6.0, 0.0, 0.0]]))
        assert first.tolist() == [5, 6]
        assert chain4.queue_vertex(np.array([7.0, 0.0, 0.0])) == 7
        assert chain4.queue_elements(LINE, [[4, 5], [5, 6]]).tolist() == [0, 1]
        assert chain4.queue_element(LINE, np.array([6, 7], dtype=np.uint8)) == 2
        assert chain4.grow() is True
        report = chain4.growth_report
        assert [q for q, _ in report.inserted] == [0, 1, 2] and report.skipped == []
        chain4.post_grow()
        assert chain4.leaf_view().size(0) == 7
        check_grid(chain4)

    def test_batch_arrays_are_copied(self, chain4):
        coords = np.array([[5.0, 0.0, 0.0]])
        rows = np.array([[4, 5]])
        chain4.queue_vertices(coords)
        chain4.queue_elements(LINE, rows)
        coords[0, 0], rows[0, 0] = 99.0, 0
        chain4.grow()
        chain4.post_grow()
        grown = chain4.leaf_view().elements()[-1]
        assert [tuple(v.coords) for v in grown.vertices()] == [(4.0, 0.0, 0.0), (5.0, 0.0, 0.0)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row(self, chain4, bad):
        with pytest.raises(FactoryError, match=r"finite, got \[6.0, (nan|inf|-inf), 0.0\]"):
            chain4.queue_vertices(np.array([[5.0, 0.0, 0.0], [6.0, bad, 0.0]]))
        assert_staged_nothing(chain4)

    @pytest.mark.parametrize("coords", [np.zeros((2, 2)), np.zeros((2, 4)), np.zeros(3), np.zeros((1, 1, 3))])
    def test_coordinates_of_the_wrong_width(self, chain4, coords):
        with pytest.raises(DimensionMismatchError, match=r"expected 3 coordinates, got shape"):
            chain4.queue_vertices(coords)
        assert_staged_nothing(chain4)

    def test_rows_of_the_wrong_width(self, chain4):
        with pytest.raises(FactoryError, match="need 2 vertex indices, got 3"):
            chain4.queue_elements(LINE, [[0, 1, 2], [2, 3, 4]])
        with pytest.raises(FactoryError, match=r"need rows of 2 vertex indices, got shape \(2,\)"):
            chain4.queue_elements(LINE, [0, 1])
        assert_staged_nothing(chain4)

    def test_index_out_of_range(self, chain4):
        fresh = chain4.queue_vertices(np.zeros((1, 3)))
        with pytest.raises(FactoryError, match="unknown vertex index 6"):
            chain4.queue_elements(LINE, [[4, 5], [5, 6]])
        with pytest.raises(FactoryError, match="unknown vertex index -1"):
            chain4.queue_elements(LINE, [[4, 5], [-1, 0]])
        assert fresh.tolist() == [5]
        assert chain4.queue_vertex(np.zeros(3)) == 6  # the refused rows staged nothing
        assert chain4.grow() is False
        chain4.post_grow()

    def test_repeated_index_within_a_row(self, chain4):
        with pytest.raises(FactoryError, match=r"repeated vertex index in \(2, 2\)"):
            chain4.queue_elements(LINE, [[0, 1], [2, 2], [3, 99]])
        assert_staged_nothing(chain4)

    def test_first_bad_row_is_named(self, chain4):
        with pytest.raises(FactoryError, match="unknown vertex index 99"):
            chain4.queue_elements(LINE, [[0, 1], [3, 99], [2, 2]])
        assert_staged_nothing(chain4)

    def test_wrong_kind(self, chain4):
        with pytest.raises(FactoryError, match="does not match grid dimension 1"):
            chain4.queue_elements(TRIANGLE, [[0, 1, 2]])
        assert_staged_nothing(chain4)

    @pytest.mark.parametrize("rows", [np.array([[0.0, 1.0]]), np.array([[True, False]]), [[0, 1.5]]])
    def test_non_integer_indices(self, chain4, rows):
        with pytest.raises(FactoryError, match="vertex indices must be integers"):
            chain4.queue_elements(LINE, rows)
        assert_staged_nothing(chain4)

    def test_non_callable_parametrization(self, chain4):
        with pytest.raises(FactoryError, match="parametrization must be callable"):
            chain4.queue_elements(LINE, [[0, 1]], parametrization="curved")
        assert_staged_nothing(chain4)

    @pytest.mark.parametrize("sequence", [list, tuple, np.array])
    def test_one_call_stages_as_the_per_row_calls(self, sequence):
        """As ``insert_elements``, ``queue_elements`` takes a parametrization
        per row: one call commits the records, ids and report of one call per row."""
        grids = [make_grid(1, 3, [(float(i), 0.0, 0.0) for i in range(5)], [(i, i + 1) for i in range(4)])
                 for _ in range(2)]
        rows, parametrizations = [[4, 5], [5, 6], [0, 6]], [None, _chart, None]
        for grid in grids:
            grid.queue_vertices(np.array([[5.0, 0.0, 0.0], [6.0, 0.0, 0.0]]))
        per_row = [grids[0].queue_element(LINE, row, p) for row, p in zip(rows, parametrizations)]
        staged = grids[1].queue_elements(LINE, rows, sequence(parametrizations))
        assert staged.tolist() == per_row == [0, 1, 2]
        assert (grids[0].grow(), grids[1].grow()) == (True, True)
        assert records(grids[0]) == records(grids[1])
        assert grids[0].growth_report == grids[1].growth_report
        assert [rec.parametrization for rec in grids[1]._elems[0][4:]] == parametrizations
        for grid in grids:
            grid.post_grow()
            check_grid(grid)

    @pytest.mark.parametrize("entries", [2, 4])
    def test_a_parametrization_sequence_of_the_wrong_length_is_refused(self, chain4, entries):
        rows = [[0, 1], [1, 2], [2, 3]]
        with pytest.raises(FactoryError, match=f"^parametrization has {entries} entries for 3 rows$"):
            chain4.queue_elements(LINE, rows, [None] * entries)
        assert (chain4._phase, chain4._queue) == ("idle", None)
        assert chain4.queue_vertex(np.zeros(3)) == 5
        with pytest.raises(FactoryError, match=f"^parametrization has {entries} entries for 3 rows$"):
            chain4.queue_elements(LINE, rows, (_chart,) * entries)
        assert chain4._phase == "queued"
        assert chain4.queue_element(LINE, [4, 5]) == 0  # the refused rows staged nothing

    def test_empty_batch_is_accepted_and_stages_nothing(self, chain4):
        """Zero rows of the right width queue nothing; they still need an open
        queue phase, and ``[]`` (rows of no width) is refused as the wrong width."""
        assert chain4.queue_vertices(np.empty((0, 3))).tolist() == []
        assert chain4.queue_elements(LINE, np.empty((0, 2), dtype=np.int64)).tolist() == []
        assert_staged_nothing(chain4)
        with pytest.raises(DimensionMismatchError):
            chain4.queue_vertices([])
        with pytest.raises(FactoryError, match="need rows of 2"):
            chain4.queue_elements(LINE, [])
        refine_all(chain4)
        chain4.mark(1, chain4.leaf_view().elements()[0])
        chain4.pre_adapt()
        with pytest.raises(LifecycleError, match="queue_vertices called during phase 'preadapted'"):
            chain4.queue_vertices(np.empty((0, 3)))
        chain4.adapt()
        chain4.post_adapt()


def _mixed_level_grid(shape, marks):
    """A chain of four segments or a fan of four triangles, with the level-0
    leaves flagged in ``marks`` refined once and then, of their children,
    those flagged again refined a second time: vertices on up to three levels."""
    if shape == "chain":
        grid = make_grid(1, 3, [(float(i), 0.0, 0.0) for i in range(5)], [(i, i + 1) for i in range(4)])
    else:
        square = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0), (0.5, 0.5, 0.0)]
        grid = make_grid(2, 3, square, [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)])
    for level, flags in enumerate(marks):
        leaves = [el for el in grid.leaf_view().elements() if el.level == level]
        for el, flag in zip(leaves, flags):
            if flag:
                grid.mark(1, el)
        grid.pre_adapt()
        grid.adapt()
        grid.post_adapt()
    return grid


def _chart(local):
    return np.zeros(3)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["chain", "surface"]), st.data())
def test_one_pass_grow_equals_per_row_loop(shape, data):
    """On grids with leaf vertices on several levels, ``grow`` commits random
    queues record for record as the per-row loop of ``tests/growth_rows.py``:
    shared provisional vertices (made at their first user's level, also when
    an earlier user was skipped), rows that reach no common level, rows that
    resolve to coarser copies, two queue calls per kind, and removals."""
    flags = st.lists(st.booleans(), min_size=8, max_size=8)
    marks = [data.draw(flags), data.draw(flags)]
    grids = [_mixed_level_grid(shape, marks), _mixed_level_grid(shape, marks)]
    view = grids[0].leaf_view()
    n_leaf, width = view.size(grids[0].dim), grids[0].dim + 1
    n_fresh = data.draw(st.integers(0, 3))
    some = st.integers(0, n_leaf + n_fresh - 1)
    rows = data.draw(st.lists(st.lists(some, min_size=width, max_size=width, unique=True), max_size=10))
    split = data.draw(st.integers(0, len(rows)))
    removals = data.draw(st.lists(st.integers(0, view.size(0) - 1), unique=True, max_size=3))
    coords = np.arange(3.0 * n_fresh).reshape(n_fresh, 3) + 0.1
    kind = LINE if width == 2 else TRIANGLE
    for grid in grids:
        leaves = grid.leaf_view().elements()
        grid.queue_vertices(coords[:1])
        grid.queue_vertices(coords[1:])
        grid.queue_elements(kind, np.array(rows[:split], dtype=np.int64).reshape(-1, width))
        grid.queue_elements(kind, np.array(rows[split:], dtype=np.int64).reshape(-1, width), _chart)
        for k in removals:
            grid.remove_element(leaves[k])
    changed = grids[0].grow(), grow_by_rows(grids[1])
    assert changed[0] == changed[1]
    assert records(grids[0]) == records(grids[1])
    reports = [grid.growth_report for grid in grids]
    assert reports[0].inserted == reports[1].inserted
    assert reports[0].skipped == reports[1].skipped
    assert reports[0].removed == reports[1].removed
    for grid in grids:
        grid.post_grow()
    check_grid(grids[0])  # the per-row grid holds the same records


def test_rows_that_coincide_after_resolution_are_skipped_as_by_the_loop():
    """No public queue reaches this skip: distinct leaf indices are distinct
    ids, whose copy chains are disjoint.  Pointing two indices at one copy in
    the staged pre-grow places reaches it in both commits alike."""
    grids = [_mixed_level_grid("chain", [[True] * 4, []]) for _ in range(2)]
    for grid in grids:
        fresh = grid.queue_vertices(np.array([[9.0, 0.0, 0.0]]))
        grid.queue_elements(LINE, [[0, 1], [2, int(fresh[0])], [1, 3]])
        places = list(grid._queue.places)
        places[1] = places[0]
        grid._queue.places = tuple(places)
    grids[0].grow()
    grow_by_rows(grids[1])
    assert records(grids[0]) == records(grids[1])
    report = grids[0].growth_report
    assert report.skipped == [(0, "vertices coincide after level resolution")]
    assert report.skipped == grids[1].growth_report.skipped
    assert report.inserted == grids[1].growth_report.inserted
    assert [q for q, _ in report.inserted] == [1, 2]


def _chain(refinements=0):
    """chain4 (four unit segments along the x axis), refined everywhere ``refinements`` times."""
    grid = make_grid(1, 3, [(float(i), 0.0, 0.0) for i in range(5)], [(i, i + 1) for i in range(4)])
    return refine_all(grid, refinements)


def _grow_both(make, rows, fresh=(), kind=LINE):
    """``grow`` on one grid that ``make`` builds and the per-row loop of
    ``tests/growth_rows.py`` on another, after queueing the coordinates
    ``fresh`` and the ``rows``: both commit the same records and report.
    Returns the ``grow`` grid and its report."""
    grids = [make(), make()]
    for grid in grids:
        if len(fresh):
            grid.queue_vertices(np.asarray(fresh, dtype=float))
        grid.queue_elements(kind, np.asarray(rows, dtype=np.int64))
    assert grids[0].grow() == grow_by_rows(grids[1])
    assert records(grids[0]) == records(grids[1])
    reports = [grid.growth_report for grid in grids]
    assert (reports[0].inserted, reports[0].skipped, reports[0].removed) == \
        (reports[1].inserted, reports[1].skipped, reports[1].removed)
    for grid in grids:
        grid.post_grow()
    check_grid(grids[0])
    return grids[0], reports[0]


def _at(grid, x):
    """Leaf-view index of the vertex at (x, 0, 0)."""
    view = grid.leaf_view()
    return next(i for i, v in enumerate(view.vertices()) if tuple(v.coords) == (x, 0.0, 0.0))


def _levels_of(grid, report):
    """Level of each inserted element, in queue order."""
    levels = {el.id: el.level for el in grid.leaf_view().elements()}
    return [levels[i] for _, i in report.inserted]


def test_rows_of_provisional_vertices_around_their_users_on_level_0():
    """Unrefined (L = 0): rows of provisional vertices only come before and
    after the rows that use them; each row draws its made vertices' ids, then
    its element's."""
    fresh = [(5.0, 1.0, 0.0), (6.0, 1.0, 0.0), (7.0, 1.0, 0.0), (8.0, 1.0, 0.0), (9.0, 1.0, 0.0)]
    rows = [[5, 6], [4, 5], [6, 7], [0, 8], [8, 9], [9, 7]]
    grid, report = _grow_both(_chain, rows, fresh)
    assert [i for _, i in report.inserted] == [11, 12, 14, 16, 18, 19]
    assert report.skipped == [] and _levels_of(grid, report) == [0] * 6


def test_rows_that_join_existing_leaf_vertices_only():
    """No staged vertex: rows over leaf vertices on levels 0, 1 and 2 walk the
    copy chains, land on coarser copies, or reach no common level."""
    make = lambda: _mixed_level_grid("chain", [[True, True, False, False], [True, False]])  # noqa: E731
    grid = make()
    rows = [[_at(grid, 0.25), _at(grid, 0.5)], [_at(grid, 0.0), _at(grid, 4.0)],
            [_at(grid, 0.25), _at(grid, 1.5)], [_at(grid, 3.0), _at(grid, 1.0)]]
    grid, report = _grow_both(make, rows)
    assert report.skipped == [(2, "vertices reach no common level")]
    assert [q for q, _ in report.inserted] == [0, 1, 3] and _levels_of(grid, report) == [2, 0, 0]


def test_every_row_names_a_vertex_of_the_one_refined_level():
    """Refined everywhere once (L = 1) and every row names an existing vertex:
    every row lands on level 1, and so do the vertices the rows make."""
    grid = _chain(1)
    fresh = [(5.0, 1.0, 0.0), (6.0, 1.0, 0.0), (7.0, 1.0, 0.0)]
    rows = [[_at(grid, 4.0), 9], [_at(grid, 2.5), 10], [9, _at(grid, 0.0)], [_at(grid, 1.0), _at(grid, 3.0)],
            [11, _at(grid, 0.5)]]
    grid, report = _grow_both(lambda: _chain(1), rows, fresh)
    assert report.skipped == [] and _levels_of(grid, report) == [1] * 5
    assert {v.level for el in grid.leaf_view().elements() for v in el.vertices()} == {1}


def test_a_fresh_only_first_row_on_the_refined_chain_resolves_row_by_row():
    """The same grid with a first row of provisional vertices only: that row
    lands on level 0, so its vertices are made there, the rows that use them
    walk the copy chains, and one reaches no common level."""
    grid = _chain(1)
    fresh = [(5.0, 1.0, 0.0), (6.0, 1.0, 0.0), (7.0, 1.0, 0.0)]
    rows = [[9, 10], [10, _at(grid, 1.0)], [11, _at(grid, 0.5)], [9, _at(grid, 1.5)], [_at(grid, 4.0), 11]]
    grid, report = _grow_both(lambda: _chain(1), rows, fresh)
    assert report.skipped == [(3, "vertices reach no common level")]
    assert _levels_of(grid, report) == [0, 0, 1, 1]


def test_a_surface_queue_makes_a_vertex_at_its_first_unskipped_user():
    """Triangles commit row by row: a provisional vertex whose first user
    reaches no common level is made by its next user, at that row's level."""
    make = lambda: _mixed_level_grid("surface", [[True, True, False, False], [True] * 8])  # noqa: E731
    grid = make()
    places = grid.leaf_view().places(2)
    chains = [{level for level, _ in grid._vertex_chain(*place)} for place in places]
    n = len(places)
    a, b = next((a, b) for a in range(n) for b in range(n) if not chains[a] & chains[b])
    c, d = next((c, d) for c in range(n) for d in range(c + 1, n)
                if {c, d}.isdisjoint({a, b}) and places[c][0] == places[d][0] > 0)
    rows = [[n, a, b], [n, c, d], [n + 1, n, c], [n + 1, a, d]]
    grid, report = _grow_both(make, rows, [(2.0, 0.0, 1.0), (2.0, 1.0, 1.0)], TRIANGLE)
    assert report.skipped[0] == (0, "vertices reach no common level")
    assert [q for q, _ in report.inserted][:2] == [1, 2]
    assert _levels_of(grid, report)[:2] == [places[c][0]] * 2
