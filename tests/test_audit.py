"""``audit_grid`` names what is broken, and derived incidence survives compaction.

Every other test asserts that the audit finds nothing; here one record of
a sound grid is corrupted, or one is added, at a time and the audit must
name the fault.
The grid stores no incidence lists, so ``incident_elements`` scans the
level; after a coarsening and after a growth removal (both compact the
arenas and remap every slot) it must still list what it listed before,
less the removed elements, and what a scan through the public handles
finds.
"""

import numpy as np
import pytest

from netmesh import LINE, audit_grid
from append_rows import RowAppends
from conftest import make_grid, refine_all
from gridcheck import check_grid
from rows import Row, rows


def two_triangles(rounds=1):
    """The unit square split along its diagonal, refined ``rounds`` times."""
    grid = make_grid(2, 3, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], [(0, 1, 2), (0, 2, 3)])
    return refine_all(grid, rounds)


def grown_chain():
    """Four segments, refined once, with a new segment grown at the tip."""
    grid = refine_all(make_grid(1, 3, [(float(i), 0.0, 0.0) for i in range(5)],
                                [(i, i + 1) for i in range(4)]))
    view = grid.leaf_view()
    tip = next(v for v in view.vertices() if tuple(v.coords) == (4.0, 0.0, 0.0))
    fresh = grid.queue_vertex(np.array([5.0, 0.0, 0.0]))
    grid.queue_element(LINE, [view.index_set.index_of(tip), fresh])
    grid.grow()
    grid.post_grow()
    return grid


def dangling_vertex_slot(grid):
    rec = grid._elems[1][0]
    rec.v = rec.v[:-1] + (len(grid._verts[1]) + 5,)
    return "element (1,0): dangling vertex slot"


def child_with_wrong_father(grid):
    root = grid._elems[0][0]
    child = root.children[0]
    grid._elems[1][child].father = 1
    return f"element (0,0): child {child} has wrong father"


def child_with_another_marker(grid):
    child = grid._elems[0][0].children[0]
    grid._elems[1][child].marker = 7
    return f"element (1,{child}): marker or chart differs from its father's"


def unreferenced_vertex_copy(grid):
    top = grid.max_level
    copy = RowAppends(grid).vertex_copy(top, 0)  # a finer copy no element or edge uses
    return f"vertex ({top + 1},{copy}): unreferenced"


def duplicate_id(grid):
    first, second = grid._elems[1][:2]
    second.id = first.id
    return f"duplicate id {first.id}"


def duplicate_edge(grid):
    """A second edge record, reversed, over the corners of a level-1 element's
    first edge; a line grid keeps no edge records, so it gets both."""
    edges = grid._edges[1]
    pair = grid._elems[1][0].v[:2]
    if not edges:
        edges.append(v=[pair], id=[RowAppends(grid).new_id()])
    first = next(s for s, rec in enumerate(rows(edges)) if set(rec.v) == set(pair))
    edges.append(v=[pair[::-1]], id=[RowAppends(grid).new_id()])
    return f"edge (1,{len(edges) - 1}): same vertex pair as edge (1,{first})"


def extra_edge_level(grid):
    grid._edges.append([])
    return "arena level counts differ between codims"


def wrong_vertex_count(grid):
    rec = grid._elems[1][0]
    rec.v = rec.v + rec.v[:1]
    return "element (1,0): wrong vertex count"


def repeated_vertex(grid):
    rec = grid._elems[1][0]
    rec.v = rec.v[:1] * len(rec.v)
    return "element (1,0): repeated vertex"


def dangling_element_father(grid):
    grid._elems[1][0].father = len(grid._elems[0]) + 5
    return "element (1,0): dangling father"


def father_without_the_child(grid):
    grid._elems[1][0].father = next(s for s, rec in enumerate(grid._elems[0]) if 0 not in rec.children)
    return "element (1,0): father does not list it as child"


def child_without_embedding(grid):
    grid._elems[1][0].corners_in_father = None
    return "element (1,0): has father but no embedding in it"


def too_many_children(grid):
    rec = grid._elems[0][0]
    rec.children = rec.children * 3
    return f"element (0,0): {len(rec.children)} children"


def dangling_child_slot(grid):
    rec = grid._elems[0][0]
    bad = len(grid._elems[1]) + 5
    rec.children = rec.children[:-1] + (bad,)
    return f"element (0,0): dangling child slot {bad}"


def invalid_mark(grid):
    grid._elems[0][0].mark = 2
    return "element (0,0): invalid mark 2"


def wrong_coordinate_length(grid):
    """A level's coordinate column one short of the world dimension."""
    grid._verts[0]._data["coords"] = grid._verts[0]._data["coords"][:, :-1]
    return "vertices of level 0: wrong coordinate length"


def _copy_with_father(grid):
    return next(s for s, rec in enumerate(rows(grid._verts[1])) if rec.father is not None)


def dangling_vertex_father(grid):
    s = _copy_with_father(grid)
    Row(grid._verts[1], s).father = len(grid._verts[0]) + 5
    return f"vertex (1,{s}): dangling father"


def father_copy_without_link(grid):
    s = _copy_with_father(grid)
    Row(grid._verts[0], Row(grid._verts[1], s).father).finer = None
    return f"vertex (1,{s}): father does not link back"


def chain_id_differs(grid):
    s = _copy_with_father(grid)
    Row(grid._verts[1], s).id = RowAppends(grid).new_id()
    return f"vertex (1,{s}): chain id differs from father"


def perturbed_copy(grid):
    """A vertex copy one bit off its father copy: the VTK ``POINTS`` memo and
    the views' element corners take one copy's coordinates for all."""
    s = _copy_with_father(grid)
    coords = grid._verts[1].coords
    coords[s, 0] = np.nextafter(coords[s, 0], np.inf)
    return f"vertex (1,{s}): coordinates differ from father"


def dangling_finer_copy(grid):
    Row(grid._verts[0], 0).finer = len(grid._verts[1]) + 5
    return "vertex (0,0): dangling finer copy"


# a line grid keeps no edge records: these corrupt a surface's
def bad_edge_slots(grid):
    rec = grid._elems[1][0]
    rec.edges = rec.edges[:2]
    return "element (1,0): bad edge slots"


def edges_out_of_order(grid):
    rec = grid._elems[1][0]
    rec.edges = rec.edges[1::-1] + rec.edges[2:]
    return "element (1,0): edge 0 does not match its corner pair"


def dangling_edge_vertex(grid):
    rec = Row(grid._edges[1], 0)
    rec.v = (rec.v[0], len(grid._verts[1]) + 5)
    return "edge (1,0): dangling vertex slot"


def lone_edge_child(grid):
    rec = Row(grid._edges[0], 0)
    rec.children = rec.children[:1]
    return "edge (0,0): children not absent-or-pair"


def dangling_edge_child(grid):
    rec = Row(grid._edges[0], 0)
    rec.children = (rec.children[0], len(grid._edges[1]) + 5)
    return "edge (0,0): dangling child"


def edge_child_with_wrong_father(grid):
    child = Row(grid._edges[0], 0).children[0]
    Row(grid._edges[1], child).father = 1
    return f"edge (0,0): child {child} has wrong father"


def dangling_edge_father(grid):
    child = Row(grid._edges[0], 0).children[0]
    Row(grid._edges[1], child).father = len(grid._edges[0]) + 5
    return f"edge (1,{child}): dangling father"


def edge_father_without_the_child(grid):
    first, second = rows(grid._edges[0])[:2]
    child = first.children[0]
    first.children = second.children
    return f"edge (1,{child}): father does not list it"


ON_BOTH = [dangling_vertex_slot, child_with_wrong_father, child_with_another_marker, unreferenced_vertex_copy,
           duplicate_id, duplicate_edge, extra_edge_level, wrong_vertex_count, repeated_vertex,
           dangling_element_father, father_without_the_child, child_without_embedding,
           too_many_children, dangling_child_slot, invalid_mark, wrong_coordinate_length,
           dangling_vertex_father, father_copy_without_link, chain_id_differs, perturbed_copy,
           dangling_finer_copy]
ON_SURFACE = [bad_edge_slots, edges_out_of_order, dangling_edge_vertex, lone_edge_child,
              dangling_edge_child, edge_child_with_wrong_father, dangling_edge_father,
              edge_father_without_the_child]


@pytest.mark.parametrize(
    "build, corrupt",
    [pytest.param(build, corrupt, id=f"{corrupt.__name__}-{build.__name__}")
     for corrupt in ON_BOTH + ON_SURFACE
     for build in ([two_triangles] if corrupt in ON_SURFACE else [two_triangles, grown_chain])],
)
def test_audit_names_the_fault(build, corrupt):
    grid = build()
    assert audit_grid(grid) == []
    expected = corrupt(grid)
    assert expected in audit_grid(grid)


def test_a_vertex_only_an_edge_uses_is_referenced():
    """Removing the child at a corner no other triangle shares keeps its edge
    halves in pairs, and with them a vertex copy that no element uses."""
    grid = two_triangles()
    corner = grid.level_view(0).elements()[0].children()[1]  # at (1, 0, 0)
    grid.remove_element(corner)
    grid.grow()
    grid.post_grow()
    used = {s for rec in grid._elems[1] for s in rec.v}
    assert len(used) < len(grid._verts[1])
    check_grid(grid)


# -- derived incidence across compaction -----------------------------------


def incidence(grid):
    """Ids of the elements incident to each vertex copy, by (level, vertex id),
    and to each edge, by edge id, from ``incident_elements``."""
    found = {}
    for level in range(grid.max_level + 1):
        for s in range(len(grid._verts[level])):
            v = grid.vertex(level, s)
            found[(level, v.id)] = sorted(el.id for el in v.incident_elements())
        for s in range(len(grid._edges[level])):
            e = grid.edge(level, s)
            found[e.id] = sorted(el.id for el in e.incident_elements())
    return found


def assert_incidence_is_a_scan(grid):
    for level in range(grid.max_level + 1):
        elements = grid.level_view(level).elements()
        for s in range(len(grid._verts[level])):
            v = grid.vertex(level, s)
            assert v.incident_elements() == [el for el in elements if v in el.vertices()]
        for s in range(len(grid._edges[level])):
            e = grid.edge(level, s)
            held = [el for el in elements if e in [el.sub_entity(1, k) for k in range(3)]]
            assert e.incident_elements() == held


def coarsen_one_family(grid):
    father = grid.level_view(1).elements()[0]
    for kid in father.children():
        grid.mark(-1, kid)
    grid.pre_adapt()
    grid.adapt()
    grid.post_adapt()
    return 4


def remove_two_of_four_siblings(grid):
    for kid in grid.level_view(0).elements()[0].children()[1:3]:
        grid.remove_element(kid)
    grid.grow()
    grid.post_grow()
    return 2


@pytest.mark.parametrize("rounds, transaction", [(2, coarsen_one_family), (1, remove_two_of_four_siblings)])
def test_incident_elements_survive_compaction(rounds, transaction):
    grid = two_triangles(rounds)
    before = incidence(grid)
    ids_before = {rec.id for level in grid._elems for rec in level}
    n_removed = transaction(grid)
    check_grid(grid)
    gone = ids_before - {rec.id for level in grid._elems for rec in level}
    assert len(gone) == n_removed
    after = incidence(grid)
    assert after and set(after) < set(before)  # compaction dropped some, moved the rest
    for key, ids in after.items():
        assert ids == [i for i in before[key] if i not in gone], key
    assert_incidence_is_a_scan(grid)
