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
from netmesh.topology import EdgeRec

from conftest import make_grid, refine_all
from gridcheck import check_grid


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


def unreferenced_vertex_copy(grid):
    top = grid.max_level
    copy = grid._vertex_copy(top, 0)  # a finer copy no element or edge uses
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
        edges.append(EdgeRec(pair, grid._new_id()))
    first = next(s for s, rec in enumerate(edges) if set(rec.v) == set(pair))
    edges.append(EdgeRec(pair[::-1], grid._new_id()))
    return f"edge (1,{len(edges) - 1}): same vertex pair as edge (1,{first})"


@pytest.mark.parametrize("build", [two_triangles, grown_chain])
@pytest.mark.parametrize(
    "corrupt",
    [dangling_vertex_slot, child_with_wrong_father, unreferenced_vertex_copy, duplicate_id,
     duplicate_edge],
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
