"""The per-leaf refinement loop, kept as the reference for ``adaptivity.adapt``.

``adapt_by_leaves(grid)`` is ``adapt`` as it refined before the array
pass: every midpoint image is placed first, one root walk per (leaf,
local edge), then each marked leaf is refined in (level, slot) order
through ``_refine_element``, one ``Grid`` append per record.  Its
coarsening, marks and phase are ``adapt``'s.  ``records(grid)`` gives
every field the two set, for comparison.
"""

from netmesh import compaction
from netmesh.adaptivity import local_in_root
from netmesh.topology import (
    CHILD_CORNERS_IN_FATHER, CHILDREN, EDGE_MIDPOINT_LOCAL, LOCAL_EDGES, checked_coords,
)


def adapt_by_leaves(grid):
    """``grid.adapt()`` as the per-leaf loop refines; returns True iff anything was refined."""
    grid._require("adapt", "preadapted")
    grid._phase = "adapted"
    grid._first_new_id = grid._next_id
    grid._revision += 1

    dead, grid._vanishing = grid._vanishing, set()
    if dead:
        compaction.remove_elements(grid, dead)

    leaves = []
    for lev, recs in enumerate(grid._elems):
        for slot, rec in enumerate(recs):
            if rec.mark == 1 and not rec.children:
                leaves.append((lev, slot))
            rec.mark = 0
    images = _midpoint_images(grid, leaves)
    for lev, slot in leaves:
        _refine_element(grid, lev, slot, images)
    return bool(leaves)


def _midpoint_images(grid, leaves):
    """Position of every midpoint that refining ``leaves`` in order makes, by
    the (level, slot, local edge) of the leaf that makes it."""
    images, split = {}, set()
    for lev, slot in leaves:
        edges = grid._elems[lev][slot].edges
        for k in range(len(LOCAL_EDGES[grid.dim])):
            if edges:  # a triangle edge takes its image from the first leaf that splits it
                if (lev, edges[k]) in split or grid._edges[lev][edges[k]].children:
                    continue
                split.add((lev, edges[k]))
            images[lev, slot, k] = refined_vertex_position(grid, lev, slot, k)
    return images


def refined_vertex_position(grid, level, slot, edge_index):
    """Position for the midpoint vertex created when splitting a local edge."""
    rl, rs = grid._root(level, slot)
    phi = grid._elems[rl][rs].parametrization
    if phi is not None:
        root_local = local_in_root(grid, level, slot, EDGE_MIDPOINT_LOCAL[grid.dim][edge_index])
        return checked_coords([phi(root_local)], grid.world_dim)[0]
    v, verts = grid._elems[level][slot].v, grid._verts[level]
    a, b = LOCAL_EDGES[grid.dim][edge_index]
    return 0.5 * (verts[v[a]].coords + verts[v[b]].coords)


def _edge_source(p, q):
    """Where a child's edge over refinement points ``p``, ``q`` comes from:
    ``(p, q, k)`` with ``k`` the father's local edge that a corner and a
    midpoint halve, or ``None`` for an edge between two midpoints."""
    corner, mid = sorted((p, q))  # points 0-2 are the corners, 3-5 the edge midpoints
    if corner >= 3:
        return p, q, None
    assert corner in LOCAL_EDGES[2][mid - 3], (p, q)
    return p, q, mid - 3


# per child, the source of each of its edges in TRIANGLE_EDGES order; a
# segment child has no edge records
_CHILD_EDGES = {1: (None,) * len(CHILDREN[1]),
                2: tuple(tuple(_edge_source(child[a], child[b]) for a, b in LOCAL_EDGES[2])
                         for child in CHILDREN[2])}


def _midpoint(grid, level, slot, k, images):
    """Slot at ``level + 1`` of the midpoint of local edge ``k``: a segment's
    new vertex, or a triangle edge's, which splits the edge into two halves
    the first time and is the halves' shared corner after.  The halves are
    new edges, since their shared corner is."""
    rec = grid._elems[level][slot]
    fine = level + 1
    if not rec.edges:
        return grid._add_vertex(fine, images[level, slot, k])
    eslot = rec.edges[k]
    erec = grid._edges[level][eslot]
    if erec.children:
        return grid._edges[fine][erec.children[0]].v[1]
    c0, c1 = (grid._vertex_copy(level, v) for v in erec.v)
    mid = grid._add_vertex(fine, images[level, slot, k])
    erec.children = (grid._add_edge(fine, c0, mid, eslot), grid._add_edge(fine, mid, c1, eslot))
    return mid


def _child_edges(grid, level, rec, points, sources):
    """Edge slots at ``level + 1`` of one triangle child: the father edge's
    half at the child's father corner, or the edge between two midpoints,
    which a triangle over the same corners may have made already."""
    edges, made = grid._edges[level], []
    for p, q, k in sources:
        if k is None:
            made.append(grid._get_or_make_edge(level + 1, points[p], points[q]))
        else:
            erec = edges[rec.edges[k]]
            made.append(erec.children[erec.v[0] != rec.v[min(p, q)]])
    return tuple(made)


def _refine_element(grid, level, slot, images):
    """Red refinement: copies of the corners, then the midpoint of each
    local edge, then the children ``CHILDREN`` lists over those points."""
    rec, d = grid._elems[level][slot], grid.dim
    points = [grid._vertex_copy(level, v) for v in rec.v]
    points += [_midpoint(grid, level, slot, k, images) for k in range(len(LOCAL_EDGES[d]))]
    rec.children = tuple(
        grid._add_element(
            level + 1, tuple(points[i] for i in child), father=slot, corners_in_father=corners,
            edges=None if sources is None else _child_edges(grid, level, rec, points, sources),
        )
        for child, corners, sources in zip(CHILDREN[d], CHILD_CORNERS_IN_FATHER[d], _CHILD_EDGES[d])
    )


def records(grid):
    """Every record of every arena as comparable tuples, coordinates and
    ``corners_in_father`` as bits, a parametrization by its type (two grids
    read from one file hold equal charts, not the same ones), and whether each
    built edge lookup names exactly its level's edges."""
    verts = [[(rec.coords.tobytes(), rec.id, rec.father, rec.finer) for rec in level] for level in grid._verts]
    edges = [[(rec.v, rec.id, rec.father, rec.children) for rec in level] for level in grid._edges]
    elems = [
        [
            (rec.v, rec.id, rec.edges, rec.father, rec.children, rec.mark, type(rec.parametrization).__name__,
             None if rec.corners_in_father is None else rec.corners_in_father.tobytes(), rec.marker)
            for rec in level
        ]
        for level in grid._elems
    ]
    lookups = [lookup is None or lookup == {frozenset(rec.v): s for s, rec in enumerate(level)}
               for lookup, level in zip(grid._edge_lookup, grid._edges)]
    return verts, edges, elems, lookups, grid._next_id
