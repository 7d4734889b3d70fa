"""Red refinement and coarsening: mark / pre_adapt / adapt / post_adapt.

Refinement is non-conforming: a marked line splits into two children at
the (possibly parametrized) midpoint, a marked triangle into four
congruent children through its three edge midpoints.  No closure is
performed, so hanging nodes of arbitrary depth are permitted.
Coarsening removes a sibling group only when every sibling is a leaf
marked -1.

A ref count is a Python or numpy integer; anything else, bool included,
is refused with a ``FactoryError`` and stores nothing.  A mark stores
its sign, so a count of any size executes a single round.  ``mark``
stores one; ``mark_leaves`` stores one per element of the leaf view, in
index order, zeros included, from an integer array checked as a whole.

Refinement makes each triangle child's edges from the father's: the
halves of the father edge at its corner, and the edges between two
midpoints, which a triangle over the same corners may share.  A new
midpoint sits where ``refined_vertex_position`` puts it: on the tree
root's parametrization (the charts of ``parametrization``) at the
midpoint composed into the root by ``local_in_root``, composed only when
the root has one, else at the affine midpoint of the edge.

The grid's phase runs idle -> preadapted -> adapted -> idle.
``pre_adapt`` collects the places of vanishing sibling groups in
``Grid._vanishing`` and ``adapt`` removes exactly that set; ``pre_adapt``
refuses, before it changes anything, an adapt that would leave more than
``topology.MAX_ELEMENTS`` leaves.  The elements ``adapt`` makes are new
by id until ``post_adapt`` (see ``topology``).
"""

from __future__ import annotations

import logging
import math

import numpy as np

from . import compaction
from .errors import DimensionMismatchError, FactoryError
from .topology import (
    CHILD_CORNERS_IN_FATHER, CHILDREN, EDGE_MIDPOINT_LOCAL, LOCAL_EDGES, _refuse_leaves, checked_coords,
)

logger = logging.getLogger(__name__)


def _clamp(ref_count):
    """The mark a Python int ref count stores: its sign, so any count is one round."""
    return (ref_count > 0) - (ref_count < 0)


def _refused(shown):
    return FactoryError(f"ref counts must be integers, got {shown}")


def mark(grid, ref_count, element):
    """Store a refinement mark; returns False (and stores nothing) on non-leaves."""
    grid._require("mark", "idle")
    rec = grid._own(element)
    if isinstance(ref_count, bool) or not isinstance(ref_count, (int, np.integer)):
        raise _refused(repr(ref_count))
    if rec.children:
        return False
    rec.mark = _clamp(int(ref_count))
    return True


def mark_leaves(grid, ref_counts):
    """Store one mark per leaf-view element, in index order, as ``mark`` does."""
    grid._require("mark_leaves", "idle")
    places = grid._current_leaf_view().places(0)
    counts = np.asarray(ref_counts)
    if counts.dtype.kind not in "iu":
        raise _refused(counts.dtype)
    if counts.shape != (len(places),):
        raise DimensionMismatchError(
            f"ref counts have shape {counts.shape} for {len(places)} leaf elements"
        )
    elems = grid._elems
    for (level, slot), ref_count in zip(places, counts.tolist()):
        elems[level][slot].mark = _clamp(ref_count)


def get_mark(grid, element):
    return grid._own(element).mark


def pre_adapt(grid):
    """Collect the places of sibling groups that vanish; returns True when any do.

    Raises :class:`ScenarioError`, with the phase and every record as they
    were, when the adapt would leave more than ``topology.MAX_ELEMENTS`` leaves:
    each refined leaf adds 2**dim - 1, and each vanishing sibling group
    takes its siblings away and leaves its father (a removal may have left
    a group short of 2**dim)."""
    grid._require("pre_adapt", "idle")
    elems, vanishing = grid._elems, set()
    leaves = refined = groups = 0
    for lev, recs in enumerate(elems):
        for rec in recs:
            if not rec.children:
                leaves += 1
                refined += rec.mark == 1
                continue
            kids = [elems[lev + 1][c] for c in rec.children]
            if all(not k.children and k.mark == -1 for k in kids):
                vanishing.update((lev + 1, c) for c in rec.children)
                groups += 1
    _refuse_leaves(leaves + refined * (2**grid.dim - 1) - len(vanishing) + groups, "adapt")
    grid._phase, grid._vanishing = "preadapted", vanishing
    return bool(vanishing)


def adapt(grid):
    """Execute coarsening then refinement; returns True iff anything was refined.

    Every midpoint image is computed before the first element is refined, so
    a refused image raises with nothing refined; earlier views are stale."""
    grid._require("adapt", "preadapted")
    grid._phase = "adapted"
    grid._first_new_id = grid._next_id
    grid._revision += 1

    # coarsen what pre_adapt collected: marks cannot change in between
    dead, grid._vanishing = grid._vanishing, set()
    if dead:
        compaction.remove_elements(grid, dead)

    # refine marked leaves, coarse levels first so order stays deterministic
    leaves = []
    for lev, recs in enumerate(grid._elems):
        for slot, rec in enumerate(recs):
            if rec.mark == 1 and not rec.children:
                leaves.append((lev, slot))
            rec.mark = 0
    images = _midpoint_images(grid, leaves)
    for lev, slot in leaves:
        _refine_element(grid, lev, slot, images)

    logger.debug("adapt: coarsened %d elements, refined %d", len(dead), len(leaves))
    return bool(leaves)


def post_adapt(grid):
    """Close the transaction: no element counts as new any more."""
    grid._require("post_adapt", "adapted")
    grid._phase = "idle"
    grid._first_new_id = math.inf


# -- refinement internals -------------------------------------------------


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


def local_in_root(grid, level, slot, local):
    """Map element-local reference coordinates to the tree root's reference."""
    local = np.asarray(local, dtype=float)
    for level, slot in grid._father_chain(level, slot)[:-1]:
        corners = grid._elems[level][slot].corners_in_father
        local = corners[0] + (corners[1:] - corners[0]).T @ local
    return local


def refined_vertex_position(grid, level, slot, edge_index):
    """Position for the midpoint vertex created when splitting a local edge.

    ``(level, slot)`` addresses the element being refined.  Returns a new
    array: the root parametrization evaluated at the composed local
    midpoint, or the affine midpoint of the edge's endpoints when the root
    is unparametrized.  An image is checked as a queued vertex is
    (``checked_coords``): one of the wrong length raises
    :class:`DimensionMismatchError` and a non-finite one
    :class:`FactoryError`, from ``adapt`` before it refines anything.
    """
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
