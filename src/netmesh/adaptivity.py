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

``adapt`` refines the marked leaves level by level, coarsest first, each
level in one array pass that appends per arena at ``level + 1`` in the
order of a leaf-by-leaf loop (``tests/refine_rows.py``): per leaf its new
corner copies then midpoints, the halves of each edge it splits then its
new edges between midpoints, and its children in ``CHILDREN`` order.  One
cumulative sum draws the ids in the loop's order (``_IDS``); a copy keeps
its vertex's id.  The first leaf in (leaf, corner) or (leaf, local edge)
order makes a missing copy or splits an unsplit edge.  An edge between
two midpoints is shared with a leaf earlier in the pass or, when both
midpoints predate the pass, with an edge the level holds.  A new
midpoint sits on the tree root's parametrization (the charts of
``parametrization``) at the midpoint composed into the root by
``local_in_root``, or at the affine midpoint when the root has none.

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
from itertools import repeat

import numpy as np

from . import compaction
from .errors import DimensionMismatchError, FactoryError
from .topology import (
    CHILD_CORNERS_IN_FATHER, CHILDREN, EDGE_MIDPOINT_LOCAL, LOCAL_EDGES, TRIANGLE_EDGES, _ints,
    _makers, _refuse_leaves, checked_coords,
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

    # refine marked leaves level by level, coarse levels first, every image placed first
    marked = [[] for _ in grid._elems]
    for lev, recs in enumerate(grid._elems):
        for slot, rec in enumerate(recs):
            if rec.mark == 1 and not rec.children:
                marked[lev].append(slot)
            rec.mark = 0
    plans = [(lev, s, *_midpoint_images(grid, lev, s)) for lev, s in enumerate(marked) if s]
    for plan in plans:
        _refine_level(grid, *plan)
    logger.debug("adapt: coarsened %d elements, refined %d", len(dead), sum(map(len, marked)))
    return bool(plans)


def post_adapt(grid):
    """Close the transaction: no element counts as new any more."""
    grid._require("post_adapt", "adapted")
    grid._phase = "idle"
    grid._first_new_id = math.inf


# -- refinement internals -------------------------------------------------


def _midpoint_images(grid, level, slots):
    """For the leaves ``slots`` of ``level``: which local edges make their
    midpoint (every segment's; a triangle edge's first unsplit mention),
    the position making each, and the refinement points' coordinates,
    ``(n, corners + midpoints, w)``, one father walk per leaf.  A chart's
    image is checked as a queued vertex (``checked_coords``)."""
    d, n, elems, verts = grid.dim, len(slots), grid._elems[level], grid._verts[level]
    recs = [elems[s] for s in slots]
    if d == 1:
        makes, maker = np.ones((n, 1), dtype=bool), np.arange(n)
    else:
        keys = _ints([rec.edges for rec in recs], 3).ravel()
        makes, maker = _makers(keys, grid._edges[level].children[keys, 0] < 0)
        makes = makes.reshape(n, 3)
    corners = verts.coords[_ints([rec.v for rec in recs], d + 1)]
    a, b = _ENDS[d]
    points = np.concatenate([corners, 0.5 * (corners[:, a] + corners[:, b])], axis=1)
    for i, slot in enumerate(slots):
        walk = grid._father_chain(level, slot)
        root_level, root_slot = walk[-1]
        phi = grid._elems[root_level][root_slot].parametrization
        for k in np.flatnonzero(makes[i]).tolist() if phi is not None else ():
            local = _in_root(grid, walk, EDGE_MIDPOINT_LOCAL[d][k])
            points[i, d + 1 + k] = checked_coords([phi(local)], grid.world_dim)[0]
    return makes, maker, points


def local_in_root(grid, level, slot, local):
    """Map element-local reference coordinates to the tree root's reference."""
    return _in_root(grid, grid._father_chain(level, slot), local)


def _in_root(grid, walk, local):
    """``local_in_root`` along an element's father chain ``walk``."""
    local = np.asarray(local, dtype=float)
    for level, slot in walk[:-1]:
        corners = grid._elems[level][slot].corners_in_father
        local = corners[0] + (corners[1:] - corners[0]).T @ local
    return local


# Columns of the ids a leaf draws, in order: per local edge it splits, the
# midpoint and (triangles) the two halves; per child, the edge between
# midpoints it makes (children 0-2 of a triangle) and the child.
_IDS = {1: ((0,), (), (), (1, 2)),
        2: ((0, 3, 6), (1, 2, 4, 5, 7, 8), (9, 11, 13), (10, 12, 14, 15))}
# Each triangle child's edges (TRIANGLE_EDGES order) among its father's
# candidates: local edge k's half at its first (2k) or second (2k + 1)
# corner, or the edge between the midpoints of TRIANGLE_EDGES[j] (6 + j).
_CHILD_EDGES = np.array(((0, 2, 6), (1, 7, 4), (8, 3, 5), (7, 6, 8)))
_PAIRS, _CHILDREN = np.array(TRIANGLE_EDGES), {d: np.array(children) for d, children in CHILDREN.items()}
_ENDS = {d: tuple(np.array(edges).T) for d, edges in LOCAL_EDGES.items()}  # local edges' two corners


def _refine_level(grid, level, slots, makes, maker, points):
    """Red refinement of the leaves ``slots`` of ``level`` in one pass; see
    the module docstring for the order of slots and ids."""
    d, fine, n = grid.dim, level + 1, len(slots)
    c, (mid, half, inner, child) = d + 1, _IDS[d]
    grid._ensure_level(fine)
    recs, verts, edges = [grid._elems[level][s] for s in slots], grid._verts[level], grid._edges[level]
    corners = _ints([rec.v for rec in recs], c)
    finer = verts.finer[corners.ravel()]
    copies, copier = _makers(corners.ravel(), finer < 0)
    copies = copies.reshape(n, c)  # the corners whose copy the leaf makes
    new_v = np.concatenate([copies, makes], axis=1)  # per leaf: corner copies, then midpoints
    vslot = new_v.cumsum().reshape(n, -1) + (len(grid._verts[fine]) - 1)  # where new_v holds
    finer = np.where(finer < 0, vslot[:, :c].ravel()[copier], finer).reshape(n, c)
    mids = vslot[:, c:].ravel()[maker]
    take = np.ones((n, sum(map(len, _IDS[d]))), dtype=bool)  # the id columns each leaf draws
    take[:, mid] = makes
    if d == 2:
        split = _ints([rec.edges for rec in recs], 3).ravel()
        halves = edges.children[split]  # (v[0]-side, v[1]-side)
        before = halves[:, 0] >= 0  # split before the pass: its midpoint exists
        fine_edges = grid._edges[fine]
        mids[before] = fine_edges.v[halves[before, 0], 1]
        pairs = mids.reshape(n, 3)[:, _PAIRS]
        # the edges between midpoints, the pass's own midpoints keyed as made by it
        new, sharer, held = grid._edge_batch(fine, np.where(before, mids, -1 - mids).reshape(n, 3))
        take[:, half] = makes.repeat(2, axis=1)
        take[:, inner] = new
        new_e = take[:, half + inner]  # per leaf: halves, then edges between midpoints
        eslot = new_e.cumsum().reshape(n, -1) + (len(fine_edges) - 1)  # where new_e holds
        halves = np.where(before[:, None], halves, eslot[:, :6].reshape(-1, 2)[maker])
        known = np.where(held < 0, eslot[:, 6:], held).ravel()[sharer]
    ids = grid._draw_ids(take)
    vid = np.concatenate([verts.id[corners], ids[:, mid]], axis=1)  # a copy keeps its vertex's id
    vfather = np.concatenate([corners, np.full((n, len(mid)), -1)], axis=1)
    grid._add_vertices(fine, points[new_v], vid[new_v], vfather[new_v])
    verts.finer[corners[copies]] = vslot[:, :c][copies]
    child_edges = repeat(())
    if d == 2:
        a, b = _ENDS[2]
        flip = (edges.v[split, 0] != corners[:, a].ravel()).reshape(n, 3)
        ca, cb, m = finer[:, a], finer[:, b], mids.reshape(n, 3)
        etab = np.empty((n, 9, 4), dtype=np.int64)  # per leaf and edge: corners, id, father (-1: none)
        etab[:, 0:6:2, 0], etab[:, 0:6:2, 1] = np.where(flip, cb, ca), m  # the v[0]-side half
        etab[:, 1:6:2, 0], etab[:, 1:6:2, 1] = m, np.where(flip, ca, cb)
        etab[:, 6:, :2], etab[:, :, 2] = pairs, ids[:, half + inner]
        etab[:, :6, 3], etab[:, 6:, 3] = split.reshape(n, 3).repeat(2, axis=1), -1
        made = etab[new_e]
        grid._edges[fine].append(v=made[:, :2], id=made[:, 2], father=made[:, 3])
        edges.children[split[makes.ravel()]] = halves[makes.ravel()]
        at_corner = np.where(flip.reshape(-1, 1), halves[:, ::-1], halves).reshape(n, 6)
        candidates = np.concatenate([at_corner, known], axis=1)
        child_edges = zip(*candidates[:, _CHILD_EDGES].reshape(-1, 3).T.tolist())
    points = np.concatenate([finer, mids.reshape(n, -1)], axis=1)[:, _CHILDREN[d]].reshape(-1, c)
    kids = grid._add_elements(fine, zip(*points.T.tolist()), ids[:, child].ravel().tolist(),
                              edges=child_edges, fathers=np.array(slots).repeat(2**d).tolist(),
                              corners_in_father=CHILD_CORNERS_IN_FATHER[d] * n)
    for rec, kid in zip(recs, kids[::2**d]):
        rec.children = tuple(range(kid, kid + 2**d))
