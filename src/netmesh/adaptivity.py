"""Red refinement and coarsening: mark / pre_adapt / adapt / post_adapt.

Refinement is non-conforming: a marked line splits into two children at
the (possibly parametrized) midpoint, a marked triangle into four
congruent children through its three edge midpoints.  No closure is
performed, so hanging nodes of arbitrary depth are permitted.
Coarsening removes a sibling group only when every sibling is a leaf
marked -1.  Marks with magnitude greater than one are accepted but
execute a single round.
"""

from __future__ import annotations

import logging

from .errors import LifecycleError
from .parametrization import refined_vertex_position
from .topology import CHILD_CORNERS_IN_FATHER, CHILD_VERTEX_SOURCES

logger = logging.getLogger(__name__)


def _require_idle_growth(grid):
    if grid._grow_phase != "idle" or grid._queued_elements or grid._queued_vertices or grid._queued_removals:
        raise LifecycleError("adapt transaction cannot overlap a grow transaction")


def mark(grid, ref_count, element):
    """Store a refinement mark; returns False (and stores nothing) on non-leaves."""
    if grid._adapt_phase != "idle":
        raise LifecycleError(f"mark called during phase {grid._adapt_phase!r}")
    _require_idle_growth(grid)
    rec = element._rec()
    if rec.children:
        return False
    ref_count = int(ref_count)
    rec.mark = 1 if ref_count > 0 else (-1 if ref_count < 0 else 0)
    return True


def get_mark(grid, element):
    return element._rec().mark


def pre_adapt(grid):
    """Flag elements that might vanish; returns True when any are flagged."""
    if grid._adapt_phase != "idle":
        raise LifecycleError(f"pre_adapt called during phase {grid._adapt_phase!r}")
    _require_idle_growth(grid)
    grid._adapt_phase = "preadapted"
    any_flag = False
    for lev in range(len(grid._elems)):
        for rec in grid._elems[lev]:
            if not rec.children:
                continue
            kids = [grid._elems[lev + 1][c] for c in rec.children]
            if all(not k.children and k.mark == -1 for k in kids):
                for k in kids:
                    k.might_vanish = True
                any_flag = True
    return any_flag


def adapt(grid):
    """Execute coarsening then refinement; returns True iff anything was refined."""
    if grid._adapt_phase != "preadapted":
        raise LifecycleError("adapt requires a preceding pre_adapt")
    grid._adapt_phase = "adapted"

    # coarsen what pre_adapt flagged: marks cannot change in between
    dead = {
        (lev, slot)
        for lev, recs in enumerate(grid._elems)
        for slot, rec in enumerate(recs)
        if rec.might_vanish
    }
    if dead:
        from .compaction import remove_elements

        remove_elements(grid, dead)

    # refine marked leaves, coarse levels first so order stays deterministic
    refined = 0
    lev = 0
    while lev < len(grid._elems):
        for slot in range(len(grid._elems[lev])):
            rec = grid._elems[lev][slot]
            if rec.mark == 1 and not rec.children:
                _refine_element(grid, lev, slot)
                refined += 1
        lev += 1

    for level_recs in grid._elems:
        for rec in level_recs:
            rec.mark = 0
    grid._revision += 1
    if dead or refined:
        logger.debug("adapt: coarsened %d elements, refined %d", len(dead), refined)
    return refined > 0


def post_adapt(grid):
    """Clear is_new/might_vanish flags and close the transaction."""
    if grid._adapt_phase != "adapted":
        raise LifecycleError("post_adapt requires a preceding adapt")
    grid._adapt_phase = "idle"
    for level_recs in grid._elems:
        for rec in level_recs:
            rec.is_new = False
            rec.might_vanish = False


# -- refinement internals -------------------------------------------------


def _split_edge(grid, level, eslot, position):
    """Split an edge into two halves with a midpoint at ``position``."""
    erec = grid._edges[level][eslot]
    c0 = grid._vertex_copy(level, erec.v[0])
    c1 = grid._vertex_copy(level, erec.v[1])
    fine = level + 1
    mid = grid._add_vertex(fine, position)
    erec.children = (grid._get_or_make_edge(fine, c0, mid), grid._get_or_make_edge(fine, mid, c1))
    for half in erec.children:
        grid._edges[fine][half].father = eslot
    return mid


def _edge_midpoint_slot(grid, level, eslot):
    """Midpoint vertex slot of an already split edge (shared vertex of the halves)."""
    erec = grid._edges[level][eslot]
    first = grid._edges[level + 1][erec.children[0]]
    return first.v[1]


def _refine_element(grid, level, slot):
    rec = grid._elems[level][slot]
    fine = level + 1
    d = grid.dim

    if d == 1:
        copies = (grid._vertex_copy(level, rec.v[0]), grid._vertex_copy(level, rec.v[1]))
        mid = grid._add_vertex(fine, refined_vertex_position(grid, level, slot, 0))
        corners = {("c", 0): copies[0], ("c", 1): copies[1], ("m", 0): mid}
    else:
        copies = tuple(grid._vertex_copy(level, v) for v in rec.v)
        mids = []
        for k, eslot in enumerate(rec.edges):
            if not grid._edges[level][eslot].children:
                mids.append(
                    _split_edge(grid, level, eslot, refined_vertex_position(grid, level, slot, k))
                )
            else:
                mids.append(_edge_midpoint_slot(grid, level, eslot))
        corners = {("c", i): copies[i] for i in range(3)}
        corners.update({("m", k): mids[k] for k in range(3)})

    rec.children = tuple(
        grid._add_element(
            fine,
            tuple(corners[tok] for tok in sources),
            father=slot,
            is_new=True,
            corners_in_father=CHILD_CORNERS_IN_FATHER[d][child_idx],
        )
        for child_idx, sources in enumerate(CHILD_VERTEX_SOURCES[d])
    )
