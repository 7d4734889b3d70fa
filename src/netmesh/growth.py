"""Runtime grid growth: queued insertion and removal of leaf elements.

Insertions are staged (two-phase commit): ``queue_vertex`` hands out
provisional indices that continue the current leaf-vertex index range,
``queue_element`` mixes provisional and existing leaf-vertex indices,
and ``grow`` resolves and commits everything at once.  An element's
vertices must sit on one common level; when the given leaf copies
disagree, coarser chain copies are substituted and the lowest common
level wins.  Elements whose vertices reach no common level are skipped
silently; the per-element outcome is retrievable from the growth report.

The grid's phase runs idle -> queued -> grown -> idle; the first
accepted queue call moves it to queued, and ``grow`` may also start from
idle.  The elements ``grow`` inserts are new by id until ``post_grow``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from .errors import FactoryError
from .topology import checked_coords, checked_element

logger = logging.getLogger(__name__)


@dataclass
class GrowthReport:
    """Per-transaction outcome: queue position -> inserted id or skip reason."""

    inserted: list = field(default_factory=list)   # (queue_index, element_id)
    skipped: list = field(default_factory=list)    # (queue_index, reason)
    removed: int = 0


def _queue_leaf_vertices(grid):
    """(level, slot) of each leaf-view vertex; provisional indices continue this range."""
    if grid._queue_leaf_vertices is None:
        grid._queue_leaf_vertices = grid.leaf_view().places(grid.dim)
    return grid._queue_leaf_vertices


def queue_vertex(grid, coords):
    """Stage a new vertex; returns its provisional index (fixed until grow)."""
    grid._require("queue_vertex", "idle", "queued")
    coords = checked_coords(coords, grid.world_dim)
    base = len(_queue_leaf_vertices(grid))
    grid._queued_vertices.append(coords)
    grid._phase = "queued"
    return base + len(grid._queued_vertices) - 1


def queue_element(grid, kind, vertex_indices, parametrization=None):
    """Stage a new element over provisional and/or existing leaf vertex indices."""
    grid._require("queue_element", "idle", "queued")
    leaves = _queue_leaf_vertices(grid)
    base = len(leaves)
    idx = checked_element(
        grid.dim, kind, vertex_indices, parametrization, base + len(grid._queued_vertices)
    )
    refs = tuple(("v",) + leaves[i] if i < base else ("q", i - base) for i in idx)
    grid._queued_elements.append((refs, parametrization))
    grid._phase = "queued"
    return len(grid._queued_elements) - 1


def remove_element(grid, element):
    """Stage removal of a leaf element (a strict subset of siblings is fine)."""
    grid._require("remove_element", "idle", "queued")
    if grid._own(element).children:
        raise FactoryError("only leaf elements can be removed")
    key = (element.level, element.slot)
    if key not in grid._queued_removals:
        grid._queued_removals.append(key)
    grid._phase = "queued"


def grow(grid):
    """Commit queued insertions and removals; returns True when the grid changed.

    New elements carry ``is_new`` until post_grow and start their own
    refinement tree (no father), so their level may exceed zero.
    """
    grid._require("grow", "idle", "queued")
    grid._first_new_id = grid._next_id
    report = GrowthReport()

    created = {}  # provisional queue slot -> (level, vertex slot)
    for qidx, (refs, parametrization) in enumerate(grid._queued_elements):
        chains = []  # per ref: level -> slot of its copies, None for a vertex not yet created
        given_levels = set()
        for ref in refs:
            if ref[0] == "v":
                chains.append(dict(grid._vertex_chain(ref[1], ref[2])))
                given_levels.add(ref[1])
            elif ref[1] in created:
                lev, slot = created[ref[1]]
                chains.append({lev: slot})
                given_levels.add(lev)
            else:
                chains.append(None)
        if len(given_levels) <= 1:
            resolved = min(given_levels, default=0)
        else:
            common = set.intersection(*(set(c) for c in chains if c is not None))
            if not common:
                report.skipped.append((qidx, "vertices reach no common level"))
                continue
            resolved = min(common)

        vslots = []
        for ref, chain in zip(refs, chains):
            if chain is not None:
                vslots.append(chain[resolved])
            else:
                s = grid._add_vertex(resolved, grid._queued_vertices[ref[1]].copy())
                created[ref[1]] = (resolved, s)
                vslots.append(s)
        if len(set(vslots)) != grid.dim + 1:
            report.skipped.append((qidx, "vertices coincide after level resolution"))
            continue

        slot = grid._add_element(resolved, tuple(vslots), parametrization=parametrization)
        report.inserted.append((qidx, grid._elems[resolved][slot].id))

    if grid._queued_removals:
        from .compaction import remove_elements

        report.removed = len(grid._queued_removals)
        remove_elements(grid, set(grid._queued_removals))

    changed = bool(report.inserted or report.removed)
    for qidx, reason in report.skipped:
        logger.info("growth: skipped queued element %d (%s)", qidx, reason)
    grid._queued_vertices = []
    grid._queued_elements = []
    grid._queued_removals = []
    grid._queue_leaf_vertices = None
    grid._growth_report = report
    grid._phase = "grown"
    grid._revision += 1
    return changed


def post_grow(grid):
    """Close the grow transaction: no element counts as new any more."""
    grid._require("post_grow", "grown")
    grid._phase = "idle"
    grid._first_new_id = math.inf
