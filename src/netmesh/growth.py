"""Runtime grid growth: queued insertion and removal of leaf elements.

Insertions are staged (two-phase commit) as whole arrays.
``queue_vertices`` takes one provisional vertex per row of an
``(n, world_dim)`` array and hands out provisional indices that continue
the current leaf-vertex index range; ``queue_elements`` takes one element
per row of an ``(m, dim + 1)`` integer array mixing provisional and
existing leaf-vertex indices.  ``queue_vertex`` and ``queue_element`` are
one-row calls of them.  Each call checks its rows in one numpy pass
(``checked_coords``, ``checked_element`` and ``checked_parametrizations``,
shared with the factory) and stages nothing when it refuses a row.  The
queue keeps the arrays and the pre-grow leaf view's vertex places, which
existing indices address.

``grow`` commits in one pass over the queued rows, in queue order.  An
element's vertices must sit on one common level.  A given vertex is
taken at the place the pre-grow view has for it, and a provisional
vertex is made at the level of its first user.  Only a row whose given
copies sit on different levels walks the copy chains: coarser chain
copies are substituted and the lowest common level wins.  Rows whose
vertices reach no common level, or coincide after that resolution, are
skipped; the per-row outcome is in the growth report.  Each row draws
the ids of the vertices it makes, then its element's.

The grid's phase runs idle -> queued -> grown -> idle; the first
accepted queue call moves it to queued, and ``grow`` may also start from
idle.  The elements ``grow`` inserts are new by id until ``post_grow``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FactoryError
from .topology import checked_coords, checked_element, checked_parametrizations

logger = logging.getLogger(__name__)


@dataclass
class GrowthReport:
    """Per-transaction outcome: queue position -> inserted id or skip reason."""

    inserted: list = field(default_factory=list)   # (queue_index, element_id)
    skipped: list = field(default_factory=list)    # (queue_index, reason)
    removed: int = 0


class _Queue:
    """The insertions one grow transaction has staged."""

    def __init__(self, grid):
        self.places = grid.leaf_view().places(grid.dim)  # existing vertex index -> (level, slot)
        self.coords = []  # (n, world_dim) float arrays, one per queue_vertices call
        self.n_vertices = len(self.places)  # the next provisional index
        self.rows = []  # ((m, dim + 1) int64 array, parametrization), one per queue_elements call
        self.n_rows = 0


def _open_queue(grid):
    """The open queue, or a new one over the current leaf view.  Callers
    store a new queue only once their input passed its check: a refused
    call must not keep a view that a later adapt would make stale."""
    return grid._queue if grid._queue is not None else _Queue(grid)


def queue_vertices(grid, coords):
    """Stage one new vertex per row of an ``(n, world_dim)`` array; returns
    their provisional indices (fixed until grow) as an int64 array."""
    grid._require("queue_vertices", "idle", "queued")
    coords = checked_coords(coords, grid.world_dim)
    queue = grid._queue = _open_queue(grid)
    first = queue.n_vertices
    queue.coords.append(coords)
    queue.n_vertices += len(coords)
    grid._phase = "queued"
    return np.arange(first, queue.n_vertices)


def queue_elements(grid, kind, vertex_indices, parametrization=None):
    """Stage one new element per row of an ``(m, dim + 1)`` integer array of
    provisional and/or existing leaf vertex indices; returns their queue
    positions as an int64 array.  Every row gets ``parametrization``."""
    grid._require("queue_elements", "idle", "queued")
    queue = _open_queue(grid)
    rows = checked_element(grid.dim, kind, vertex_indices, queue.n_vertices)
    checked_parametrizations([parametrization])
    grid._queue = queue
    first = queue.n_rows
    queue.rows.append((rows, parametrization))
    queue.n_rows += len(rows)
    grid._phase = "queued"
    return np.arange(first, queue.n_rows)


def remove_element(grid, element):
    """Stage removal of a leaf element (a strict subset of siblings is fine)."""
    grid._require("remove_element", "idle", "queued")
    grid._own_id(element)
    if not element.is_leaf:
        raise FactoryError("only leaf elements can be removed")
    key = (element.level, element.slot)
    if key not in grid._queued_removals:
        grid._queued_removals.append(key)
    grid._phase = "queued"


def _insert(grid, queue, report):
    """Commit the queued rows in queue order; see the module docstring."""
    places, base = queue.places, len(queue.places)
    coords = list(np.concatenate(queue.coords)) if queue.coords else []
    rows = ((row, phi) for chunk, phi in queue.rows for row in chunk.tolist())
    corners = grid.dim + 1
    made = {}  # provisional index -> (level, slot) of the vertex its first user made
    for q, (row, parametrization) in enumerate(rows):
        given = [places[i] if i < base else made.get(i) for i in row]
        levels = {place[0] for place in given if place is not None}
        if len(levels) > 1:
            chains = [None if place is None else dict(grid._vertex_chain(*place)) for place in given]
            common = set.intersection(*(set(chain) for chain in chains if chain is not None))
            if not common:
                report.skipped.append((q, "vertices reach no common level"))
                continue
            level = min(common)
            given = [None if chain is None else (level, chain[level]) for chain in chains]
        else:
            level = levels.pop() if levels else 0
        vslots = []
        for i, place in zip(row, given):
            if place is None:
                place = made[i] = (level, grid._add_vertex(level, coords[i - base].copy()))
            vslots.append(place[1])
        if len(set(vslots)) != corners:
            report.skipped.append((q, "vertices coincide after level resolution"))
            continue
        slot = grid._add_element(level, tuple(vslots), parametrization=parametrization)
        report.inserted.append((q, grid._id(0, level, slot)))


def grow(grid):
    """Commit queued insertions and removals; returns True when the grid changed.

    New elements carry ``is_new`` until post_grow and start their own
    refinement tree (no father), so their level may exceed zero.
    """
    grid._require("grow", "idle", "queued")
    grid._first_new_id = grid._next_id
    report = GrowthReport()
    if grid._queue is not None:
        _insert(grid, grid._queue, report)

    if grid._queued_removals:
        from .compaction import remove_elements

        report.removed = len(grid._queued_removals)
        remove_elements(grid, set(grid._queued_removals))

    changed = bool(report.inserted or report.removed)
    for qidx, reason in report.skipped:
        logger.info("growth: skipped queued element %d (%s)", qidx, reason)
    grid._queue = None
    grid._queued_removals = []
    grid._growth_report = report
    grid._phase = "grown"
    grid._revision += 1
    return changed


def post_grow(grid):
    """Close the grow transaction: no element counts as new any more."""
    grid._require("post_grow", "grown")
    grid._phase = "idle"
    grid._first_new_id = math.inf
