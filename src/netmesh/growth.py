"""Runtime grid growth: queued insertion and removal of leaf elements.

Insertions are staged (two-phase commit) in a ``GridFactory``, so growth
takes its input as the level-0 build does: ``queue_vertices`` and
``queue_elements`` stage through ``insert_vertices`` and
``insert_elements``, with their checks and their per-row
parametrizations, and stage nothing when the factory refuses a row.
``queue_elements`` also refuses, keeping none of its rows, rows that
would leave more than ``topology.MAX_ELEMENTS`` leaves, as ``pre_adapt``
does: the pre-grow view's leaves, less the queued removals, plus each
father whose remaining children are all queued for removal, plus every
queued row, also one that ``grow`` skips.  The queue's vertex indices start
after the pre-grow leaf view's vertices, whose places it keeps: an
element row mixes provisional and existing leaf-vertex indices.
``queue_vertex`` and ``queue_element`` are one-row calls.  Grown
elements get no marker.

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

from .errors import FactoryError, ScenarioError
from .topology import GridFactory, _refuse_leaves

logger = logging.getLogger(__name__)


@dataclass
class GrowthReport:
    """Per-transaction outcome: queue position -> inserted id or skip reason."""

    inserted: list = field(default_factory=list)   # (queue_index, element_id)
    skipped: list = field(default_factory=list)    # (queue_index, reason)
    removed: int = 0


class _Queue(GridFactory):
    """The insertions one grow transaction has staged: a factory whose vertex
    indices continue the pre-grow leaf view's."""

    def __init__(self, grid):
        super().__init__(grid.config)
        view = grid.leaf_view()
        self.places = view.places(grid.dim)  # existing vertex index -> (level, slot)
        self._n_vertices, self.leaves = len(self.places), view.size(0)


def _stage(grid, call, insert, *args):
    """``insert(queue, *args)`` on the open queue, or on a new one over the
    current leaf view, which the grid keeps only once ``insert`` accepted its
    input: a refused call must not keep a view that a later adapt would make stale."""
    grid._require(call, "idle", "queued")
    queue = grid._queue if grid._queue is not None else _Queue(grid)
    indices = insert(queue, *args)
    grid._queue, grid._phase = queue, "queued"
    return indices


def queue_vertices(grid, coords):
    """Stage one new vertex per row of an ``(n, world_dim)`` array; returns
    their provisional indices (fixed until grow) as an int64 array."""
    return _stage(grid, "queue_vertices", GridFactory.insert_vertices, coords)


def queue_elements(grid, kind, vertex_indices, parametrization=None):
    """Stage one new element per row of an ``(m, dim + 1)`` integer array of
    provisional and/or existing leaf vertex indices; returns their queue
    positions as an int64 array.  ``parametrization`` is one value for every
    row or a list, tuple or array of one value per row."""
    def insert(queue):
        positions = queue.insert_elements(kind, vertex_indices, parametrization)
        try:
            _refuse_leaves(queue.leaves - _removed_leaves(grid) + len(queue._elements), "grow")
        except ScenarioError:
            del queue._elements[len(queue._elements) - len(positions):]
            raise
        return positions
    return _stage(grid, "queue_elements", insert)


def _removed_leaves(grid):
    """How many fewer leaves the queued removals leave: one each, less one per
    father all of whose remaining children go, since it is a leaf again."""
    removals = grid._queued_removals
    fathers = {grid.element(*key).father() for key in removals} - {None}
    return len(removals) - sum(all((c.level, c.slot) in removals for c in f.children()) for f in fathers)


def remove_element(grid, element):
    """Stage removal of a leaf element (a strict subset of siblings is fine)."""
    grid._require("remove_element", "idle", "queued")
    grid._own_id(element)
    if not element.is_leaf:
        raise FactoryError("only leaf elements can be removed")
    grid._queued_removals.add((element.level, element.slot))
    grid._phase = "queued"


def _insert(grid, queue, report):
    """Commit the queued rows in queue order; see the module docstring."""
    places, base = queue.places, len(queue.places)
    coords = list(np.concatenate(queue._coords)) if queue._coords else []
    corners = grid.dim + 1
    made = {}  # provisional index -> (level, slot) of the vertex its first user made
    for q, (row, parametrization, _) in enumerate(queue._elements):
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
        remove_elements(grid, grid._queued_removals)

    changed = bool(report.inserted or report.removed)
    for qidx, reason in report.skipped:
        logger.info("growth: skipped queued element %d (%s)", qidx, reason)
    grid._queue = None
    grid._queued_removals = set()
    grid._growth_report = report
    grid._phase = "grown"
    grid._revision += 1
    return changed


def post_grow(grid):
    """Close the grow transaction: no element counts as new any more."""
    grid._require("post_grow", "grown")
    grid._phase = "idle"
    grid._first_new_id = math.inf
