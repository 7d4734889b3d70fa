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

``grow`` commits the queued rows in queue order, in array passes.  An
element's vertices must sit on one common level.  A given vertex is
taken at the place the pre-grow view has for it, and a provisional
vertex is made at the level of its first user.  When every given vertex
the queue names sits on one level L, and L is 0 or every row names one,
every row lands on L.  Otherwise the rows are resolved in turn, and only
a row whose given copies sit on different levels walks the copy chains:
coarser copies are substituted and the lowest common level wins.  Rows
whose vertices reach no common level, or coincide after that, are
skipped; the per-row outcome is in the growth report.  Each row draws
the ids of the vertices it makes, then of the edges its triangle makes,
then its element's, in one cumulative sum; the rows of each level enter
in one batch (``Grid._add_batch``), a provisional vertex keyed by its
pseudo-slot until it is made.

The grid's phase runs idle -> queued -> grown -> idle; the first
accepted queue call moves it to queued, and ``grow`` may also start from
idle.  The elements ``grow`` inserts are new by id until ``post_grow``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import FactoryError, ScenarioError
from .topology import GridFactory, _makers, _refuse_leaves

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
        first = len(queue._markers)
        positions = queue.insert_elements(kind, vertex_indices, parametrization)
        try:
            _refuse_leaves(queue.leaves - _removed_leaves(grid) + len(queue._markers), "grow")
        except ScenarioError:
            del queue._elements[-1], queue._parametrizations[first:], queue._markers[first:]
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


def _levels(grid, queue, rows):
    """Each row's level (-1: none common) and its vertices' slots there, ``-1 - i`` if provisional."""
    places, fresh = queue.places, rows >= len(queue.places)
    given = np.fromiter(chain.from_iterable(map(places.__getitem__, rows[~fresh].tolist())), np.int64)
    slots = -1 - rows
    slots[~fresh] = given[1::2]
    levels = np.unique(given[::2])
    if len(levels) < 2 and (not levels.any() or (~fresh).any(axis=1).all()):
        return np.full(len(rows), levels.max(initial=0)), slots
    level, known = np.empty(len(rows), dtype=np.int64), dict(enumerate(places))
    for q, row in enumerate(rows.tolist()):
        given = [known.get(i) for i in row]  # a provisional vertex once its first user has a level
        levels = {place[0] for place in given if place}
        level[q] = max(levels, default=0)
        if len(levels) > 1:
            chains = [p and dict(grid._vertex_chain(*p) if p[1] >= 0 else [p]) for p in given]
            common = set.intersection(*(set(c) for c in chains if c))
            level[q] = min(common, default=-1)
            slots[q] = [-1 - i if c is None else c.get(level[q], -1) for i, c in zip(row, chains)]
        known.update({i: (int(level[q]), -1 - i) for i in row if level[q] >= 0 and i not in known})
    return level, slots


def _insert(grid, queue, report):
    """Commit the queued rows in queue order; see the module docstring."""
    base, c = len(queue.places), grid.dim + 1
    rows = np.concatenate(queue._elements or [np.empty((0, c), dtype=np.int64)])
    level, slots = _levels(grid, queue, rows)
    ok, fresh, ordered = level >= 0, rows >= base, np.sort(slots, axis=1)
    inserted = ok & (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)
    # a provisional vertex is made by its first user with a level
    makes = _makers(rows.ravel(), (fresh & ok[:, None]).ravel())[0].reshape(rows.shape)
    by_level = [(lev, np.flatnonzero(level == lev)) for lev in np.unique(level[ok]).tolist()]
    batches, new = [None] * len(by_level), np.zeros((len(rows), 3 if grid.dim == 2 else 0), dtype=bool)
    for i, (lev, at) in enumerate(by_level if grid.dim == 2 else ()):  # segments make no edges
        at = at[inserted[at]]
        batches[i] = grid._edge_batch(lev, slots[at])
        new[at] = batches[i][0]
    # per row: the ids of the vertices it makes, of its new edges, then its own
    ids = grid._draw_ids(np.concatenate([makes, new, inserted[:, None]], axis=1))
    coords = np.concatenate(queue._coords or [np.empty((0, grid.world_dim))])
    made = np.zeros(queue._n_vertices, dtype=np.int64)  # provisional index -> slot
    for (lev, at), batch in zip(by_level, batches):
        new_v = rows[at][makes[at]]
        made[new_v] = grid._add_vertices(lev, coords[new_v - base], ids[at, :c][makes[at]])
        at = at[inserted[at]]
        corners = np.where(fresh[at], made[rows[at]], slots[at])
        grid._add_batch(lev, corners, batch, ids[at, c:], [queue._parametrizations[q] for q in at.tolist()])
    report.inserted = list(zip(np.flatnonzero(inserted).tolist(), ids[inserted, -1].tolist()))
    reasons = ("vertices reach no common level", "vertices coincide after level resolution")
    report.skipped = [(q, reasons[bool(ok[q])]) for q in np.flatnonzero(~inserted).tolist()]


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
    grid._queue, grid._queued_removals, grid._growth_report, grid._phase = None, set(), report, "grown"
    grid._revision += 1
    return changed


def post_grow(grid):
    """Close the grow transaction: no element counts as new any more."""
    grid._require("post_grow", "grown")
    grid._phase = "idle"
    grid._first_new_id = math.inf
