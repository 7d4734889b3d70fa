"""Leaf and level views and their consecutive index sets.

Views are snapshots: any adapt or grow commit invalidates previously
created views and index sets (queries then raise StaleEntityError).
``Grid.leaf_view`` hands out one view per grid revision while it is in use.
Index sets number the entities of one view consecutively from zero per
codimension, in iteration order.  Persistent ids (``entity.id``) survive
every transaction for entities that survive.

A view keys each codimension by persistent id, the same rule the facet
table and growth use: the copies of a vertex on different levels share
one id and are one logical vertex.  A level view keeps every entity of
its level.  The leaf view keeps the leaf elements and the edges and
vertices that touch a leaf element; of a vertex it keeps the finest copy
that touches a leaf, so any copy asks for the same index.

A view is built when it is made, by one pass over each level's element
records and gathers from the vertex and edge columns, and keeps arrays
in index order: per codim the persistent ``ids`` and the ``(level,
slot)`` ``places``, per element the vertex indices of its corners
(``corner_indices``) and per vertex its ``coordinates``.  The facet
table, the intersection table, the VTK writer, growth and the leaf-data
transfer read these; entity wrappers are made only on the first
``entities`` call of a codim.  Each wrapper carries its persistent id,
so ``entity.id`` reads no record, and each element wrapper the view's
read-only ``coordinates()[corner_indices()]`` array and its row in it,
which its ``geometry`` reads.  The intersection table maps its fragments
from the same array.  The facet and intersection tables are built on
first use and kept on the view; the grid drops those of its stale leaf
view when it builds the next one.
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter

import numpy as np

from .errors import DimensionMismatchError, StaleEntityError
from .topology import Edge, Element, Vertex, _ints


def _codim(entity):
    """Codimension of an entity handle, refusing anything else as ``Grid._own`` does."""
    if not isinstance(entity, (Element, Edge, Vertex)):
        raise DimensionMismatchError(f"expected an entity, got a {type(entity).__name__}")
    return entity.codim


class GridView:
    """Read access to either the leaf entities or the entities of one level."""

    def __init__(self, grid, level):
        self.grid = grid
        self.level = level  # None selects the leaf view
        self._revision = grid._revision
        self._places = {}  # codim -> ((level, slot), ...) in index order
        self._ids = {}  # codim -> persistent ids in index order
        self._index = {}  # codim -> {persistent id: index}, made on first use
        self._arrays = {}  # 0 -> corner indices per element, dim -> coordinates per vertex
        self._entities = {}  # codim -> wrappers, made on the first entities() call
        self._corners = None  # (n, dim + 1, world_dim) element corners, made with the wrappers
        self._facet_table = None  # built by flow.facet_table on first use
        self._intersection_table = None  # built by the first intersections() call
        self._build()

    def _release(self):
        """Drop what was built on first use: a stale view can read none of it."""
        self._facet_table = self._intersection_table = self._corners = None
        self._entities, self._index = {}, {}

    def _check_fresh(self):
        if self._revision != self.grid._revision:
            raise StaleEntityError("view created before the last grid modification")

    def _build(self):
        """Every codim in (level, slot) order, keyed by id.  The leaf view keeps,
        per level, the edges and vertices that the leaf elements of that level
        list; of the copies of a vertex it keeps the last, at its own place,
        so the finest copy touching a leaf stays."""
        grid, d, leaf = self.grid, self.grid.dim, self.level is None
        found = {codim: [] for codim in range(d + 1)}  # per codim and level: level, slots, ids
        corners, coords = [], []  # per level: kept elements' corner ids, kept vertices' coordinates
        for level in range(len(grid._elems)) if leaf else (self.level,):
            recs, verts, edges = grid._elems[level], grid._verts[level], grid._edges[level]
            flags = [not rec.children for rec in recs] if leaf else [True] * len(recs)
            recs = list(compress(recs, flags))
            v = _ints(map(attrgetter("v"), recs), d + 1)
            found[0].append((level, np.flatnonzero(flags), np.fromiter(map(attrgetter("id"), recs), np.int64)))
            corners.append(verts.id[v])
            used = {d: (verts, v)}
            if d == 2:
                used[1] = (edges, _ints(map(attrgetter("edges"), recs), 3) if leaf else None)
            for codim, (arena, held) in used.items():
                slots = np.unique(held.ravel()) if leaf else np.arange(len(arena))
                found[codim].append((level, slots, arena.id[slots]))
            coords.append(verts.coords[found[d][-1][1]])
        for codim, parts in found.items():
            levels = np.concatenate([np.full(len(slots), level) for level, slots, _ in parts])
            slots, ids = (np.concatenate(column).ravel() for column in list(zip(*parts))[1:])
            keep = slice(None)
            if leaf and codim == d:  # the last copy of each vertex
                _, last = np.unique(ids[::-1], return_index=True)
                keep = np.sort(len(ids) - 1 - last)
            self._places[codim] = tuple(zip(levels[keep].tolist(), slots[keep].tolist()))
            self._ids[codim] = ids[keep]
            if codim == d:
                self._arrays[d] = np.concatenate(coords)[keep].reshape(-1, grid.world_dim)
        vids = self._ids[d]
        order = vids.argsort()
        corners = np.concatenate(corners).reshape(-1, d + 1)
        self._arrays[0] = order[vids[order].searchsorted(corners)]

    def _of(self, table, codim):
        self._check_fresh()
        if codim not in table:
            raise StaleEntityError(f"view has no codim {codim} entities")
        return table[codim]

    def _find(self, codim, eid):
        """Index of the persistent id ``eid`` in one codim (None: not kept), by a dict made on first use."""
        ids = self._of(self._ids, codim)
        if codim not in self._index:
            self._index[codim] = dict(zip(ids.tolist(), range(len(ids))))
        return self._index[codim].get(eid)

    def _wrappers(self, codim):
        """The view's own list of entity wrappers of one codim, made on first use."""
        places = self._of(self._places, codim)
        if codim not in self._entities:
            grid, ids = self.grid, self._ids[codim].tolist()
            if codim == 0:
                corners = self._element_corners()
                made = [
                    Element(grid, level, slot, eid, corners, i)
                    for i, ((level, slot), eid) in enumerate(zip(places, ids))
                ]
            else:
                kind = Vertex if codim == grid.dim else Edge
                made = [kind(grid, level, slot, eid) for (level, slot), eid in zip(places, ids)]
            self._entities[codim] = made
        return self._entities[codim]

    def _element_corners(self):
        """Corners of every element from the view's coordinates, read-only, made once."""
        if self._corners is None:
            corners = self._arrays[self.grid.dim][self._arrays[0]]
            corners.flags.writeable = False
            self._corners = corners
        return self._corners

    # -- public surface ---------------------------------------------------

    def entities(self, codim):
        """Deterministically ordered entities of the given codimension."""
        return list(self._wrappers(codim))

    def elements(self):
        return self.entities(0)

    def vertices(self):
        return self.entities(self.grid.dim)

    def size(self, codim):
        return len(self._of(self._places, codim))

    def ids(self, codim):
        """Persistent ids of one codim in index order, a new int64 array."""
        return self._of(self._ids, codim).copy()

    def places(self, codim):
        """``(level, slot)`` of one codim's records in index order, a tuple."""
        return self._of(self._places, codim)

    def corner_indices(self):
        """Vertex indices of each element's corners in its own order, a new (n, dim + 1) array."""
        return self._of(self._arrays, 0).copy()

    def coordinates(self):
        """Vertex coordinates in index order, a new (nv, world_dim) array."""
        return self._of(self._arrays, self.grid.dim).copy()

    def contains(self, entity):
        """Whether ``entity`` itself, not merely a copy of it, is in this view."""
        self._check_fresh()
        codim = _codim(entity)
        i = self._find(codim, entity.id) if codim in self._ids else None
        return i is not None and entity.grid is self.grid and self._places[codim][i] == (entity.level, entity.slot)

    @property
    def index_set(self):
        return IndexSet(self)


class IndexSet:
    """Consecutive, zero-based entity numbering of one view."""

    def __init__(self, view):
        self.view = view

    def size(self, codim):
        return self.view.size(codim)

    def index_of(self, entity):
        """Index of ``entity`` in its codim; StaleEntityError when not in view.

        The index belongs to the persistent id: in the leaf view, asking
        with a coarser copy of a vertex yields the index of its finest
        copy, so corner lookups from coarse leaf elements land on the
        right point.
        """
        view = self.view
        codim = _codim(entity)
        if entity.grid is not view.grid:
            raise StaleEntityError("entity belongs to a different grid")
        i = view._find(codim, entity.id)
        # vertex copies share their id, so a level view also matches the level
        if i is None or (view.level is not None and entity.level != view.level):
            raise StaleEntityError(f"{entity!r} is not part of this view")
        return i
