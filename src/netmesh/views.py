"""Leaf and level views and their consecutive index sets.

Views are snapshots: any adapt or grow commit invalidates previously
created views and index sets (queries then raise StaleEntityError).
``Grid.leaf_view`` hands out one view per grid revision while it is in use.
Index sets number the entities of one view consecutively from zero per
codimension, in iteration order, and are rebuilt eagerly on view
creation.  Persistent ids (``entity.id``) survive every transaction for
entities that survive.

A view keys each codimension by persistent id, the same rule the facet
table and growth use: the copies of a vertex on different levels share
one id and are one logical vertex.  A level view keeps every record of
its level.  The leaf view keeps the leaf elements and the edges and
vertices that touch a leaf element; of a vertex it keeps the finest copy
that touches a leaf, so any copy asks for the same index.
"""

from __future__ import annotations

from .errors import StaleEntityError
from .topology import Edge, Element, Vertex


class GridView:
    """Read access to either the leaf entities or the entities of one level."""

    def __init__(self, grid, level):
        self.grid = grid
        self.level = level  # None selects the leaf view
        self._revision = grid._revision
        self._index = {}  # codim -> {persistent id: index}
        self._entities = {}
        self._facet_table = None  # built by flow.facet_table on first use
        for codim in self._codims():
            self._build(codim)

    def _codims(self):
        return (0, 1, self.grid.dim) if self.grid.dim == 2 else (0, 1)

    def _check_fresh(self):
        if self._revision != self.grid._revision:
            raise StaleEntityError("view created before the last grid modification")

    def _build(self, codim):
        """One pass over the records in (level, slot) order, keyed by id.

        A vertex copy that is kept replaces the coarser copies kept before
        it, at its own place, so the finest copy touching a leaf stays.
        """
        grid = self.grid
        if codim == 0:
            kind, arena = Element, grid._elems
        elif codim == grid.dim:
            kind, arena = Vertex, grid._verts
        else:  # codim 1 of a dim-2 grid
            kind, arena = Edge, grid._edges
        leaf = self.level is None
        kept = {}
        for level in range(len(arena)) if leaf else (self.level,):
            elems = grid._elems[level]
            for slot, rec in enumerate(arena[level]):
                if leaf and (rec.children if codim == 0 else all(elems[t].children for t in rec.incident)):
                    continue
                kept.pop(rec.id, None)
                kept[rec.id] = kind(grid, level, slot)
        self._entities[codim] = list(kept.values())
        self._index[codim] = {rid: i for i, rid in enumerate(kept)}

    # -- public surface ---------------------------------------------------

    def entities(self, codim):
        """Deterministically ordered entities of the given codimension."""
        self._check_fresh()
        if codim not in self._entities:
            raise StaleEntityError(f"view has no codim {codim} entities")
        return list(self._entities[codim])

    def elements(self):
        return self.entities(0)

    def vertices(self):
        return self.entities(self.grid.dim)

    def size(self, codim):
        self._check_fresh()
        if codim not in self._entities:
            raise StaleEntityError(f"view has no codim {codim} entities")
        return len(self._entities[codim])

    def contains(self, entity):
        """Whether ``entity`` itself, not merely a copy of it, is in this view."""
        self._check_fresh()
        i = self._index.get(entity.codim, {}).get(entity.id)
        return i is not None and self._entities[entity.codim][i] == entity

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
        view._check_fresh()
        if entity.grid is not view.grid:
            raise StaleEntityError("entity belongs to a different grid")
        i = view._index.get(entity.codim, {}).get(entity.id)
        # vertex copies share their id, so a level view also matches the level
        if i is None or (view.level is not None and entity.level != view.level):
            raise StaleEntityError(f"{entity!r} is not part of this view")
        return i
