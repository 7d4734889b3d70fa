"""Leaf and level views and their consecutive index sets.

Views are snapshots: any adapt or grow commit invalidates previously
created views and index sets (queries then raise StaleEntityError).
Index sets number the entities of one view consecutively from zero per
codimension, in iteration order, and are rebuilt eagerly on view
creation.  Persistent ids (``entity.id``) survive every transaction for
entities that survive.
"""

from __future__ import annotations

from .errors import StaleEntityError
from .topology import Edge, Element, Vertex


def element_is_leaf(grid, level, slot):
    return not grid._elems[level][slot].children


def edge_in_leaf_view(grid, level, slot):
    """An edge belongs to the leaf view iff some incident element is a leaf."""
    rec = grid._edges[level][slot]
    elems = grid._elems[level]
    return any(not elems[t].children for t in rec.incident)


def _touches_leaf(grid, level, slot):
    elems = grid._elems[level]
    return any(not elems[t].children for t in grid._verts[level][slot].incident)


def vertex_in_leaf_view(grid, level, slot):
    """Finest chain copy that touches at least one leaf element.

    Each logical vertex appears in the leaf view exactly once, through
    this representative; coarser copies of hanging nodes are excluded.
    """
    if not _touches_leaf(grid, level, slot):
        return False
    rec = grid._verts[level][slot]
    while rec.finer is not None:
        level, slot = level + 1, rec.finer
        if _touches_leaf(grid, level, slot):
            return False
        rec = grid._verts[level][slot]
    return True


class GridView:
    """Read access to either the leaf entities or the entities of one level."""

    def __init__(self, grid, level):
        self.grid = grid
        self.level = level  # None selects the leaf view
        self._revision = grid._revision
        self._index = {}
        self._entities = {}
        self._facet_table = None  # built by flow.facet_table on first use
        for codim in self._codims():
            self._build(codim)

    @property
    def is_leaf_view(self):
        return self.level is None

    def _codims(self):
        return (0, 1, self.grid.dim) if self.grid.dim == 2 else (0, 1)

    def _check_fresh(self):
        if self._revision != self.grid._revision:
            raise StaleEntityError("view created before the last grid modification")

    def _build(self, codim):
        grid = self.grid
        d = grid.dim
        ents = []
        levels = range(len(grid._elems)) if self.level is None else (self.level,)
        for level in levels:
            if codim == 0:
                for slot in range(len(grid._elems[level])):
                    if self.level is not None or element_is_leaf(grid, level, slot):
                        ents.append(Element(grid, level, slot))
            elif codim == d:
                for slot in range(len(grid._verts[level])):
                    if self.level is not None or vertex_in_leaf_view(grid, level, slot):
                        ents.append(Vertex(grid, level, slot))
            else:  # codim 1 of a dim-2 grid
                for slot in range(len(grid._edges[level])):
                    if self.level is not None or edge_in_leaf_view(grid, level, slot):
                        ents.append(Edge(grid, level, slot))
        self._entities[codim] = ents
        self._index[codim] = {(e.level, e.slot): i for i, e in enumerate(ents)}

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
        self._check_fresh()
        codim = entity.codim
        return (entity.level, entity.slot) in self._index.get(codim, {})

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

        Vertex queries resolve through the chain: asking with a coarser copy
        of a leaf-view vertex yields the index of its finest copy, so corner
        lookups from coarse leaf elements land on the right point.
        """
        self.view._check_fresh()
        if entity.grid is not self.view.grid:
            raise StaleEntityError("entity belongs to a different grid")
        codim = entity.codim
        table = self.view._index.get(codim)
        if table is None:
            raise StaleEntityError(f"no codim {codim} in this view")
        key = (entity.level, entity.slot)
        if key in table:
            return table[key]
        if isinstance(entity, Vertex) and self.view.is_leaf_view:
            # resolve through the copy chain: at most one copy represents
            # the logical vertex in the leaf view
            grid = self.view.grid
            level, slot = entity.level, entity.slot
            while grid._verts[level][slot].father is not None:
                level, slot = level - 1, grid._verts[level][slot].father
            while True:
                if (level, slot) in table:
                    return table[(level, slot)]
                finer = grid._verts[level][slot].finer
                if finer is None:
                    break
                level, slot = level + 1, finer
        raise StaleEntityError(f"{entity!r} is not part of this view")
