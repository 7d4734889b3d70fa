"""The single-record appends, kept as the per-row reference for the batch appends of ``Grid``.

Before lines and triangles entered in batches, ``Grid`` appended one
record at a time: ``add_element`` finds or makes the edge of each corner
pair of a triangle, in ``TRIANGLE_EDGES`` order, before it draws its own
id, and ``get_or_make_edge`` asks a per-level pair dict, built by a scan
of the level on first use, that every edge made here enters.  A
``RowAppends`` is made per transaction, while only its appends change
the grid.  ``create_grid_by_rows(factory)`` is ``factory.create_grid()``
as one ``add_element`` per row builds it; ``tests/refine_rows.py`` and
``tests/growth_rows.py`` refine and grow through the same appends.
"""

import numpy as np

from netmesh.topology import TRIANGLE_EDGES, ElemRec, Grid

from rows import Row, rows


class RowAppends:
    """One record at a time on ``grid``, with its own edge lookup per level."""

    def __init__(self, grid):
        self.grid = grid
        self.lookups = {}  # level -> unordered vertex-slot pair -> edge slot

    def new_id(self):
        i = self.grid._next_id
        self.grid._next_id += 1
        return i

    def add_vertex(self, level, coords, vid=None, father=None):
        """Append a vertex record at ``level``; a new id unless ``vid`` is a chain's id."""
        vid = self.new_id() if vid is None else vid
        return self.grid._add_vertices(level, [coords], [vid], -1 if father is None else father)[0]

    def add_element(self, level, v, father=None, parametrization=None, corners_in_father=None,
                    marker=None, edges=None):
        """Append an element over vertex slots ``v`` at ``level``; returns its slot.

        A triangle takes the edge slots ``edges`` when given (refinement
        knows them), else finds or makes the edge of each corner pair; edge
        ids are drawn before the element id.  An element without a father
        roots its own refinement tree; ``_root`` finds a child's.
        """
        if edges is None:
            edges = ()
            if self.grid.dim == 2:
                edges = tuple(self.get_or_make_edge(level, v[a], v[b]) for a, b in TRIANGLE_EDGES)
        elems = self.grid._elems[level]
        elems.append(ElemRec(
            v, self.new_id(), edges, father,
            parametrization=parametrization,
            corners_in_father=corners_in_father,
            marker=marker,
        ))
        return len(elems) - 1

    def edge_index(self, level):
        """Lazy map unordered vertex-slot pair -> edge slot for one level."""
        if level not in self.lookups:
            self.lookups[level] = {frozenset(rec.v): s for s, rec in enumerate(rows(self.grid._edges[level]))}
        return self.lookups[level]

    def add_edge(self, level, va, vb, father=None):
        """Append a new edge over vertex slots ``va``, ``vb``; returns its slot."""
        father = -1 if father is None else father
        slot = self.grid._edges[level].append(v=[(va, vb)], id=[self.new_id()], father=father)[0]
        if level in self.lookups:
            self.lookups[level][frozenset((va, vb))] = slot
        return slot

    def get_or_make_edge(self, level, va, vb):
        slot = self.edge_index(level).get(frozenset((va, vb)))
        return self.add_edge(level, va, vb) if slot is None else slot

    def vertex_copy(self, level, slot):
        """Slot of the chain copy at ``level + 1``, creating it if absent."""
        rec = Row(self.grid._verts[level], slot)
        if rec.finer is None:
            self.grid._ensure_level(level + 1)
            rec.finer = self.add_vertex(level + 1, rec.coords.copy(), rec.id, slot)
        return rec.finer


def create_grid_by_rows(factory):
    """``factory.create_grid()`` as the per-row appends build it: the vertices
    with consecutive ids, then one ``add_element`` per staged row."""
    grid = Grid(factory.config)
    appends = RowAppends(grid)
    for coords in np.concatenate(factory._coords):
        appends.add_vertex(0, coords)
    rows = np.concatenate(factory._elements).tolist()
    for corners, parametrization, marker in zip(rows, factory._parametrizations, factory._markers):
        appends.add_element(0, tuple(corners), parametrization=parametrization, marker=marker)
    return grid
