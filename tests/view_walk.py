"""The per-record view walk, kept as the reference for ``GridView._build``.

Before the vertices and edges moved into per-level columns, a view
walked the records of each codim once, in (level, slot) order and keyed
by id, and a kept vertex copy replaced the coarser copies kept before it.
``WalkedView(grid, level)`` runs that walk unchanged over record-like
rows of the columns (``tests/rows.py``); ``level`` None is the leaf view.
It keeps what a view keeps: ``_places`` and ``_index`` per codim, the
corner indices (``_arrays[0]``) and the coordinates (``_arrays[dim]``).
"""

from itertools import compress, repeat

import numpy as np

from rows import Row, rows


class WalkedView:
    def __init__(self, grid, level):
        self.grid = grid
        self.level = level
        self._places, self._index, self._arrays = {}, {}, {}
        for codim in range(grid.dim, -1, -1):  # vertices first: element corners index them
            self._build(codim)

    def _build(self, codim):
        """One pass over the records in (level, slot) order, keyed by id.

        The leaf view keeps, per level, the edges and vertices that the
        leaf elements of that level list as their own, flagged in one pass
        over those elements.  A vertex copy that is kept replaces the
        coarser copies kept before it, at its own place, so the finest
        copy touching a leaf stays.
        """
        grid = self.grid
        arena = grid._elems if codim == 0 else grid._verts if codim == grid.dim else grid._edges
        leaf = self.level is None
        kept = {}
        for level in range(len(arena)) if leaf else (self.level,):
            records = arena[level] if codim == 0 else rows(arena[level])
            keep = repeat(True)
            if leaf and codim == 0:
                keep = [not rec.children for rec in records]
            elif leaf:
                keep = bytearray(len(records))
                for erec in grid._elems[level]:
                    if not erec.children:
                        for s in erec.v if codim == grid.dim else erec.edges:
                            keep[s] = 1
            for slot, rec in compress(enumerate(records), keep):
                kept.pop(rec.id, None)
                kept[rec.id] = (level, slot, rec)
        self._places[codim] = tuple((level, slot) for level, slot, _ in kept.values())
        self._index[codim] = {rid: i for i, rid in enumerate(kept)}
        if codim == grid.dim:
            coords = np.array([rec.coords for _, _, rec in kept.values()], dtype=float)
            self._arrays[codim] = coords.reshape(-1, grid.world_dim)
        elif codim == 0:
            index, verts = self._index[grid.dim], grid._verts
            corners = [index[Row(verts[level], s).id] for level, _, rec in kept.values() for s in rec.v]
            self._arrays[codim] = np.array(corners, dtype=np.int64).reshape(-1, grid.dim + 1)
