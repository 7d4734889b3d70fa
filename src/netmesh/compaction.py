"""Arena compaction after element removal (coarsening or growth).

Removing leaf elements can orphan edges, vertex copies and whole
refinement-tree branches.  This module computes the surviving entity
sets, gives the survivors of each level new contiguous slots in their old
order, rewrites every slot reference into a level that lost a slot and
trims empty trailing levels; a level that loses nothing keeps its slots.
Survival and the remap of the vertex and edge columns are masks and
gathers; element records are remapped one by one.  The grid stores no
incidence lists, so there is none to rebuild.  Slot
handles are invalidated (the grid's structural revision is bumped);
persistent ids are untouched.

Survival rules:

* an element survives unless listed dead (only leaves are ever listed);
* an edge survives when a surviving triangle uses it, when one of its
  children survives, or when its sibling half survives (edge children
  are kept in pairs so split edges never end up with a single half);
* a vertex copy survives when a surviving element or edge references it
  or when a finer copy survives (father chains stay contiguous).
"""

from __future__ import annotations

from itertools import chain, compress

import numpy as np

# per arena: each slot reference its entities hold, as (field, arena the
# slots index, level of that arena relative to the entity's level)
_LINKS = {
    "_verts": (("father", "_verts", -1), ("finer", "_verts", 1)),
    "_edges": (("v", "_verts", 0), ("father", "_edges", -1), ("children", "_edges", 1)),
    "_elems": (("v", "_verts", 0), ("edges", "_edges", 0), ("father", "_elems", -1),
               ("children", "_elems", 1)),
}


def remove_elements(grid, dead):
    """Remove the (level, slot) element set ``dead`` and compact the arenas."""
    elems, edges, verts = grid._elems, grid._edges, grid._verts
    n_levels = len(elems)

    elem_alive = [np.ones(len(recs), dtype=bool) for recs in elems]
    for lev, s in dead:
        elem_alive[lev][s] = False
    live = [list(compress(recs, alive.tolist())) for recs, alive in zip(elems, elem_alive)]
    edge_alive = [_used(len(level), [rec.edges for rec in recs]) for level, recs in zip(edges, live)]
    _keep_fathers(edges, edge_alive)
    for lev, level in enumerate(edges[:-1]):  # keep half pairs together
        kids = level.children[edge_alive[lev] & (level.children[:, 0] >= 0)]
        finer = edge_alive[lev + 1]
        finer[kids[finer[kids].any(axis=1)]] = True
    vert_alive = [_used(len(level), [rec.v for rec in recs], user.v[alive])
                  for level, recs, user, alive in zip(verts, live, edges, edge_alive)]
    _keep_fathers(verts, vert_alive)

    alive = {"_elems": elem_alive, "_edges": edge_alive, "_verts": vert_alive}
    maps = {name: [None if a.all() else np.where(a, a.cumsum() - 1, -1) for a in levels]
            for name, levels in alive.items()}  # new slot per old slot, -1 for one that goes
    for name, links in _LINKS.items():
        arena = getattr(grid, name)
        for lev in range(n_levels):
            if maps[name][lev] is not None:  # a level that loses nothing keeps its slots
                arena[lev] = live[lev] if name == "_elems" else arena[lev].keep(alive[name][lev])
            for attr, target, step in links:
                m = maps[target][lev + step] if 0 <= lev + step < n_levels else None
                if m is None:  # the linked level keeps its slots
                    continue
                if name != "_elems":  # a column: a link to a slot that goes reads -1
                    old = getattr(arena[lev], attr)
                    old[...] = np.where(old >= 0, m[old], -1)
                    continue
                m = m.tolist()
                for rec in arena[lev]:
                    old = getattr(rec, attr)
                    if type(old) is tuple:  # dropped children vanish from the tuple
                        setattr(rec, attr, tuple([m[x] for x in old if m[x] >= 0]))
                    elif old is not None:
                        setattr(rec, attr, m[old])

    # trim empty trailing levels
    while len(elems) > 1 and not elems[-1] and not edges[-1] and not verts[-1]:
        for arena in (elems, edges, verts):
            arena.pop()

    grid._srev += 1


def _used(n, rows, *columns):
    """Flags over ``n`` slots: set where one of the ``rows`` of slots or one
    of the slot arrays ``columns`` of the surviving users lists the slot."""
    flags = np.zeros(n, dtype=bool)
    flags[np.fromiter(chain.from_iterable(rows), np.int64)] = True
    for slots in columns:
        flags[slots.ravel()] = True
    return flags


def _keep_fathers(arena, alive):
    """Child-to-father survival, finest level first."""
    for lev in range(len(arena) - 1, 0, -1):
        father = arena[lev].father[alive[lev]]
        alive[lev - 1][father[father >= 0]] = True
