"""Arena compaction after element removal (coarsening or growth).

Removing leaf elements can orphan edges, vertex copies and whole
refinement-tree branches.  This module computes the surviving entity
sets, gives the survivors of each level new contiguous slots in their old
order, rewrites every slot reference into a level that lost a slot and
trims empty trailing levels; a level that loses nothing keeps its list.
The grid stores no incidence lists, so there is none to rebuild.  Slot
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

from itertools import count

# per arena: each slot reference its records hold, as (attribute, arena
# the slots index, level of that arena relative to the record's level)
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

    elem_alive = [[True] * len(recs) for recs in elems]
    for lev, s in dead:
        elem_alive[lev][s] = False
    edge_alive = _used(edges, (elems, elem_alive, "edges"))
    _keep_fathers(edges, edge_alive)
    # keep half pairs together
    for lev, recs in enumerate(edges):
        for s, rec in enumerate(recs):
            if edge_alive[lev][s] and rec.children:
                finer = edge_alive[lev + 1]
                c0, c1 = rec.children
                if finer[c0] or finer[c1]:
                    finer[c0] = finer[c1] = True
    vert_alive = _used(verts, (elems, elem_alive, "v"), (edges, edge_alive, "v"))
    _keep_fathers(verts, vert_alive)

    alive = {"_elems": elem_alive, "_edges": edge_alive, "_verts": vert_alive}
    maps = {name: [_slot_map(a) for a in levels] for name, levels in alive.items()}
    for name, links in _LINKS.items():
        arena = getattr(grid, name)
        for lev, recs in enumerate(arena):
            if maps[name][lev] is not None:
                arena[lev] = recs = [rec for rec, new in zip(recs, maps[name][lev]) if new is not None]
            for attr, target, step in links:
                m = maps[target][lev + step] if 0 <= lev + step < n_levels else None
                if m is None:  # the linked level keeps its slots
                    continue
                for rec in recs:
                    old = getattr(rec, attr)
                    if type(old) is tuple:  # dropped children vanish from the tuple
                        setattr(rec, attr, tuple([m[x] for x in old if m[x] is not None]))
                    elif old is not None:
                        setattr(rec, attr, m[old])

    # trim empty trailing levels
    while len(elems) > 1 and not elems[-1] and not edges[-1] and not verts[-1]:
        elems.pop()
        edges.pop()
        verts.pop()

    grid._srev += 1


def _used(arena, *users):
    """Per level, whether a surviving user references a slot of ``arena``;
    a user is (its arena, its survival flags, the attribute with the slots)."""
    alive = [[False] * len(recs) for recs in arena]
    for user_arena, user_alive, attr in users:
        for lev, recs in enumerate(user_arena):
            flags, keep = alive[lev], user_alive[lev]
            for s, rec in enumerate(recs):
                if keep[s]:
                    for x in getattr(rec, attr):
                        flags[x] = True
    return alive


def _keep_fathers(arena, alive):
    """Child-to-father survival, finest level first."""
    for lev in range(len(arena) - 1, 0, -1):
        coarser, flags = alive[lev - 1], alive[lev]
        for s, rec in enumerate(arena[lev]):
            if flags[s] and rec.father is not None:
                coarser[rec.father] = True


def _slot_map(alive):
    """New slot of each old slot of one level, None for a slot that goes;
    None for a level that loses nothing, whose slots stay."""
    if all(alive):
        return None
    new = count()
    return [next(new) if keep else None for keep in alive]
