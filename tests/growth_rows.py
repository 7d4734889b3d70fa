"""The per-row grow loop, kept as the reference for ``growth.grow``.

Before the queue kept whole arrays, ``queue_element`` turned each row
into references at queue time, ``("v", level, slot)`` for an existing
leaf vertex (its place in the pre-grow leaf view) and ``("q", k)`` for
the k-th provisional vertex, and ``grow`` walked the copy chain of every
existing reference of every row.  ``grow_by_rows(grid)`` builds those
references from what the queue staged and runs that loop unchanged, then
closes the transaction as ``grow`` does.  It appends one record at a
time through ``tests/append_rows.py``, so a triangle finds or makes its
edges before it draws its id.
"""

import numpy as np

from netmesh.growth import GrowthReport

from append_rows import RowAppends
from rows import rows


def grow_by_rows(grid):
    """``grid.grow()`` as the per-row loop commits it; returns whether the grid changed."""
    grid._require("grow", "idle", "queued")
    grid._first_new_id = grid._next_id
    report = GrowthReport()
    queued_vertices, queued_elements = [], []
    if grid._queue is not None:
        leaves = grid._queue.places
        base = len(leaves)
        queued_vertices = list(np.concatenate(grid._queue._coords)) if grid._queue._coords else []
        rows = np.concatenate(grid._queue._elements).tolist() if grid._queue._elements else []
        for idx, parametrization in zip(rows, grid._queue._parametrizations):
            refs = tuple(("v",) + leaves[i] if i < base else ("q", i - base) for i in idx)
            queued_elements.append((refs, parametrization))

    created = {}  # provisional queue slot -> (level, vertex slot)
    appends = RowAppends(grid)
    for qidx, (refs, parametrization) in enumerate(queued_elements):
        chains = []  # per ref: level -> slot of its copies, None for a vertex not yet created
        given_levels = set()
        for ref in refs:
            if ref[0] == "v":
                chains.append(dict(grid._vertex_chain(ref[1], ref[2])))
                given_levels.add(ref[1])
            elif ref[1] in created:
                lev, slot = created[ref[1]]
                chains.append({lev: slot})
                given_levels.add(lev)
            else:
                chains.append(None)
        if len(given_levels) <= 1:
            resolved = min(given_levels, default=0)
        else:
            common = set.intersection(*(set(c) for c in chains if c is not None))
            if not common:
                report.skipped.append((qidx, "vertices reach no common level"))
                continue
            resolved = min(common)

        vslots = []
        for ref, chain in zip(refs, chains):
            if chain is not None:
                vslots.append(chain[resolved])
            else:
                s = appends.add_vertex(resolved, queued_vertices[ref[1]].copy())
                created[ref[1]] = (resolved, s)
                vslots.append(s)
        if len(set(vslots)) != grid.dim + 1:
            report.skipped.append((qidx, "vertices coincide after level resolution"))
            continue

        slot = appends.add_element(resolved, tuple(vslots), parametrization=parametrization)
        report.inserted.append((qidx, grid._elems[resolved][slot].id))

    if grid._queued_removals:
        from netmesh.compaction import remove_elements

        report.removed = len(grid._queued_removals)
        remove_elements(grid, set(grid._queued_removals))

    changed = bool(report.inserted or report.removed)
    grid._queue = None
    grid._queued_removals = set()
    grid._growth_report = report
    grid._phase = "grown"
    grid._revision += 1
    return changed


def records(grid):
    """Every record of every arena as comparable tuples, coordinates as bits."""
    verts = [
        [(rec.coords.tobytes(), rec.id, rec.father, rec.finer) for rec in rows(level)]
        for level in grid._verts
    ]
    edges = [[(rec.v, rec.id, rec.father, rec.children) for rec in rows(level)] for level in grid._edges]
    elems = [
        [
            (rec.v, rec.id, rec.edges, rec.father, rec.children, rec.mark,
             id(rec.parametrization), rec.marker)
            for rec in level
        ]
        for level in grid._elems
    ]
    return verts, edges, elems, grid._next_id
