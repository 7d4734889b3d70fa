"""The per-element intersection walk, kept as the reference for the view's table.

Before the view built one intersection table, ``intersections(view, el)``
walked the refinement trees from ``el`` alone: in 1D the copy chain of
each facet vertex, in 2D each facet edge's ancestors and the finer edges
below it.  ``_groups_1d``, ``_groups_2d``, ``_fragments``,
``_interval_within`` and ``_edge_fragment`` are that walk; the grid
stores no incidence, so the walk finds the elements holding a vertex or
an edge in a per-level index (``_holders``), made by one scan of the
level and kept until the grid's next revision.  ``walk(view, element)``
gives what it found per group: the facet, the fragment in the inside
element and the outsides as (id, facet, fragment), by (id, facet).
"""

import weakref
from operator import itemgetter

from netmesh import intersections
from netmesh.topology import TRIANGLE_EDGES


def walk(view, element):
    """(facet, fragment, outsides) of each group the walk finds for ``element``."""
    grid = view.grid
    rec = grid._own(element)
    if view.level is None:
        def in_view(lev, rec):
            return not rec.children
    else:
        target = view.level

        def in_view(lev, rec):
            return lev == target

    assert in_view(element.level, rec)
    walker = _groups_1d if grid.dim == 1 else _groups_2d
    return walker(grid, element, rec, in_view)


def table(view, element):
    """(facet, fragment, outsides) of each group ``intersections`` makes."""
    return [
        (
            grp.index_in_inside,
            grp._fragment,
            [(grp.outside(k).id, grp.index_in_outside(k), piece)
             for k, (_, _, piece) in enumerate(grp._outsides)],
        )
        for grp in intersections(view, element)
    ]


def assert_table_matches_walk(view):
    for el in view.elements():
        assert table(view, el) == walk(view, el), el


# grid -> ((revision, slot revision), {(level, attr): {slot: holder slots}})
_HOLDERS = weakref.WeakKeyDictionary()


def _holders(grid, level, attr, slot):
    """Slots of the elements of ``level`` that list ``slot`` among their
    corners (``attr`` "v") or edges ("edges"), ascending.

    The first call for a level and ``attr`` scans the level once and keeps
    the index until an adapt or grow commit changes the grid's revision.
    """
    revision = (grid._revision, grid._srev)
    kept = _HOLDERS.get(grid)
    if kept is None or kept[0] != revision:
        kept = _HOLDERS[grid] = (revision, {})
    index = kept[1].get((level, attr))
    if index is None:
        index = kept[1][level, attr] = {}
        for t, rec in enumerate(grid._elems[level]):
            for s in set(getattr(rec, attr)):
                index.setdefault(s, []).append(t)
    return index.get(slot, [])


# -- dim 1: facets are vertices, junctions are copy chains ----------------


def _groups_1d(grid, element, rec, in_view):
    groups = []
    for facet in (0, 1):
        neighbors = []
        chain_id = grid._verts[element.level][rec.v[facet]].id
        for clev, cslot in grid._vertex_chain(element.level, rec.v[facet]):
            for t in _holders(grid, clev, "v", cslot):
                nrec = grid._elems[clev][t]
                if (clev, t) == (element.level, element.slot) or not in_view(clev, nrec):
                    continue
                nfacet = 0 if grid._verts[clev][nrec.v[0]].id == chain_id else 1
                neighbors.append((nrec.id, nfacet, (nfacet,)))
        neighbors.sort(key=itemgetter(0))
        groups.append((facet, (facet,), neighbors))
    return groups


# -- dim 2: facets are edges with refinement trees ------------------------


def _groups_2d(grid, element, rec, in_view):
    level, slot, elems = element.level, element.slot, grid._elems
    groups = []
    for facet in range(3):
        root = (level, rec.edges[facet])

        # neighbours on the facet edge or a coarser ancestor cover the whole facet
        full = []  # (neighbour record, its level and slot, via edge, facet in neighbour)
        lev, es = root
        while es is not None:
            erec = grid._edges[lev][es]
            for t in _holders(grid, lev, "edges", es):
                nrec = elems[lev][t]
                if (t != slot or lev != level) and in_view(lev, nrec):
                    full.append((nrec, lev, t, (lev, es), nrec.edges.index(es)))
            lev, es = lev - 1, erec.father

        for frag, partial in _fragments(grid, in_view, root, []):
            found = [
                (nrec.id, nfacet, _edge_fragment(grid, lev, nrec, nfacet, via, frag))
                for nrec, lev, t, via, nfacet in full + partial
            ]
            found.sort(key=itemgetter(0, 1))
            groups.append((facet, _edge_fragment(grid, level, rec, facet, root, frag), found))
    return groups


def _fragments(grid, in_view, edge, above):
    """Fragments of ``edge`` in order, each with the neighbours that hold it
    through a finer edge than the facet edge.

    ``edge`` is split into its children wherever some finer edge below it
    has a neighbour in the view; ``above`` are the neighbours met on the
    way down from the facet edge.
    """
    lev, es = edge
    split = []
    for c in grid._edges[lev][es].children:
        child = (lev + 1, c)
        here = list(above)
        for t in _holders(grid, lev + 1, "edges", c):
            nrec = grid._elems[lev + 1][t]
            if in_view(lev + 1, nrec):
                here.append((nrec, lev + 1, t, child, nrec.edges.index(c)))
        split += _fragments(grid, in_view, child, here)
    if any(len(partial) > len(above) for _, partial in split):
        return split
    return [(edge, above)]


def _interval_within(grid, ancestor, frag):
    """Parameter interval of ``frag`` inside ``ancestor`` (stored orientation)."""
    a, b = 0.0, 1.0
    lev, slot = frag
    while (lev, slot) != ancestor:
        father = grid._edges[lev][slot].father
        frec = grid._edges[lev - 1][father]
        side = 0 if frec.children[0] == slot else 1
        a, b = (a + side) / 2.0, (b + side) / 2.0
        lev, slot = lev - 1, father
    return a, b


def _edge_fragment(grid, level, rec, facet, via, frag):
    """Fragment as (facet, a, b, flip) in the element ``rec`` of ``level``,
    which holds edge ``via`` as its ``facet``: the parameter interval of
    ``frag`` on ``via`` and whether the stored orientation of ``via`` runs
    against the element's local corner order."""
    a, b = _interval_within(grid, via, frag)
    verts = grid._verts[level]
    start = grid._edges[level][via[1]].v[0]
    flip = verts[start].id != verts[rec.v[TRIANGLE_EDGES[facet][0]]].id
    return facet, a, b, flip
