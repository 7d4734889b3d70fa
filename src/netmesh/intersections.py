"""Facet intersections with non-manifold and non-conforming neighbors.

One :class:`IntersectionGroup` describes one facet fragment of an inside
element together with *all* elements on the other side, however many
(junctions) and from whatever refinement level (hanging nodes).  The
geometries-in-inside of the groups of an element partition its boundary
pairwise disjointly; :func:`pairwise_intersections` flattens each group
into classic one-neighbor intersections, visiting fragments consecutively.

Matching is purely topological: shared ancestor facets are found through
the refinement trees (edge children, vertex copy chains), never through
coordinate comparison, so curved parametrized grids with geometric holes
still pair up correctly.

:func:`intersections` computes topology and plain numbers only: each
fragment's parameter interval on its reference edge (2D) or its facet
number (1D), plus the inside element's corner coordinates.  A group
builds ``geometry_in_inside``, ``geometry_in_outside(k)`` and
``geometry`` on first access and keeps them; building them reads no grid
state, so a group read after a later adapt returns the same geometries.

Geometry reads are cheap per group.  All groups of an element share one
frame: the element's corners and every group's fragment.  The first
``geometry`` read of any group of the element maps all the fragments at
once, ``c_0 + R @ E`` over the stacked reference corners ``R`` and the
edge vectors ``E`` from corner 0, and an :class:`AffineStack` derives
every fragment's A, A^T A and det in one more batched pass; each group
then makes its own ``AffineGeometry`` from its share when it is read.
Both grid dimensions take this path (a 1D fragment is a point, k = 0).
The frame holds fragments and arrays, never the groups, so groups a
reader drops are freed at once rather than left to the cyclic collector.
Fragment reference corners are computed in Python floats: the reference
corners are 0 or 1 and the intervals are dyadic, and
``x * (1 - t) + y * t`` on floats rounds exactly as the numpy rows of
``REFERENCE_CORNERS`` did.  Fragments repeat from element to element, so
their reference corners are kept, as read-only arrays.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

import numpy as np

from .errors import NeighborIndexError, StaleEntityError
from .geometry import REFERENCE_CORNERS, AffineGeometry, AffineStack
from .topology import Element, TRIANGLE_EDGES

# per facet of the reference triangle: (start, end) reference coordinate
# pairs, one pair per axis, as Python floats
_FACET_ENDS = [
    tuple(zip(REFERENCE_CORNERS[2][ia].tolist(), REFERENCE_CORNERS[2][ib].tolist()))
    for ia, ib in TRIANGLE_EDGES
]


class IntersectionGroup:
    """One facet fragment of ``inside`` with the ordered list of outsides.

    ``outside(k)``, ``index_in_outside(k)`` and ``geometry_in_outside(k)``
    address neighbor ``k``; outsides are ordered by ascending persistent id.
    A boundary group has ``neighbor_count == 0``.
    """

    __slots__ = ("inside", "index_in_inside", "_frame", "_position", "_fragment", "_outsides",
                 "_built")

    def __init__(self, inside, index_in_inside, frame, fragment, outsides):
        self.inside = inside
        self.index_in_inside = index_in_inside
        self._frame = frame  # what all groups of the inside element share
        self._position = len(frame.fragments)
        frame.fragments.append(fragment)
        self._fragment = fragment  # fragment in the inside reference element
        self._outsides = outsides  # (element, facet index, fragment in that element)
        self._built = {}  # geometries read so far: "inside", "global" or k

    @property
    def boundary(self):
        return not self._outsides

    @property
    def neighbor_count(self):
        return len(self._outsides)

    def _pick(self, k):
        if not 0 <= k < len(self._outsides):
            raise NeighborIndexError(
                f"neighbor index {k} out of range (group has {len(self._outsides)})"
            )
        return self._outsides[k]

    def _memo(self, key, make, arg):
        geo = self._built.get(key)
        if geo is None:
            geo = self._built[key] = make(arg)
        return geo

    def outside(self, k=0):
        return self._pick(k)[0]

    def index_in_outside(self, k=0):
        return self._pick(k)[1]

    def geometry_in_outside(self, k=0):
        return self._memo(k, _local_geometry, self._pick(k)[2])

    @property
    def geometry_in_inside(self):
        return self._memo("inside", _local_geometry, self._fragment)

    @property
    def geometry(self):
        """Global geometry of the fragment (image under the inside element)."""
        return self._memo("global", self._frame.geometry, self._position)

    def unit_outer_normal(self):
        """Outward unit normal within the inside element's tangent plane."""
        return _outer_normal(self._frame.corners, self.index_in_inside)

    def __repr__(self):
        kind = "boundary" if self.boundary else f"{self.neighbor_count} neighbors"
        return f"IntersectionGroup(facet={self.index_in_inside}, {kind})"


class PairwiseIntersection:
    """Classic one-outside intersection view onto a group.

    ``neighbor_count`` still reports the full group size, so junction
    multiplicity stays visible during pairwise traversal.
    """

    def __init__(self, group, k):
        self._group = group
        self._k = k

    @property
    def inside(self):
        return self._group.inside

    @property
    def index_in_inside(self):
        return self._group.index_in_inside

    @property
    def boundary(self):
        return self._group.boundary

    @property
    def neighbor_count(self):
        return self._group.neighbor_count

    def outside(self):
        return self._group.outside(self._k)

    def index_in_outside(self):
        return self._group.index_in_outside(self._k)

    @property
    def geometry_in_inside(self):
        return self._group.geometry_in_inside

    @property
    def geometry_in_outside(self):
        return self._group.geometry_in_outside(self._k)

    @property
    def geometry(self):
        return self._group.geometry

    def unit_outer_normal(self):
        return self._group.unit_outer_normal()


def intersections(view, element):
    """All intersection groups of ``element``, facets in local order.

    ``element`` must be an element handle of the view's grid, as for
    ``Grid.mark``, and one the view keeps; an element outside the view
    raises StaleEntityError.
    """
    grid = view.grid
    rec = grid._own(element)
    if view.level is None:
        def in_view(lev, rec):
            return not rec.children
    else:
        target = view.level

        def in_view(lev, rec):
            return lev == target

    if not in_view(element.level, rec):
        raise StaleEntityError(f"{element!r} is not part of this view")
    if grid.dim == 1:
        return _groups_1d(grid, element, rec, in_view)
    return _groups_2d(grid, element, rec, in_view)


def pairwise_intersections(view, element):
    """Flatten groups into single-neighbor intersections.

    Intersections sharing one geometry-in-inside appear consecutively;
    each boundary fragment yields exactly one boundary intersection.
    """
    out = []
    for group in intersections(view, element):
        if group.boundary:
            out.append(PairwiseIntersection(group, 0))
        else:
            out.extend(PairwiseIntersection(group, k) for k in range(group.neighbor_count))
    return out


class _Frame:
    """What all groups of one element share: its corners and each group's
    fragment, in the order the groups were made.  It holds no group, so it
    makes no reference cycle."""

    __slots__ = ("corners", "fragments", "_stack")

    def __init__(self, grid, element, rec):
        verts = grid._verts[element.level]
        self.corners = np.array([verts[s].coords for s in rec.v])
        self.fragments = []
        self._stack = None

    def geometry(self, position):
        """Global geometry of one fragment; the first read maps them all."""
        if self._stack is None:
            c = self.corners
            local = np.array([_reference_corners(f) for f in self.fragments])
            self._stack = AffineStack(c[0] + local @ (c[1:] - c[0]))
        return self._stack.geometry(position)


# -- dim 1: facets are vertices, junctions are copy chains ----------------


def _groups_1d(grid, element, rec, in_view):
    frame = _Frame(grid, element, rec)
    groups = []
    for facet in (0, 1):
        neighbors = []
        chain_id = grid._verts[element.level][rec.v[facet]].id
        for clev, cslot in grid._vertex_chain(element.level, rec.v[facet]):
            for t in grid._verts[clev][cslot].incident:
                nrec = grid._elems[clev][t]
                if (clev, t) == (element.level, element.slot) or not in_view(clev, nrec):
                    continue
                nfacet = 0 if grid._verts[clev][nrec.v[0]].id == chain_id else 1
                neighbors.append((nrec.id, clev, t, nfacet))
        neighbors.sort(key=itemgetter(0))
        outsides = [(Element(grid, lev, t), nf, (nf,)) for _, lev, t, nf in neighbors]
        groups.append(IntersectionGroup(element, facet, frame, (facet,), outsides))
    return groups


# -- dim 2: facets are edges with refinement trees ------------------------


def _groups_2d(grid, element, rec, in_view):
    frame = _Frame(grid, element, rec)
    level, slot, elems = element.level, element.slot, grid._elems
    groups = []
    for facet in range(3):
        root = (level, rec.edges[facet])

        # neighbours on the facet edge or a coarser ancestor cover the whole facet
        full = []  # (neighbour record, its level and slot, via edge, facet in neighbour)
        lev, es = root
        while es is not None:
            erec = grid._edges[lev][es]
            for t in erec.incident:
                nrec = elems[lev][t]
                if (t != slot or lev != level) and in_view(lev, nrec):
                    full.append((nrec, lev, t, (lev, es), nrec.edges.index(es)))
            lev, es = lev - 1, erec.father

        for frag, partial in _fragments(grid, in_view, root, []):
            found = [
                (nrec.id, nfacet, lev, t, _edge_fragment(grid, lev, nrec, nfacet, via, frag))
                for nrec, lev, t, via, nfacet in full + partial
            ]
            found.sort(key=itemgetter(0, 1))
            outsides = [(Element(grid, lev, t), nf, piece) for _, nf, lev, t, piece in found]
            piece = _edge_fragment(grid, level, rec, facet, root, frag)
            groups.append(IntersectionGroup(element, facet, frame, piece, outsides))
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
        for t in grid._edges[lev + 1][c].incident:
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


@lru_cache(maxsize=1024)
def _reference_corners(fragment):
    """Corners of a fragment in its element's reference coordinates.

    Fragments repeat (whole facets, the halves of a refined facet), so the
    arrays are kept, read-only, for the next element that has them; the
    cache is bounded because refinement depth is not.
    """
    if len(fragment) == 1:  # dim 1: the facet vertex
        corners = np.array([[float(fragment[0])]])
    else:
        facet, a, b, flip = fragment
        if flip:
            a, b = 1.0 - a, 1.0 - b
        ends = _FACET_ENDS[facet]
        corners = np.array([[x * (1.0 - t) + y * t for x, y in ends] for t in (a, b)])
    corners.flags.writeable = False
    return corners


def _local_geometry(fragment):
    return AffineGeometry(_reference_corners(fragment))


def _outer_normal(corners, facet):
    """Unit vector in the element's tangent plane pointing out of ``facet``."""
    if len(corners) == 2:
        direction = corners[facet] - corners[1 - facet]
        return direction / np.linalg.norm(direction)
    ia, ib = TRIANGLE_EDGES[facet]
    opposite = ({0, 1, 2} - {ia, ib}).pop()
    tangent = corners[ib] - corners[ia]
    tangent = tangent / np.linalg.norm(tangent)
    midpoint = 0.5 * (corners[ia] + corners[ib])
    w = midpoint - corners[opposite]
    n = w - (w @ tangent) * tangent
    return n / np.linalg.norm(n)
