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
"""

from __future__ import annotations

import numpy as np

from .errors import NeighborIndexError
from .geometry import REFERENCE_CORNERS, AffineGeometry
from .topology import Element, TRIANGLE_EDGES


class IntersectionGroup:
    """One facet fragment of ``inside`` with the ordered list of outsides.

    ``outside(k)``, ``index_in_outside(k)`` and ``geometry_in_outside(k)``
    address neighbor ``k``; outsides are ordered by ascending persistent id.
    A boundary group has ``neighbor_count == 0``.
    """

    __slots__ = ("inside", "index_in_inside", "_corners", "_fragment", "_outsides", "_built")

    def __init__(self, inside, index_in_inside, corners, fragment, outsides):
        self.inside = inside
        self.index_in_inside = index_in_inside
        self._corners = corners  # inside element's corner coordinates
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

    def _memo(self, key, corners):
        geo = self._built.get(key)
        if geo is None:
            geo = self._built[key] = AffineGeometry(corners())
        return geo

    def outside(self, k=0):
        return self._pick(k)[0]

    def index_in_outside(self, k=0):
        return self._pick(k)[1]

    def geometry_in_outside(self, k=0):
        fragment = self._pick(k)[2]
        return self._memo(k, lambda: _reference_corners(fragment))

    @property
    def geometry_in_inside(self):
        return self._memo("inside", lambda: _reference_corners(self._fragment))

    @property
    def geometry(self):
        """Global geometry of the fragment (image under the inside element)."""

        def corners():
            c = np.array(self._corners)
            return c[0] + _reference_corners(self._fragment) @ (c[1:] - c[0])

        return self._memo("global", corners)

    def unit_outer_normal(self):
        """Outward unit normal within the inside element's tangent plane."""
        return _outer_normal(np.array(self._corners), self.index_in_inside)

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
    """All intersection groups of ``element``, facets in local order."""
    grid = view.grid
    if view.level is None:
        def in_view(lev, slot):
            return not grid._elems[lev][slot].children
    else:
        target = view.level

        def in_view(lev, slot):
            return lev == target

    if grid.dim == 1:
        return _groups_1d(grid, element, in_view)
    return _groups_2d(grid, element, in_view)


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


# -- dim 1: facets are vertices, junctions are copy chains ----------------


def _groups_1d(grid, element, in_view):
    rec = element._rec()
    corners = [grid._verts[element.level][s].coords for s in rec.v]
    groups = []
    for facet in (0, 1):
        # walk the whole copy chain of the facet vertex
        lev, slot = element.level, rec.v[facet]
        vrec = grid._verts[lev][slot]
        while vrec.father is not None:
            lev, slot = lev - 1, vrec.father
            vrec = grid._verts[lev][slot]
        copies = [(lev, slot)]
        while vrec.finer is not None:
            lev, slot = lev + 1, vrec.finer
            vrec = grid._verts[lev][slot]
            copies.append((lev, slot))

        neighbors = []
        chain_id = vrec.id
        for clev, cslot in copies:
            for t in grid._verts[clev][cslot].incident:
                if (clev, t) == (element.level, element.slot) or not in_view(clev, t):
                    continue
                nrec = grid._elems[clev][t]
                nfacet = 0 if grid._verts[clev][nrec.v[0]].id == chain_id else 1
                neighbors.append((Element(grid, clev, t), nfacet, (nfacet,)))
        neighbors.sort(key=lambda n: n[0].id)
        groups.append(IntersectionGroup(element, facet, corners, (facet,), neighbors))
    return groups


# -- dim 2: facets are edges with refinement trees ------------------------


def _groups_2d(grid, element, in_view):
    rec = element._rec()
    corners = [grid._verts[element.level][s].coords for s in rec.v]
    groups = []
    for facet in range(3):
        root = (element.level, rec.edges[facet])
        candidates = []  # (neighbor (lev, slot), via edge, facet in neighbor, full cover)

        # self and coarser ancestors cover the whole facet
        lev, es = root
        while True:
            erec = grid._edges[lev][es]
            for t in erec.incident:
                if (lev, t) == (element.level, element.slot) or not in_view(lev, t):
                    continue
                nfacet = grid._elems[lev][t].edges.index(es)
                candidates.append(((lev, t), (lev, es), nfacet, True))
            if erec.father is None:
                break
            lev, es = lev - 1, erec.father

        # finer descendants cover sub-fragments
        stack = [
            (root[0] + 1, c) for c in grid._edges[root[0]][root[1]].children
        ]
        while stack:
            lev, es = stack.pop()
            erec = grid._edges[lev][es]
            for t in erec.incident:
                if not in_view(lev, t):
                    continue
                nfacet = grid._elems[lev][t].edges.index(es)
                candidates.append(((lev, t), (lev, es), nfacet, False))
            stack.extend((lev + 1, c) for c in erec.children)

        # fragments: split wherever a candidate sits strictly below
        split_needed = set()
        for _, via, _, full in candidates:
            if full:
                continue
            lev, es = via
            while (lev, es) != root:
                f = grid._edges[lev][es].father
                lev, es = lev - 1, f
                split_needed.add((lev, es))

        fragments = []

        def emit(edge):
            erec = grid._edges[edge[0]][edge[1]]
            if edge in split_needed and erec.children:
                for c in erec.children:
                    emit((edge[0] + 1, c))
            else:
                fragments.append(edge)

        emit(root)

        for frag in fragments:
            ancestors = {frag}
            lev, es = frag
            while (lev, es) != root:
                lev, es = lev - 1, grid._edges[lev][es].father
                ancestors.add((lev, es))

            outsides = []
            for nelem, via, nfacet, full in candidates:
                if full or via in ancestors:
                    piece = _edge_fragment(grid, nelem, nfacet, via, frag)
                    outsides.append((Element(grid, nelem[0], nelem[1]), nfacet, piece))
            outsides.sort(key=lambda n: (n[0].id, n[1]))
            piece = _edge_fragment(grid, (element.level, element.slot), facet, root, frag)
            groups.append(IntersectionGroup(element, facet, corners, piece, outsides))
    return groups


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


def _edge_fragment(grid, elem_key, facet, via, frag):
    """Fragment as (facet, a, b, flip): its parameter interval on ``via``
    and whether the stored orientation of ``via`` runs against the
    element's local corner order."""
    a, b = _interval_within(grid, via, frag)
    erec = grid._edges[via[0]][via[1]]
    rec = grid._elems[elem_key[0]][elem_key[1]]
    ia = TRIANGLE_EDGES[facet][0]
    flip = grid._verts[via[0]][erec.v[0]].id != grid._verts[elem_key[0]][rec.v[ia]].id
    return facet, a, b, flip


def _reference_corners(fragment):
    """Corners of a fragment in its element's reference coordinates."""
    if len(fragment) == 1:  # dim 1: the facet vertex
        return np.array([[float(fragment[0])]])
    facet, a, b, flip = fragment
    if flip:
        a, b = 1.0 - a, 1.0 - b
    ia, ib = TRIANGLE_EDGES[facet]
    ref = REFERENCE_CORNERS[2]
    return np.array([ref[ia] * (1.0 - t) + ref[ib] * t for t in (a, b)])


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
