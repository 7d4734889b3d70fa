"""Facet intersections with non-manifold and non-conforming neighbors.

One :class:`IntersectionGroup` describes one facet fragment of an inside
element together with *all* elements on the other side, however many
(junctions) and from whatever refinement level (hanging nodes).  The
geometries-in-inside of the groups of an element partition its boundary
pairwise disjointly; :func:`pairwise_intersections` flattens each group
into classic one-neighbor intersections, visiting fragments consecutively.

Matching is purely topological, never a coordinate comparison, so curved
parametrized grids with geometric holes still pair up correctly.  In 1D
the neighbours at a facet are the segment ends with the same view vertex
index, the rule the facet table uses (copies of a vertex share one id).
In 2D they are the view elements holding the facet edge, an ancestor of
it or a finer edge below it in the edge refinement trees.

A view walks its facets once.  The first :func:`intersections` call on
a view builds one table for the whole view and keeps it on the view; a
view refuses use after any grid change, so the table never goes stale,
and an intersections call on a stale view raises StaleEntityError.  The
table holds plain data: per group, every element on its fragment, the
inside included, as (view element index, facet, fragment in that
element), by (id, facet), where a fragment is the parameter interval on
a reference facet, or the facet vertex in 1D.  In 2D
one pass over the view's elements lists the elements holding each edge;
an edge splits into its children where some finer edge below it is
held, and every fragment leaf collects the holders of its chain of
ancestors once, with each holder's fragment, which serves as that
holder's inside fragment and as the outside fragment of the others.

Each call makes fresh groups from the table, whose outsides are the
view's own element wrappers.  A group builds ``geometry_in_inside``,
``geometry_in_outside(k)`` and ``geometry`` on first access and keeps
them; building them reads no grid state, so a group read after a later
adapt returns the same geometries.  The first ``geometry`` read of any
group maps the fragments of the whole view at once, ``c_0 + R @ E`` over
the stacked reference corners ``R``, the inside corners ``c_0`` and the
edge vectors ``E`` from the view's coordinates (vertex copies share
their coordinates bit for bit), and an :class:`AffineStack` derives
every fragment's A, A^T A and det in one more batched pass; each group
then makes its own ``AffineGeometry`` from its share when it is read.
The table and that stack hold arrays and plain data, never a group, a
geometry or the view, so groups a reader drops are freed at once rather
than left to the cyclic collector.  Fragment reference corners are
computed in Python floats: the reference corners are 0 or 1 and the
intervals are dyadic, and ``x * (1 - t) + y * t`` on floats rounds
exactly as the numpy rows of ``REFERENCE_CORNERS`` did.  Fragments repeat
from element to element, so their reference corners are kept, as
read-only arrays.
"""

from __future__ import annotations

from array import array
from functools import lru_cache

import numpy as np

from .errors import NeighborIndexError, StaleEntityError
from .geometry import REFERENCE_CORNERS, AffineGeometry, AffineStack
from .topology import TRIANGLE_EDGES

# per facet of the reference triangle: (start, end) reference coordinate
# pairs, one pair per axis, as Python floats
_FACET_ENDS = [
    tuple(zip(REFERENCE_CORNERS[2][ia].tolist(), REFERENCE_CORNERS[2][ib].tolist()))
    for ia, ib in TRIANGLE_EDGES
]

# the fragment of a segment end: the facet vertex itself
_POINTS = ((0,), (1,))

# rows of fragments mapped per numpy pass when a view's stack is built
_BLOCK = 256


class IntersectionGroup:
    """One facet fragment of ``inside`` with the ordered list of outsides.

    ``outside(k)``, ``index_in_outside(k)`` and ``geometry_in_outside(k)``
    address neighbor ``k``; outsides are ordered by ascending persistent id.
    A boundary group has ``neighbor_count == 0``.
    """

    __slots__ = ("inside", "index_in_inside", "_fragment", "_members", "_position", "_row",
                 "_elements", "_fragments", "_built", "__weakref__")

    def __init__(self, inside, members, position, row, elements, fragments):
        self.inside = inside
        # every element on the fragment, inside included at ``position``, as
        # flat (view element index, facet index, fragment in that element) triples
        self._members = members
        self._position = position
        self.index_in_inside = members[3 * position + 1]
        self._fragment = members[3 * position + 2]  # fragment in the inside reference element
        self._row = row  # row in the stack of the view's fragments
        self._elements = elements  # the view's element wrappers
        self._fragments = fragments  # what all groups of the view share
        self._built = {}  # geometries read so far: "inside", "global" or k

    @property
    def boundary(self):
        return len(self._members) == 3

    @property
    def neighbor_count(self):
        return len(self._members) // 3 - 1

    @property
    def _outsides(self):
        """(view element index, facet index, fragment) of each outside, in order."""
        members, p = self._members, self._position
        return [members[q:q + 3] for q in range(0, len(members), 3) if q != 3 * p]

    def _pick(self, k):
        """Offset of neighbor ``k``'s triple in the members."""
        n = len(self._members) // 3 - 1
        if not 0 <= k < n:
            raise NeighborIndexError(f"neighbor index {k} out of range (group has {n})")
        return 3 * (k + (k >= self._position))

    def _memo(self, key, make, arg):
        geo = self._built.get(key)
        if geo is None:
            geo = self._built[key] = make(arg)
        return geo

    def outside(self, k=0):
        return self._elements[self._members[self._pick(k)]]

    def index_in_outside(self, k=0):
        return self._members[self._pick(k) + 1]

    def geometry_in_outside(self, k=0):
        return self._memo(k, _local_geometry, self._members[self._pick(k) + 2])

    @property
    def geometry_in_inside(self):
        return self._memo("inside", _local_geometry, self._fragment)

    @property
    def geometry(self):
        """Global geometry of the fragment (image under the inside element)."""
        return self._memo("global", self._fragments.geometry, self._row)

    def unit_outer_normal(self):
        """Outward unit normal within the inside element's tangent plane.

        A degenerate inside element has no tangent plane to point out of:
        SingularGeometryError, by the test ``volume`` applies.
        """
        corners = self._fragments.corners[self._members[3 * self._position]]
        AffineGeometry(corners)._require_regular()
        return _outer_normal(corners, self.index_in_inside)

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
    ``Grid.mark``, and one the view keeps; an element outside the view,
    or any element once the grid has changed since the view was made,
    raises StaleEntityError.
    """
    rec = view.grid._own(element)
    view._check_fresh()
    i = view._index[0].get(rec.id)
    if i is None or view._places[0][i] != (element.level, element.slot):
        raise StaleEntityError(f"{element!r} is not part of this view")
    table = view._intersection_table
    if table is None:
        table = view._intersection_table = _build(view)
    rows, firsts, fragments = table
    elements = view._wrappers(0)
    return [
        IntersectionGroup(element, rows[2 * r], rows[2 * r + 1], r, elements, fragments)
        for r in range(firsts[i], firsts[i + 1])
    ]


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


class _ViewFragments:
    """What all groups of one view share: each element's corners and the
    table's rows, from which the first geometry read maps every fragment.
    It holds arrays and plain data only, so it makes no reference cycle."""

    __slots__ = ("corners", "_rows", "_firsts", "_stack")

    def __init__(self, corners, rows, firsts):
        self.corners = corners  # (n, dim + 1, world_dim), from the view's coordinates
        self._rows = rows
        self._firsts = firsts
        self._stack = None

    def geometry(self, row):
        """Global geometry of one fragment; the first read maps them all."""
        if self._stack is None:
            self._stack = self._map()
        return self._stack.geometry(row)

    def _map(self):
        """``c_0 + R @ E`` for every fragment, in blocks of rows so that the
        temporaries stay small, then one AffineStack over them all."""
        c, rows = self.corners, self._rows
        owners = np.repeat(np.arange(len(c)), np.diff(self._firsts))
        stacked = np.empty((len(owners), c.shape[1] - 1, c.shape[2]))
        for start in range(0, len(owners), _BLOCK):
            stop = min(start + _BLOCK, len(owners))
            local = np.array([
                _reference_corners(rows[2 * r][3 * rows[2 * r + 1] + 2]) for r in range(start, stop)
            ])
            co = c[owners[start:stop]]
            stacked[start:stop] = co[:, :1] + local @ (co[:, 1:] - co[:, :1])
        return AffineStack(stacked)


def _build(view):
    """The view's table: (rows, firsts, fragments).

    Row ``r`` is one group: ``rows[2 r]`` its members, every element on
    the fragment as flat (view element index, facet, fragment) triples by
    (id, facet), and ``rows[2 r + 1]`` the inside element's position among
    them.  The rows of element ``i`` are ``firsts[i]`` to
    ``firsts[i + 1]``, facets in local order and fragments in order.
    """
    rows, firsts = _rows_1d(view) if view.grid.dim == 1 else _rows_2d(view)
    fragments = _ViewFragments(view.coordinates()[view.corner_indices()], rows, firsts)
    return rows, firsts, fragments


def _flat(found):
    """Members found as (id, facet, element index, fragment), flat and by (id, facet)."""
    found.sort()  # (id, facet) is unique, so fragments are never compared
    flat = []
    for _, facet, i, piece in found:
        flat += (i, facet, piece)
    return tuple(flat)


# -- dim 1: facets are vertices, junctions are segment ends of one vertex --


def _rows_1d(view):
    """One group per segment end, with every end at the same view vertex."""
    ids = view.ids(0).tolist()
    corners = view.corner_indices().tolist()
    ends = {}
    for i, element_corners in enumerate(corners):
        for facet, v in enumerate(element_corners):
            ends.setdefault(v, []).append((ids[i], facet, i, _POINTS[facet]))
    members = {v: _flat(found) for v, found in ends.items()}
    rows = []
    for i, element_corners in enumerate(corners):
        for v in element_corners:
            rows += (members[v], members[v][::3].index(i))
    return rows, array("q", range(0, 2 * len(corners) + 1, 2))


# -- dim 2: facets are edges with refinement trees ------------------------


def _rows_2d(view):
    """One group per fragment leaf of each facet edge.

    The members of a fragment leaf are the view elements holding an edge of
    its chain of ancestors.  An edge is split into its children wherever
    some finer edge below it is held.
    """
    grid = view.grid
    places = view.places(0)
    records = [grid._elems[level][slot] for level, slot in places]
    forest = _EdgeForest(grid._edges, records)
    held = forest.held
    for i, ((level, _), rec) in enumerate(zip(places, records)):
        at = held[level]
        for facet, es in enumerate(rec.edges):
            at[es] = (i, facet) if at[es] is None else at[es] + (i, facet)
    rows, firsts = [], array("q", [0])
    for i, ((level, _), rec) in enumerate(zip(places, records)):
        for es in rec.edges:
            for members in forest.leaves(level, es):
                rows += (members, 0 if members[0] == i else members[::3].index(i))
        firsts.append(len(rows) // 2)
    return rows, firsts


class _EdgeForest:
    """The edge refinement trees as the view's elements hold them, memoized per edge."""

    def __init__(self, edges, records):
        self.edges = edges
        self.records = records  # element record per view element index
        self.held = [[None] * len(level) for level in edges]  # flat (index, facet) pairs
        self._split = [[None] * len(level) for level in edges]
        self._leaves = [[None] * len(level) for level in edges]
        self._pieces = {}  # one tuple per distinct fragment

    def split(self, lev, es):
        """Whether some strict descendant of the edge is held."""
        got = self._split[lev][es]
        if got is None:
            children = self.edges[lev][es].children
            got = self._split[lev][es] = any(
                self.held[lev + 1][c] is not None or self.split(lev + 1, c) for c in children
            )
        return got

    def leaves(self, lev, es):
        """The members of each fragment leaf of the edge, in order."""
        got = self._leaves[lev][es]
        if got is None:
            children = self.edges[lev][es].children
            if children and self.split(lev, es):
                got = tuple(leaf for c in children for leaf in self.leaves(lev + 1, c))
            else:
                got = (self._members(lev, es),)
            self._leaves[lev][es] = got
        return got

    def _members(self, lev, es):
        """Holders of the leaf and its ancestors, each with the fragment the
        leaf is in it: the parameter interval of the leaf on the holder's
        facet edge, halved once per level on the way up, and whether the
        stored orientation of that edge runs against the holder's."""
        edges, held, records, pieces = self.edges, self.held, self.records, self._pieces
        found = []
        a, b = 0.0, 1.0
        while True:
            erec = edges[lev][es]
            pairs = held[lev][es]
            if pairs is not None:
                for k in range(0, len(pairs), 2):
                    i, facet = pairs[k], pairs[k + 1]
                    rec = records[i]
                    piece = (facet, a, b, erec.v[0] != rec.v[TRIANGLE_EDGES[facet][0]])
                    found.append((rec.id, facet, i, pieces.setdefault(piece, piece)))
            if erec.father is None:
                return _flat(found)
            father = erec.father
            side = 0 if edges[lev - 1][father].children[0] == es else 1
            a, b = (a + side) / 2.0, (b + side) / 2.0
            lev, es = lev - 1, father


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
