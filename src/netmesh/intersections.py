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

The first :func:`intersections` call on a view builds one table for the
whole view in array passes and keeps it on the view; a view refuses use
after any grid change, so the table never goes stale (a call on a stale
view raises StaleEntityError).  The build lists one entry per group and
holder: the group, the holder (view element and facet), the start ``a``
of the fragment on that facet, and an integer code into the view's tuple
of distinct fragments, each the parameter interval on a reference facet
with the orientation flip of the holder's edge, (facet, a, b, flip), or
the facet vertex in 1D.  In 1D the group is the view vertex of a segment
end.  In 2D it is a fragment leaf: columns of the edges' fathers,
children and first vertices, gathered once, say which edges are split
(some finer edge below them is held) and which unsplit edges the held
ones reach, and each leaf climbs its chain of ancestors one level per
step, halving its interval and picking up the holders of each edge on
the way.  Both dimensions share the rest: a sort by (group, id, facet)
lists each group's members, flat (view element index, facet, fragment)
triples, and each holder's position among them, and a sort by (element,
facet, a) puts one row per entry in order.

Each call makes fresh groups from the table, whose outsides are the
view's own element wrappers.  A group builds ``geometry_in_inside``,
``geometry_in_outside(k)`` and ``geometry`` on first access and keeps
them; building them reads no grid state, so a group read after a later
adapt returns the same geometries.  The first ``geometry`` read of any
group maps the fragments of the whole view at once, ``c_0 + R @ E`` over
the reference corners ``R`` of each row's fragment code, the inside
corners ``c_0`` and the edge vectors ``E`` from the view's read-only array
of element corners, the one its element wrappers read (vertex copies
share their coordinates bit for bit), and an :class:`AffineStack` derives
every fragment's det(A^T A) and corner scale in one more batched pass;
each group then makes its own ``AffineGeometry`` with those two numbers
when it is read, so its ``volume()`` costs no matmul.  The table and that
stack hold arrays and plain data, never a group, a geometry or the view,
so groups a reader drops are freed at once rather than left to the
cyclic collector.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import chain

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


class IntersectionGroup:
    """One facet fragment of ``inside`` with the ordered list of outsides.

    ``outside(k)``, ``index_in_outside(k)`` and ``geometry_in_outside(k)``
    address neighbor ``k``; outsides are ordered by ascending persistent id.
    A boundary group has ``neighbor_count == 0``.
    """

    __slots__ = ("inside", "index_in_inside", "_fragment", "_members", "_position", "_row",
                 "_elements", "_fragments", "_geometry", "_built", "__weakref__")

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
        self._geometry = None  # the global geometry, once read
        self._built = {}  # local geometries read so far: "inside" or k

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
        geo = self._geometry
        if geo is None:
            geo = self._geometry = self._fragments.geometry(self._row)
        return geo

    def unit_outer_normal(self):
        """Outward unit normal within the inside element's tangent plane.

        A degenerate inside element has no tangent plane to point out of:
        SingularGeometryError, by the test ``volume`` applies.
        """
        fragments, inside = self._fragments, self._members[3 * self._position]
        if inside not in fragments.regular:  # one test per element and view
            AffineGeometry(fragments.corners[inside])._require_regular()
            fragments.regular.add(inside)
        return _outer_normal(fragments.corners[inside], self.index_in_inside)

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
    eid = view.grid._own_id(element)
    view._check_fresh()
    i = view._index[0].get(eid)
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
    """What all groups of one view share: each element's corners and, per
    row of the table, its owner and the code of its inside fragment, from
    which the first geometry read maps every fragment.  It holds arrays
    and integers only, so it makes no reference cycle."""

    __slots__ = ("corners", "_owners", "_codes", "_local", "_stack", "regular")

    def __init__(self, corners, owners, codes, local):
        self.corners = corners  # (n, dim + 1, world_dim), from the view's coordinates
        self._owners = owners  # view element index per row
        self._codes = codes  # fragment code per row
        self._local = local  # reference corners per fragment code
        self._stack = None
        self.regular = set()  # view element indices found regular

    def geometry(self, row):
        """Global geometry of one fragment; the first read maps them all."""
        stack = self._stack
        if stack is None:
            stack = self._stack = self._map()
        return stack.geometry(row)

    def _map(self):
        """``c_0 + R @ E`` for every fragment in one pass, read-only, then one
        AffineStack over them all.  ``c_0`` is added last, in place, which
        saves temporaries and no bit: a float sum is the same either way."""
        c, owners = self.corners, self._owners
        stacked = self._local[self._codes] @ (c[:, 1:] - c[:, :1])[owners]
        stacked += c[owners, :1]
        stacked.flags.writeable = False
        return AffineStack(stacked)


def _build(view):
    """The view's table: (rows, firsts, fragments).

    Row ``r`` is one group: ``rows[2 r]`` its members, every element on
    the fragment as flat (view element index, facet, fragment) triples by
    (id, facet), and ``rows[2 r + 1]`` the inside element's position among
    them.  The rows of element ``i`` are ``firsts[i]`` to
    ``firsts[i + 1]``, facets in local order and fragments in order.
    """
    if view.grid.dim == 2:
        return _table(view, *_holdings_2d(view))
    # a segment end is its own fragment, and its group the ends at its view vertex
    element, facet = np.divmod(np.arange(2 * view.size(0)), 2)
    vertex = view.corner_indices().ravel()
    return _table(view, element, facet, vertex, np.zeros(len(facet)), facet, _POINTS)


def _table(view, element, facet, group, a, code, pieces):
    """Rows, firsts and fragments from one entry per (group, holder).

    An entry is the view element holding the group's fragment on a facet,
    the fragment's parameter start ``a`` on that facet and the fragment's
    code into ``pieces``.  One sort by (group, id, facet) lists each
    group's members, and an entry's rank there is its position; one sort
    by (element, facet, a) puts the rows in order.
    """
    by_group = np.lexsort((facet, view.ids(0)[element], group))
    g = group[by_group]
    new = np.r_[True, g[1:] != g[:-1]]
    starts = np.flatnonzero(new)
    flat = [None] * (3 * len(g))
    flat[0::3] = element[by_group].tolist()
    flat[1::3] = facet[by_group].tolist()
    flat[2::3] = map(pieces.__getitem__, code[by_group].tolist())
    bounds = (3 * np.r_[starts, len(g)]).tolist()
    members = [tuple(flat[s:e]) for s, e in zip(bounds, bounds[1:])]
    place = np.empty_like(by_group)  # each entry's index in the member order
    place[by_group] = np.arange(len(g))
    number = np.cumsum(new)[place] - 1
    order = np.lexsort((a, facet, element))
    rows = [None] * (2 * len(g))
    rows[0::2] = map(members.__getitem__, number[order].tolist())
    rows[1::2] = (place - starts[number])[order].tolist()
    firsts = array("q", np.r_[0, np.cumsum(np.bincount(element, minlength=view.size(0)))].tolist())
    local = np.array([_reference_corners(piece) for piece in pieces])
    return rows, firsts, _ViewFragments(view._element_corners(), element[order], code[order], local)


# -- dim 2: facets are edges with refinement trees ------------------------


def _holdings_2d(view):
    """One entry per fragment leaf and view element holding an edge of its
    chain of ancestors, as the columns ``_table`` takes.

    An edge is split where some finer edge below it is held (one pass per
    level, finest first); the fragment leaves are the unsplit edges that a
    held edge reaches through split ones (one pass per level, coarsest
    first).  Every leaf then climbs, halving its interval ``(a, b)``
    towards the side it came from, and picks up each holder of each edge
    it passes, with flip telling whether the stored orientation of the
    edge runs against the holder's corner order.
    """
    grid, places = view.grid, view.places(0)
    records = [grid._elems[level][slot] for level, slot in places]
    level = np.fromiter((level for level, _ in places), np.int64, len(places))
    lo = int(level.min())
    first, father, children, start = _edge_columns(grid._edges[lo:int(level.max()) + 1])
    # holding h = 3 i + facet: view element i holds edge held[h] as that facet
    size = 3 * len(records)
    held = np.fromiter(chain.from_iterable(rec.edges for rec in records), np.int64, size)
    held += np.repeat(first[level - lo], 3)
    corners = np.fromiter(chain.from_iterable(rec.v for rec in records), np.int64, size)
    flips = start[held] != corners.reshape(-1, 3)[:, [0, 0, 1]].ravel()
    count = np.bincount(held, minlength=len(start) + 1)  # index -1 is no edge, held by none
    below, split = count > 0, np.zeros(len(count), dtype=bool)
    for lev in reversed(range(len(first) - 2)):
        span = slice(first[lev], first[lev + 1])
        split[span] = below[children[span, 0]] | below[children[span, 1]]
        below[span] |= split[span]
    reached = count > 0
    for lev in range(1, len(first) - 1):
        up = father[first[lev]:first[lev + 1]]
        reached[first[lev]:first[lev + 1]] |= reached[up] & split[up]
    edge = np.flatnonzero(reached & ~split)
    leaf, a, b = np.arange(len(edge)), np.zeros(len(edge)), np.ones(len(edge))
    holders, starts = np.argsort(held, kind="stable"), np.cumsum(count) - count
    found = []
    while len(edge):
        n = count[edge]
        pick = np.repeat(np.arange(len(edge)), n)
        h = holders[np.arange(len(pick)) + np.repeat(starts[edge] - np.cumsum(n) + n, n)]
        found.append((leaf[pick], h, a[pick], b[pick]))
        up = father[edge]
        keep = up >= 0
        side = children[up[keep], 0] != edge[keep]
        edge, leaf = up[keep], leaf[keep]
        a, b = (a[keep] + side) / 2.0, (b[keep] + side) / 2.0
    leaf, h, a, b = (np.concatenate(column) for column in zip(*found))
    element, facet = np.divmod(h, 3)
    # one code per distinct fragment, by one sort of (2 facet + flip, a, b)
    kinds = np.stack((2 * facet + flips[h], a, b))
    order = np.lexsort(kinds[::-1])
    kinds = kinds[:, order]
    new = np.r_[True, (kinds[:, 1:] != kinds[:, :-1]).any(axis=0)]
    code = np.empty(len(order), dtype=np.int64)
    code[order] = np.cumsum(new) - 1
    pieces = [(int(k) >> 1, x, y, bool(int(k) & 1)) for k, x, y in kinds[:, new].T.tolist()]
    return element, facet, leaf, a, code, pieces


def _edge_columns(levels):
    """``first``, ``father``, ``children`` and ``start`` (``v[0]``) of the
    edges of consecutive levels under one index, level ``k`` from
    ``first[k]`` on.  A link to no edge, or out of these levels, is -1."""
    sizes = [len(edges) for edges in levels]
    first = np.r_[0, np.cumsum(sizes)]
    at = np.repeat(np.arange(len(sizes)), sizes)
    edges = [e for es in levels for e in es]
    father = np.fromiter((-1 if e.father is None else e.father for e in edges),
                         np.int64, len(edges))
    father = np.where((father >= 0) & (at > 0), father + first[at - 1], -1)
    children = np.fromiter(chain.from_iterable(e.children or (-1, -1) for e in edges),
                           np.int64, 2 * len(edges)).reshape(-1, 2)
    inside = (children >= 0) & (at < len(sizes) - 1)[:, None]
    children = np.where(inside, children + first[at + 1][:, None], -1)
    start = np.fromiter((e.v[0] for e in edges), np.int64, len(edges))
    return first, father, children, start


@lru_cache(maxsize=1024)
def _reference_corners(fragment):
    """Corners of a fragment in its element's reference coordinates.

    They are computed in Python floats: the reference corners are 0 or 1
    and the intervals dyadic, so ``x * (1 - t) + y * t`` rounds exactly as
    the numpy rows of ``REFERENCE_CORNERS`` did.  A view's table maps each
    of its distinct fragments through here once, and the groups' local
    geometries read the same arrays, kept read-only; the cache is bounded
    because refinement depth is not.
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
