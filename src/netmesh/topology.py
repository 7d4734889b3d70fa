"""Entity storage, grid container and staged factory.

Grids hold 1- or 2-simplices embedded in R^w (w >= dim).  Any number of
elements may share a facet, so T- and Y-junctions need no special casing.
Entities live in per-level arenas and are addressed by (level, slot)
pairs; slots are stable under append and are remapped only when a
coarsening or growth transaction compacts the arenas.

A vertex that appears on several levels is stored once per level; the
copies are linked through ``father``/``finer`` and share one persistent
id, so they act as a single logical vertex across the hierarchy.
Views, index sets, the facet table and the 1D intersection table name a
logical vertex by that id; ``Grid._vertex_chain`` is the one walk over
its copies, for growth and for ``roots.leaf_degree``, which counts the
leaf elements incident to each copy.

Only the storage core reads record fields: this module, ``views``,
``adaptivity``, ``compaction`` and ``intersections``.  Other modules use
views, handles and three ``Grid`` reads that build no wrapper: ``_id``
at a codim, level and slot; ``_father_chain``, the one father walk, from
an element up to its tree root (``_root``); and ``_marker``, that root's
insertion marker (``Element.marker``).

Records enter the arenas through the batch appends ``Grid._add_vertices``,
``Grid._add_edges`` and ``Grid._add_elements`` with the ids their caller
drew: consecutive ones in the factory's level-0 build, interleaved per
row in growth's line rows and per leaf in refinement's level passes
(``adaptivity``).  A grown triangle goes through ``Grid._add_element``,
and ``Grid._get_or_make_edge`` adds its edge over two vertices only when
the level's lookup has none, so its new edges take their ids before it
does.  Records leave only through ``compaction.remove_elements``.
Refinement adds the halves of a split edge directly, since their
midpoint is new, and hands each child its edges; it looks up only an
edge between two midpoints that both predate its pass, in the built
lookup or a scan of the level.  An edge added while the lookup is built
enters it too.  The records are slotted dataclasses:
each holds exactly its declared fields, without a per-record dict, so it
is smaller and quicker to read, and it takes no other attribute.  The
grow queue is a ``GridFactory`` too, so the level-0 build and runtime
growth stage one way: ``insert_vertices`` and ``insert_elements`` check
a whole array in one pass and take a parametrization and a marker per
row, and the one-vertex and one-element calls are one-row calls of them.
Records link down (corners, edges) and across levels (father, children,
finer) but store no incidence, which ``incident_elements`` finds by
scanning the level, and no tree root, where ``Grid._father_chain`` ends.
Red refinement is one table: ``CHILDREN`` lists each child's corners
over the father's corners and local-edge midpoints, and the reference
coordinates of both are derived from it.

The open adapt or grow transaction is grid state, not record state.
``Grid._require`` checks one phase (idle, queued, preadapted, adapted,
grown).  Ids only increase, so an element is new when its id is at least
``Grid._first_new_id``, the first id the open transaction drew.
``Grid._vanishing`` holds the places ``pre_adapt`` lets coarsen.
Transaction calls read the record behind an element handle through
``Grid._own``, which refuses a handle of another grid and anything that
is not an element handle.

An entity handle is a (level, slot) address checked against the grid's
slot revision ``_srev`` on every read.  Slots and ids change together,
only in a compaction, so a handle keeps its id once read: a view hands
its wrappers the ids it holds, any other handle reads its record once.
Element wrappers made by a view also read their corners from the view's
shared array instead of the vertex records.  ``Vertex.coords`` is
read-only, so no reader can move a record's coordinates; the VTK writer
relies on that when it reuses a vertex's ``POINTS`` line by its id.
"""

from __future__ import annotations

import logging
import math
import warnings
import weakref
from dataclasses import dataclass
from itertools import combinations, repeat

import numpy as np

from .errors import DimensionMismatchError, FactoryError, LifecycleError, ScenarioError, StaleEntityError
from .geometry import REFERENCE_CORNERS, AffineGeometry

logger = logging.getLogger(__name__)

# The most leaf elements an adapt or a grow may leave (``_refuse_leaves``).  Both are
# exponential: at branch probability 0.3 a root of 8 segments has 24,992 after 20
# growth steps (peak memory 143 MB), and 30 steps do not finish in ten minutes.
# The bound is four times that count.
MAX_ELEMENTS = 100_000


def _refuse_leaves(count, transaction):
    """Raise :class:`ScenarioError` when ``transaction`` would leave ``count`` > MAX_ELEMENTS leaves."""
    if count > MAX_ELEMENTS:
        raise ScenarioError(f"{transaction} would leave {count} leaf elements, "
                            f"more than the bound of {MAX_ELEMENTS}")


@dataclass(frozen=True)
class SimplexKind:
    """Element kind token; only simplices of the grid dimension are valid."""

    dim: int


LINE = SimplexKind(1)
TRIANGLE = SimplexKind(2)


@dataclass(frozen=True)
class GridConfig:
    """Intrinsic grid dimension and embedding dimension."""

    dim: int
    world_dim: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise DimensionMismatchError(f"grid dimension must be 1 or 2, got {self.dim}")
        if self.world_dim < self.dim:
            raise DimensionMismatchError(
                f"world dimension {self.world_dim} smaller than grid dimension {self.dim}"
            )


# Local subentity numbering of a triangle: corners in insertion order,
# edge 0 = (0,1), edge 1 = (0,2), edge 2 = (1,2).
TRIANGLE_EDGES = ((0, 1), (0, 2), (1, 2))

# Local edges of a simplex: a segment is its own edge.
LOCAL_EDGES = {1: ((0, 1),), 2: TRIANGLE_EDGES}

# Red refinement: the corners of each child, as indices into the father's
# corners followed by the midpoints of its local edges.
CHILDREN = {1: ((0, 2), (2, 1)), 2: ((0, 3, 4), (3, 1, 5), (4, 5, 2), (3, 5, 4))}

# The same points in the father's reference simplex (dyadic, so exact).
_REFINEMENT_POINTS = {d: np.vstack([c] + [(c[a] + c[b]) / 2 for a, b in LOCAL_EDGES[d]])
                      for d, c in REFERENCE_CORNERS.items() if d in CHILDREN}
# Midpoint of local edge k in the element's own reference coordinates.
EDGE_MIDPOINT_LOCAL = {d: tuple(p[d + 1:]) for d, p in _REFINEMENT_POINTS.items()}
# Corner coordinates of each child inside the father's reference simplex.
CHILD_CORNERS_IN_FATHER = {d: tuple(p[list(child)] for child in CHILDREN[d])
                           for d, p in _REFINEMENT_POINTS.items()}


@dataclass(slots=True)
class VertexRec:
    coords: np.ndarray
    id: int
    father: int | None = None   # slot one level down, same chain
    finer: int | None = None    # slot one level up, same chain


@dataclass(slots=True)
class EdgeRec:
    v: tuple  # two vertex slots at the same level, insertion order
    id: int
    father: int | None = None
    children: tuple = ()        # () or 2 slots: (v[0]-side half, v[1]-side half)


@dataclass(slots=True)
class ElemRec:
    v: tuple                    # dim+1 vertex slots at the same level
    id: int
    edges: tuple = ()           # dim==2: 3 edge slots matching TRIANGLE_EDGES
    father: int | None = None
    children: tuple = ()
    mark: int = 0
    parametrization: object = None  # callable local -> R^w, tree roots only
    corners_in_father: np.ndarray | None = None
    marker: int | None = None   # insertion marker (e.g. gmsh physical tag)


class Grid:
    """Hierarchical simplicial network grid.

    Purely sequential: readers (views, iterators) must be quiesced while an
    adapt or grow transaction runs.  Constructed through :class:`GridFactory`.
    """

    def __init__(self, config):
        self.config = config
        self._verts = [[]]
        self._edges = [[]]
        self._elems = [[]]
        self._next_id = 0
        self._revision = 0        # bumped by every adapt/grow commit
        self._srev = 0            # bumped only when slots are remapped
        # idle -> preadapted -> adapted -> idle, or idle [-> queued] -> grown -> idle
        self._phase = "idle"
        self._first_new_id = math.inf  # ids from here on were made by the open adapt/grow
        self._vanishing = set()   # (level, slot) of the elements pre_adapt lets coarsen
        self._queue = None        # growth._Queue: the open grow transaction's insertions
        self._queued_removals = set()  # (level, slot) of the leaves the open grow removes
        self._growth_report = None
        self._edge_lookup = [None]
        self._leaf_view = None    # weak reference: a strong one would tie grid and view in a cycle

    # -- basic properties -------------------------------------------------

    @property
    def dim(self):
        return self.config.dim

    @property
    def world_dim(self):
        return self.config.world_dim

    @property
    def max_level(self):
        return len(self._elems) - 1

    def _new_id(self):
        i = self._next_id
        self._next_id += 1
        return i

    def _ensure_level(self, level):
        while len(self._elems) <= level:
            self._elems.append([])
            self._verts.append([])
            self._edges.append([])
            self._edge_lookup.append(None)

    # -- entity access ----------------------------------------------------

    def element(self, level, slot):
        return Element(self, level, slot)

    def vertex(self, level, slot):
        return Vertex(self, level, slot)

    def edge(self, level, slot):
        if self.dim != 2:
            raise DimensionMismatchError("edge entities exist only for dim == 2 grids")
        return Edge(self, level, slot)

    # -- views ------------------------------------------------------------

    def leaf_view(self):
        """The leaf view of the current revision, built once while anyone holds it."""
        return self._current_leaf_view()

    def _current_leaf_view(self):
        """``leaf_view`` for calls made inside the library, which
        ``bench/tracing.py`` leaves uncounted."""
        view = self._leaf_view() if self._leaf_view is not None else None
        if view is None or view._revision != self._revision:
            if view is not None:
                view._release()
            view = views.GridView(self, None)
            self._leaf_view = weakref.ref(view)
        return view

    def level_view(self, level):
        if not 0 <= level <= self.max_level:
            raise StaleEntityError(f"no level {level} in grid with max level {self.max_level}")
        return views.GridView(self, level)

    # -- adapt lifecycle (implementation in adaptivity module) ------------

    def mark(self, ref_count, element):
        return adaptivity.mark(self, ref_count, element)

    def mark_leaves(self, ref_counts):
        """``mark(ref_counts[i], e)`` on every element ``e`` of ``leaf_view()``, ``i`` its index."""
        adaptivity.mark_leaves(self, ref_counts)

    def get_mark(self, element):
        return adaptivity.get_mark(self, element)

    def pre_adapt(self):
        return adaptivity.pre_adapt(self)

    def adapt(self):
        return adaptivity.adapt(self)

    def post_adapt(self):
        adaptivity.post_adapt(self)

    # -- growth lifecycle (implementation in growth module) ---------------

    def queue_vertices(self, coords):
        return growth.queue_vertices(self, coords)

    def queue_elements(self, kind, vertex_indices, parametrization=None):
        return growth.queue_elements(self, kind, vertex_indices, parametrization)

    def queue_vertex(self, coords):
        """Stage a new vertex; returns its provisional index (fixed until grow)."""
        return int(self.queue_vertices([coords])[0])

    def queue_element(self, kind, vertex_indices, parametrization=None):
        """Stage a new element over provisional and/or existing leaf vertex indices."""
        return int(self.queue_elements(kind, [vertex_indices], [parametrization])[0])

    def remove_element(self, element):
        growth.remove_element(self, element)

    def grow(self):
        return growth.grow(self)

    def post_grow(self):
        growth.post_grow(self)

    @property
    def growth_report(self):
        return self._growth_report

    # -- internal helpers shared by adaptivity/growth ---------------------

    def _require(self, call, *phases):
        if self._phase not in phases:
            raise LifecycleError(f"{call} called during phase {self._phase!r}")

    def _own_id(self, element):
        """Persistent id of an element handle of this grid, refusing anything
        else, a handle of another grid or a stale handle."""
        if not isinstance(element, Element):
            raise DimensionMismatchError(f"expected an element, got a {type(element).__name__}")
        if element.grid is not self:
            raise StaleEntityError("entity belongs to a different grid")
        return element.id

    def _own(self, element):
        """Record of an element handle, refused as ``_own_id`` refuses; a
        handle whose id reads is alive, so its slot holds the record."""
        self._own_id(element)
        return self._elems[element.level][element.slot]

    def _check_alive(self, srev):
        if srev != self._srev:
            raise StaleEntityError("entity handle outlived a compacting grid transaction")

    def _edge_index(self, level):
        """Lazy map unordered vertex-slot pair -> edge slot for one level."""
        if self._edge_lookup[level] is None:
            self._edge_lookup[level] = {frozenset(rec.v): s for s, rec in enumerate(self._edges[level])}
        return self._edge_lookup[level]

    def _add_vertex(self, level, coords, vid=None, father=None):
        """Append a vertex record at ``level``; a new id unless ``vid`` is a chain's id."""
        return self._add_vertices(level, [coords], [self._new_id() if vid is None else vid], [father])[0]

    def _new_ids(self, n):
        """``n`` new ids, in order, as a range."""
        self._next_id += n
        return range(self._next_id - n, self._next_id)

    # The batch appends take one value per record of each field, an endless repeat by default.

    def _add_vertices(self, level, coords, ids, fathers=repeat(None)):
        """Append one vertex record per row of ``coords`` at ``level`` with the
        drawn ``ids``, holding views of the rows; returns their slots, a range."""
        verts = self._verts[level]
        verts.extend(map(VertexRec, coords, ids, fathers))
        return range(len(verts) - len(coords), len(verts))

    def _add_edges(self, level, v, ids, fathers):
        """Append one edge per vertex-slot pair of the list ``v`` at ``level``
        with the drawn ``ids``; the caller knows no edge joins a pair yet, and
        a built lookup learns them.  Returns their slots, a range."""
        edges = self._edges[level]
        edges.extend(map(EdgeRec, v, ids, fathers))
        slots = range(len(edges) - len(v), len(edges))
        if self._edge_lookup[level] is not None:
            self._edge_lookup[level].update(zip(map(frozenset, v), slots))
        return slots

    def _add_elements(self, level, v, ids, parametrizations=repeat(None), markers=repeat(None),
                      edges=repeat(()), fathers=repeat(None), corners_in_father=repeat(None)):
        """Append one element per vertex-slot tuple of ``v`` at ``level`` in one pass with
        the drawn ``ids``, or one ``_add_element`` each (``ids=None``: triangles without
        ``edges``); returns their slots."""
        elems = self._elems[level]
        first = len(elems)
        if ids is None:
            for corners, parametrization, marker in zip(v, parametrizations, markers):
                self._add_element(level, corners, parametrization=parametrization, marker=marker)
        else:  # ElemRec's fields in order; no children yet, mark 0
            elems.extend(map(ElemRec, v, ids, edges, fathers, repeat(()), repeat(0), parametrizations,
                             corners_in_father, markers))
        return range(first, len(elems))

    def _add_element(self, level, v, father=None, parametrization=None, corners_in_father=None,
                     marker=None, edges=None):
        """Append an element over vertex slots ``v`` at ``level``; returns its slot.

        A triangle takes the edge slots ``edges`` when given (refinement
        knows them), else finds or makes the edge of each corner pair; edge
        ids are drawn before the element id.  An element without a father
        roots its own refinement tree; ``_root`` finds a child's.
        """
        if edges is None:
            edges = ()
            if self.config.dim == 2:
                edges = tuple(self._get_or_make_edge(level, v[a], v[b]) for a, b in TRIANGLE_EDGES)
        elems = self._elems[level]
        elems.append(ElemRec(
            v, self._new_id(), edges, father,
            parametrization=parametrization,
            corners_in_father=corners_in_father,
            marker=marker,
        ))
        return len(elems) - 1

    def _id(self, codim, level, slot):
        """Persistent id of the record of one codim at (level, slot), read without a wrapper."""
        arena = self._elems if codim == 0 else self._verts if codim == self.dim else self._edges
        return arena[level][slot].id

    def _father_chain(self, level, slot):
        """(level, slot) of an element and of each of its fathers, up to its tree root."""
        chain = [(level, slot)]
        while (father := self._elems[level][slot].father) is not None:
            level, slot = level - 1, father
            chain.append((level, slot))
        return chain

    def _root(self, level, slot):
        """(level, slot) of the refinement-tree root of an element."""
        return self._father_chain(level, slot)[-1]

    def _marker(self, level, slot):
        """Insertion marker of an element's tree root, read without a wrapper."""
        level, slot = self._root(level, slot)
        return self._elems[level][slot].marker

    def _add_edge(self, level, va, vb, father=None):
        """Append a new edge over vertex slots ``va``, ``vb``; returns its slot (see ``_add_edges``)."""
        edges, lookup = self._edges[level], self._edge_lookup[level]
        edges.append(EdgeRec((va, vb), self._new_id(), father))
        if lookup is not None:
            lookup[frozenset((va, vb))] = len(edges) - 1
        return len(edges) - 1

    def _get_or_make_edge(self, level, va, vb):
        slot = self._edge_index(level).get(frozenset((va, vb)))
        return self._add_edge(level, va, vb) if slot is None else slot

    def _vertex_chain(self, level, slot):
        """(level, slot) of every copy of one logical vertex, coarsest first."""
        verts = self._verts
        rec = verts[level][slot]
        while rec.father is not None:
            level, slot = level - 1, rec.father
            rec = verts[level][slot]
        chain = [(level, slot)]
        while rec.finer is not None:
            level, slot = level + 1, rec.finer
            rec = verts[level][slot]
            chain.append((level, slot))
        return chain

    def _vertex_copy(self, level, slot):
        """Slot of the chain copy at ``level + 1``, creating it if absent."""
        rec = self._verts[level][slot]
        if rec.finer is None:
            self._ensure_level(level + 1)
            rec.finer = self._add_vertex(level + 1, rec.coords.copy(), rec.id, slot)
        return rec.finer


# -- entity wrappers ------------------------------------------------------


class _Entity:
    """Handle of one record, addressed by (level, slot).

    A handle outlives no compacting transaction: every read checks the
    grid's slot revision ``_srev``.  Within one slot revision a slot keeps
    its record, so the handle keeps the record's persistent id once read;
    a view passes the ids it already holds when it makes its wrappers.
    """

    __slots__ = ("grid", "level", "slot", "_srev", "_id")

    codim = None
    _arena = None  # name of the grid arena the records of this kind live in

    def __init__(self, grid, level, slot, id=None):
        self.grid = grid
        self.level = level
        self.slot = slot
        self._srev = grid._srev
        self._id = id

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.grid is other.grid
            and self.level == other.level
            and self.slot == other.slot
        )

    def __hash__(self):
        return hash((type(self).__name__, id(self.grid), self.level, self.slot))

    def __repr__(self):
        return f"{type(self).__name__}(level={self.level}, slot={self.slot})"

    def _rec(self):
        self.grid._check_alive(self._srev)
        if self.level >= 0 and self.slot >= 0:  # a negative index would read from the end
            try:
                return getattr(self.grid, self._arena)[self.level][self.slot]
            except IndexError:
                pass
        kind = type(self).__name__.lower()
        raise StaleEntityError(f"no {kind} at level {self.level} slot {self.slot}")

    @property
    def id(self):
        i = self._id
        if i is None or self._srev != self.grid._srev:
            i = self._id = self._rec().id  # a stale handle raises here
        return i

    def father(self):
        rec = self._rec()
        if rec.father is None:
            return None
        return type(self)(self.grid, self.level - 1, rec.father)


class _Simplex(_Entity):
    """Element or edge: refinement children and a vertex list of its level."""

    __slots__ = ()

    def children(self):
        rec = self._rec()
        return [type(self)(self.grid, self.level + 1, s) for s in rec.children]

    def vertices(self):
        rec = self._rec()
        return [Vertex(self.grid, self.level, s) for s in rec.v]

    @property
    def geometry(self):
        rec = self._rec()
        verts = self.grid._verts[self.level]
        return AffineGeometry(np.array([verts[s].coords for s in rec.v]))


def _incident_elements(self):
    """Elements of the entity's level that list it among their corners or
    edges (the record attribute named ``_in_element``), in slot order; the
    grid stores no incidence, so this scans the level."""
    self._rec()
    attr, slot = self._in_element, self.slot
    return [
        Element(self.grid, self.level, t)
        for t, rec in enumerate(self.grid._elems[self.level])
        if slot in getattr(rec, attr)
    ]


class Element(_Simplex):
    """Codim-0 entity: a line segment (dim 1) or triangle (dim 2).

    A view makes its element wrappers with its shared read-only array of
    element corners and the element's row in it; ``geometry`` reads that
    row while the handle is alive.  Vertex copies hold the same coordinate
    bits, so the row equals the corners of the element's own level.
    """

    __slots__ = ("_corners", "_row")

    codim = 0
    _arena = "_elems"

    def __init__(self, grid, level, slot, id=None, corners=None, row=None):
        _Entity.__init__(self, grid, level, slot, id)
        self._corners = corners
        self._row = row

    @property
    def geometry(self):
        if self._corners is None or self._srev != self.grid._srev:
            return super().geometry  # a stale handle raises here
        return AffineGeometry(self._corners[self._row])

    @property
    def kind(self):
        return LINE if self.grid.dim == 1 else TRIANGLE

    @property
    def is_leaf(self):
        return not self._rec().children

    @property
    def is_new(self):
        return self._rec().id >= self.grid._first_new_id

    @property
    def might_vanish(self):
        self._rec()
        return (self.level, self.slot) in self.grid._vanishing

    @property
    def marker(self):
        """Insertion marker of the refinement-tree root (None if untagged)."""
        self._rec()
        return self.grid._marker(self.level, self.slot)

    def sub_entity(self, codim, i):
        """Subentity ``i`` of the given codimension (0 returns the element)."""
        rec = self._rec()
        d = self.grid.dim
        if codim == 0:
            if i != 0:
                raise IndexError(f"subentity index {i} out of range")
            return self
        if codim == d:  # vertices
            if not 0 <= i < d + 1:
                raise IndexError(f"subentity index {i} out of range")
            return Vertex(self.grid, self.level, rec.v[i])
        if codim == 1 and d == 2:
            if not 0 <= i < 3:
                raise IndexError(f"subentity index {i} out of range")
            return Edge(self.grid, self.level, rec.edges[i])
        raise DimensionMismatchError(f"no codim {codim} subentity on a dim-{d} grid element")

    def root_element(self):
        self._rec()
        return Element(self.grid, *self.grid._root(self.level, self.slot))


class Edge(_Simplex):
    """Codim-1 entity of a dim-2 grid."""

    __slots__ = ()

    codim = 1
    _arena = "_edges"
    _in_element = "edges"

    def sub_entity(self, codim, i):
        if codim != 2:
            raise DimensionMismatchError("edge subentities: only codim 2 (vertices)")
        if not 0 <= i < 2:
            raise IndexError(f"subentity index {i} out of range")
        return Vertex(self.grid, self.level, self._rec().v[i])

    incident_elements = _incident_elements


class Vertex(_Entity):
    """Codim-d entity; one record per level the logical vertex lives on."""

    __slots__ = ()

    _arena = "_verts"
    _in_element = "v"

    @property
    def codim(self):
        return self.grid.dim

    @property
    def coords(self):
        """The record's coordinates, as a read-only array."""
        coords = self._rec().coords.view()
        coords.flags.writeable = False
        return coords

    @property
    def geometry(self):
        return AffineGeometry(self.coords.reshape(1, -1))

    incident_elements = _incident_elements


# -- staged factory -------------------------------------------------------


class GridFactory:
    """Collects macro vertices and elements, then builds a level-0 grid."""

    def __init__(self, config):
        self.config = config
        self._coords = []  # staged (n, world_dim) blocks
        self._n_vertices = 0
        self._elements = []  # staged (m, dim + 1) int64 row blocks
        self._parametrizations, self._markers = [], []  # one per staged row

    def insert_vertices(self, coords):
        """Stage one vertex per row of an ``(n, world_dim)`` array; returns their insertion indices."""
        coords = checked_coords(coords, self.config.world_dim)
        first = self._n_vertices
        self._coords.append(coords)
        self._n_vertices += len(coords)
        return np.arange(first, self._n_vertices)

    def insert_vertex(self, coords):
        """Stage a vertex; returns its insertion index."""
        return int(self.insert_vertices([coords])[0])

    def insert_elements(self, kind, vertex_indices, parametrization=None, marker=None):
        """Stage one element per row of an ``(m, dim + 1)`` integer array over
        previously inserted vertices; returns their insertion indices.

        ``parametrization`` and ``marker`` are each one value for every row
        or a list, tuple or array of one value per row.  Degenerate
        (zero-measure) elements are accepted; geometry operations on them
        raise :class:`SingularGeometryError` later.
        """
        rows = checked_element(self.config.dim, kind, vertex_indices, self._n_vertices)
        parametrizations = _per_row(parametrization, len(rows), "parametrization")
        if not all(phi is None or callable(phi) for phi in parametrizations):
            raise FactoryError("parametrization must be callable")
        markers = _per_row(marker, len(rows), "marker")
        self._elements.append(rows)
        self._parametrizations += parametrizations
        self._markers += markers
        return np.arange(len(self._markers) - len(rows), len(self._markers))

    def insert_element(self, kind, vertex_indices, parametrization=None, marker=None):
        """Stage an element over previously inserted vertices; returns its insertion index."""
        return int(self.insert_elements(kind, [vertex_indices], [parametrization], [marker])[0])

    def create_grid(self):
        """Build the grid; the factory may be reused afterwards."""
        if not self._markers:
            raise FactoryError("cannot create a grid without elements")
        grid = Grid(self.config)
        coords = np.concatenate(self._coords)
        grid._add_vertices(0, coords, grid._new_ids(len(coords)))
        rows = np.concatenate(self._elements)
        ids = grid._new_ids(len(rows)) if grid.dim == 1 else None
        grid._add_elements(0, map(tuple, rows.tolist()), ids, self._parametrizations, self._markers)
        for slot, parametrization in enumerate(self._parametrizations):
            if parametrization is not None:
                _check_parametrization_corners(grid, slot, parametrization)
        return grid


def _per_row(value, m, name):
    """``value`` as a list of ``m`` entries: a list, tuple or array holds one
    entry per row, anything else is every row's."""
    if not isinstance(value, (list, tuple, np.ndarray)):
        return [value] * m
    if len(value) != m:
        raise FactoryError(f"{name} has {len(value)} entries for {m} rows")
    return value.tolist() if isinstance(value, np.ndarray) else list(value)


def checked_coords(coords, world_dim):
    """Staged vertex coordinates, one vertex per row, as a new ``(n, world_dim)`` float array.

    A refusal names the first bad row by its values.
    """
    coords = np.array(coords, dtype=float)
    if coords.shape[1:] != (world_dim,):
        raise DimensionMismatchError(
            f"expected {world_dim} coordinates, got shape {coords.shape[1:]}"
        )
    finite = np.isfinite(coords).all(axis=1)
    if not finite.all():
        raise FactoryError(
            f"vertex coordinates must be finite, got {coords[finite.argmin()].tolist()}"
        )
    return coords


def checked_element(dim, kind, vertex_indices, n_vertices):
    """Staged elements, one row of ``dim + 1`` vertex indices each, over indices
    ``0 .. n_vertices - 1``, as a new ``(m, dim + 1)`` int64 array.

    A refusal names the first bad row: its repeated index or, failing
    that, its first unknown one.
    """
    if not isinstance(kind, SimplexKind) or kind.dim != dim:
        raise FactoryError(f"element kind {kind!r} does not match grid dimension {dim}")
    rows = np.asarray(vertex_indices)
    if rows.ndim != 2:
        raise FactoryError(f"need rows of {dim + 1} vertex indices, got shape {rows.shape}")
    if rows.shape[1] != dim + 1:
        raise FactoryError(f"need {dim + 1} vertex indices, got {rows.shape[1]}")
    if rows.dtype.kind not in "iu":
        raise FactoryError(f"vertex indices must be integers, got {rows.dtype}")
    repeated = np.zeros(len(rows), dtype=bool)
    for a, b in combinations(range(dim + 1), 2):
        repeated |= rows[:, a] == rows[:, b]
    bad = repeated | ((rows < 0) | (rows >= n_vertices)).any(axis=1)
    if bad.any():
        first = bad.argmax()
        row = tuple(rows[first].tolist())
        if repeated[first]:
            raise FactoryError(f"repeated vertex index in {row}")
        raise FactoryError(f"unknown vertex index {next(i for i in row if not 0 <= i < n_vertices)}")
    return rows.astype(np.int64)


def _check_parametrization_corners(grid, slot, phi):
    """Warn when phi at the reference corners disagrees with stored coordinates."""
    rec = grid._elems[0][slot]
    for local, vslot in zip(REFERENCE_CORNERS[grid.dim], rec.v):
        stored = grid._verts[0][vslot].coords
        image = np.asarray(phi(np.asarray(local, dtype=float)), dtype=float)
        if image.shape != stored.shape or np.max(np.abs(image - stored)) > 1e-9:
            warnings.warn(
                f"parametrization of element {slot} maps corner {local.tolist()} to "
                f"{np.asarray(image).tolist()}, but the inserted vertex sits at "
                f"{stored.tolist()}",
                stacklevel=3,
            )
            break


# -- consistency audit ----------------------------------------------------


def audit_grid(grid):
    """Full topology audit; returns a list of problem descriptions (empty = ok)."""
    problems = []
    d = grid.dim
    n_levels = len(grid._elems)
    if not (len(grid._verts) == len(grid._edges) == n_levels):
        problems.append("arena level counts differ between codims")
        return problems

    for level in range(n_levels):
        verts = grid._verts[level]
        edges = grid._edges[level]
        elems = grid._elems[level]

        for slot, rec in enumerate(elems):
            tag = f"element ({level},{slot})"
            if len(rec.v) != d + 1:
                problems.append(f"{tag}: wrong vertex count")
                continue
            if any(not 0 <= s < len(verts) for s in rec.v):
                problems.append(f"{tag}: dangling vertex slot")
                continue
            if len(set(rec.v)) != d + 1:
                problems.append(f"{tag}: repeated vertex")
            if d == 2:
                if len(rec.edges) != 3 or any(not 0 <= e < len(edges) for e in rec.edges):
                    problems.append(f"{tag}: bad edge slots")
                else:
                    for k, (a, b) in enumerate(TRIANGLE_EDGES):
                        if frozenset(edges[rec.edges[k]].v) != frozenset((rec.v[a], rec.v[b])):
                            problems.append(f"{tag}: edge {k} does not match its corner pair")
            if rec.father is not None:
                if level == 0 or not 0 <= rec.father < len(grid._elems[level - 1]):
                    problems.append(f"{tag}: dangling father")
                elif slot not in grid._elems[level - 1][rec.father].children:
                    problems.append(f"{tag}: father does not list it as child")
                if rec.corners_in_father is None:
                    problems.append(f"{tag}: has father but no embedding in it")
            if rec.children:
                if not 1 <= len(rec.children) <= 2**d:
                    problems.append(f"{tag}: {len(rec.children)} children")
                for c in rec.children:
                    if level + 1 >= n_levels or not 0 <= c < len(grid._elems[level + 1]):
                        problems.append(f"{tag}: dangling child slot {c}")
                    elif grid._elems[level + 1][c].father != slot:
                        problems.append(f"{tag}: child {c} has wrong father")
            if rec.mark not in (-1, 0, 1):
                problems.append(f"{tag}: invalid mark {rec.mark}")

        first_over = {}  # vertex pair -> the first edge slot over it
        for slot, rec in enumerate(edges):
            tag = f"edge ({level},{slot})"
            if any(not 0 <= s < len(verts) for s in rec.v):
                problems.append(f"{tag}: dangling vertex slot")
            first = first_over.setdefault(frozenset(rec.v), slot)
            if first != slot:
                problems.append(f"{tag}: same vertex pair as edge ({level},{first})")
            if len(rec.children) not in (0, 2):
                problems.append(f"{tag}: children not absent-or-pair")
            for c in rec.children:
                if level + 1 >= n_levels or not 0 <= c < len(grid._edges[level + 1]):
                    problems.append(f"{tag}: dangling child")
                elif grid._edges[level + 1][c].father != slot:
                    problems.append(f"{tag}: child {c} has wrong father")
            if rec.father is not None:
                if level == 0 or not 0 <= rec.father < len(grid._edges[level - 1]):
                    problems.append(f"{tag}: dangling father")
                elif slot not in grid._edges[level - 1][rec.father].children:
                    problems.append(f"{tag}: father does not list it")

        referenced = {s for rec in elems for s in rec.v}
        referenced.update(s for rec in edges for s in rec.v)
        for slot, rec in enumerate(verts):
            tag = f"vertex ({level},{slot})"
            if rec.coords.shape != (grid.world_dim,):
                problems.append(f"{tag}: wrong coordinate length")
            if rec.father is not None:
                if level == 0 or not 0 <= rec.father < len(grid._verts[level - 1]):
                    problems.append(f"{tag}: dangling father")
                else:
                    frec = grid._verts[level - 1][rec.father]
                    if frec.finer != slot:
                        problems.append(f"{tag}: father does not link back")
                    if frec.id != rec.id:
                        problems.append(f"{tag}: chain id differs from father")
            if rec.finer is not None:
                if level + 1 >= n_levels or not 0 <= rec.finer < len(grid._verts[level + 1]):
                    problems.append(f"{tag}: dangling finer copy")
            elif slot not in referenced:
                problems.append(f"{tag}: unreferenced")

    # persistent ids must be unique across logical entities alive now
    seen = set()
    for level in range(n_levels):
        chains = [rec for rec in grid._verts[level] if rec.father is None]  # copies share ids
        for rec in grid._elems[level] + grid._edges[level] + chains:
            if rec.id in seen:
                problems.append(f"duplicate id {rec.id}")
            seen.add(rec.id)
    return problems


# The transaction modules and views import names from this module, so they
# load after it; Grid calls their functions through the module attributes.
from . import adaptivity, growth, views  # noqa: E402
