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

Vertices and edges live in one column store per level (``_Columns``),
-1 for "none": vertex ``coords (n, w)``, ``id``, ``father``, ``finer``;
edge ``v (n, 2)``, ``id``, ``father``, ``children (n, 2)``, the
``v[0]``-side half first.  Elements are slotted records (``ElemRec``).
Only the storage core reads stores and records: this module, ``views``,
``adaptivity``, ``compaction`` and ``intersections``, by gathers,
scatters and masks of the columns.  Other modules use views, handles and
three ``Grid`` reads that build no wrapper: ``_id`` at a codim, level
and slot; ``_father``, one step up the hierarchy (None at a tree root),
which ``_root`` repeats; and ``_marker``.  A child takes its father's
parametrization and marker, so a record holds its tree root's.

Entities enter through the batch appends ``Grid._add_vertices``,
``_add_elements`` and, for edges, ``_Columns.append``, with the ids
their caller drew: a range for the factory's vertices and segments,
else one cumulative sum over per-row columns (``Grid._draw_ids``) in the
factory and growth and over per-leaf columns in refinement
(``adaptivity``).  A store append doubles a full column, so it costs
amortized O(rows).  Triangles enter
in batches: ``Grid._edge_batch`` finds their edges and ``_add_batch``
appends them, then the elements, so a row's new edges take their ids
before it does.  The first user of an entity in row order makes it
(``_makers``).  Only an edge between two vertices that predate the batch
can exist already; a search of the level's sorted pair keys finds it.
Entities leave only through ``compaction.remove_elements``.  The grow
queue is a ``GridFactory`` too, so the level-0 build and growth stage
one way, a whole array per call with a parametrization and a marker per
row.  Entities link down (corners, edges) and across levels (father,
children, finer) but store no incidence, which ``incident_elements``
finds by scanning the level, and no tree root.  Red refinement is one
table: ``CHILDREN`` lists each child's corners over the father's corners
and local-edge midpoints; the reference coordinates derive from it.

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
only in a compaction, so a handle keeps its id once read; a view hands
its wrappers the ids and the element corners it holds.  ``Vertex.coords``
is a read-only view of its row; a column that grows or is compacted is a
new array, so an older row view keeps its values.  The VTK writer relies
on that when it reuses a vertex's ``POINTS`` line by its id.
"""

from __future__ import annotations

import logging
import math
import warnings
import weakref
from dataclasses import dataclass
from itertools import chain, combinations, repeat

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
_EDGE_CORNERS = np.array(TRIANGLE_EDGES)  # as an index array

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


class _Columns:
    """One level of the vertex or edge arena: a numpy column per field and
    a row per slot, -1 for "none".  ``len`` is the level's count, and a
    column reads as a view of its first ``len`` rows."""

    __slots__ = ("_n", "_data")

    def __init__(self, **shapes):  # name -> shape of one row
        self._n, self._data = 0, {name: np.empty((0, *shape), float if name == "coords" else np.int64)
                                  for name, shape in shapes.items()}

    def __len__(self):
        return self._n

    def __getattr__(self, name):
        if name[0] == "_" or name not in self._data:
            raise AttributeError(name)
        return self._data[name][:self._n]

    def append(self, **rows):
        """Append a row per entry of each column given (one value serves all rows),
        -1 in the others, doubling a full buffer into a new one; returns the slots, a range."""
        n, m = self._n, len(rows["id"])
        for name, buf in self._data.items():
            if n + m > len(buf):
                grown = np.empty((max(2 * len(buf), n + m), *buf.shape[1:]), buf.dtype)
                grown[:n] = buf[:n]
                self._data[name] = buf = grown
            buf[n:n + m] = rows.get(name, -1)
        self._n = n + m
        return range(n, n + m)

    def keep(self, alive):
        """Keep the rows the boolean array ``alive`` sets, in order, in new buffers; returns the store."""
        self._data = {name: buf[:self._n][alive] for name, buf in self._data.items()}
        self._n = int(np.count_nonzero(alive))
        return self


@dataclass(slots=True)
class ElemRec:
    v: tuple                    # dim+1 vertex slots at the same level
    id: int
    edges: tuple = ()           # dim==2: 3 edge slots matching TRIANGLE_EDGES
    father: int | None = None
    children: tuple = ()
    mark: int = 0
    parametrization: object = None  # callable local -> R^w of the tree root, children share it
    corners_in_father: np.ndarray | None = None
    marker: int | None = None   # the tree root's insertion marker (e.g. gmsh physical tag)


def _ints(rows, width):
    """Equal-length rows of ints, as an ``(n, width)`` int array."""
    return np.fromiter(chain.from_iterable(rows), np.int64).reshape(-1, width)


def _makers(keys, missing):
    """Of the flat ``keys`` whose record is ``missing``, the first position of
    each key makes it: the mask of those positions, and for every position
    the position that makes its record (itself where none is missing)."""
    at = missing.nonzero()[0]
    unique, first = np.unique(keys[at], return_index=True)
    maker = np.arange(len(keys))
    maker[at] = at[first][unique.searchsorted(keys[at])]
    return missing & (maker == np.arange(len(keys))), maker


class Grid:
    """Hierarchical simplicial network grid.

    Purely sequential: readers (views, iterators) must be quiesced while an
    adapt or grow transaction runs.  Constructed through :class:`GridFactory`.
    """

    def __init__(self, config):
        self.config = config
        self._verts, self._edges, self._elems = [], [], []
        self._ensure_level(0)
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

    def _ensure_level(self, level):
        while len(self._elems) <= level:
            self._elems.append([])
            self._verts.append(_Columns(coords=(self.world_dim,), id=(), father=(), finer=()))
            self._edges.append(_Columns(v=(2,), id=(), father=(), children=(2,)))

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

    def _new_ids(self, n):
        """``n`` new ids, in order, as a range."""
        self._next_id += n
        return range(self._next_id - n, self._next_id)

    def _draw_ids(self, take):
        """Draw one new id per set entry of the boolean array ``take``, in
        row-major order; returns an int array of its shape holding each set
        entry's id."""
        ids = take.cumsum().reshape(take.shape) + (self._next_id - 1)
        self._new_ids(int(np.count_nonzero(take)))
        return ids

    def _add_vertices(self, level, coords, ids, fathers=-1):
        """Append a vertex per row of ``coords`` at ``level``, bit for bit; returns the slots, a range."""
        return self._verts[level].append(coords=coords, id=ids, father=fathers)

    def _add_elements(self, level, v, ids, parametrizations=repeat(None), markers=repeat(None),
                      edges=repeat(()), fathers=repeat(None), corners_in_father=repeat(None)):
        """Append one element per vertex-slot tuple of ``v`` at ``level`` in one
        pass with the drawn ``ids``; a triangle takes its three edge slots in
        ``TRIANGLE_EDGES`` order from ``edges``.  Returns their slots, a range."""
        elems = self._elems[level]
        first = len(elems)
        # ElemRec's fields in order; no children yet, mark 0
        elems.extend(map(ElemRec, v, ids, edges, fathers, repeat(()), repeat(0), parametrizations,
                         corners_in_father, markers))
        return range(first, len(elems))

    def _edge_batch(self, level, corners):
        """The edges of triangles entering ``level`` over the ``(m, 3)`` vertex
        keys ``corners``: a key >= 0 is the slot of a vertex the level holds,
        a negative one names a vertex the batch makes.  Per triangle and corner
        pair in ``TRIANGLE_EDGES`` order, as ``(m, 3)`` arrays: whether the
        pair makes a new edge, the flat position of the pair's first user,
        and the edge the level holds over a first user's pair (-1: none),
        which only two held vertices can have."""
        pairs = np.sort(corners[:, _EDGE_CORNERS], axis=2)
        low = pairs.min(initial=0)
        keys = (pairs[..., 0] - low) * (pairs.max(initial=0) - low + 1) + pairs[..., 1] - low
        first, sharer = _makers(keys.ravel(), np.ones(keys.size, dtype=bool))
        first, held = first.reshape(keys.shape), np.full(keys.shape, -1)
        ask = first & (pairs[..., 0] >= 0)
        if ask.any() and len(self._edges[level]):  # a search of the level's sorted pair keys
            key = np.array([len(self._verts[level]), 1])
            have, want = np.sort(self._edges[level].v, axis=1) @ key, pairs[ask] @ key
            order = have.argsort()
            at = order[have[order].searchsorted(want).clip(max=len(have) - 1)]
            held[ask] = np.where(have[at] == want, at, -1)
        return first & (held < 0), sharer.reshape(keys.shape), held

    def _add_batch(self, level, v, batch, ids, parametrizations, markers=repeat(None)):
        """Append at ``level`` the elements over the ``(m, dim + 1)`` vertex-slot
        array ``v`` with the edges that ``_edge_batch`` found for them,
        ``batch`` (None for segments): first each new edge, over its first
        user's corner pair in that user's order, then the elements.  ``ids``
        holds per element the ids drawn for its edge columns, then its own.
        Returns their slots."""
        edges = repeat(())  # segments have no edges and no batch
        if batch is not None:
            new, sharer, held = batch
            slots = held.flatten()
            slots[new.ravel()] = self._edges[level].append(v=v[:, _EDGE_CORNERS][new], id=ids[:, :-1][new])
            edges = map(tuple, slots[sharer].tolist())
        return self._add_elements(level, map(tuple, v.tolist()), ids[:, -1].tolist(), parametrizations, markers,
                                  edges=edges)

    def _id(self, codim, level, slot):
        """Persistent id of the record of one codim at (level, slot), read without a wrapper."""
        if codim == 0:
            return self._elems[level][slot].id
        return int((self._verts if codim == self.dim else self._edges)[level].id[slot])

    def _father(self, level, slot):
        """(level, slot) of an element's father, None at a tree root."""
        return None if (father := self._elems[level][slot].father) is None else (level - 1, father)

    def _root(self, level, slot):
        """(level, slot) of the refinement-tree root of an element."""
        while (father := self._father(level, slot)) is not None:
            level, slot = father
        return level, slot

    def _marker(self, level, slot):
        """Insertion marker of an element's tree root, which its record holds, read without a wrapper."""
        return self._elems[level][slot].marker

    def _vertex_chain(self, level, slot):
        """(level, slot) of every copy of one logical vertex, coarsest first."""
        verts = self._verts
        while (father := int(verts[level].father[slot])) >= 0:
            level, slot = level - 1, father
        chain = [(level, slot)]
        while (finer := int(verts[level].finer[slot])) >= 0:
            level, slot = level + 1, finer
            chain.append((level, slot))
        return chain


# -- entity wrappers ------------------------------------------------------


class _Entity:
    """Handle of one entity, addressed by (level, slot).

    A handle outlives no compacting transaction: every read checks the
    grid's slot revision ``_srev``.  Within one slot revision a slot keeps
    its entity, so the handle keeps the entity's persistent id once read;
    a view passes the ids it already holds when it makes its wrappers.
    """

    __slots__ = ("grid", "level", "slot", "_srev", "_id")

    codim = None
    _arena = None  # name of the grid arena the entities of this kind live in

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

    def _level(self):
        """The handle's level of its arena, once the handle is checked."""
        self.grid._check_alive(self._srev)
        arena = getattr(self.grid, self._arena)
        if 0 <= self.level < len(arena) and 0 <= self.slot < len(arena[self.level]):
            return arena[self.level]
        kind = type(self).__name__.lower()
        raise StaleEntityError(f"no {kind} at level {self.level} slot {self.slot}")

    def _field(self, name):
        """One field of a vertex or an edge: an int, None for -1, or a tuple of slots."""
        value = getattr(self._level(), name)[self.slot].tolist()
        if isinstance(value, list):
            return tuple(x for x in value if x >= 0)
        return None if value < 0 else value

    @property
    def id(self):
        i = self._id
        if i is None or self._srev != self.grid._srev:
            i = self._id = self._field("id")  # a stale handle raises here
        return i

    def father(self):
        father = self._field("father")
        return None if father is None else type(self)(self.grid, self.level - 1, father)


class _Simplex(_Entity):
    """Element or edge: refinement children and a vertex list of its level."""

    __slots__ = ()

    def children(self):
        return [type(self)(self.grid, self.level + 1, s) for s in self._field("children")]

    def vertices(self):
        return [Vertex(self.grid, self.level, s) for s in self._field("v")]

    @property
    def geometry(self):
        corners = list(self._field("v"))  # a stale handle raises here
        return AffineGeometry(self.grid._verts[self.level].coords[corners])


def _incident_elements(self):
    """Elements of the entity's level that list it among their corners or
    edges (the record attribute named ``_in_element``), in slot order; the
    grid stores no incidence, so this scans the level."""
    self._level()
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

    def _rec(self):
        return self._level()[self.slot]

    def _field(self, name):
        return getattr(self._rec(), name)

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
        return self._rec().marker

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
        return Vertex(self.grid, self.level, self._field("v")[i])

    incident_elements = _incident_elements


class Vertex(_Entity):
    """Codim-d entity; one copy per level the logical vertex lives on."""

    __slots__ = ()

    _arena = "_verts"
    _in_element = "v"

    @property
    def codim(self):
        return self.grid.dim

    @property
    def coords(self):
        """The copy's coordinates, as a read-only view of its row."""
        coords = self._level().coords[self.slot]
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
        rows, batch = np.concatenate(self._elements), None
        if grid.dim == 1:  # segments make no edges: their ids are one range
            new = grid._new_ids(len(rows))
            ids = np.arange(new.start, new.stop)[:, None]
        else:  # per row: its new edges' ids, then its own
            batch = grid._edge_batch(0, rows)
            ids = grid._draw_ids(np.concatenate([batch[0], np.ones((len(rows), 1), dtype=bool)], axis=1))
        grid._add_batch(0, rows, batch, ids, self._parametrizations, self._markers)
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
        stored = grid._verts[0].coords[vslot]
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
                        if set(edges.v[rec.edges[k]].tolist()) != {rec.v[a], rec.v[b]}:
                            problems.append(f"{tag}: edge {k} does not match its corner pair")
            if rec.father is not None:
                if level == 0 or not 0 <= rec.father < len(grid._elems[level - 1]):
                    problems.append(f"{tag}: dangling father")
                elif slot not in (father := grid._elems[level - 1][rec.father]).children:
                    problems.append(f"{tag}: father does not list it as child")
                elif rec.marker != father.marker or rec.parametrization is not father.parametrization:
                    problems.append(f"{tag}: marker or chart differs from its father's")
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
        finer_level = level + 1 < n_levels  # level - 1 wraps round at level 0, where no father is read
        coarse_edges, fine_edges = grid._edges[level - 1], grid._edges[level + 1] if finer_level else ()
        columns = zip(edges.v.tolist(), edges.father.tolist(), edges.children.tolist())
        for slot, (pair, father, kids) in enumerate(columns):
            tag = f"edge ({level},{slot})"
            if any(not 0 <= s < len(verts) for s in pair):
                problems.append(f"{tag}: dangling vertex slot")
            first = first_over.setdefault(frozenset(pair), slot)
            if first != slot:
                problems.append(f"{tag}: same vertex pair as edge ({level},{first})")
            kids = [c for c in kids if c >= 0]
            if len(kids) == 1:
                problems.append(f"{tag}: children not absent-or-pair")
            for c in kids:
                if not c < len(fine_edges):
                    problems.append(f"{tag}: dangling child")
                elif fine_edges.father[c] != slot:
                    problems.append(f"{tag}: child {c} has wrong father")
            if father >= 0:
                if level == 0 or not father < len(coarse_edges):
                    problems.append(f"{tag}: dangling father")
                elif slot not in coarse_edges.children[father]:
                    problems.append(f"{tag}: father does not list it")

        referenced = {s for rec in elems for s in rec.v}
        referenced.update(edges.v.ravel().tolist())
        if verts.coords.shape[1:] != (grid.world_dim,):
            problems.append(f"vertices of level {level}: wrong coordinate length")
        coarse, fine = grid._verts[level - 1], len(grid._verts[level + 1]) if finer_level else 0
        for slot, (father, finer) in enumerate(zip(verts.father.tolist(), verts.finer.tolist())):
            tag = f"vertex ({level},{slot})"
            if father >= 0:
                if level == 0 or not father < len(coarse):
                    problems.append(f"{tag}: dangling father")
                else:
                    if coarse.finer[father] != slot:
                        problems.append(f"{tag}: father does not link back")
                    if coarse.id[father] != verts.id[slot]:
                        problems.append(f"{tag}: chain id differs from father")
                    if coarse.coords[father].tobytes() != verts.coords[slot].tobytes():
                        problems.append(f"{tag}: coordinates differ from father")
            if finer >= fine:
                problems.append(f"{tag}: dangling finer copy")
            elif finer < 0 and slot not in referenced:
                problems.append(f"{tag}: unreferenced")

    # persistent ids must be unique across logical entities alive now
    seen = set()
    for level in range(n_levels):
        verts = grid._verts[level]  # copies share ids
        for i in [rec.id for rec in grid._elems[level]] + grid._edges[level].id.tolist() + \
                verts.id[verts.father < 0].tolist():
            if i in seen:
                problems.append(f"duplicate id {i}")
            seen.add(i)
    return problems


# The transaction modules and views import names from this module, so they
# load after it; Grid calls their functions through the module attributes.
from . import adaptivity, growth, views  # noqa: E402
