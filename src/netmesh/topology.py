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
its copies, for ``roots.leaf_degree`` and growth.

Records enter the arenas only through ``Grid._add_vertex``,
``Grid._add_element`` and ``Grid._get_or_make_edge`` (factory,
refinement and growth alike) and leave only through
``compaction.remove_elements``.  Staged factory and growth input passes
the same checks, ``checked_coords`` and ``checked_element``.  Records
link down (corners, edges) and across levels (father, children, finer)
but store no incidence: ``incident_elements`` scans the level.

The open adapt or grow transaction is grid state, not record state.
``Grid._require`` checks one phase (idle, queued, preadapted, adapted,
grown).  Ids only increase, so an element is new when its id is at least
``Grid._first_new_id``, the first id the open transaction drew.
``Grid._vanishing`` holds the places ``pre_adapt`` lets coarsen.
Transaction calls read the record behind an element handle through
``Grid._own``, which refuses a handle of another grid and anything that
is not an element handle.
"""

from __future__ import annotations

import logging
import math
import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    FactoryError,
    LifecycleError,
    StaleEntityError,
)

logger = logging.getLogger(__name__)


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

# Children of a refined simplex: corner tokens ('c', i) are copies of the
# father's corner i, ('m', k) the midpoint of the father's local edge k.
CHILD_VERTEX_SOURCES = {
    1: (
        (("c", 0), ("m", 0)),
        (("m", 0), ("c", 1)),
    ),
    2: (
        (("c", 0), ("m", 0), ("m", 1)),
        (("m", 0), ("c", 1), ("m", 2)),
        (("m", 1), ("m", 2), ("c", 2)),
        (("m", 0), ("m", 2), ("m", 1)),
    ),
}

# Corner coordinates of each child inside the father's reference simplex.
CHILD_CORNERS_IN_FATHER = {
    1: (
        np.array([[0.0], [0.5]]),
        np.array([[0.5], [1.0]]),
    ),
    2: (
        np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]]),
        np.array([[0.5, 0.0], [1.0, 0.0], [0.5, 0.5]]),
        np.array([[0.0, 0.5], [0.5, 0.5], [0.0, 1.0]]),
        np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]]),
    ),
}

# Midpoint of local edge k in the element's own reference coordinates.
EDGE_MIDPOINT_LOCAL = {
    1: (np.array([0.5]),),
    2: (np.array([0.5, 0.0]), np.array([0.0, 0.5]), np.array([0.5, 0.5])),
}


@dataclass
class VertexRec:
    coords: np.ndarray
    id: int
    father: int | None = None   # slot one level down, same chain
    finer: int | None = None    # slot one level up, same chain


@dataclass
class EdgeRec:
    v: tuple  # two vertex slots at the same level, insertion order
    id: int
    father: int | None = None
    children: tuple = ()        # () or 2 slots: (v[0]-side half, v[1]-side half)


@dataclass
class ElemRec:
    v: tuple                    # dim+1 vertex slots at the same level
    id: int
    edges: tuple = ()           # dim==2: 3 edge slots matching TRIANGLE_EDGES
    father: int | None = None
    children: tuple = ()
    root: tuple = (0, 0)        # (level, slot) of the refinement-tree root
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
        self._queued_vertices = []
        self._queued_elements = []
        self._queued_removals = []
        self._growth_report = None
        self._queue_leaf_vertices = None
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
        from .views import GridView

        view = self._leaf_view() if self._leaf_view is not None else None
        if view is None or view._revision != self._revision:
            if view is not None:
                view._release()
            view = GridView(self, None)
            self._leaf_view = weakref.ref(view)
        return view

    def level_view(self, level):
        from .views import GridView

        if not 0 <= level <= self.max_level:
            raise StaleEntityError(f"no level {level} in grid with max level {self.max_level}")
        return GridView(self, level)

    # -- adapt lifecycle (implementation in adaptivity module) ------------

    def mark(self, ref_count, element):
        from . import adaptivity

        return adaptivity.mark(self, ref_count, element)

    def get_mark(self, element):
        from . import adaptivity

        return adaptivity.get_mark(self, element)

    def pre_adapt(self):
        from . import adaptivity

        return adaptivity.pre_adapt(self)

    def adapt(self):
        from . import adaptivity

        return adaptivity.adapt(self)

    def post_adapt(self):
        from . import adaptivity

        adaptivity.post_adapt(self)

    # -- growth lifecycle (implementation in growth module) ---------------

    def queue_vertex(self, coords):
        from . import growth

        return growth.queue_vertex(self, coords)

    def queue_element(self, kind, vertex_indices, parametrization=None):
        from . import growth

        return growth.queue_element(self, kind, vertex_indices, parametrization)

    def remove_element(self, element):
        from . import growth

        growth.remove_element(self, element)

    def grow(self):
        from . import growth

        return growth.grow(self)

    def post_grow(self):
        from . import growth

        growth.post_grow(self)

    @property
    def growth_report(self):
        return self._growth_report

    # -- internal helpers shared by adaptivity/growth ---------------------

    def _require(self, call, *phases):
        if self._phase not in phases:
            raise LifecycleError(f"{call} called during phase {self._phase!r}")

    def _own(self, element):
        """Record of an element handle, refusing anything else or a handle of another grid."""
        if not isinstance(element, Element):
            raise DimensionMismatchError(f"expected an element, got a {type(element).__name__}")
        if element.grid is not self:
            raise StaleEntityError("entity belongs to a different grid")
        return element._rec()

    def _check_alive(self, srev):
        if srev != self._srev:
            raise StaleEntityError("entity handle outlived a compacting grid transaction")

    def _edge_index(self, level):
        """Lazy map unordered vertex-slot pair -> edge slot for one level."""
        lookup = self._edge_lookup[level]
        if lookup is None:
            lookup = {}
            for slot, rec in enumerate(self._edges[level]):
                lookup[frozenset(rec.v)] = slot
            self._edge_lookup[level] = lookup
        return lookup

    def _add_vertex(self, level, coords, vid=None, father=None):
        """Append a vertex record at ``level``; a new id unless ``vid`` is a chain's id."""
        verts = self._verts[level]
        verts.append(VertexRec(coords=coords, id=self._new_id() if vid is None else vid, father=father))
        return len(verts) - 1

    def _add_element(self, level, v, father=None, parametrization=None, corners_in_father=None,
                     marker=None):
        """Append an element over vertex slots ``v`` at ``level``; returns its slot.

        Edge ids are drawn before the element id.  An element without a
        father roots its own refinement tree; a child shares its father's.
        """
        edges = ()
        if self.dim == 2:
            edges = tuple(self._get_or_make_edge(level, v[a], v[b]) for a, b in TRIANGLE_EDGES)
        elems = self._elems[level]
        slot = len(elems)
        elems.append(ElemRec(
            v=v,
            id=self._new_id(),
            edges=edges,
            father=father,
            root=(level, slot) if father is None else self._elems[level - 1][father].root,
            parametrization=parametrization,
            corners_in_father=corners_in_father,
            marker=marker,
        ))
        return slot

    def _get_or_make_edge(self, level, va, vb):
        lookup = self._edge_index(level)
        key = frozenset((va, vb))
        slot = lookup.get(key)
        if slot is None:
            slot = len(self._edges[level])
            self._edges[level].append(EdgeRec(v=(va, vb), id=self._new_id()))
            lookup[key] = slot
        return slot

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
    __slots__ = ("grid", "level", "slot", "_srev")

    codim = None
    _arena = None  # name of the grid arena the records of this kind live in

    def __init__(self, grid, level, slot):
        self.grid = grid
        self.level = level
        self.slot = slot
        self._srev = grid._srev

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
        try:
            return getattr(self.grid, self._arena)[self.level][self.slot]
        except IndexError:
            kind = type(self).__name__.lower()
            raise StaleEntityError(f"no {kind} at level {self.level} slot {self.slot}")

    @property
    def id(self):
        return self._rec().id

    def father(self):
        rec = self._rec()
        if rec.father is None:
            return None
        return type(self)(self.grid, self.level - 1, rec.father)


class _Simplex(_Entity):
    """Element or edge: refinement children and a vertex list of its level."""

    def children(self):
        rec = self._rec()
        return [type(self)(self.grid, self.level + 1, s) for s in rec.children]

    def vertices(self):
        rec = self._rec()
        return [Vertex(self.grid, self.level, s) for s in rec.v]

    @property
    def geometry(self):
        from .geometry import AffineGeometry

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
    """Codim-0 entity: a line segment (dim 1) or triangle (dim 2)."""

    codim = 0
    _arena = "_elems"

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
        rl, rs = self._rec().root
        return self.grid._elems[rl][rs].marker

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
        rl, rs = self._rec().root
        return Element(self.grid, rl, rs)


class Edge(_Simplex):
    """Codim-1 entity of a dim-2 grid."""

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

    _arena = "_verts"
    _in_element = "v"

    @property
    def codim(self):
        return self.grid.dim

    @property
    def coords(self):
        return self._rec().coords

    @property
    def geometry(self):
        from .geometry import AffineGeometry

        return AffineGeometry(self._rec().coords.reshape(1, -1))

    incident_elements = _incident_elements


# -- staged factory -------------------------------------------------------


class GridFactory:
    """Collects macro vertices and elements, then builds a level-0 grid."""

    def __init__(self, config):
        if not isinstance(config, GridConfig):
            config = GridConfig(*config)
        self.config = config
        self._coords = []
        self._elements = []  # (vertex tuple, parametrization, marker)

    def insert_vertex(self, coords):
        """Stage a vertex; returns its insertion index."""
        self._coords.append(checked_coords(coords, self.config.world_dim))
        return len(self._coords) - 1

    def insert_element(self, kind, vertex_indices, parametrization=None, marker=None):
        """Stage an element over previously inserted vertices.

        Degenerate (zero-measure) elements are accepted; geometry operations
        on them raise :class:`SingularGeometryError` later.
        """
        idx = checked_element(
            self.config.dim, kind, vertex_indices, parametrization, len(self._coords)
        )
        self._elements.append((idx, parametrization, marker))
        return len(self._elements) - 1

    def create_grid(self):
        """Build the grid; the factory may be reused afterwards."""
        if not self._elements:
            raise FactoryError("cannot create a grid without elements")
        grid = Grid(self.config)
        for coords in self._coords:
            grid._add_vertex(0, coords.copy())
        for idx, parametrization, marker in self._elements:
            slot = grid._add_element(0, idx, parametrization=parametrization, marker=marker)
            if parametrization is not None:
                _check_parametrization_corners(grid, slot, parametrization)
        return grid


def checked_coords(coords, world_dim):
    """Staged vertex coordinates as a new float array of length ``world_dim``."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (world_dim,):
        raise DimensionMismatchError(
            f"expected {world_dim} coordinates, got shape {coords.shape}"
        )
    if not all(map(math.isfinite, coords.tolist())):
        raise FactoryError(f"vertex coordinates must be finite, got {coords.tolist()}")
    return coords.copy()


def checked_element(dim, kind, vertex_indices, parametrization, n_vertices):
    """Vertex index tuple of a staged element over indices ``0 .. n_vertices - 1``."""
    if not isinstance(kind, SimplexKind) or kind.dim != dim:
        raise FactoryError(f"element kind {kind!r} does not match grid dimension {dim}")
    idx = tuple(int(i) for i in vertex_indices)
    if len(idx) != dim + 1:
        raise FactoryError(f"need {dim + 1} vertex indices, got {len(idx)}")
    if len(set(idx)) != len(idx):
        raise FactoryError(f"repeated vertex index in {idx}")
    for i in idx:
        if not 0 <= i < n_vertices:
            raise FactoryError(f"unknown vertex index {i}")
    if parametrization is not None and not callable(parametrization):
        raise FactoryError("parametrization must be callable")
    return idx


def _check_parametrization_corners(grid, slot, phi, tol=1e-9):
    """Warn when phi at the reference corners disagrees with stored coordinates."""
    from .geometry import REFERENCE_CORNERS

    rec = grid._elems[0][slot]
    for local, vslot in zip(REFERENCE_CORNERS[grid.dim], rec.v):
        stored = grid._verts[0][vslot].coords
        image = np.asarray(phi(np.asarray(local, dtype=float)), dtype=float)
        if image.shape != stored.shape or np.max(np.abs(image - stored)) > tol:
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
            rl, rs = rec.root
            cur_level, cur_slot = level, slot
            while grid._elems[cur_level][cur_slot].father is not None:
                cur_level, cur_slot = cur_level - 1, grid._elems[cur_level][cur_slot].father
            if (cur_level, cur_slot) != (rl, rs):
                problems.append(f"{tag}: root link does not match father chain")
            if rec.mark not in (-1, 0, 1):
                problems.append(f"{tag}: invalid mark {rec.mark}")

        for slot, rec in enumerate(edges):
            tag = f"edge ({level},{slot})"
            if any(not 0 <= s < len(verts) for s in rec.v):
                problems.append(f"{tag}: dangling vertex slot")
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
