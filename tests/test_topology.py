import importlib
import inspect
import re
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from netmesh import LINE, TRIANGLE, GridConfig, GridFactory, intersections, read_gmsh
from netmesh.errors import DimensionMismatchError, FactoryError, StaleEntityError
from netmesh.parametrization import QuadraticLine, QuadraticTriangle

from conftest import make_grid, refine_all
from gridcheck import check_grid
from rows import rows

DATA = Path(__file__).parent / "data"


class TestGridConfig:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            GridConfig(3, 3)
        with pytest.raises(DimensionMismatchError):
            GridConfig(2, 1)  # element dim exceeds world dim

    def test_network_in_plane_and_space(self):
        assert GridConfig(1, 2).world_dim == 2
        assert GridConfig(2, 7).world_dim == 7


class TestFactoryValidation:
    def test_element_kind_must_match_grid(self):
        f = GridFactory(GridConfig(1, 3))
        f.insert_vertex([0, 0, 0])
        f.insert_vertex([1, 0, 0])
        f.insert_vertex([0, 1, 0])
        with pytest.raises(FactoryError):
            f.insert_element(TRIANGLE, [0, 1, 2])

    def test_vertex_indices_must_exist(self):
        f = GridFactory(GridConfig(1, 3))
        f.insert_vertex([0, 0, 0])
        with pytest.raises(FactoryError):
            f.insert_element(LINE, [0, 5])

    def test_vertex_indices_must_be_distinct(self):
        f = GridFactory(GridConfig(1, 3))
        f.insert_vertex([0, 0, 0])
        f.insert_vertex([1, 0, 0])
        with pytest.raises(FactoryError):
            f.insert_element(LINE, [1, 1])

    def test_coordinate_length_must_match_world(self):
        f = GridFactory(GridConfig(1, 3))
        with pytest.raises(DimensionMismatchError):
            f.insert_vertex([0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_coordinates_must_be_finite(self, bad):
        f = GridFactory(GridConfig(1, 3))
        with pytest.raises(FactoryError, match="finite"):
            f.insert_vertex([0.0, bad, 0.0])

    def test_parametrization_must_be_callable(self):
        f = GridFactory(GridConfig(1, 3))
        f.insert_vertex([0, 0, 0])
        f.insert_vertex([1, 0, 0])
        with pytest.raises(FactoryError):
            f.insert_element(LINE, [0, 1], parametrization="not callable")


def staged_records(grid):
    """(coordinate bits, id) of each vertex record and (corners, id, edges,
    parametrization, marker) of each element record at level 0."""
    return (
        [(r.coords.tobytes(), r.id) for r in rows(grid._verts[0])],
        [(r.v, r.id, r.edges, r.parametrization, r.marker) for r in grid._elems[0]],
    )


class TestFactoryPerRowStaging:
    """``insert_elements`` takes a parametrization and a marker per row."""

    CASES = {
        1: (LINE, [[0, 0, 0], [1, 0, 0], [2, 0.5, 0], [3, 0, 0]], [[0, 1], [1, 2], [3, 2]]),
        2: (TRIANGLE, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], [[0, 1, 2], [1, 3, 2], [3, 1, 0]]),
    }

    def factory(self, dim):
        kind, coords, rows = self.CASES[dim]
        f = GridFactory(GridConfig(dim, 3))
        f.insert_vertices(coords)
        return f, kind, rows

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("sequence", [list, tuple, np.array])
    def test_one_call_makes_the_records_and_ids_of_the_per_row_calls(self, dim, sequence):
        f, kind, rows = self.factory(dim)
        coords = np.array(self.CASES[dim][1], dtype=float)
        phi = QuadraticTriangle if dim == 2 else QuadraticLine
        corners = coords[rows[1]]
        mids = (corners + np.roll(corners, -1, axis=0)) / 2  # edges 01, 12, 20
        parametrizations = [None, phi(np.vstack([corners, mids[:1] if dim == 1 else mids])), None]
        markers = [7, 8, 7]
        per_row = [f.insert_element(kind, row, parametrization=p, marker=m)
                   for row, p, m in zip(rows, parametrizations, markers)]
        one, _, _ = self.factory(dim)
        staged = one.insert_elements(kind, rows, parametrization=sequence(parametrizations),
                                     marker=sequence(markers))
        assert staged.tolist() == per_row == [0, 1, 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grids = f.create_grid(), one.create_grid()
        assert staged_records(grids[0]) == staged_records(grids[1])
        assert [type(r.marker) for r in grids[1]._elems[0]] == [int] * 3

    @pytest.mark.parametrize("name", ["parametrization", "marker"])
    @pytest.mark.parametrize("entries", [2, 4])
    def test_a_sequence_of_the_wrong_length_is_refused(self, name, entries):
        f, kind, rows = self.factory(1)
        with pytest.raises(FactoryError, match=f"^{name} has {entries} entries for 3 rows$"):
            f.insert_elements(kind, rows, **{name: [None] * entries})
        with pytest.raises(FactoryError, match="without elements"):
            f.create_grid()

    def test_an_entry_that_is_not_callable_is_refused(self):
        f, kind, rows = self.factory(1)
        with pytest.raises(FactoryError, match="^parametrization must be callable$"):
            f.insert_elements(kind, rows, parametrization=[None, "not callable", None])
        with pytest.raises(FactoryError, match="without elements"):
            f.create_grid()


def test_single_triangle_entities(single_triangle):
    g = single_triangle
    view = g.leaf_view()
    assert view.size(0) == 1
    assert view.size(1) == 3
    assert view.size(2) == 3
    el = view.elements()[0]
    assert el.kind.dim == 2
    assert [tuple(v.coords) for v in el.vertices()] == [
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
    ]


def test_sub_entity_access(single_triangle):
    el = single_triangle.leaf_view().elements()[0]
    # codim 1: edges; codim 2: vertices
    edge = el.sub_entity(1, 0)
    assert len(edge.vertices()) == 2
    vert = el.sub_entity(2, 2)
    assert tuple(vert.coords) == (0, 1, 0)
    with pytest.raises(IndexError):
        el.sub_entity(1, 3)
    with pytest.raises(IndexError):
        el.sub_entity(2, -1)


def test_edges_are_shared_between_triangles(two_triangles):
    view = two_triangles.leaf_view()
    assert view.size(0) == 2
    assert view.size(1) == 5  # 4 boundary + 1 diagonal
    assert view.size(2) == 4


def test_nonmanifold_edge_incidence(t_junction):
    view = t_junction.leaf_view()
    assert view.size(0) == 3
    assert view.size(1) == 7  # shared edge + 2 wings x 3
    shared = [e for e in view.entities(1) if len(e.incident_elements()) == 3]
    assert len(shared) == 1


@pytest.mark.parametrize("kind", ["element", "edge", "vertex"])
def test_handle_past_the_arena_is_stale(two_triangles, kind):
    """A slot past the arena, or a negative slot or level, addresses no
    record: reading, looking up and marking the handle are refused."""
    grid = refine_all(two_triangles)
    view = grid.leaf_view()
    calls = [lambda h: h.id, view.contains, view.index_set.index_of]
    if kind == "element":
        calls.append(partial(grid.mark, 1))
    for level, slot in [(0, 99), (0, -1), (-1, 0)]:
        handle = getattr(grid, kind)(level, slot)
        for call in calls:
            with pytest.raises(StaleEntityError, match=f"no {kind} at level {level} slot {slot}"):
                call(handle)
    assert not any(grid.get_mark(el) for el in view.elements())


def test_audit_passes_on_fixtures(chain4, y_junction, two_triangles, t_junction):
    for g in (chain4, y_junction, two_triangles, t_junction):
        check_grid(g)


def test_audit_passes_after_refinement(two_triangles):
    refine_all(two_triangles, 2)
    check_grid(two_triangles)


def test_max_level_tracks_refinement(single_triangle):
    assert single_triangle.max_level == 0
    refine_all(single_triangle, 2)
    assert single_triangle.max_level == 2


def test_element_father_children_links(single_triangle):
    refine_all(single_triangle)
    root = single_triangle.level_view(0).elements()[0]
    kids = root.children()
    assert len(kids) == 4
    for kid in kids:
        assert kid.father() == root
        assert kid.root_element() == root
        assert kid.level == 1


def test_vertex_copies_share_persistent_id(chain4):
    view = chain4.leaf_view()
    ids0 = {tuple(v.coords): v.id for v in view.vertices()}
    refine_all(chain4)
    view1 = chain4.leaf_view()
    for v in view1.vertices():
        key = tuple(v.coords)
        if key in ids0:  # original vertices keep their id through the level copy
            assert v.id == ids0[key]


def test_markers_travel_with_elements():
    g = make_grid(
        1,
        3,
        [(0, 0, 0), (1, 0, 0), (2, 0, 0)],
        [(0, 1), (1, 2)],
        markers=[7, 9],
    )
    markers = sorted(el.marker for el in g.leaf_view().elements())
    assert markers == [7, 9]
    refine_all(g)
    assert sorted({el.marker for el in g.leaf_view().elements()}) == [7, 9]


def test_world_dimension_two_is_supported():
    g = make_grid(1, 2, [(0, 0), (1, 0), (1, 1)], [(0, 1), (1, 2)])
    el = g.leaf_view().elements()[0]
    assert el.geometry.world_dim == 2
    assert el.geometry.volume() == pytest.approx(1.0)


def test_ids_unique_across_codims(two_triangles):
    view = two_triangles.leaf_view()
    seen = set()
    for codim in (0, 1, 2):
        for ent in view.entities(codim):
            assert ent.id not in seen
            seen.add(ent.id)


def test_vertex_coordinates_and_shared_corners_are_read_only():
    """Writing through ``Vertex.coords`` or a geometry's shared corner array
    is refused, so no reader moves a record or a view's corners."""
    grid = read_gmsh(DATA / "surface.msh", GridConfig(2, 3))
    vertex = grid.vertex(0, 0)
    element = next(el for el in grid.level_view(0).elements() if vertex in el.vertices())
    corners = grid.element(element.level, element.slot).geometry.corners.copy()
    for array in (vertex.coords, vertex.geometry.corners):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 99.0
    assert np.array_equal(grid.element(element.level, element.slot).geometry.corners, corners)
    view = grid.leaf_view()
    for el in view.elements():
        with pytest.raises(ValueError, match="read-only"):
            el.geometry.corners[0, 0] = 99.0
        for grp in intersections(view, el):
            with pytest.raises(ValueError, match="read-only"):
                grp.geometry.corners[0, 0] = 99.0


@pytest.mark.parametrize(
    "module", ["flow", "roots", "growth", "parametrization", "cli", "gmsh_io", "vtk_io", "scenario"]
)
def test_only_the_storage_core_reads_records(module):
    """These modules go through views, handles and the ``Grid`` reads; none
    names a record arena, so a change of the record storage leaves them be."""
    source = inspect.getsource(importlib.import_module(f"netmesh.{module}"))
    assert re.findall(r"\._(elems|verts|edges)\b", source) == []


def test_parametrization_imports_no_topology():
    """The charts read no grid: midpoint placement lives in ``adaptivity``."""
    source = inspect.getsource(importlib.import_module("netmesh.parametrization"))
    assert re.findall(r"^\s*(?:from|import)\s+\S*topology", source, re.M) == []
