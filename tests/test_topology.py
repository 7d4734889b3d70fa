import numpy as np
import pytest

from netmesh import LINE, TRIANGLE, GridConfig, GridFactory, audit_grid
from netmesh.errors import DimensionMismatchError, FactoryError, StaleEntityError

from conftest import make_grid, refine_all


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
    handle = getattr(two_triangles, kind)(0, 99)
    with pytest.raises(StaleEntityError, match=f"no {kind} at level 0 slot 99"):
        handle.id


def test_audit_passes_on_fixtures(chain4, y_junction, two_triangles, t_junction):
    for g in (chain4, y_junction, two_triangles, t_junction):
        assert audit_grid(g) == []


def test_audit_passes_after_refinement(two_triangles):
    refine_all(two_triangles, 2)
    assert audit_grid(two_triangles) == []


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
