import numpy as np
import pytest

from netmesh import intersections, pairwise_intersections
from netmesh.errors import (
    DimensionMismatchError,
    NeighborIndexError,
    SingularGeometryError,
    StaleEntityError,
)

from conftest import make_grid, refine_all, vertex_or_edge
from gridcheck import check_intersections


def groups_of(grid, element=None, view=None):
    view = view or grid.leaf_view()
    element = element or view.elements()[0]
    return view, element, intersections(view, element)


class TestNetworkJunctions:
    def test_interior_vertex_joins_two_segments(self, chain4):
        view = chain4.leaf_view()
        el = view.elements()[1]
        grps = intersections(view, el)
        assert len(grps) == 2
        interior = [g for g in grps if not g.boundary]
        assert len(interior) == 2
        for g in interior:
            assert g.neighbor_count == 1

    def test_chain_end_is_boundary(self, chain4):
        view = chain4.leaf_view()
        el = view.elements()[0]
        grps = intersections(view, el)
        boundary = [g for g in grps if g.boundary]
        assert len(boundary) == 1
        assert boundary[0].neighbor_count == 0
        with pytest.raises(NeighborIndexError):
            boundary[0].outside(0)

    def test_y_junction_sees_both_partners(self, y_junction):
        view = y_junction.leaf_view()
        for el in view.elements():
            at_junction = [
                g for g in intersections(view, el) if not g.boundary
            ]
            assert len(at_junction) == 1
            assert at_junction[0].neighbor_count == 2

    def test_outsides_ordered_by_id(self, y_junction):
        view = y_junction.leaf_view()
        el = view.elements()[0]
        grp = next(g for g in intersections(view, el) if not g.boundary)
        ids = [grp.outside(k).id for k in range(grp.neighbor_count)]
        assert ids == sorted(ids)

    def test_1d_outer_normal_points_outward(self, chain4):
        view = chain4.leaf_view()
        el = view.elements()[0]
        for grp in intersections(view, el):
            n = grp.unit_outer_normal()
            center = el.geometry.center()
            facet = grp.geometry.center()
            assert np.dot(n, facet - center) > 0
            assert np.linalg.norm(n) == pytest.approx(1.0)


class TestSurfaceIntersections:
    def test_conforming_pair(self, two_triangles):
        view = two_triangles.leaf_view()
        el = view.elements()[0]
        grps = intersections(view, el)
        assert len(grps) == 3
        interior = [g for g in grps if not g.boundary]
        assert len(interior) == 1
        assert interior[0].neighbor_count == 1

    def test_t_junction_neighbor_count(self, t_junction):
        view = t_junction.leaf_view()
        for el in view.elements():
            interior = [g for g in intersections(view, el) if not g.boundary]
            assert len(interior) == 1
            assert interior[0].neighbor_count == 2

    def test_single_triangle_all_boundary(self, single_triangle):
        view = single_triangle.leaf_view()
        el = view.elements()[0]
        grps = intersections(view, el)
        assert len(grps) == 3
        assert all(g.boundary for g in grps)

    def test_2d_outer_normal_example(self):
        # reference triangle in the z=0 plane: the edge (0,1) faces -y
        g = make_grid(2, 3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])
        view = g.leaf_view()
        el = view.elements()[0]
        grp = next(
            gr for gr in intersections(view, el) if gr.index_in_inside == 0
        )
        assert np.allclose(grp.unit_outer_normal(), [0.0, -1.0, 0.0], atol=1e-14)

    def test_normal_is_tangent_to_surface_element(self):
        # tilted triangle: the outer normal stays in the element plane
        g = make_grid(2, 3, [(0, 0, 0), (1, 0, 1), (0, 1, 1)], [(0, 1, 2)])
        view = g.leaf_view()
        el = view.elements()[0]
        corners = el.geometry.corners
        plane_normal = np.cross(corners[1] - corners[0], corners[2] - corners[0])
        for grp in intersections(view, el):
            n = grp.unit_outer_normal()
            assert abs(np.dot(n, plane_normal)) < 1e-12
            assert np.linalg.norm(n) == pytest.approx(1.0)


class TestDegenerateNormals:
    """A degenerate inside element has no outer normal: the normal raises
    where ``volume`` does, and the neighbour keeps its normals."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_degenerate_inside_raises(self, dim):
        if dim == 1:  # a zero-length segment after a unit one
            g = make_grid(1, 3, [(0, 0, 0), (1, 0, 0), (1, 0, 0)], [(0, 1), (1, 2)])
        else:  # corners (1,0,0), (1,0,0), (0,1,0) next to the reference triangle
            verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 0, 0)]
            g = make_grid(2, 3, verts, [(0, 1, 2), (3, 1, 2)])
        view = g.leaf_view()
        regular, degenerate = view.elements()
        with pytest.raises(SingularGeometryError):
            degenerate.geometry.volume()
        for grp in intersections(view, degenerate):
            with pytest.raises(SingularGeometryError):
                grp.unit_outer_normal()
        for pair in pairwise_intersections(view, degenerate):
            with pytest.raises(SingularGeometryError):
                pair.unit_outer_normal()
        check_intersections(view)  # the regular neighbour keeps unit outward normals


class TestNonConformingFragments:
    @pytest.fixture
    def locally_refined(self, two_triangles):
        g = two_triangles
        el = g.leaf_view().elements()[0]
        g.mark(1, el)
        g.pre_adapt(); g.adapt(); g.post_adapt()
        return g

    def test_coarse_side_sees_two_fragments(self, locally_refined):
        g = locally_refined
        view = g.leaf_view()
        coarse = next(el for el in view.elements() if el.level == 0)
        grps = [x for x in intersections(view, coarse) if not x.boundary]
        assert len(grps) == 2  # diagonal split into two half fragments
        assert all(x.neighbor_count == 1 for x in grps)
        # both fragments lie on the same inside facet
        assert len({x.index_in_inside for x in grps}) == 1

    def test_fragments_are_disjoint_and_cover(self, locally_refined):
        g = locally_refined
        view = g.leaf_view()
        coarse = next(el for el in view.elements() if el.level == 0)
        grps = [x for x in intersections(view, coarse) if not x.boundary]
        spans = []
        for x in grps:
            pts = x.geometry.corners  # physical fragment endpoints
            spans.append(tuple(sorted(map(tuple, np.round(pts, 12)))))
        assert len(set(spans)) == 2  # rule 1: distinct, non-overlapping pieces
        # endpoints seen from inside and outside coincide physically
        for x in grps:
            inside_pts = x.geometry.corners
            out_geo = x.geometry_in_outside(0)
            neighbor = x.outside(0)
            phys = [neighbor.geometry.to_global(c) for c in out_geo.corners]
            assert np.allclose(sorted(map(tuple, inside_pts)), sorted(map(tuple, phys)), atol=1e-13)

    def test_fine_side_sees_coarse_neighbor(self, locally_refined):
        g = locally_refined
        view = g.leaf_view()
        coarse = next(el for el in view.elements() if el.level == 0)
        fine_with_coarse = []
        for el in view.elements():
            if el.level != 1:
                continue
            for x in intersections(view, el):
                if not x.boundary and any(
                    x.outside(k) == coarse for k in range(x.neighbor_count)
                ):
                    fine_with_coarse.append((el, x))
        assert len(fine_with_coarse) == 2

    def test_pairwise_iteration_is_consecutive(self, locally_refined):
        view = locally_refined.leaf_view()
        for el in view.elements():
            seen = []
            for pair in pairwise_intersections(view, el):
                key = (pair.index_in_inside, None if pair.boundary else "grp")
                seen.append(pair.index_in_inside)
            # all intersections of one facet appear as one consecutive run
            runs = []
            for idx in seen:
                if not runs or runs[-1] != idx:
                    runs.append(idx)
            assert len(runs) == len(set(seen))


def test_cross_level_junction_after_refining_one_branch(y_junction):
    g = y_junction
    view = g.leaf_view()
    branch = view.elements()[1]
    g.mark(1, branch)
    g.pre_adapt(); g.adapt(); g.post_adapt()
    view = g.leaf_view()
    # the unrefined segments still see two partners at the junction: the
    # other coarse branch and the half-child of the refined one
    el0 = next(el for el in view.elements() if el.level == 0 and tuple(el.geometry.center()) == (0.5, 0.0, 0.0))
    grp = next(x for x in intersections(view, el0) if not x.boundary)
    assert grp.neighbor_count == 2
    levels = sorted(grp.outside(k).level for k in range(2))
    assert levels == [0, 1]


def test_group_geometry_matches_subentity(two_triangles):
    view = two_triangles.leaf_view()
    el = view.elements()[0]
    for grp in intersections(view, el):
        facet = el.sub_entity(1, grp.index_in_inside)
        assert np.allclose(
            sorted(map(tuple, grp.geometry.corners)),
            sorted(tuple(v.coords) for v in facet.vertices()),
            atol=1e-14,
        )


def same_corners(a, b):
    return np.array_equal(a.corners, b.corners)


@pytest.mark.parametrize("fixture, shared", [("t_junction", 3), ("y_junction", 3), ("chain4", 2)])
def test_pairwise_accessors_read_the_group_and_neighbor_they_came_from(request, fixture, shared):
    """One pairwise intersection per neighbour ``k`` of each group, one per
    boundary group; each accessor answers what the group answers for ``k``."""
    view = request.getfixturevalue(fixture).leaf_view()
    sizes = set()
    for el in view.elements():
        pairs = pairwise_intersections(view, el)
        expected = [(group, k) for group in intersections(view, el)
                    for k in range(max(group.neighbor_count, 1))]
        assert len(pairs) == len(expected)
        for pair, (group, k) in zip(pairs, expected):
            assert pair.inside is group.inside is el
            assert pair.index_in_inside == group.index_in_inside
            assert pair.boundary == group.boundary
            assert pair.neighbor_count == group.neighbor_count
            sizes.add(pair.neighbor_count + 1)
            assert same_corners(pair.geometry_in_inside, group.geometry_in_inside)
            assert same_corners(pair.geometry, group.geometry)
            assert np.array_equal(pair.unit_outer_normal(), group.unit_outer_normal())
            if group.boundary:
                for read in (pair.outside, pair.index_in_outside, lambda: pair.geometry_in_outside):
                    with pytest.raises(NeighborIndexError):
                        read()
                continue
            assert pair.outside() is group.outside(k)
            assert pair.outside() is not el and view.contains(pair.outside())
            assert pair.index_in_outside() == group.index_in_outside(k)
            assert same_corners(pair.geometry_in_outside, group.geometry_in_outside(k))
            # the neighbour's local fragment maps onto the same world points
            outside = pair.outside().geometry
            world = [outside.to_global(x) for x in pair.geometry_in_outside.corners]
            assert np.allclose(sorted(map(tuple, world)), sorted(map(tuple, pair.geometry.corners)), atol=1e-14)
    assert max(sizes) == shared and 1 in sizes  # a junction (or interior facet) and a boundary facet


class TestRefusals:
    """Only an element the view keeps has intersections in that view."""

    def test_refined_father_is_not_in_the_leaf_view(self, chain4):
        refine_all(chain4)
        father = chain4.level_view(0).elements()[1]
        for call in (intersections, pairwise_intersections):
            with pytest.raises(StaleEntityError, match="not part of this view"):
                call(chain4.leaf_view(), father)

    def test_element_of_another_level_is_not_in_a_level_view(self, two_triangles):
        refine_all(two_triangles)
        child = two_triangles.level_view(1).elements()[0]
        with pytest.raises(StaleEntityError, match="not part of this view"):
            intersections(two_triangles.level_view(0), child)
        assert len(intersections(two_triangles.level_view(1), child)) >= 3

    @pytest.mark.parametrize("kind", ["Vertex", "Edge"])
    def test_vertex_or_edge_is_refused(self, kind):
        grid, entity = vertex_or_edge(kind)
        with pytest.raises(DimensionMismatchError, match=f"got a {kind}"):
            intersections(grid.leaf_view(), entity)

    @pytest.mark.parametrize("thing", [None, 0])
    def test_non_handle_is_refused(self, chain4, thing):
        with pytest.raises(DimensionMismatchError, match=f"got a {type(thing).__name__}"):
            intersections(chain4.leaf_view(), thing)

    def test_element_of_another_grid_is_refused(self, chain4, y_junction):
        with pytest.raises(StaleEntityError, match="different grid"):
            intersections(chain4.leaf_view(), y_junction.leaf_view().elements()[0])

    def test_handle_that_outlived_a_compaction_is_refused(self, chain4):
        old = chain4.leaf_view().elements()
        chain4.remove_element(old[0])
        chain4.grow()
        chain4.post_grow()
        view = chain4.leaf_view()
        # the compaction moved another element into the old handle's slot
        assert (old[1].level, old[1].slot) in view.places(0)
        with pytest.raises(StaleEntityError, match="outlived"):
            intersections(view, old[1])
