"""Grid-interface conformance checks, after dune-grid's ``gridcheck``.

``check_grid(grid)`` is the one generic check of an idle grid.  It builds
the leaf view and each level view once and asserts that:

- ``audit_grid`` finds nothing, and the leaf view holds what
  ``brute_force_leaf_view`` finds in the records;
- on every view: the view arrays say what the entity wrappers say; the
  index set numbers each codim 0..n-1 in iteration order; the view
  contains its own entities, and the leaf view no other, whose
  ``index_of`` it refuses unless it is a copy of a leaf vertex;
  ``is_leaf`` holds on leaf-view elements and is ``not children()`` on
  level-view ones; triangle edges lie over the corners the vertex index
  set gives; the intersection table says what the walk in
  ``intersection_walk`` says, and (with ``contract``)
  ``check_intersections`` holds;
- on a 1D leaf view: ``flow.facet_table`` equals
  ``table_over_intersections``, or both refuse a zero-length leaf; each
  facet vertex has leaf degree one more than its group's neighbour count,
  and one index for every copy in its chain.

``check_intersections(view)`` checks the intersection groups of every
element of a fresh view against the elements' own geometries:

- every outside is an element of the view, outsides come by ascending
  id, and every neighbour has a mutual group: one on the facet it meets
  the inside with, listing the inside on its own facet, over the same
  points;
- ``geometry_in_inside`` mapped through the inside element and
  ``geometry_in_outside(k)`` mapped through outside ``k`` give the
  corners of ``geometry`` (the outside may run the fragment the other
  way);
- the fragments tile each facet of the inside element;
- each normal of a regular inside element has unit length, points out of
  it and, on a surface, lies in its tangent plane; asking a degenerate
  inside element for a normal raises SingularGeometryError.

Positions agree to 1e-14, relative to the coordinates once they exceed 1.
"""

import math

import numpy as np
import pytest

from intersection_walk import assert_table_matches_walk
from netmesh import SingularGeometryError, StaleEntityError, audit_grid, intersections
from netmesh.flow import facet_table
from netmesh.roots import leaf_degree
from netmesh.topology import TRIANGLE_EDGES

TOL = 1e-14


def _close(got, expected):
    got, expected = got.ravel().tolist(), expected.ravel().tolist()
    scale = max(1.0, max(map(abs, expected)))
    return max(abs(a - b) for a, b in zip(got, expected)) <= TOL * scale


def _same_points(got, expected):
    """Equal corners, in order or reversed."""
    return _close(got, expected) or _close(got[::-1], expected)


def _map(geometry, local_corners):
    """Images of reference points under an element's affine map."""
    c = geometry.corners
    return c[0] + local_corners @ (c[1:] - c[0])


def _plane_normal(geometry):
    """Normal of a triangle in R^3 (unnormalised)."""
    (ux, uy, uz), (vx, vy, vz) = (geometry.corners[1:] - geometry.corners[0]).tolist()
    return np.array([uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx])


def _norm(x):
    """``np.linalg.norm`` of a vector, bit for bit."""
    return math.sqrt(float(x @ x))


def _interval(facet, corners):
    """Sorted parameters of fragment corners along a reference triangle
    facet: facet 0 runs from (0, 0) to (1, 0), facet 1 from (0, 0) to
    (0, 1) and facet 2 from (1, 0) to (0, 1)."""
    axis = 0 if facet == 0 else 1
    return sorted(row[axis] for row in corners.tolist())


def check_intersections(view):
    """Assert the intersection contract on every element of ``view``."""
    dim = view.grid.dim
    groups = {el: intersections(view, el) for el in view.elements()}
    geometries = {el: el.geometry for el in groups}
    for el, own in groups.items():
        geo = geometries[el]
        centre = geo.center()
        degenerate = geo.is_degenerate()  # growth may join coinciding vertices
        plane = _plane_normal(geo) if dim == 2 and view.grid.world_dim == 3 else None
        off_plane = 1e-12 * _norm(plane) if plane is not None else None
        pieces = {facet: [] for facet in range(dim + 1)}
        for grp in own:
            assert grp.inside == el
            world = grp.geometry.corners
            assert _close(_map(geo, grp.geometry_in_inside.corners), world)
            ids = [grp.outside(k).id for k in range(grp.neighbor_count)]
            assert ids == sorted(ids)
            for k in range(grp.neighbor_count):
                out, facet = grp.outside(k), grp.index_in_outside(k)
                assert view.contains(out)
                mapped = _map(geometries[out], grp.geometry_in_outside(k).corners)
                assert _same_points(mapped, world)
                assert any(
                    mutual.index_in_inside == facet
                    and _same_points(mutual.geometry.corners, world)
                    and any(
                        mutual.outside(m) == el
                        and mutual.index_in_outside(m) == grp.index_in_inside
                        for m in range(mutual.neighbor_count)
                    )
                    for mutual in groups[out]
                ), (el, grp.index_in_inside, out)

            if degenerate:
                with pytest.raises(SingularGeometryError):
                    grp.unit_outer_normal()
            else:
                normal = grp.unit_outer_normal()
                assert abs(_norm(normal) - 1.0) <= TOL
                assert float(normal @ (grp.geometry.center() - centre)) > 0.0
                if plane is not None:
                    assert abs(float(normal @ plane)) <= off_plane
            # a segment's facet is a point: one whole piece
            piece = [0.0, 1.0]
            if dim == 2:
                piece = _interval(grp.index_in_inside, grp.geometry_in_inside.corners)
            pieces[grp.index_in_inside].append(piece)

        for facet, found in pieces.items():
            found.sort()
            assert found and found[0][0] == 0.0 and found[-1][1] == 1.0, (el, facet, found)
            assert all(a[1] == b[0] for a, b in zip(found, found[1:])), (el, facet, found)


def check_grid(grid, contract=True):
    """Assert the grid contract on the leaf view and every level view.

    ``contract=False`` leaves out ``check_intersections``: on a curved
    grid its geometry holds only while the grid is conforming.
    """
    assert audit_grid(grid) == []
    leaf = grid.leaf_view()
    levels = [grid.level_view(level) for level in range(grid.max_level + 1)]
    for codim, expected in brute_force_leaf_view(grid).items():
        assert [(e.level, e.slot) for e in leaf.entities(codim)] == expected, codim
    every = {c: [e for view in levels for e in view.entities(c)] for c in range(grid.dim + 1)}
    for view in [leaf] + levels:
        _check_view(view, every)
        assert_table_matches_walk(view)
        if contract:
            check_intersections(view)
    if grid.dim == 1:
        _check_facet_table(leaf)
        ix = leaf.index_set
        for el in leaf.elements():
            for grp in intersections(leaf, el):
                v = el.sub_entity(1, grp.index_in_inside)
                assert leaf_degree(grid, v) == 1 + grp.neighbor_count
                chain = grid._vertex_chain(v.level, v.slot)
                assert len({ix.index_of(grid.vertex(*copy)) for copy in chain}) == 1


def brute_force_leaf_view(grid):
    """(level, slot) of every leaf-view entity per codim, from the records alone.

    Leaf elements; edges with a leaf triangle; and, per vertex id, the
    finest copy that touches a leaf element. Each list is in (level, slot)
    order.
    """
    elements, edges, finest = [], [], {}
    for level, (elem_recs, vert_recs) in enumerate(zip(grid._elems, grid._verts)):
        leaves = [t for t, rec in enumerate(elem_recs) if not rec.children]
        elements += [(level, t) for t in leaves]
        edges += [(level, s) for s in sorted({s for t in leaves for s in elem_recs[t].edges})]
        for s in sorted({s for t in leaves for s in elem_recs[t].v}):
            finest[vert_recs[s].id] = (level, s)  # a finer copy overwrites a coarser one
    expected = {0: elements, grid.dim: sorted(finest.values())}
    if grid.dim == 2:
        expected[1] = edges
    return expected


def _check_view(view, every):
    """Arrays, index set, ``contains``, ``is_leaf`` and triangle edges of one
    view; ``every`` lists each entity of the grid per codim."""
    grid, ix, leaf = view.grid, view.index_set, view.level is None
    for codim, entities in every.items():
        own = view.entities(codim)
        assert view.ids(codim).tolist() == [e.id for e in own]
        assert list(view.places(codim)) == [(e.level, e.slot) for e in own]
        assert ix.size(codim) == len(own)
        assert [ix.index_of(e) for e in own] == list(range(len(own)))
        assert all(map(view.contains, own))
        if not leaf:
            continue
        places, index = set(view.places(codim)), {e.id: i for i, e in enumerate(own)}
        for e in entities:
            if (e.level, e.slot) in places:
                continue
            assert not view.contains(e), e
            if codim == grid.dim and e.id in index:  # a copy of a leaf vertex
                assert ix.index_of(e) == index[e.id]
                continue
            try:
                ix.index_of(e)
            except StaleEntityError:
                continue
            raise AssertionError(f"{e!r} outside the view has an index")
    corners = view.corner_indices().tolist()
    assert corners == [[ix.index_of(v) for v in el.vertices()] for el in view.elements()]
    coordinates = view.coordinates()
    assert coordinates.shape == (view.size(grid.dim), grid.world_dim)
    assert [row.tobytes() for row in coordinates] == [v.coords.tobytes() for v in view.vertices()]
    edges = view.entities(1) if grid.dim == 2 else []
    ends = [sorted(ix.index_of(v) for v in edge.vertices()) for edge in edges]
    for el, row in zip(view.elements(), corners):
        assert el.is_leaf if leaf else el.is_leaf == (not el.children())
        for k, pair in enumerate(TRIANGLE_EDGES if edges else ()):
            assert ends[ix.index_of(el.sub_entity(1, k))] == sorted(row[i] for i in pair)


def table_over_intersections(view):
    """Every :class:`FacetTable` array, written out over the intersection groups.

    A junction is numbered when the sweep first reaches its facet vertex,
    and lists its members by ascending element id.
    """
    ix = view.index_set
    ids, lengths, records, members, junctions = [], [], [], [], {}
    for i, el in enumerate(view.elements()):
        ids.append(el.id)
        lengths.append(el.geometry.volume())
        for grp in intersections(view, el):
            vid = el.sub_entity(1, grp.index_in_inside).id
            if grp.boundary:
                records.append((i, -1, vid, -1))
                continue
            outsides = [grp.outside(k) for k in range(grp.neighbor_count)]
            partners = [ix.index_of(other) for other in outsides]
            if vid not in junctions:
                junctions[vid] = len(junctions)
                group = sorted([(el.id, i)] + [(o.id, j) for o, j in zip(outsides, partners)])
                members += [(junctions[vid], m) for _, m in group]
            records += [(i, j, vid, junctions[vid]) for j in partners]
    inside, outside, facet, junction = np.array(records, dtype=np.int64).reshape(-1, 4).T
    member_junction, member_element = np.array(members, dtype=np.int64).reshape(-1, 2).T
    return {
        "ids": np.array(ids, dtype=np.int64), "lengths": np.array(lengths),
        "inside": inside, "outside": outside, "facet": facet, "junction": junction,
        "member_junction": member_junction, "member_element": member_element,
    }


def _check_facet_table(view):
    """``facet_table`` gives the arrays of ``table_over_intersections``, bit
    for bit.  The factory and ``grow`` accept a zero-length segment; once one
    is a leaf, both refuse the view with SingularGeometryError."""
    corners = view.coordinates()[view.corner_indices()]
    if (corners[:, 0] == corners[:, 1]).all(axis=1).any():
        for build in (facet_table, table_over_intersections):
            with pytest.raises(SingularGeometryError):
                build(view)
        return
    table = facet_table(view)
    for name, expected in table_over_intersections(view).items():
        got = getattr(table, name)
        assert got.dtype == expected.dtype, name
        np.testing.assert_array_equal(got, expected, err_msg=name)
