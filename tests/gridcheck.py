"""Grid-interface conformance checks, after dune-grid's ``gridcheck``.

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
  it and, on a surface, lies in its tangent plane.

Positions agree to 1e-14, relative to the coordinates once they exceed 1.
"""

import numpy as np

from netmesh import intersections

TOL = 1e-14


def _close(got, expected):
    got, expected = np.ravel(got).tolist(), np.ravel(expected).tolist()
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
        degenerate = geo.is_degenerate()  # growth may join coinciding vertices: no normals
        plane = _plane_normal(geo) if dim == 2 and view.grid.world_dim == 3 else None
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

            if not degenerate:
                normal = grp.unit_outer_normal()
                assert abs(float(np.linalg.norm(normal)) - 1.0) <= TOL
                assert float(normal @ (grp.geometry.center() - centre)) > 0.0
                if plane is not None:
                    assert abs(float(normal @ plane)) <= 1e-12 * float(np.linalg.norm(plane))
            # a segment's facet is a point: one whole piece
            piece = [0.0, 1.0]
            if dim == 2:
                piece = _interval(grp.index_in_inside, grp.geometry_in_inside.corners)
            pieces[grp.index_in_inside].append(piece)

        for facet, found in pieces.items():
            found.sort()
            assert found and found[0][0] == 0.0 and found[-1][1] == 1.0, (el, facet, found)
            assert all(a[1] == b[0] for a, b in zip(found, found[1:])), (el, facet, found)
