"""Element parametrizations: the charts that curve refined vertices.

A parametrization is any callable ``phi(local) -> R^w`` attached to a
refinement-tree root element.  When a descendant element is refined, the
new edge-midpoint vertex is placed at ``phi`` evaluated at the midpoint's
local coordinates in the root, obtained by composing the child-in-father
embeddings along the tree.  Unparametrized trees fall back to the affine
edge midpoint, so hanging vertices on curved trees need not coincide
with the straight-edge midpoints of coarser neighbors.  That placement
is ``adaptivity._midpoint_images``; this module holds only the charts
and reads no grid.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError


# -- quadratic Lagrange parametrizations (gmsh second-order input) --------


class QuadraticLine:
    """Interpolates three points: ends at t=0,1 and the mid node at t=1/2."""

    def __init__(self, nodes):
        self.nodes = np.asarray(nodes, dtype=float)
        if self.nodes.shape[0] != 3:
            raise DimensionMismatchError("quadratic line needs 3 nodes")

    def __call__(self, local):
        t = float(np.asarray(local).reshape(-1)[0])
        w = np.array([(1 - t) * (1 - 2 * t), t * (2 * t - 1), 4 * t * (1 - t)])
        return w @ self.nodes


class QuadraticTriangle:
    """Six-node triangle: corners then the (0,1), (1,2), (0,2) edge nodes."""

    def __init__(self, nodes):
        self.nodes = np.asarray(nodes, dtype=float)
        if self.nodes.shape[0] != 6:
            raise DimensionMismatchError("quadratic triangle needs 6 nodes")

    def __call__(self, local):
        x, y = np.asarray(local, dtype=float)
        l0, l1, l2 = 1.0 - x - y, x, y
        w = np.array(
            [
                l0 * (2 * l0 - 1),
                l1 * (2 * l1 - 1),
                l2 * (2 * l2 - 1),
                4 * l0 * l1,
                4 * l1 * l2,
                4 * l0 * l2,
            ]
        )
        return w @ self.nodes


# -- built-in surface graph used by the CLI demos -------------------------


def radial_wavelet(x1, x2):
    """Damped radial oscillation g(x) = 0.2 exp(-|x|) cos(4.5 pi |x|)."""
    r = math.hypot(x1, x2)
    return 0.2 * math.exp(-r) * math.cos(4.5 * math.pi * r)


class WaveletGraph:
    """Parametrization lifting a planar element onto the wavelet surface.

    The element's corner positions (first two world coordinates) define an
    affine chart; the third coordinate is the wavelet height at the mapped
    planar point.  Requires world dimension 3.
    """

    def __init__(self, planar_corners):
        self.planar = np.asarray(planar_corners, dtype=float)

    def __call__(self, local):
        local = np.asarray(local, dtype=float)
        xy = self.planar[0] + (self.planar[1:] - self.planar[0]).T @ local
        return np.array([xy[0], xy[1], radial_wavelet(xy[0], xy[1])])


BUILTIN_PARAMETRIZATIONS = ("wavelet",)


def lift_to_wavelet(factory_coords):
    """Return the wavelet-surface position for planar coordinates."""
    x1, x2 = float(factory_coords[0]), float(factory_coords[1])
    return np.array([x1, x2, radial_wavelet(x1, x2)])
