"""Affine simplex geometries embedded in R^w.

A k-simplex with corners c_0..c_k in R^w (k <= w, k in {0, 1, 2}) is the
image of the reference simplex under F(xi) = A xi + c_0 with
A = [c_1 - c_0, ..., c_k - c_0].  Because k < w is the common case for
network grids, the inverse map is the closest-point projection onto the
affine hull, computed from the k x k normal equations.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, SingularGeometryError

# Reference simplex corners, indexed by intrinsic dimension.
REFERENCE_CORNERS = {
    0: np.zeros((1, 0)),
    1: np.array([[0.0], [1.0]]),
    2: np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
}

_EPS = np.finfo(float).eps


class AffineGeometry:
    """Map between a reference k-simplex and an affine simplex in R^w."""

    __slots__ = ("corners", "dim", "world_dim", "_a", "_gram", "_det")

    def __init__(self, corners):
        corners = np.asarray(corners, dtype=float)
        if corners.ndim != 2:
            raise DimensionMismatchError("corner array must be (k+1, w)")
        k = corners.shape[0] - 1
        w = corners.shape[1]
        if k not in (0, 1, 2):
            raise DimensionMismatchError(f"unsupported simplex dimension {k}")
        if k > w:
            raise DimensionMismatchError(
                f"{k}-simplex does not fit into world dimension {w}"
            )
        self.corners = corners
        self.dim = k
        self.world_dim = w
        self._a = (corners[1:] - corners[0]).T  # w x k
        self._gram = self._a.T @ self._a  # k x k
        self._det = _det_small(self._gram)

    # -- degeneracy -------------------------------------------------------

    def is_degenerate(self):
        """True when the spanned measure vanishes relative to the corner scale."""
        if self.dim == 0:
            return False
        scale = float(((self.corners - self.corners[0]) ** 2).sum(axis=1).max())
        if scale == 0.0:
            return True
        # det(A^T A) carries units length^(2k) and its round-off is of order
        # eps * scale^k, so compare against that; small-but-healthy elements pass.
        return self._det <= 64.0 * _EPS * scale**self.dim

    def _require_regular(self):
        if self.is_degenerate():
            raise SingularGeometryError(
                f"degenerate {self.dim}-simplex with corners {self.corners.tolist()}"
            )

    # -- forward map ------------------------------------------------------

    def to_global(self, local):
        """Evaluate F at reference coordinates ``local``."""
        local = np.asarray(local, dtype=float)
        if local.shape != (self.dim,):
            raise DimensionMismatchError(
                f"expected local coordinates of length {self.dim}, got {local.shape}"
            )
        return self.corners[0] + self._a @ local

    def center(self):
        """Image of the reference barycenter."""
        return self.corners.mean(axis=0)

    # -- inverse map ------------------------------------------------------

    def to_local(self, point):
        """Reference coordinates of the closest point on the affine hull.

        For w > k this is the least-squares solution
        xi = (A^T A)^{-1} A^T (x - c_0); the returned coordinates may lie
        outside the reference simplex when ``point`` is off the element.
        """
        point = np.asarray(point, dtype=float)
        if point.shape != (self.world_dim,):
            raise DimensionMismatchError(
                f"expected point of length {self.world_dim}, got {point.shape}"
            )
        if self.dim == 0:
            return np.zeros(0)
        self._require_regular()
        rhs = self._a.T @ (point - self.corners[0])
        return _solve_small(self._gram, self._det, rhs)

    # -- measures and derivatives ----------------------------------------

    def integration_element(self):
        """sqrt(det(A^T A)); the constant Jacobian factor of this affine map."""
        if self.dim == 0:
            return 1.0
        self._require_regular()
        return math.sqrt(self._det)

    def volume(self):
        """k-dimensional measure (length or area; 1.0 for a point)."""
        if self.dim == 0:
            return 1.0
        ref_volume = 1.0 if self.dim == 1 else 0.5
        return ref_volume * self.integration_element()

    def jacobian_transposed(self):
        """A^T as a (k, w) array; constant over the element."""
        return self._a.T.copy()

    def jacobian_inverse_transposed(self):
        """Pseudo-inverse transpose A (A^T A)^{-1} as a (w, k) array.

        Satisfies (J^-T)^T A = I_k; columns lie in the tangent space.
        """
        if self.dim == 0:
            return np.zeros((self.world_dim, 0))
        self._require_regular()
        inv = _inverse_small(self._gram, self._det)
        return self._a @ inv


def _det_small(m):
    """Determinant of a 0x0, 1x1 or 2x2 matrix without LAPACK."""
    n = m.shape[0]
    if n == 0:
        return 1.0
    if n == 1:
        return float(m[0, 0])
    return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])

def _inverse_small(m, det):
    n = m.shape[0]
    if n == 1:
        return np.array([[1.0 / det]])
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det

def _solve_small(m, det, rhs):
    n = m.shape[0]
    if n == 1:
        return rhs / det
    return _inverse_small(m, det) @ rhs
