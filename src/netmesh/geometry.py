"""Affine simplex geometries embedded in R^w.

A k-simplex with corners c_0..c_k in R^w (k <= w, k in {0, 1, 2}) is the
image of the reference simplex under F(xi) = A xi + c_0 with
A = [c_1 - c_0, ..., c_k - c_0].  Because k < w is the common case for
network grids, the inverse map is the closest-point projection onto the
affine hull, a least-squares solve on A itself (the normal equations
would square its condition number and lose accuracy on thin triangles).

A geometry stores its corners when it is made and derives A, A^T A and
det(A^T A) on first use, so reading only the corners or the centre costs
no matmul.  ``volume`` and ``is_degenerate`` need only det(A^T A) and the
corner scale of the degeneracy test.  :class:`AffineStack` derives those
two for a whole stack of simplices in one batched pass and hands each
geometry its pair; a Jacobian read derives A and A^T A alone.  The bits
are those a lone instance derives, because a stacked numpy matmul runs
the same kernel on each simplex that a lone one runs, and numpy sums a
short row left to right.
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

    __slots__ = ("corners", "dim", "world_dim", "_a", "_gram", "_det", "_scale", "__weakref__")

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
        self._a = self._gram = None  # derived on first use
        self._det = self._scale = None  # handed over by a stack, or derived on first use

    def _derive(self):
        """Fill A (w x k) and A^T A (k x k), and det(A^T A) unless a stack gave it."""
        if self._a is not None:
            return
        a = (self.corners[1:] - self.corners[0]).T
        # The gram stays a numpy matmul.  It rounds as a fused multiply-add
        # chain, which plain float sums do not reproduce (they differ in more
        # than half of random draws); FacetTable and AffineStack match these
        # bits with a batched matmul, and the flow goldens depend on them.
        gram = a.T @ a
        self._a, self._gram = a, gram
        if self._det is None:
            self._det = float(_det_small(gram))

    # -- degeneracy -------------------------------------------------------

    def is_degenerate(self):
        """True when the spanned measure vanishes relative to the corner scale."""
        if self.dim == 0:
            return False
        scale = self._scale
        if scale is None:
            self._derive()
            # Python floats over the rows of A^T = corners[1:] - corners[0]: the
            # same bits as numpy's row sums of (corners - corners[0])**2, at a
            # fraction of the cost.
            rows = self._a.T.tolist()
            scale = self._scale = max([_plain_sum([x * x for x in row]) for row in rows])
        if scale == 0.0:
            return True
        # det(A^T A) carries units length^(2k) and its round-off is of order
        # eps * scale^k, so compare against that; small-but-healthy elements pass.
        try:
            power = scale**self.dim
        except OverflowError:  # a float power raises where numpy's gives inf
            power = math.inf
        return self._det <= 64.0 * _EPS * power

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
        self._derive()
        return self.corners[0] + self._a @ local

    def center(self):
        """Image of the reference barycenter."""
        # Python floats: the same bits as ``corners.mean(axis=0)``, at a
        # fraction of the cost.
        n = len(self.corners)
        return np.array([_plain_sum(column) / n for column in zip(*self.corners.tolist())])

    # -- inverse map ------------------------------------------------------

    def to_local(self, point):
        """Reference coordinates of the closest point on the affine hull.

        For w > k this is the least-squares solution of A xi = x - c_0;
        the returned coordinates may lie outside the reference simplex
        when ``point`` is off the element.
        """
        point = np.asarray(point, dtype=float)
        if point.shape != (self.world_dim,):
            raise DimensionMismatchError(
                f"expected point of length {self.world_dim}, got {point.shape}"
            )
        if self.dim == 0:
            return np.zeros(0)
        self._require_regular()
        self._derive()
        return np.linalg.lstsq(self._a, point - self.corners[0], rcond=None)[0]

    # -- measures and derivatives ----------------------------------------

    def integration_element(self):
        """sqrt(det(A^T A)); the constant Jacobian factor of this affine map."""
        if self.dim == 0:
            return 1.0
        self._require_regular()  # fills det
        return math.sqrt(self._det)

    def volume(self):
        """k-dimensional measure (length or area; 1.0 for a point)."""
        if self.dim == 0:
            return 1.0
        self._require_regular()  # fills det
        return (1.0 if self.dim == 1 else 0.5) * math.sqrt(self._det)

    def jacobian_transposed(self):
        """A^T as a (k, w) array; constant over the element."""
        self._derive()
        return self._a.T.copy()

    def jacobian_inverse_transposed(self):
        """Pseudo-inverse transpose A (A^T A)^{-1} as a (w, k) array.

        Satisfies (J^-T)^T A = I_k; columns lie in the tangent space.
        """
        if self.dim == 0:
            return np.zeros((self.world_dim, 0))
        self._require_regular()
        self._derive()
        inv = _inverse_small(self._gram, self._det)
        return self._a @ inv


class AffineStack:
    """det(A^T A) and the corner scale of an (n, k + 1, w) stack of simplices.

    One batched pass derives every simplex's det(A^T A) and the corner
    scale of the degeneracy test: the largest row sum of (A^T)**2, which
    numpy adds left to right as ``_plain_sum`` does while a row has fewer
    than eight terms (so only then).  Both are kept as float arrays, A and
    A^T A are not.  ``geometry(i)`` makes the i-th geometry through
    ``AffineGeometry(corners[i])`` and hands it its det and scale, so a
    geometry nobody reads is never made.
    """

    __slots__ = ("corners", "_det", "_scale")

    def __init__(self, corners):
        self.corners = corners
        at = corners[:, 1:] - corners[:, :1]  # A^T per simplex, (n, k, w)
        self._det = _det_small(at @ at.transpose(0, 2, 1))
        k, w = at.shape[1:]
        self._scale = (at * at).sum(axis=-1).max(axis=-1) if 0 < k and w < 8 else None

    def geometry(self, i):
        geo = AffineGeometry(self.corners[i])
        geo._det = self._det.item(i)
        if self._scale is not None:
            geo._scale = self._scale.item(i)
        return geo


def _plain_sum(terms):
    """Sum from 0.0, left to right, as numpy reduces fewer than eight terms.

    Not the built-in ``sum``: from Python 3.12 on it compensates float
    round-off, so 1e16 + 1.0 + 1.0 gives 1e16 + 2 where numpy gives 1e16.
    Starting from 0.0 also gives numpy's +0.0 for a sum of negative zeros.
    """
    s = 0.0
    for x in terms:
        s += x
    return s


def _det_small(m):
    """Determinants of 0x0, 1x1 or 2x2 matrices, stacked on leading axes, without LAPACK."""
    n = m.shape[-1]
    if n == 0:
        return np.ones(m.shape[:-2])
    if n == 1:
        return m[..., 0, 0]
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _inverse_small(m, det):
    n = m.shape[0]
    if n == 1:
        return np.array([[1.0 / det]])
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det
