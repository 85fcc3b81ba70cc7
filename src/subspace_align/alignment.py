"""Polar decompositions and basis pinning.

Given a target matrix ``d``, every k-dimensional subspace of R^n admits
orthonormal basis matrices ``x`` whose product ``x.T @ d`` is symmetric
positive semidefinite.  When that product has full rank the basis is unique;
otherwise the bases form a family with an orthogonal-matrix freedom of size
``k - rank``.  This module computes one such basis, describes the whole
family, and finds the family member closest to a reference basis.  How far
one pinned basis lies from another subspace's family is what
:func:`subspace_align.bounds.evaluate_instance` measures, one member or a
stack of them at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput, ShapeError
from .kernels import _lapack, _pinning, _real, _shaped, _stack, check_orthonormal, svd

__all__ = [
    "CanonicalPolar",
    "polar",
    "AlignedBasisSet",
    "align",
    "optimal_representative",
]


@dataclass(frozen=True)
class CanonicalPolar:
    """Canonical polar decomposition ``b = q @ h``.

    ``q`` is the unique partial isometry with ``range(q.T) == range(h)`` and
    ``h = (b.T b)^{1/2}`` is symmetric PSD.  For full-rank `b` this is the
    classical polar decomposition with orthonormal `q`.  ``sigma_r`` is the
    smallest singular value above the rank tolerance, 0.0 when ``r == 0``.
    """

    q: np.ndarray
    h: np.ndarray
    r: int
    sigma_r: float


def polar(b, *, rtol=None):
    """Canonical polar decomposition of a tall or square matrix.

    Parameters
    ----------
    b : (n, m) array_like, n >= m
        Matrix to decompose.  Callers with wide matrices transpose first.
    rtol : float, optional
        Relative rank tolerance, as in :func:`subspace_align.kernels.svd`.

    Returns
    -------
    CanonicalPolar
        With thin SVD ``b = u @ diag(s) @ v.T`` (``u`` n-by-m, ``v``
        m-by-m) partitioned at the numerical rank r, the factor is
        ``q = u[:, :r] @ v[:, :r].T`` and ``h = v @ diag(s) @ v.T``.
    """
    b = _shaped(b, "b", stack=False)
    n, m = b.shape
    if n < m:
        raise ShapeError(f"b must be tall or square, got {n}x{m}; transpose first")
    f = svd(b, rtol=rtol)  # which checks that the entries are finite
    r = f.numerical_rank
    q = f.u[:, :r] @ f.v[:, :r].T
    h = (f.v * f.sigma) @ f.v.T
    h = h / 2.0 + h.T / 2.0  # halves first: h + h.T overflows above DBL_MAX / 2
    sigma_r = float(f.sigma[r - 1]) if r > 0 else 0.0
    return CanonicalPolar(q=q, h=h, r=r, sigma_r=sigma_r)


@dataclass(frozen=True)
class AlignedBasisSet:
    """All orthonormal bases of one subspace whose product with ``d`` is PSD.

    Members are ``base + freedom_left @ w @ freedom_right.T`` over orthogonal
    ``w`` of size ``k - r``.  ``base`` depends only on the subspace, not on
    the particular basis it was computed from.  With ``r == k`` the freedom
    is empty and the set is the single matrix ``base``.  Only ``sigma_r`` and
    ``rank_tolerance`` scale with ``d``, taken by the kernels' range rule.
    """

    base: np.ndarray
    freedom_left: np.ndarray
    freedom_right: np.ndarray
    r: int
    sigma_r: float
    rank_tolerance: float

    @property
    def k(self):
        return int(self.base.shape[1])

    @property
    def freedom(self):
        """Size of the orthogonal-matrix freedom, ``k - r``."""
        return int(self.freedom_left.shape[1])

    def member(self, w):
        """The basis selected by an orthogonal ``(k - r)``-size matrix `w`.

        `w` may be an (m, k - r, k - r) stack: the result is then the
        (m, n, k) stack of what each matrix alone selects, and each is checked
        orthogonal on its own."""
        w = _real(w, "w")
        f = self.freedom
        if w.shape[-2:] != (f, f) or w.ndim not in (2, 3):
            raise DimensionMismatch(f"w must be {f}x{f}, got {w.shape}")
        gram = (w.swapaxes(-1, -2) @ w - np.eye(f)).reshape(w.shape[:-2] + (f * f,))
        for defect in np.ravel(np.linalg.norm(gram, axis=-1)).tolist():  # one call per stack
            if not defect <= 1e-10:  # NaN fails too
                raise InvalidInput(f"w is not orthogonal: ||w.T w - I||_F = {defect:.3e}")
        return self.base + self.freedom_left @ w @ self.freedom_right.T


def align(x_any, d, *, rtol=None):
    """Rotate an orthonormal basis so its product with `d` is symmetric PSD.

    Parameters
    ----------
    x_any : (n, k) array_like
        Any orthonormal basis of the subspace.
    d : (n, k) array_like
        Pinning matrix, taken by the kernels' range rule (README, "Scale of
        `d`"); `x` is the same at every scale of `d` (AlignedBasisSet).
    rtol : float, optional
        Relative rank tolerance for ``x_any.T @ d``; the default policy
        assigns exact-rank inputs their exact rank, and callers needing a
        specific regime can pass an explicit `rtol`.

    Returns
    -------
    x : (n, k) ndarray
        ``x_any @ u @ v.T`` with ``u @ v.T`` an orthogonal polar factor of
        ``x_any.T @ d``.  Spans the same subspace as `x_any`, with
        ``x.T @ d`` symmetric PSD.
    aset : AlignedBasisSet
        The full family of PSD-pinned bases; `x` is ``aset.member(I)``.

    Notes
    -----
    When ``rank(x_any.T @ d) == k`` the aligned basis is unique and `x` does
    not depend on the input basis choice.  At rank zero (a zero product
    ``x_any.T @ d``, or ``rtol >= 1``) every orthonormal basis qualifies:
    ``base`` is the zero matrix and the freedom spans the whole basis.
    """
    x_any = check_orthonormal(x_any, "x_any")
    d, e = _pinning(d, *x_any.shape)
    f = svd(x_any.T @ d, rtol=rtol)
    r = f.numerical_rank
    return x_any @ (f.u @ f.v.T), AlignedBasisSet(
        base=(x_any @ f.u[:, :r]) @ f.v[:, :r].T,
        freedom_left=x_any @ f.u[:, r:],
        freedom_right=f.v[:, r:].copy(),
        r=r,
        sigma_r=float(f.sigma[r - 1]) * 2.0**e if r > 0 else 0.0,
        rank_tolerance=f.rank_tolerance * 2.0**e,
    )


def _pin(xs, d):
    """align's ``x`` of each basis of `xs`, an (m, n, k) stack of checked bases,
    from one stacked `svd` of the products with `d`: it reads no rank and
    builds no family, for the pinned basis does not depend on the rank."""
    d, _ = _pinning(d, *xs.shape[-2:])
    f = svd(xs.mT @ d)
    return xs @ (f.u @ f.v.swapaxes(-1, -2))


def optimal_representative(aset, x_tilde):
    """Family member with the smallest Frobenius distance to `x_tilde`.

    The optimal freedom matrix is the orthogonal polar factor of
    ``freedom_left.T @ x_tilde @ freedom_right`` (a trace-maximization
    argument), so the minimum is exact, not searched.

    `x_tilde` may be an (m, n, k) stack, a 3-d array or a list of bases: one
    product, one SVD and one :meth:`AlignedBasisSet.member` call then serve
    all of them, and each basis gets the bits it gets alone.

    Returns
    -------
    y_opt : (n, k) ndarray, or the (m, n, k) stack for a stack
    w_opt : (k - r, k - r) ndarray, or the (m, k - r, k - r) stack for a stack
    """
    xts = _stack(x_tilde, "x_tilde", aset.base.shape)
    u, _, vt = _lapack("svd", aset.freedom_left.T @ xts @ aset.freedom_right)
    w_opt = u @ vt
    return aset.member(w_opt), w_opt
