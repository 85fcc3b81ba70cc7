"""Polar decompositions and basis pinning.

Given a target matrix ``d``, every k-dimensional subspace of R^n admits
orthonormal basis matrices ``x`` whose product ``x.T @ d`` is symmetric
positive semidefinite.  When that product has full rank the basis is unique;
otherwise the bases form a family with an orthogonal-matrix freedom of size
``k - rank``.  This module computes one such basis, describes the whole
family, finds the family member closest to a reference basis, and estimates
the max-min distance between two families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput, RankMismatch, ShapeError
from .kernels import (
    _check_kind,
    _integer,
    _lapack,
    _pinning,
    _real,
    _scaled,
    _shaped,
    _stack,
    _stream,
    _uint64,
    check_orthonormal,
    haar_orthogonal,
    matrix_norm,
    svd,
)

__all__ = [
    "CanonicalPolar",
    "polar",
    "AlignedBasisSet",
    "align",
    "optimal_representative",
    "HausdorffEstimate",
    "hausdorff_distance_estimate",
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
    """align's ``x`` of each basis of `xs`, an (m, n, k) stack of checked bases:
    one SVD of the products with `d`, no rank decision and no family, for the
    pinned basis does not depend on the rank."""
    d, _ = _pinning(d, *xs.shape[-2:])
    u, _, vt = _lapack("svd", _scaled(xs.mT @ d, 2)[0], full_matrices=False)  # as svd does
    return xs @ (u @ vt)


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
    xts = _stack(x_tilde, "x_tilde")
    if xts.shape[-2:] != aset.base.shape:
        raise DimensionMismatch(
            f"x_tilde must be {aset.base.shape}, got {xts.shape[-2:]}"
        )
    u, _, vt = _lapack("svd", aset.freedom_left.T @ xts @ aset.freedom_right)
    w_opt = u @ vt
    return aset.member(w_opt), w_opt


@dataclass(frozen=True)
class HausdorffEstimate:
    """Result of :func:`hausdorff_distance_estimate`.

    ``exact`` is True only when both families are finite (freedom 0 or 1) and
    the max-min ran over every member.  Otherwise the value is approximate:
    the outer max is sampled, and for the spectral and trace norms the inner
    min is sampled as well (the Frobenius inner min is always exact), making
    the Frobenius estimate a one-sided lower bound.
    """

    value: float
    exact: bool
    kind: str
    samples_used: int


#: Inner Haar samples per outer sample for the spectral/trace inner min of
#: :func:`hausdorff_distance_estimate`; the exact Frobenius minimizer is
#: always a candidate as well.
_INNER_SAMPLES = 64


def hausdorff_distance_estimate(set_a, set_b, kind, samples=512, seed=0):
    """Estimate ``max over set_b of (min over set_a)`` of the member distance.

    A finite family (freedom 0 or 1) is one stacked ``member`` call, and the
    four differences one ``matrix_norm`` call.  Above that, each outer sample
    draws its inner candidates in one stacked call and takes their norms in one.

    Parameters
    ----------
    set_a, set_b : AlignedBasisSet
        Families with the same shape and the same rank `r`.
    kind : str
        Norm kind.
    samples : int
        Outer Haar samples when the freedom exceeds 1.
    seed : int
        Philox stream key in [0, 2**64), read when the freedom exceeds 1;
        identical seeds give identical estimates.
    """
    _check_kind(kind)
    if set_a.base.shape != set_b.base.shape:
        raise DimensionMismatch(
            f"set shapes differ: {set_a.base.shape} vs {set_b.base.shape}"
        )
    if set_a.r != set_b.r:
        raise RankMismatch(f"set ranks differ: {set_a.r} vs {set_b.r}")
    free = set_a.freedom
    if free <= 1:
        # every member, twice over at freedom 0 where both ws are 0x0
        ws = np.stack([np.eye(free), -np.eye(free)])
        ya, yb = set_a.member(ws), set_b.member(ws)
        norms = matrix_norm((yb[:, None] - ya).reshape(-1, *ya.shape[1:]), kind)
        value = float(norms.reshape(2, 2).min(axis=1).max())  # max over b of min over a
        return HausdorffEstimate(value=value, exact=True, kind=kind, samples_used=0)

    samples = _integer(samples, "samples")
    if samples < 1:
        raise InvalidInput("samples must be at least 1")
    rng = _stream(_uint64(seed, "seed"), 0)
    draws = 1 if kind == "frobenius" else 1 + _INNER_SAMPLES  # the outer, then the inner
    worst = 0.0
    for _ in range(samples):
        yb = set_b.member(haar_orthogonal(free, rng))
        y_opt, _ = optimal_representative(set_a, yb)
        best = matrix_norm(yb - y_opt, kind)
        if draws > 1:  # the inner draws follow the outer one, as one draw at a time
            ya = set_a.member(haar_orthogonal(free, [rng] * (draws - 1)))
            best = min(best, float(matrix_norm(yb - ya, kind).min()))
        worst = max(worst, best)
    return HausdorffEstimate(value=worst, exact=False, kind=kind, samples_used=samples * draws)
