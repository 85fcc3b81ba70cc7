"""Canonical angles between equal-dimensional subspaces and the sin-theta
family of distances, plus the optimal rotation aligning one orthonormal basis
to another."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput
from .kernels import (
    NORM_KINDS,
    _check_kind,
    _gauge,
    _lapack,
    _real,
    _shaped,
    _stack,
    check_orthonormal,
    orthonormal_completion,
    singular_values,
)

__all__ = [
    "AngleSpectrum",
    "canonical_angles",
    "sin_theta_norm",
    "align_rotation",
]


@dataclass(frozen=True)
class AngleSpectrum:
    """Cosines and sines of the canonical angles between two k-dim subspaces.

    ``cosines`` are nonincreasing and ``sines`` nondecreasing, both clamped to
    [0, 1], sorted so index i of each array belongs to the same angle:
    ``sines[i]**2 + cosines[i]**2 == 1`` up to roundoff.  The sines are
    computed from the product with an orthonormal completion, not as
    ``sqrt(1 - cos**2)``, so small angles survive; on float64 input pairs
    they are accurate to about 1e-16 absolute, not to full relative accuracy.
    For a stack of m bases both are (m, k) and ``k`` reads the last axis.
    """

    cosines: np.ndarray
    sines: np.ndarray

    @property
    def k(self):
        return int(self.sines.shape[-1])


def canonical_angles(x, y):
    """Canonical angles between the column spaces of two orthonormal bases.

    Parameters
    ----------
    x, y : (n, k) array_like
        Orthonormal bases of two k-dimensional subspaces of R^n; `y` may be
        an (m, n, k) stack, a 3-d array or a list of bases.

    Returns
    -------
    AngleSpectrum
        For a stack, of (m, k) arrays whose row i is what basis i alone gives.

    Notes
    -----
    Cosines are the singular values of ``x.T @ y``; sines are the singular
    values of ``xp.T @ y`` where ``xp`` completes `x` to an orthogonal matrix,
    padded with zeros when the subspace dimension exceeds the codimension:
    all k of them at n == k, where ``xp`` is n-by-0.  The result depends only
    on the two subspaces, not the basis choices.  A stack validates and
    completes `x` once and takes each of the two SVDs in one call.

    The complement product is formed as ``(y.T @ xp).T``: with a thin k,
    BLAS's kernel for a transposed (n-k)-by-n left operand runs about 2.5x
    slower at n=2048 than this order, whose left operand is the thin one.
    The product and so the sines keep the bits of ``xp.T @ y``: OpenBLAS
    gave the same bits from n=8 to 8192, stacks included.
    """
    x = _shaped(x, "x", stack=False)
    xp = orthonormal_completion(x)  # checks x, under the same name and message
    ys = _stack(y, "y", x.shape)
    cosines = np.clip(_lapack("svd", x.T @ ys, compute_uv=False), 0.0, 1.0)
    sines = np.zeros(cosines.shape)
    sv = _lapack("svd", (ys.swapaxes(-1, -2) @ xp).swapaxes(-1, -2), compute_uv=False)
    # ascending, padded with the zero sines forced when 2k > n (all k at n == k)
    sines[..., x.shape[1] - sv.shape[-1] :] = np.clip(sv[..., ::-1], 0.0, 1.0)
    return AngleSpectrum(cosines=cosines, sines=sines)


def sin_theta_norm(angles, kind):
    """Norm of the diagonal matrix of canonical-angle sines, an AngleSpectrum's
    ``sines``: a 1-d array of finite values in [0, 1], InvalidInput otherwise."""
    _check_kind(kind)
    sines = _real(getattr(angles, "sines", None), "angles.sines")
    if sines.ndim != 1 or not ((sines >= 0.0) & (sines <= 1.0)).all():  # NaN fails too
        raise InvalidInput("angles.sines must be a 1-d array of values in [0, 1]")
    return _gauge(sines, kind)


def align_rotation(x, y):
    """Orthogonal k-by-k rotation `q` that best maps `y` onto `x`.

    `q` is the orthogonal polar factor of ``y.T @ x`` (the orthogonal
    Procrustes solution), unique when ``y.T @ x`` has full rank.  For this
    `q` the residual is sandwiched between the sin-theta distance and sqrt(2)
    times it, in every shipped norm.

    Returns
    -------
    q : (k, k) ndarray
    residuals : dict
        ``norm(x - y @ q)`` for each norm kind.
    """
    x = check_orthonormal(x, name="x")
    y = check_orthonormal(y, name="y")
    if x.shape != y.shape:
        raise DimensionMismatch(f"basis shapes differ: {x.shape} vs {y.shape}")
    u, _, vt = _lapack("svd", y.T @ x)
    q = u @ vt
    s = singular_values(x - y @ q)
    residuals = {kind: _gauge(s, kind) for kind in NORM_KINDS}
    return q, residuals
