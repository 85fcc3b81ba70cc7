"""Explicit perturbation-bound constants and measured-versus-bound reports.

The central inequality: if two subspaces carry pinned orthonormal bases
(products with a common matrix ``d`` symmetric PSD, equal rank r), then the
distance from one pinned basis to the other's pinned family is at most
``eta * sin-theta distance`` between the subspaces, with ``eta`` an explicit
function of r, k, the smallest positive singular values of the products, and
``||d||_2``.  This module evaluates ``eta`` and friends, the singular
subspace (Wedin-type) bounds, the polar-factor perturbation bounds, and
packages full measured-vs-bound comparisons for concrete instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alignment import align, optimal_representative, polar
from .errors import (
    DimensionMismatch,
    InvalidInput,
    NotAligned,
    NotApplicable,
    RankMismatch,
)
from .kernels import (
    _as_matrix,
    _check_kind,
    _gauge,
    _integer,
    check_orthonormal,
    matrix_norm,
    singular_values,
    svd,
)
from .metrics import canonical_angles

__all__ = [
    "eta",
    "xi",
    "xi_sharpened",
    "WedinBounds",
    "wedin_bound",
    "PolarFactorBounds",
    "polar_factor_bound",
    "BoundReport",
    "evaluate_instance",
]

_SQRT2 = math.sqrt(2.0)


def _checked(value, name, zero_ok=False):
    """`value` as a Python float, finite and positive (nonnegative with `zero_ok`)."""
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInput(f"{name} must be a real scalar, got {value!r}") from None
    if not ((value >= 0.0 if zero_ok else value > 0.0) and value < math.inf):
        need = "nonnegative" if zero_ok else "positive"
        raise InvalidInput(f"{name} must be {need} and finite")
    return value


def eta(kind, r, k, sigma_r, sigma_r_tilde, d_norm):
    """Bound coefficient for one norm kind and rank regime.

    Parameters
    ----------
    kind : str
        Norm kind; the trace norm takes the generic unitarily-invariant
        coefficient, while spectral and Frobenius have sharper rank-deficient
        values.
    r, k : int
        Common rank of the pinned products and the subspace dimension.
    sigma_r, sigma_r_tilde : float
        Smallest positive singular values of ``x.T @ d`` and
        ``x_tilde.T @ d``, as real scalars.
    d_norm : float
        Spectral norm of the pinning matrix, a real scalar.

    Returns
    -------
    float
        ``inf``, silently, where ``d_norm`` over a singular value overflows.
    """
    _check_kind(kind)
    r, k = _integer(r, "r"), _integer(k, "k")
    if not 1 <= r <= k:
        raise InvalidInput(f"need 1 <= r <= k, got r={r}, k={k}")
    s = _checked(sigma_r, "sigma_r")
    st = _checked(sigma_r_tilde, "sigma_r_tilde")
    d = _checked(d_norm, "d_norm", zero_ok=True)
    both = s + st
    largest = max(s, st)
    if r == k:
        return _SQRT2 * (1.0 + 2.0 * d / both)
    if kind == "frobenius":
        return _SQRT2 * (1.0 + 2.0 * d / both) + 4.0 * d / largest
    if kind == "spectral":
        try:  # squares by pow as numpy took them; a product can round apart
            root = math.sqrt(8.0 * (d / both) ** 2 + 4.0 * (d / largest) ** 2)
        except OverflowError:  # where numpy's pow gave inf
            root = math.inf
        return _SQRT2 + root + 4.0 * d / largest
    # trace, and the generic unitarily invariant coefficient
    return _SQRT2 * (1.0 + 2.0 * d / both) + (2.0 * _SQRT2 + 4.0) * d / largest


def _bound(coefficient, sin_theta):
    """``coefficient * sin_theta``, and 0 at ``sin_theta == 0`` even at an inf."""
    return coefficient * sin_theta if sin_theta else sin_theta


def xi(kind, r, k, sigma_r, sigma_r_tilde, d_norm, sin_theta):
    """Bound value ``eta(...) * sin_theta`` of real scalars, a float; homogeneous
    of degree 1 in `sin_theta`, and 0 at a zero `sin_theta` even where `eta` is inf."""
    sin_theta = _checked(sin_theta, "sin_theta", zero_ok=True)
    return _bound(eta(kind, r, k, sigma_r, sigma_r_tilde, d_norm), sin_theta)


def xi_sharpened(kind, r, k, sigma_r, sigma_r_tilde, d_norm, truncated_sin_theta):
    """Rank-deficient bound with the sin-theta norm truncated to the r
    largest sines; real scalars in, a float out.

    Never exceeds :func:`xi` evaluated on the untruncated norm, and equals it
    for the spectral kind (truncation keeps the largest sine).  Only defined
    for ``r < k``.
    """
    if _integer(r, "r") >= _integer(k, "k"):
        raise NotApplicable("sharpening applies only to the rank-deficient regime")
    return xi(kind, r, k, sigma_r, sigma_r_tilde, d_norm, truncated_sin_theta)


@dataclass(frozen=True)
class WedinBounds:
    """Singular-subspace perturbation bounds for an equal-rank pair.

    ``bound_truncated <= bound_full`` always, and both dominate the measured
    sin-theta norms of the leading left and right singular subspaces.
    """

    bound_truncated: float
    bound_full: float
    measured_left: float
    measured_right: float


def wedin_bound(b, b_tilde, r, kind):
    """Perturbation bounds for the leading rank-r singular subspaces.

    Both matrices must have numerical rank `r` (RankMismatch otherwise).  The
    bounds divide the truncated and full norms of the difference by the
    larger of the two r-th singular values.
    """
    _check_kind(kind)
    if _integer(r, "r") < 1:
        raise InvalidInput("rank r must be at least 1")
    b = _as_matrix(b, "b")
    bt = _as_matrix(b_tilde, "b_tilde")
    if b.shape != bt.shape:
        raise DimensionMismatch(f"shapes differ: {b.shape} vs {bt.shape}")
    fb, ft = svd(b), svd(bt)
    if fb.numerical_rank != r or ft.numerical_rank != r:
        raise RankMismatch(
            f"expected numerical rank {r}, got {fb.numerical_rank} and {ft.numerical_rank}"
        )
    denom = max(float(fb.sigma[r - 1]), float(ft.sigma[r - 1]))
    s = singular_values(bt - b)
    return WedinBounds(
        bound_truncated=_gauge(s[:r], kind) / denom,
        bound_full=_gauge(s, kind) / denom,
        measured_left=_gauge(canonical_angles(fb.u[:, :r], ft.u[:, :r]).sines, kind),
        measured_right=_gauge(canonical_angles(fb.v[:, :r], ft.v[:, :r]).sines, kind),
    )


@dataclass(frozen=True)
class PolarFactorBounds:
    """Perturbation bounds for canonical polar factors of an equal-rank pair.

    ``bound_generic`` holds for every unitarily invariant norm;
    ``bound_improved`` is the sharper spectral/Frobenius value, None for the
    trace norm and for the square full-rank case where the generic bound is
    already the strong one.
    """

    measured: float
    bound_generic: float
    bound_improved: float | None


def polar_factor_bound(b, b_tilde, kind, *, rtol=None):
    """Measured polar-factor change and its predicted bounds.

    For square full-rank pairs the generic coefficient is
    ``2 / (sigma_r + sigma_r~)``; otherwise it gains ``2 / max(sigma_r,
    sigma_r~)``.  The improved Frobenius coefficient drops that extra term;
    the improved spectral coefficient is
    ``sqrt(4 / (sigma_r + sigma_r~)**2 + 2 / max(...)**2)``.
    """
    _check_kind(kind)
    b = _as_matrix(b, "b")
    bt = _as_matrix(b_tilde, "b_tilde")
    if b.shape != bt.shape:
        raise DimensionMismatch(f"shapes differ: {b.shape} vs {bt.shape}")
    pb = polar(b, rtol=rtol)
    pt = polar(bt, rtol=rtol)
    if pb.r != pt.r:
        raise RankMismatch(f"numerical ranks differ: {pb.r} vs {pt.r}")
    r = pb.r
    if r < 1:
        raise InvalidInput("both matrices are numerically zero")
    n, m = b.shape
    s_r, st_r = pb.sigma_r, pt.sigma_r
    diff_norm = matrix_norm(bt - b, kind)
    measured = matrix_norm(pt.q - pb.q, kind)
    if r == n == m:
        return PolarFactorBounds(
            measured=measured,
            bound_generic=2.0 / (s_r + st_r) * diff_norm,
            bound_improved=None,
        )
    generic = (2.0 / (s_r + st_r) + 2.0 / max(s_r, st_r)) * diff_norm
    if kind == "frobenius":
        improved = 2.0 / (s_r + st_r) * diff_norm
    elif kind == "spectral":
        improved = (
            math.sqrt(4.0 / (s_r + st_r) ** 2 + 2.0 / max(s_r, st_r) ** 2) * diff_norm
        )
    else:
        improved = None
    return PolarFactorBounds(
        measured=measured, bound_generic=generic, bound_improved=improved
    )


@dataclass(frozen=True)
class BoundReport:
    """All inputs and outputs of one bound evaluation.

    ``measured`` is exact for the full-rank regime and for freedom size 1
    (two-member family, exact minimum); for larger freedom it is exact in the
    Frobenius norm and otherwise the upper endpoint of the bracketing
    interval ``[measured_lower, measured_upper]`` around the true minimum.
    ``slack`` is ``xi / measured`` (infinite when measured is zero), and
    ``xi_sharpened`` is None in the full-rank regime.
    """

    kind: str
    regime: str
    r: int
    k: int
    sigma_r: float
    sigma_r_tilde: float
    d_norm: float
    sin_theta: float
    sin_theta_truncated: float
    eta: float
    xi: float
    xi_sharpened: float | None
    measured: float
    measured_lower: float
    measured_upper: float
    slack: float
    rank_tolerance: float


def _require_psd(g, d_norm, label):
    """Check that g is symmetric PSD to within 1e-10 * ||d||_2.

    The asymmetry is taken of g / ||d||_2, whose entries are at most 1, and
    scaled back, so its squares do not overflow however large d is."""
    tol = 1e-10 * d_norm
    scale = d_norm if d_norm > 0.0 else 1.0
    asym = float(np.linalg.norm((g - g.T) / scale)) * scale
    if asym > tol:
        raise NotAligned(f"{label} is not symmetric: asymmetry {asym:.3e} > {tol:.3e}")
    floor = float(np.linalg.eigvalsh((g + g.T) / 2.0)[0])
    if floor < -tol:
        raise NotAligned(
            f"{label} is not positive semidefinite: min eigenvalue {floor:.3e}"
        )


def evaluate_instance(x, x_tilde, d, kind, *, rtol=None):
    """Measure one pinned pair against the predicted bound.

    Parameters
    ----------
    x, x_tilde : (n, k) array_like
        Orthonormal bases with ``x.T @ d`` and ``x_tilde.T @ d`` symmetric
        PSD.  This is verified, not assumed (NotAligned on failure), and the
        two products must share a numerical rank (RankMismatch otherwise).
    d : (n, k) array_like
        Pinning matrix.
    kind : str, or tuple or list of str
        Norm kind for the distances and bound.  Several kinds share one pass
        over the norm-independent work (checks, factorizations, angles).
    rtol : float, optional
        Relative rank tolerance for both products, as in :func:`align`.

    Returns
    -------
    BoundReport, or a tuple of them in the order of a tuple or list `kind`
    """
    many = isinstance(kind, (tuple, list))
    kinds = tuple(kind) if many else (kind,)
    if not kinds:
        raise InvalidInput("need at least one norm kind")
    for each in kinds:
        _check_kind(each)
    x = check_orthonormal(x, name="x")
    xt = check_orthonormal(x_tilde, name="x_tilde")
    if x.shape != xt.shape:
        raise DimensionMismatch(f"basis shapes differ: {x.shape} vs {xt.shape}")
    d = _as_matrix(d, "d")
    n, k = x.shape
    if d.shape != (n, k):
        raise DimensionMismatch(f"d must be {n}x{k}, got {d.shape[0]}x{d.shape[1]}")

    d_norm = float(singular_values(d)[0])
    gt = xt.T @ d
    _require_psd(x.T @ d, d_norm, "x.T @ d")
    _require_psd(gt, d_norm, "x_tilde.T @ d")
    # the one factorization of x.T @ d: the family of x carries its rank decision
    _, aset = align(x, d, rtol=rtol)
    fgt = svd(gt, rtol=rtol)
    r = aset.r
    if r != fgt.numerical_rank:
        raise RankMismatch(
            f"rank(x.T d) = {r} but rank(x_tilde.T d) = {fgt.numerical_rank}"
        )
    if r == 0:
        raise InvalidInput("x.T @ d vanishes; the bound needs a positive singular value")
    sigma_rt = float(fgt.sigma[r - 1])
    angles = canonical_angles(x, xt)

    # measured is the smallest norm over these candidates; at freedom >= 2 the
    # one candidate is Frobenius-optimal, so the other norms get a bracket.
    # The spectral and trace norms share one SVD per candidate.
    dist_f = None
    if r == k:
        diffs = [x - xt]
    elif aset.freedom == 1:
        diffs = [xt - aset.member(np.array([[s]])) for s in (1.0, -1.0)]
    else:
        y_opt, _ = optimal_representative(aset, xt)
        diffs = [xt - y_opt]
        dist_f = float(np.linalg.norm(diffs[0]))
    if any(each != "frobenius" for each in kinds):
        svals = [singular_values(diff) for diff in diffs]

    reports = []
    for each in kinds:
        sin_t = _gauge(angles.sines, each)
        sin_trunc = _gauge(angles.sines[-r:], each)
        eta_val = eta(each, r, k, aset.sigma_r, sigma_rt, d_norm)
        xi_val = _bound(eta_val, sin_t)
        if each == "frobenius":
            measured = upper = min(matrix_norm(diff, each) for diff in diffs)
        else:
            measured = upper = min(_gauge(s, each) for s in svals)
        if dist_f is None:
            lower = measured
        else:  # the Frobenius measured is dist_f itself, a bracket of width 0
            lower = dist_f / math.sqrt(k) if each == "spectral" else dist_f
        reports.append(
            BoundReport(
                kind=each,
                regime="full_rank" if r == k else "rank_deficient",
                r=r,
                k=k,
                sigma_r=aset.sigma_r,
                sigma_r_tilde=sigma_rt,
                d_norm=d_norm,
                sin_theta=sin_t,
                sin_theta_truncated=sin_trunc,
                eta=eta_val,
                xi=xi_val,
                xi_sharpened=_bound(eta_val, sin_trunc) if r < k else None,
                measured=measured,
                measured_lower=lower,
                measured_upper=upper,
                slack=xi_val / measured if measured > 0.0 else math.inf,
                rank_tolerance=aset.rank_tolerance,
            )
        )
    return tuple(reports) if many else reports[0]
