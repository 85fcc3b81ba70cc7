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
from .errors import InvalidInput, NotAligned, RankMismatch
from .kernels import (
    _check_kind,
    _checked,
    _frobenius,
    _gauge,
    _integer,
    _lapack,
    _pinning,
    _record,
    _scaled_pair,
    _stack,
    check_orthonormal,
    matrix_norm,
    singular_values,
    svd,
)
from .metrics import canonical_angles

__all__ = [
    "eta",
    "xi",
    "WedinBounds",
    "wedin_bound",
    "PolarFactorBounds",
    "polar_factor_bound",
    "BoundReport",
    "evaluate_instance",
]

_SQRT2 = math.sqrt(2.0)


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

    Notes
    -----
    At full rank the coefficient is attained to within a factor of sqrt(2):
    the pinned bases (cos phi, sin phi) and (-cos phi, sin phi) of d = e2
    move by ``1 / (sqrt(2) (1 + sin phi))`` of the bound in every norm, which
    tends to ``1 / sqrt(2)`` as phi -> 0.  Whether ``1 / sqrt(2)`` is the
    supremum is open.
    """
    _check_kind(kind)
    r, k = _integer(r, "r"), _integer(k, "k")
    if not 1 <= r <= k:
        raise InvalidInput(f"need 1 <= r <= k, got r={r}, k={k}")
    s = _checked(sigma_r, "sigma_r")
    st = _checked(sigma_r_tilde, "sigma_r_tilde")
    d = _checked(d_norm, "d_norm", zero_ok=True)
    # eta reads only ratios: an exact power-of-two scale keeps s + st and 6.9 * d finite
    if max(s, st, d) > 2.0**1020:
        s, st, d = s * 2.0**-64, st * 2.0**-64, d * 2.0**-64
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
    larger of the two r-th singular values.  No output changes with a common
    scale of the pair, so a pair whose largest entry lies outside [2**-400,
    2**400] is first scaled by the power of two that puts it in [1, 2).
    """
    _check_kind(kind)
    if _integer(r, "r") < 1:
        raise InvalidInput("rank r must be at least 1")
    b, bt = _scaled_pair(b, b_tilde)
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
    the improved spectral coefficient is ``sqrt(4 / (sigma_r + sigma_r~)**2 +
    2 / max(...)**2)``.  Each bound divides ``||b~ - b||`` by the singular
    values first: a coefficient overflows at a subnormal ``sigma_r``.  No
    output changes with a common scale of the pair, so a pair whose largest
    entry lies outside [2**-400, 2**400] is first scaled by the power of two
    that puts it in [1, 2); a zero difference bounds to 0.
    """
    _check_kind(kind)
    b, bt = _scaled_pair(b, b_tilde)
    pb = polar(b, rtol=rtol)
    pt = polar(bt, rtol=rtol)
    if pb.r != pt.r:
        raise RankMismatch(f"numerical ranks differ: {pb.r} vs {pt.r}")
    r = pb.r
    if r < 1:
        raise InvalidInput("both matrices are numerically zero")
    diff_norm = matrix_norm(bt - b, kind)
    measured = matrix_norm(pt.q - pb.q, kind)
    near = diff_norm / (pb.sigma_r + pt.sigma_r)
    far = diff_norm / max(pb.sigma_r, pt.sigma_r)
    if r == b.shape[0] == b.shape[1]:
        return PolarFactorBounds(measured=measured, bound_generic=2.0 * near, bound_improved=None)
    improved = {"frobenius": 2.0 * near, "spectral": math.hypot(2.0 * near, _SQRT2 * far)}
    return PolarFactorBounds(measured=measured, bound_generic=2.0 * near + 2.0 * far,
                             bound_improved=improved.get(kind))


@dataclass(frozen=True)
class BoundReport:
    """All inputs and outputs of one bound evaluation.

    ``measured`` is exact for the full-rank regime and for freedom size 1
    (two-member family, exact minimum); for larger freedom it is exact in the
    Frobenius norm and otherwise the upper endpoint of the bracketing
    interval ``[measured_lower, measured_upper]`` around the true minimum.
    ``slack`` is ``xi / measured`` (infinite when measured is zero), and
    ``xi_sharpened`` is :func:`xi` of ``sin_theta_truncated``, the norm of
    the r largest sines, and None in the full-rank regime.  Only ``d_norm``,
    ``sigma_r``, ``sigma_r_tilde`` and ``rank_tolerance`` scale with ``d``.
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


def _psd_defects(gs, d_norm, scale):
    """Which products of the stack `gs` are not symmetric PSD to within
    1e-10 * ||d||_2, as a list of bools, and ``why(i, label)``, the message of
    product i, built only for a product that fails; one eigvalsh call.  `gs` is
    made with d / `scale`, and a message gives its numbers times `scale`."""
    tol = 1e-10 * d_norm
    floors = _lapack("eigvalsh", (gs + gs.swapaxes(1, 2)) / 2.0)[:, 0]
    asym = _frobenius(gs - gs.swapaxes(1, 2))

    def why(i, label):  # Python floats: a product past DBL_MAX is inf, with no warning
        asym_i, tol_i, floor_i = (float(v) * scale for v in (asym[i], tol, floors[i]))
        if asym[i] > tol:
            return f"{label} is not symmetric: asymmetry {asym_i:.3e} > {tol_i:.3e}"
        return f"{label} is not positive semidefinite: min eigenvalue {floor_i:.3e}"

    return ((asym > tol) | (floors < -tol)).tolist(), why


def _per_basis(value):
    """A number, or an array with one value per basis, as a list of numbers."""
    return value.tolist() if isinstance(value, np.ndarray) else [value]


def evaluate_instance(x, x_tilde, d, kind, *, rtol=None):
    """Measure a pinned pair, or `x` against each basis of a stack, against the bound.

    Parameters
    ----------
    x, x_tilde : (n, k) array_like
        Orthonormal bases with ``x.T @ d`` and ``x_tilde.T @ d`` symmetric
        PSD.  This is verified, not assumed (NotAligned on failure), and the
        two products must share a numerical rank (RankMismatch otherwise).
        `x_tilde` may be an (m, n, k) stack, a 3-d array or a list of bases.
    d : (n, k) array_like
        Pinning matrix, as in :func:`align`; BoundReport names what scales with it.
    kind : str, or tuple or list of str
        Norm kind for the distances and bound.  Several kinds share one pass
        over the norm-independent work (checks, factorizations, angles).
    rtol : float, optional
        Relative rank tolerance for all products, as in :func:`align`.

    Returns
    -------
    BoundReport, or a tuple of them in the order of a tuple or list `kind`;
    for a stack, a list of what each basis alone gives
        Reports are records, not arrays, so this is the one stacked form
        that returns a list.  The work on `x` and `d` runs once.  A stack
        forms and factors the products ``x_tilde.T @ d`` in one call each
        (PSD check, SVD, angles) and raises the error of a failing basis as
        its own call would.  The distances are measured in one stacked pass:
        the candidate differences of all bases (``x - x_tilde``, ``x_tilde``
        minus each of the two family members at freedom 1, or minus the
        :func:`optimal_representative` at freedom >= 2) take one
        :func:`singular_values` call for the spectral and trace norms and one
        :func:`matrix_norm` call for the Frobenius norm, made only when a
        Frobenius report or the freedom >= 2 bracket needs it.  A single
        basis runs the same calls on 2-d arrays.
    """
    many = isinstance(kind, (tuple, list))
    kinds = tuple(kind) if many else (kind,)
    if not kinds:
        raise InvalidInput("need at least one norm kind")
    for each in kinds:
        _check_kind(each)
    x = check_orthonormal(x, name="x")
    xts = _stack(x_tilde, "x_tilde", x.shape)
    d, e = _pinning(d, *x.shape)
    scale = 2.0**e  # what carries the units of d is multiplied back by it

    d_norm = float(singular_values(d)[0])
    gts = xts.swapaxes(-1, -2) @ d
    gs = np.concatenate([(x.T @ d)[None], gts.reshape(-1, *gts.shape[-2:])])
    failing, why = _psd_defects(gs, d_norm, scale)
    if failing[0]:
        raise NotAligned(why(0, "x.T @ d"))
    # the one factorization of x.T @ d: the family of x carries its rank decision
    _, aset = align(x, d, rtol=rtol)
    r, k = aset.r, aset.k
    sines, factors = canonical_angles(x, xts).sines, svd(gts, rtol=rtol)
    for i, rank in enumerate(_per_basis(factors.numerical_rank)):  # the first failing raises
        if failing[i + 1]:
            raise NotAligned(why(i + 1, "x_tilde.T @ d"))
        if r != rank:
            raise RankMismatch(f"rank(x.T d) = {r} but rank(x_tilde.T d) = {rank}")
        if r == 0:
            raise InvalidInput("x.T @ d vanishes; the bound needs a positive singular value")

    # measured is the smallest norm over the candidates of each basis, all of
    # them in one stack; at freedom >= 2 the one candidate is Frobenius-optimal,
    # so the other norms get a bracket.
    freedom = aset.freedom
    if freedom == 0:
        diffs = x - xts
    elif freedom == 1:  # two candidates per basis, the members of w = +-1
        members = aset.member(np.array([[[1.0]], [[-1.0]]]))
        diffs = (xts - members[:, None]).reshape(-1, *x.shape)
    else:
        y_opt, _ = optimal_representative(aset, xts)
        diffs = xts - y_opt

    measured = {}
    if "frobenius" in kinds or freedom > 1:
        measured["frobenius"] = matrix_norm(diffs, "frobenius")
    if any(each != "frobenius" for each in kinds):
        svals = singular_values(diffs)
        for each in kinds:
            if each != "frobenius":
                measured[each] = _gauge(svals, each)
    for each, value in measured.items():
        if freedom == 1:  # the nearer of each basis's two candidates
            value = np.minimum(value[: len(value) // 2], value[len(value) // 2 :])
        measured[each] = _per_basis(value)

    # the reports, one column per kind; what scales with d is scaled back once
    regime = "full_rank" if r == k else "rank_deficient"
    sigma_r, d_scaled, rank_tol = aset.sigma_r * scale, d_norm * scale, aset.rank_tolerance * scale
    sigma_rts = np.ravel(factors.sigma[..., r - 1]).tolist()
    columns = []
    for each in kinds:
        sins = _per_basis(_gauge(sines, each))  # the r largest at r == k are all of them
        truncs = sins if r == k else _per_basis(_gauge(sines[..., -r:], each))
        values = lowers = measured[each]
        if freedom > 1:  # the Frobenius measured is a bracket of width 0
            lowers = measured["frobenius"]
            if each == "spectral":
                lowers = [value / math.sqrt(k) for value in lowers]
        column = []
        for st, sin_t, sin_trunc, value, lower in zip(sigma_rts, sins, truncs, values, lowers):
            eta_val = eta(each, r, k, aset.sigma_r, st, d_norm)
            xi_val = _bound(eta_val, sin_t)
            column.append(_record(
                BoundReport,
                kind=each, regime=regime, r=r, k=k, sigma_r=sigma_r, sigma_r_tilde=st * scale,
                d_norm=d_scaled, sin_theta=sin_t, sin_theta_truncated=sin_trunc, eta=eta_val,
                xi=xi_val, xi_sharpened=_bound(eta_val, sin_trunc) if r < k else None,
                measured=value, measured_lower=lower, measured_upper=value,
                slack=xi_val / value if value > 0.0 else math.inf, rank_tolerance=rank_tol,
            ))
        columns.append(column)
    results = list(zip(*columns)) if many else columns[0]
    return results[0] if xts.ndim == 2 else results
