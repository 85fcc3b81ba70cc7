"""Shared generators and brute-force oracles for the test suite.

The oracles deliberately avoid the production shortcuts: distances are
computed by explicitly building candidate matrices and taking norms, never by
the polar-factor identities they are used to check.
"""

import math

import numpy as np

from subspace_align import align, matrix_norm
from subspace_align.kernels import random_orthonormal

#: Rank tolerance (relative to sigma_1) used when a test needs the exact-rank
#: regime: far above the rounding floor of computed products, far below any
#: genuine singular value of the instances built here.
RANK_RTOL = 1e-8


def reference_eta(kind, r, k, sigma_r, sigma_r_tilde, d_norm):
    """The bound coefficient as numpy evaluates it on float64 values, the
    formula `bounds.eta` must match bit for bit; no input checks.

    Overflow gives inf and (for `reference_xi`) inf * 0 gives NaN, silently.
    """
    s, st, d = (np.asarray(v, dtype=np.float64) for v in (sigma_r, sigma_r_tilde, d_norm))
    sqrt2 = math.sqrt(2.0)
    with np.errstate(all="ignore"):
        both = s + st
        largest = np.maximum(s, st)
        if r == k:
            out = sqrt2 * (1.0 + 2.0 * d / both)
        elif kind == "frobenius":
            out = sqrt2 * (1.0 + 2.0 * d / both) + 4.0 * d / largest
        elif kind == "spectral":
            out = (
                sqrt2
                + np.sqrt(8.0 * (d / both) ** 2 + 4.0 * (d / largest) ** 2)
                + 4.0 * d / largest
            )
        else:
            out = sqrt2 * (1.0 + 2.0 * d / both) + (2.0 * sqrt2 + 4.0) * d / largest
    return float(out)


def reference_xi(kind, r, k, sigma_r, sigma_r_tilde, d_norm, sin_theta):
    """``reference_eta(...) * sin_theta`` in float64."""
    with np.errstate(all="ignore"):
        coefficient = reference_eta(kind, r, k, sigma_r, sigma_r_tilde, d_norm)
        return float(np.asarray(coefficient) * np.asarray(sin_theta, dtype=np.float64))


def rank_matrix(rng, m, n, r, smin=0.3, smax=3.0):
    """m-by-n matrix with exact rank r and singular values in [smin, smax]."""
    u = random_orthonormal(m, r, rng)
    v = random_orthonormal(n, r, rng)
    s = np.sort(rng.uniform(smin, smax, r))[::-1]
    return (u * s) @ v.T


def equal_rank_pair(rng, m, n, r, scale=0.1):
    """Pair (b, b_tilde) of exact rank r with a small generic difference.

    The perturbed matrix is the best rank-r truncation of b plus noise whose
    spectral norm stays below sigma_r(b), so both ranks are r by Weyl's
    inequality.
    """
    b = rank_matrix(rng, m, n, r)
    sigma_r = np.linalg.svd(b, compute_uv=False)[r - 1]
    e = rng.standard_normal((m, n))
    e *= scale * sigma_r / np.linalg.norm(e, 2)
    u, s, vt = np.linalg.svd(b + e)
    bt = (u[:, :r] * s[:r]) @ vt[:r]
    return b, bt


def subspace_pair(rng, n, k, eps=None):
    """Two orthonormal bases whose spans differ by a perturbation of size eps."""
    if eps is None:
        eps = 10.0 ** rng.uniform(-8, -0.2)
    x = random_orthonormal(n, k, rng)
    y, _ = np.linalg.qr(x + eps * rng.standard_normal((n, k)))
    return x, y


def aligned_instance(rng, k_range=(3, 8), n_max=64, drops=(0, 1, 2)):
    """One pinned pair sharing rank r = k - drop, or None to redraw.

    Returns (x, x_tilde, d, r, k) with both products PSD of the same rank and
    the smallest positive singular values comfortably above the rank
    tolerance, so the instance is unambiguous.
    """
    k = int(rng.integers(k_range[0], k_range[1] + 1))
    n = int(rng.integers(2 * k, n_max + 1))
    r = k - int(rng.choice(drops))
    d = rank_matrix(rng, n, k, r)
    x_any, y_any = subspace_pair(rng, n, k)
    x, sx = align(x_any, d, rtol=RANK_RTOL)
    y, sy = align(y_any, d, rtol=RANK_RTOL)
    if sx.r != r or sy.r != r or min(sx.sigma_r, sy.sigma_r) < 1e-6:
        return None
    return x, y, d, r, k


def draw_aligned_instance(rng, **kwargs):
    """Like aligned_instance but retries until a robust instance appears."""
    while True:
        inst = aligned_instance(rng, **kwargs)
        if inst is not None:
            return inst


def _chunked_min_distance(aset, target, ws, kind):
    """Smallest norm(target - member(w)) over a stack of freedom matrices."""
    best = np.inf
    base, fl, fr = aset.base, aset.freedom_left, aset.freedom_right
    for start in range(0, ws.shape[0], 2048):
        chunk = ws[start : start + 2048]
        members = base[None, :, :] + fl @ chunk @ fr.T
        diffs = target[None, :, :] - members
        if kind == "frobenius":
            vals = np.sqrt((diffs * diffs).sum(axis=(1, 2)))
        else:
            sv = np.linalg.svd(diffs, compute_uv=False)
            vals = sv[:, 0] if kind == "spectral" else sv.sum(axis=1)
        best = min(best, float(vals.min()))
    return best


def haar_stack(size, count, rng):
    """`count` Haar-orthogonal matrices of the given size as one stack.

    The same draws, bit for bit, as `count` successive
    ``haar_orthogonal(size, rng)`` calls, leaving `rng` in the same state: the
    Gaussian entries leave the stream in the same order, the stacked QR
    factors each matrix on its own, and the signs of each R diagonal are
    fixed the same way.
    """
    q, r = np.linalg.qr(rng.standard_normal((count, size, size)))
    signs = np.sign(np.diagonal(r, axis1=1, axis2=2))
    signs[signs == 0] = 1.0
    return q * signs[:, None, :]


def rotation_grid(n_grid):
    """Every 2x2 orthogonal matrix on an n_grid-point angle grid."""
    phi = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    c, s = np.cos(phi), np.sin(phi)
    rot = np.stack(
        [np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1
    )
    refl = rot.copy()
    refl[:, :, 1] *= -1.0
    return np.concatenate([rot, refl], axis=0)


def brute_min_distance(aset, target, kind="frobenius", n_grid=0, n_samples=0, rng=None):
    """Brute-force min distance from target to the family, by enumeration.

    For freedom 2 a dense rotation/reflection grid covers the whole family;
    Haar samples extend the search for any freedom size.  Explicit member
    construction throughout.
    """
    free = aset.freedom
    if free == 0:
        return matrix_norm(target - aset.base, kind)
    if free == 1:
        return min(
            matrix_norm(target - aset.member(np.array([[s]])), kind)
            for s in (1.0, -1.0)
        )
    best = np.inf
    if n_grid and free == 2:
        best = min(best, _chunked_min_distance(aset, target, rotation_grid(n_grid), kind))
    if n_samples:
        ws = haar_stack(free, n_samples, rng)
        best = min(best, _chunked_min_distance(aset, target, ws, kind))
    return best
