"""Dense-matrix primitives shared by the whole package: SVD with an explicit
numerical-rank decision, truncated unitarily invariant norms, orthonormal
completion, Hadamard matrices or their leading columns (built from a closed
form, in time and memory proportional to the entries returned), and
deterministic random-matrix generators.

All functions are pure; returned arrays are freshly allocated and never
aliased to the inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyComplement,
    InvalidBasis,
    InvalidInput,
    NumericalFailure,
    UnsupportedOrder,
)

__all__ = [
    "NORM_KINDS",
    "UNIT_ROUNDOFF",
    "SvdFactors",
    "svd",
    "singular_values",
    "truncated_norm",
    "matrix_norm",
    "check_orthonormal",
    "orthonormal_completion",
    "hadamard",
    "is_hadamard_order",
    "haar_orthogonal",
    "random_orthonormal",
]

#: The three unitarily invariant norms shipped by this package.  They are a
#: closed enumeration: every ``kind`` argument must be one of these strings.
NORM_KINDS = ("spectral", "frobenius", "trace")

#: Unit roundoff of IEEE-754 binary64 (2**-53), used by the default
#: numerical-rank tolerance.
UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0


def _as_matrix(b, name="matrix"):
    """Coerce to a finite 2-d float64 array with at least one row and column."""
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        raise InvalidInput(f"{name} must be 2-dimensional, got ndim={b.ndim}")
    if b.shape[0] < 1 or b.shape[1] < 1:
        raise InvalidInput(f"{name} must be at least 1x1, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise InvalidInput(f"{name} contains non-finite entries")
    return b


def _integer(value, name):
    """`value` as a Python int; InvalidInput unless it is an int or a numpy
    integer (a bool is not), so a float size is never silently truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    return int(value)


def _uint64(value, name):
    """`value` as a Python int in [0, 2**64), the range of a Philox key word;
    InvalidInput otherwise, never a truncation or a bare OverflowError."""
    value = _integer(value, name)
    if not 0 <= value < 2**64:
        raise InvalidInput(f"{name} must be an unsigned 64-bit integer, got {value}")
    return value


def _check_kind(kind):
    if kind not in NORM_KINDS:
        raise InvalidInput(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")


def _gauge(values, kind):
    """Norm of a diagonal matrix given as a 1-d array of its entries."""
    values = np.asarray(values, dtype=np.float64)
    if kind == "spectral":
        return float(values.max(initial=0.0))
    if kind == "frobenius":
        return float(np.sqrt(np.sum(values * values)))
    return float(np.sum(values))


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``b = u @ diag(sigma) @ v.T`` plus a numerical-rank decision.

    ``u`` (m-by-p) and ``v`` (n-by-p) have orthonormal columns, ``sigma`` holds
    the p = min(m, n) singular values in nonincreasing order.  ``numerical_rank``
    is the number of singular values strictly greater than ``rank_tolerance``.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    numerical_rank: int
    rank_tolerance: float


def svd(b, *, rtol=None):
    """Thin singular value decomposition with a numerical-rank decision.

    Parameters
    ----------
    b : (m, n) array_like
        Matrix to factor; entries must be finite.
    rtol : float, optional
        Relative rank tolerance, finite and nonnegative; the absolute
        tolerance is ``rtol * sigma_1``.

    Returns
    -------
    SvdFactors

    Notes
    -----
    Without `rtol`, the tolerance is ``max(m, n) * sigma_1 * u``, with ``u``
    the binary64 unit roundoff.  The rank counts the singular values strictly
    above the tolerance, so one exactly at the tolerance counts as zero.

    No sign convention is imposed on ``u`` and ``v``.  Downstream quantities
    (polar factors, pinned bases) are invariant under paired sign flips, and
    callers must not rely on the signs of individual singular vectors.
    """
    b = _as_matrix(b, "b")
    # NaN fails both comparisons, so a NaN tolerance cannot select rank 0
    if rtol is not None and not 0.0 <= float(rtol) < np.inf:
        raise InvalidInput("rtol must be nonnegative and finite")
    try:
        u, s, vt = np.linalg.svd(b, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    sigma1 = float(s[0])
    rank_tol = (
        max(b.shape) * sigma1 * UNIT_ROUNDOFF if rtol is None else float(rtol) * sigma1
    )
    rank = int(np.count_nonzero(s > rank_tol))
    return SvdFactors(u=u, sigma=s, v=vt.T, numerical_rank=rank, rank_tolerance=rank_tol)


def singular_values(b):
    """Singular values of `b` in nonincreasing order."""
    b = _as_matrix(b, "b")
    try:
        return np.linalg.svd(b, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc


def truncated_norm(b, r, kind):
    """Norm of the best rank-`r` approximation of `b`.

    Only the ``min(r, min(m, n))`` largest singular values contribute, so the
    result equals the full norm whenever `r` is at least the rank of `b`.
    """
    _check_kind(kind)
    if _integer(r, "r") < 1:
        raise InvalidInput("truncation rank r must be at least 1")
    return _gauge(singular_values(b)[:r], kind)


def matrix_norm(b, kind):
    """Spectral, Frobenius, or trace (nuclear) norm of a dense matrix."""
    _check_kind(kind)
    if kind == "frobenius":
        return float(np.linalg.norm(_as_matrix(b, "b")))
    s = singular_values(b)
    return float(s[0]) if kind == "spectral" else float(np.sum(s))


def check_orthonormal(x, name="x"):
    """Validate that `x` has orthonormal columns and return it as float64.

    The tolerance on ``||x.T x - I||_F`` is ``1e-12 * n`` for an n-row
    input.  Raises InvalidBasis on failure.
    """
    x = _as_matrix(x, name)
    n, k = x.shape
    if k > n:
        raise InvalidBasis(f"{name} has more columns ({k}) than rows ({n})")
    tol = 1e-12 * n
    # np.linalg.norm's own Frobenius formula, without its dispatch
    g = (x.T @ x - np.eye(k)).ravel()
    defect = math.sqrt(g.dot(g))
    if defect > tol:
        raise InvalidBasis(
            f"{name} is not orthonormal: ||x.T x - I||_F = {defect:.3e} > {tol:.3e}"
        )
    return x


def orthonormal_completion(x):
    """Orthonormal basis of the orthogonal complement of ``range(x)``.

    For an n-by-k input with orthonormal columns and k < n, returns an
    n-by-(n-k) matrix ``xp`` such that ``[x, xp]`` is orthogonal to within
    ``1e-12 * n``.  The completion is not unique; only that residual contract
    is promised.
    """
    x = check_orthonormal(x)
    n, k = x.shape
    if n == k:
        raise EmptyComplement("a square orthonormal basis has no complement")
    # Householder QR of x: the trailing n-k columns of the full Q span the
    # complement because x already has full column rank.  The slice is
    # returned without a copy, which would be a second O(n^2) buffer.
    q = np.linalg.qr(x, mode="complete")[0]
    return q[:, k:]


def _paley(q):
    """Hadamard matrix of order q + 1 for a prime q with q % 4 == 3."""
    residues = {(i * i) % q for i in range(1, q)}
    chi = np.zeros(q, dtype=np.int64)
    for a in range(1, q):
        chi[a] = 1 if a in residues else -1
    # Jacobsthal matrix: skew-symmetric because -1 is a non-residue mod q.
    idx = (np.arange(q)[:, None] - np.arange(q)[None, :]) % q
    c = np.zeros((q + 1, q + 1), dtype=np.int64)
    c[0, 1:] = 1
    c[1:, 0] = -1
    c[1:, 1:] = chi[idx]
    return np.eye(q + 1, dtype=np.int64) + c


#: The seed blocks H_s of every supported order 2**a * s, built once.
_SEEDS = {1: np.ones((1, 1), dtype=np.int64), 12: _paley(11), 20: _paley(19)}


def _seed_order(n):
    """Reduce n by halving to one of the seed orders 1, 12, 20, or None."""
    m = int(n)
    while m % 2 == 0 and m not in _SEEDS:
        m //= 2
    return m if m in _SEEDS else None


def _parity_signs(count):
    """``(-1)**popcount(v)`` for v in range(count); numpy's own popcount
    needs numpy 2, so the bits of v are XORed one at a time."""
    v = np.arange(count, dtype=np.int64)
    parity = np.zeros(count, dtype=np.int64)
    for bit in range((count - 1).bit_length()):
        parity ^= (v >> bit) & 1
    return 1 - 2 * parity


def is_hadamard_order(n):
    """True when :func:`hadamard` can build a matrix of order `n`."""
    return (
        isinstance(n, (int, np.integer))
        and not isinstance(n, bool)
        and n >= 1
        and _seed_order(n) is not None
    )


def hadamard(n, columns=None):
    """The first `columns` columns (all n by default) of the Hadamard matrix
    of order `n`, with integer entries in {-1, +1}.

    The order-n matrix is the Sylvester-Kronecker product ``H_{2**a} (x)
    H_s`` of a seed block of order s in {1, 12, 20} (the latter two by the
    Paley construction), which covers every order of the form ``2**a``,
    ``12 * 2**a`` and ``20 * 2**a``.  Entry (i, j) is the closed form
    ``(-1)**popcount(i1 & j1) * H_s[i2, j2]`` with ``(i1, i2) = divmod(i, s)``
    and ``(j1, j2) = divmod(j, s)``, so c columns cost O(n c), not O(n**2).
    The full matrix satisfies ``h.T @ h == n * I`` exactly in integer
    arithmetic; `columns` must lie in [1, n].
    """
    n = _integer(n, "n")
    if n < 1:
        raise InvalidInput(f"order must be a positive integer, got {n}")
    seed = _seed_order(n)
    if seed is None:
        raise UnsupportedOrder(f"no Hadamard construction for order {n}")
    c = n if columns is None else _integer(columns, "columns")
    if not 1 <= c <= n:
        raise InvalidInput(f"columns must lie in [1, {n}], got {c}")
    blocks = -(-c // seed)  # column blocks of width s that the c columns touch
    signs = _parity_signs(blocks)[np.arange(n // seed)[:, None] & np.arange(blocks)]
    # the Kronecker product signs (x) H_s, laid out as (i1, i2, j1, j2)
    h = signs[:, None, :, None] * _SEEDS[seed][None, :, None, :]
    return h.reshape(n, blocks * seed)[:, :c]


def haar_orthogonal(size, rng):
    """Haar-distributed orthogonal matrix of the given size.

    Uses the QR decomposition of a standard Gaussian matrix with the signs of
    the R diagonal fixed, which makes the distribution exactly Haar and the
    draw deterministic for a given generator state.
    """
    if _integer(size, "size") < 0:
        raise InvalidInput("size must be nonnegative")
    if size == 0:
        return np.zeros((0, 0))
    return random_orthonormal(size, size, rng)


def random_orthonormal(n, k, rng):
    """Uniformly random n-by-k matrix with orthonormal columns."""
    n, k = _integer(n, "n"), _integer(k, "k")
    if not 1 <= k <= n:
        raise InvalidInput(f"need 1 <= k <= n, got n={n}, k={k}")
    g = rng.standard_normal((n, k))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs
