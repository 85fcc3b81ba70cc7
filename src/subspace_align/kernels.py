"""Dense-matrix primitives shared by the whole package: SVD with an explicit
numerical-rank decision, unitarily invariant norms, orthonormal completion
(from compact-WY Householder factors, in O(n (n-k) k) work with one
n-by-(n-k) buffer), Hadamard matrices or their leading columns (built from a
closed form, in time and memory proportional to the entries returned), and
deterministic random-matrix generators.  The SVD, the singular values, the
norms and the random generators also take a stack of matrices or of
generators, factored in one LAPACK call, and give every array result a
leading stack axis.  Every SVD and eigenvalue call of the package runs
through `_lapack`, which raises NumericalFailure.

All functions are pure; returned arrays are freshly allocated and never
aliased to the inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import (
    DimensionMismatch,
    InvalidBasis,
    InvalidInput,
    NumericalFailure,
    UnsupportedOrder,
)

__all__ = [
    "NORM_KINDS",
    "SvdFactors",
    "svd",
    "singular_values",
    "matrix_norm",
    "check_orthonormal",
    "orthonormal_completion",
    "hadamard",
    "haar_orthogonal",
    "random_orthonormal",
]

#: The three unitarily invariant norms shipped by this package.  They are a
#: closed enumeration: every ``kind`` argument must be one of these strings.
NORM_KINDS = ("spectral", "frobenius", "trace")

#: Unit roundoff of IEEE-754 binary64 (2**-53), used by the default
#: numerical-rank tolerance.
_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0


def _real(b, name):
    """`b` as float64; InvalidInput naming `name` if complex, ragged or not numeric."""
    try:  # bool, integer and float input only: complex, text and object entries fail
        return np.asarray(b).astype(np.float64, copy=False, casting="same_kind")
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{name} must be a real numeric array: {exc}") from None


def _stack(b, name, shape):
    """`b` as float64 orthonormal bases, each of `shape`: one basis, 2-d, or a
    3-d stack of m >= 1 of them for a 3-d array or a list of bases.

    The stacked forms of the package run the same numpy calls on either: the
    linear algebra broadcasts over a leading stack axis, and a single basis
    pays nothing for it."""
    b = _orthonormal(_shaped(b, name, stack=True), name)  # every Gram matrix in one call
    if b.shape[-2:] != shape:
        raise DimensionMismatch(f"basis shapes differ: {shape} vs {b.shape[-2:]}")
    return b


def _shaped(b, name, stack):
    """`b` as a 2-d float64 array (or with `stack`, also a nonempty 3-d stack)
    of at least one row and column; its entries are checked by `_top`."""
    b = _real(b, name)
    if b.ndim != 2 and not (stack and b.ndim == 3):
        raise InvalidInput(f"{name} must be 2-dimensional, got ndim={b.ndim}")
    if b.ndim == 3 and not len(b):
        raise InvalidInput(f"{name} is an empty stack")
    if b.shape[-2] < 1 or b.shape[-1] < 1:
        raise InvalidInput(f"{name} must be at least 1x1, got shape {b.shape[-2:]}")
    return b


def _integer(value, name):
    """`value` as a Python int; InvalidInput unless it is an int or a numpy
    integer (a bool is not), so a float size is never silently truncated.  An
    exact int is tested first: the check against numpy's abstract class is slow."""
    if type(value) is int or (type(value) is not bool and isinstance(value, (int, np.integer))):
        return int(value)
    raise InvalidInput(f"{name} must be an integer, got {value!r}")


def _checked(value, name, zero_ok=False):
    """`value` as a Python float, finite and positive (nonnegative with `zero_ok`)."""
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInput(f"{name} must be a real scalar, got {value!r}") from None
    if (value >= 0.0 if zero_ok else value > 0.0) and value < math.inf:
        return value
    raise InvalidInput(f"{name} must be {'nonnegative' if zero_ok else 'positive'} and finite")


def _pinning(d, n, k):
    """``(d', e)`` of `_scaled` for an n-by-k pinning matrix `d`: the range rule
    of every kernel, so every decision made on `d'` is the same at every scale
    of `d` while ``d * 2**e`` is exact."""
    d, e = _scaled(_shaped(d, "d", stack=False), 2, "d")
    if d.shape != (n, k):
        raise DimensionMismatch(f"d must be {n}x{k}, got {d.shape[0]}x{d.shape[1]}")
    return d, e


#: The range rule of every kernel, and of the pinning matrix `d`.  A member of
#: the input, a matrix or a row of singular values, whose largest |entry| lies
#: in [1 / _SAFE, _SAFE] is used as it stands, so its results keep their bits.
#: Outside that range `_scaled` first scales it by the exact power of two that
#: puts that entry in [1, 2), and `_restore` scales its result back: a
#: Frobenius sum of squares would overflow or lose digits to underflow, and
#: LAPACK's SVD would rescale by a ratio that is not a power of two (beyond
#: about 2**+-458).  Either way the result scales exactly with powers of two.
_SAFE = 2.0**400


def _top(b, name, axis=None):
    """``max|b|``, a float, or along `axis` an array: the one finiteness scan of
    a matrix argument, for the max is NaN or inf exactly when an entry is, and
    then InvalidInput names `name`."""
    top = np.maximum.reduce(np.abs(b), axis=axis, initial=0.0)
    if not math.isfinite(top if axis is None else top.max()):  # a scalar test is cheaper
        raise InvalidInput(f"{name} contains non-finite entries")
    return float(top) if axis is None else top


def _exponent(top):
    """The e of the range rule for a member whose largest |entry| is `top`: 0 in
    [1 / _SAFE, _SAFE] and for zero, else the e with ``top * 2**-e`` in [1, 2)."""
    return 0 if not top or 1.0 / _SAFE <= top <= _SAFE else math.frexp(top)[1] - 1


def _scaled(b, dims, name="b"):
    """``(b', e)``: `b` with each member whose largest |entry| lies outside the
    `_SAFE` range scaled by ``2**-e``, e the exponent that puts that entry in
    [1, 2).  A member is all of `b` if `b` has `dims` axes (2 for a matrix, 1 for
    a spectrum), with e an int, else each slice along its first axis, with e an
    int array.  With no member scaled, e is the int 0 and b' is `b` itself.
    InvalidInput names `name` if an entry is not finite."""
    if b.ndim == dims:
        e = _exponent(_top(b, name))
        return (np.ldexp(b, -e) if e else b), e
    tops = _top(b, name, axis=tuple(range(1, b.ndim)))
    outside = (tops > _SAFE) | ((tops < 1.0 / _SAFE) & (tops > 0.0))
    if not outside.any():
        return b, 0
    e = np.where(outside, np.frexp(tops)[1] - 1, 0)
    return np.ldexp(b, -e.reshape(-1, *[1] * (b.ndim - 1))), e


def _scaled_pair(b, b_tilde):
    """`b` and `b_tilde` as matrices of one shape, each scanned once by `_top`
    under its own name, scaled by the one power of two that the range rule
    takes for the largest |entry| of the two."""
    b = _shaped(b, "b", stack=False)
    top = _top(b, "b")
    bt = _shaped(b_tilde, "b_tilde", stack=False)
    e = _exponent(max(top, _top(bt, "b_tilde")))
    if b.shape != bt.shape:
        raise DimensionMismatch(f"shapes differ: {b.shape} vs {bt.shape}")
    return (np.ldexp(b, -e), np.ldexp(bt, -e)) if e else (b, bt)


def _restore(out, e):
    """`out`, the results of `_scaled` members along its first axis, each times
    ``2**e`` of its member: exact, and silently inf past DBL_MAX."""
    if isinstance(e, int) and not e:
        return out
    with np.errstate(over="ignore"):
        if isinstance(e, int):
            return out * 2.0**e
        return np.ldexp(out, e.reshape(-1, *[1] * (np.ndim(out) - 1)))


def _addressable(*shape):
    """InvalidInput unless numpy can address an 8-byte array of `shape`, whose
    bytes must fit an intp (sys.maxsize), checked before anything is allocated."""
    if math.prod(shape) > sys.maxsize // 8:
        raise InvalidInput(f"a {'x'.join(map(str, shape))} array cannot be addressed")


def _uint64(value, name):
    """`value` as a Python int in [0, 2**64), the range of a Philox key word;
    InvalidInput otherwise, never a truncation or a bare OverflowError."""
    value = _integer(value, name)
    if not 0 <= value < 2**64:
        raise InvalidInput(f"{name} must be an unsigned 64-bit integer, got {value}")
    return value


def _record(cls, **fields):
    """An instance of the frozen dataclass `cls` with exactly `fields`, the
    same record ``cls(**fields)`` builds; every field must be given.  One dict
    update instead of the generated ``__init__``'s ``object.__setattr__`` per
    field, for records built by the hundred whose fields need no check."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


def _check_kind(kind):
    if kind not in NORM_KINDS:
        raise InvalidInput(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")


def _gauge(values, kind):
    """Norm of each diagonal matrix whose nonnegative entries lie along the last
    axis of a float64 `values`, a float for 1-d and an array for 2-d: the max,
    the sum or the root sum of squares of each row, with the bits of the row
    alone, as a reduction along a contiguous last axis sums each row.  A sum
    takes each row by the `_SAFE` rule (a trace past DBL_MAX is inf)."""
    if kind == "spectral":
        out = np.maximum.reduce(values, axis=-1, initial=0.0)
        return float(out) if values.ndim == 1 else out
    values, e = _scaled(values, 1, "values")
    sums = np.add.reduce(values if kind == "trace" else values * values, axis=-1)
    out = sums if kind == "trace" else np.sqrt(sums)
    return _restore(float(out) if values.ndim == 1 else out, e)


#: The most entries that one dot of `_squares` sums.  OpenBLAS splits a longer
#: dot across its threads, so its bits would depend on the thread count.
_DOT_BLOCK = 8192


def _squares(w):
    """The sum of squares of each row of 2-d `w`, by np.vecdot: one dot up to
    `_DOT_BLOCK` entries, else the dots of blocks of `_DOT_BLOCK` entries added
    in order, so the bits are the same at every BLAS thread count."""
    if w.shape[-1] <= _DOT_BLOCK:
        return np.vecdot(w, w)
    sums = 0.0
    for start in range(0, w.shape[-1], _DOT_BLOCK):
        sums = sums + _squares(w[..., start : start + _DOT_BLOCK])
    return sums


def _frobenius(b):
    """np.linalg.norm's own Frobenius formula, without its dispatch, on the entries
    in C order whatever the layout, summed by `_squares`: one matrix as a stack
    of one, its norm a float."""
    b = np.ascontiguousarray(b)
    norms = np.sqrt(_squares(b.reshape(-1, b.shape[-2] * b.shape[-1])))
    return float(norms[0]) if b.ndim == 2 else norms


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``b = u @ diag(sigma) @ v.T`` plus a numerical-rank decision.

    ``u`` (m-by-p) and ``v`` (n-by-p) have orthonormal columns, ``sigma`` holds
    the p = min(m, n) singular values in nonincreasing order.  ``numerical_rank``
    is the number of singular values strictly greater than ``rank_tolerance``.
    For an (s, m, n) stack every field gains a leading axis of length s, the
    rank and tolerance too: row i is what matrix i alone gives.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    numerical_rank: int | np.ndarray
    rank_tolerance: float | np.ndarray


def svd(b, *, rtol=None):
    """Thin singular value decomposition with a numerical-rank decision.

    Parameters
    ----------
    b : (m, n) array_like
        Matrix to factor; entries must be finite.  May be an (s, m, n)
        stack, a 3-d array or a list of matrices, factored in one LAPACK call.
    rtol : float, optional
        Relative rank tolerance, finite and nonnegative; the absolute
        tolerance is ``rtol * sigma_1``.

    Returns
    -------
    SvdFactors
        For a stack, of arrays whose row i is what matrix i alone gives.

    Notes
    -----
    Without `rtol`, the tolerance is ``sigma_1 * (max(m, n) * u)``, with
    ``u`` the binary64 unit roundoff.  A matrix whose largest entry lies
    outside the `_SAFE` range is factored, and its rank decided, scaled by
    the power of two that brings that entry into [1, 2); sigma and the
    tolerance are scaled back, silently inf past DBL_MAX.  The rank counts
    the singular values strictly above the tolerance, so one exactly at the
    tolerance counts as zero.

    No sign convention is imposed on ``u`` and ``v``.  Downstream quantities
    (polar factors, pinned bases) are invariant under paired sign flips, and
    callers must not rely on the signs of individual singular vectors.
    """
    b, e = _scaled(_shaped(b, "b", stack=True), 2)
    rtol = None if rtol is None else _checked(rtol, "rtol", zero_ok=True)
    u, s, vt = _lapack("svd", b, full_matrices=False)
    factor = max(b.shape[-2:]) * _UNIT_ROUNDOFF if rtol is None else rtol
    if b.ndim == 2:  # scalar arithmetic: cheaper than array operations on one matrix
        tol = float(s[0]) * factor
        rank = int(np.count_nonzero(s > tol))
        return SvdFactors(u, _restore(s, e), vt.T, rank, _restore(tol, e))
    tols = s[:, 0] * factor
    ranks = np.add.reduce(s > tols[:, None], axis=-1)
    return SvdFactors(u, _restore(s, e), vt.swapaxes(1, 2), ranks, _restore(tols, e))


def _lapack(name, a, **kwargs):
    """``numpy.linalg.<name>(a, **kwargs)``, an SVD or eigensolver that can fail to
    converge, its LinAlgError raised as NumericalFailure; looked up at each
    call, so a wrapper bound on ``numpy.linalg`` sees every call."""
    try:
        return getattr(np.linalg, name)(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"numpy.linalg.{name} failed: {exc}") from exc


def singular_values(b):
    """Singular values of `b` in nonincreasing order, by the `_SAFE` rule:
    silently inf past DBL_MAX.

    `b` may be an (s, p, q) stack, a 3-d array or a list of matrices: one
    LAPACK call then gives an (s, min(p, q)) array whose row i is what
    matrix i alone gives, each matrix scaled by the rule on its own."""
    b, e = _scaled(_shaped(b, "b", stack=True), 2)
    return _restore(_lapack("svd", b, compute_uv=False), e)


def matrix_norm(b, kind):
    """Spectral, Frobenius, or trace (nuclear) norm of a dense matrix, by the
    `_SAFE` rule, a float; silently inf past DBL_MAX.

    `b` may be an (s, p, q) stack, a 3-d array or a list of matrices: the
    result is then a length-s array whose entry i is what matrix i alone
    gives, each matrix scaled by the rule on its own.  The spectral and trace
    norms of a stack take one LAPACK call, its Frobenius norms one
    ``np.vecdot`` per 8192 entries of a matrix.  A Frobenius norm sums the
    squares of the entries in C (row-major) order whatever the memory layout
    of `b`: a C-ordered, a Fortran-ordered and a strided array of one matrix
    give the same bits.  It sums them in fixed blocks of 8192 entries, so the
    bits do not depend on the number of BLAS threads either."""
    _check_kind(kind)
    b, e = _scaled(_shaped(b, "b", stack=True), 2)
    if kind == "frobenius":
        return _restore(_frobenius(b), e)
    return _restore(_gauge(_lapack("svd", b, compute_uv=False), kind), e)


def check_orthonormal(x, name="x"):
    """Validate that `x` has orthonormal columns and return it as float64.

    The tolerance on ``||x.T x - I||_F`` is ``1e-12 * n`` for an n-row
    input.  Raises InvalidBasis on failure.
    """
    return _orthonormal(_shaped(x, name, stack=False), name)


def _orthonormal(b, name):
    """`b`, n-by-k bases from `_shaped`, one or a stack, once check_orthonormal
    passes them: InvalidInput for a non-finite entry, else the first failing
    basis raises InvalidBasis.  Only entries past 2**200, which can overflow
    the Gram matrices to an inf or NaN defect, enter np.errstate."""
    top = _top(b, name)
    n, k = b.shape[-2:]
    if k > n:
        raise InvalidBasis(f"{name} has more columns ({k}) than rows ({n})")
    if top * top > _SAFE:
        with np.errstate(over="ignore", invalid="ignore"):
            squares = _gram_defects(b, k)
    else:
        squares = _gram_defects(b, k)
    tol = 1e-12 * n
    for defect in map(math.sqrt, squares):
        if not defect <= tol:  # a NaN defect fails too
            raise InvalidBasis(
                f"{name} is not orthonormal: ||x.T x - I||_F = {defect:.3e} > {tol:.3e}"
            )
    return b


def _gram_defects(b, k):
    """``||x.T x - I||_F**2`` of each basis x of `b`, one or a stack, as a list, by
    np.linalg.norm's own Frobenius formula, summed by `_squares`."""
    g = (b.mT @ b).reshape(-1, k * k)
    diagonals = g[:, :: k + 1]
    np.subtract(diagonals, 1.0, out=diagonals)  # g - I without building I
    return _squares(g).tolist()


def orthonormal_completion(x):
    """Orthonormal basis of the orthogonal complement of ``range(x)``.

    For an n-by-k input with orthonormal columns, returns an n-by-(n-k)
    matrix ``xp`` such that ``[x, xp]`` is orthogonal to within ``1e-12 * n``;
    a square `x` (k == n) has the zero complement, and its ``xp`` is n-by-0.
    The completion is not unique; only that residual contract is promised.

    ``xp`` is ``Q[:, k:]`` for the Householder QR of `x`, taken from the
    compact WY form ``Q = I - V T V.T`` (Schreiber and Van Loan, 1989) as
    ``I[:, k:] - (V T) V[k:].T``: O(n (n-k) k) work and one n-by-(n-k)
    buffer, the C-contiguous result; no n-by-n Q.  V is read from the ``h``
    of ``np.linalg.qr(x, mode="raw")``, k-by-n from numpy 1.24 on, whose
    transpose holds V below its diagonal and R on and above it.
    """
    x = check_orthonormal(x)
    n, k = x.shape
    h, tau = np.linalg.qr(x, mode="raw")
    eye = np.eye(k)
    below = eye.cumsum(0) - eye  # the strictly lower triangle
    v = h.T  # a fresh array; R's entries become V's zeros and unit diagonal
    top = v[:k]
    top *= below
    top += eye
    # T = (I + D striu(V.T V))^{-1} D, D = diag(tau): the inverse of
    # D^{-1} + striu(V.T V) without a division, so a tau_i = 0 (column i
    # already +-e_i, H_i = I) gives T the zero column i it must have.  The
    # unit upper triangular matrix inverted needs no pivoting.
    m = h @ v  # V.T V, as h is V.T
    m *= below.T * tau[:, None]
    m += eye
    t = np.linalg.inv(m)
    t *= -tau  # -T
    xp = v @ (t @ h[:, k:])
    xp.ravel()[k * (n - k) :: n - k + 1] += 1.0  # the ones of I[:, k:]
    return xp


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
    _addressable(n, blocks * seed)
    parity = np.bitwise_count(np.arange(blocks)) & 1  # of each v < blocks, and i1 & j1 is one
    signs = np.where(parity, -1, 1)[np.arange(n // seed)[:, None] & np.arange(blocks)]
    # the Kronecker product signs (x) H_s, laid out as (i1, i2, j1, j2)
    h = signs[:, None, :, None] * _SEEDS[seed][None, :, None, :]
    return h.reshape(n, blocks * seed)[:, :c]


class _Key(ISeedSequence):
    """A seed sequence that only hands Philox its key ``[seed, stream_id]``:
    ``Philox(key=...)`` would first read OS entropy into a SeedSequence that
    the key then overrides."""

    def __init__(self, seed, stream_id):
        self.key = seed, stream_id

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Philox key is 2 uint64 words, not {n_words} of {dtype}")
        return np.array(self.key, dtype=np.uint64)


def _stream(seed, stream_id):
    """The generator of Philox stream ``(seed, stream_id)``, both in [0, 2**64)."""
    return np.random.Generator(np.random.Philox(_Key(seed, stream_id)))


def haar_orthogonal(size, rng):
    """Haar-distributed orthogonal matrix of the given size.

    Uses the QR decomposition of a standard Gaussian matrix with the signs of
    the R diagonal fixed, which makes the distribution exactly Haar and the
    draw deterministic for a given generator state.  `rng` may be a list or
    tuple of generators, as for :func:`random_orthonormal`.
    """
    if _integer(size, "size") < 0:
        raise InvalidInput("size must be nonnegative")
    if size == 0:
        return np.zeros((len(rng), 0, 0) if _many(rng) else (0, 0))
    return random_orthonormal(size, size, rng)


def _many(rng):
    """Whether `rng` is a list or tuple of generators; InvalidInput if it is
    empty, or if it or one of its members is not a numpy.random.Generator."""
    many = isinstance(rng, (list, tuple))
    if many and not rng:
        raise InvalidInput("rng is an empty sequence")
    if not all(isinstance(each, np.random.Generator) for each in (rng if many else [rng])):
        raise InvalidInput("rng must be a numpy.random.Generator or a list or tuple of them")
    return many


def random_orthonormal(n, k, rng):
    """Uniformly random n-by-k matrix with orthonormal columns.

    For a list or tuple of generators, an (m, n, k) stack: each generator
    draws its own Gaussian matrix as it would alone, and one stacked QR and
    sign fix follow, so each matrix is bit for bit the one its generator
    alone gives, and a generator listed several times draws in list order.
    """
    n, k = _integer(n, "n"), _integer(k, "k")
    if not 1 <= k <= n:
        raise InvalidInput(f"need 1 <= k <= n, got n={n}, k={k}")
    many = _many(rng)
    rngs = rng if many else [rng]  # one generator draws as a stack of one
    _addressable(len(rngs), n, k)
    g = np.empty((len(rngs), n, k))
    for each, draw in zip(rngs, g):
        each.standard_normal(out=draw)
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    q *= signs[..., None, :]
    return q if many else q[0]
