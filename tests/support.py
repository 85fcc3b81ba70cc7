"""Shared generators and brute-force oracles for the test suite.

The oracles deliberately avoid the production shortcuts: distances are
computed by explicitly building candidate matrices and taking norms, never by
the polar-factor identities they are used to check.
"""

import importlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from subspace_align import (
    NORM_KINDS,
    ExperimentConfig,
    InvalidBasis,
    InvalidInput,
    align,
    canonical_angles,
    check_orthonormal,
    eta,
    evaluate_instance,
    hadamard,
    make_pair,
    matrix_norm,
    optimal_representative,
    sin_theta_norm,
    singular_values,
    svd,
    xi,
)
from subspace_align.experiments import SIN_CROSS_CHECK_TOL, _closed_form, _delta
from subspace_align.kernels import _gauge, _stream, haar_orthogonal, random_orthonormal


def bench_module(name):
    """The module `name` of the benchmark's ``bench/`` directory, imported
    without writing bytecode there."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = writes
        sys.path.remove(bench)


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


def assert_self_consistent(rep):
    """`rep`'s ``eta``, ``xi`` and ``xi_sharpened`` are, bit for bit, what `eta`
    and `xi` give on the report's own fields, the sharpened bound on
    ``sin_theta_truncated``: a coefficient that `evaluate_instance` misstates
    fails here even where ``measured <= xi`` holds."""
    args = (rep.kind, rep.r, rep.k, rep.sigma_r, rep.sigma_r_tilde, rep.d_norm)
    sharpened = xi(*args, rep.sin_theta_truncated) if rep.r < rep.k else None
    expected = (eta(*args), xi(*args, rep.sin_theta), sharpened)
    got = (rep.eta, rep.xi, rep.xi_sharpened)
    assert list(map(_bits, got)) == list(map(_bits, expected)), (rep, expected)


def _bits(value):
    """The bytes of a float, None for None."""
    return None if value is None else np.float64(value).tobytes()


#: Contract B: the degree d of 2**e that each output of a function gains when
#: its scaled input is multiplied by 2**e: the matrix of a kernel, both
#: matrices of a pair, `d` of `align` and `evaluate_instance`, and the three
#: of ``(sigma_r, sigma_r_tilde, d_norm)`` of `eta` and `xi`.
#: Degree 0 is the same bits, degree 1 the bits of the output times 2**e.  An
#: int is the degree of the whole result, every field of it; a dict gives it
#: per field, 0 for a field it does not name; a tuple gives it per element of
#: a tuple result.
SCALING = {
    "svd": {"u": 0, "v": 0, "numerical_rank": 0, "sigma": 1, "rank_tolerance": 1},
    "singular_values": 1,
    "matrix_norm": 1,
    "polar": {"q": 0, "r": 0, "h": 1, "sigma_r": 1},
    "wedin_bound": 0,
    "polar_factor_bound": 0,
    "align": (0, {"sigma_r": 1, "rank_tolerance": 1}),
    "evaluate_instance": {"sigma_r": 1, "sigma_r_tilde": 1, "d_norm": 1, "rank_tolerance": 1},
    "eta": 0,
    "xi": 0,
}

_RECORD = "a record of results or settings that a function of this table fills"
_ERROR = "an exception class: it carries a message, not a number"
_BASES = "takes orthonormal bases, which a scale other than 1 makes invalid"
_SIZES = "takes sizes, seeds and generators, none of which scales"
_TEXT = "matrix text: every float64 round-trips exactly at every scale"

#: Each public callable with no SCALING row, and why it has none.
SCALING_EXEMPT = {
    **dict.fromkeys(
        ("SvdFactors", "CanonicalPolar", "AlignedBasisSet", "WedinBounds", "PolarFactorBounds",
         "BoundReport", "ExperimentConfig", "SweepRow", "AngleSpectrum"),
        _RECORD,
    ),
    **dict.fromkeys(
        ("SubspaceAlignError", "InvalidInput", "DimensionMismatch", "ShapeError", "InvalidBasis",
         "UnsupportedOrder", "RankMismatch", "NotAligned", "NumericalFailure"),
        _ERROR,
    ),
    **dict.fromkeys(
        ("optimal_representative", "check_orthonormal", "orthonormal_completion",
         "canonical_angles", "align_rotation"),
        _BASES,
    ),
    **dict.fromkeys(
        ("hadamard", "haar_orthogonal", "random_orthonormal", "default_delta_grid",
         "pinning_matrix", "make_pair", "run_sweep"),
        _SIZES,
    ),
    **dict.fromkeys(("format_matrix", "parse_matrix", "save_matrix", "load_matrix"), _TEXT),
    "sin_theta_norm": "takes sines, which must lie in [0, 1], so most scales are no input",
    "main": "the command line: text in and out, through the functions of this table",
    "loglog_svg": "draws a plot on log axes, as text",
    "write_loglog_svg": "draws a plot on log axes, as a file",
}


def assert_scales(name, out, ref, e, degrees=None):
    """`out`, `name`'s result on an input scaled by 2**e, is bit for bit what
    SCALING makes of `ref`, its result on the input as it stands."""
    degrees = SCALING[name] if degrees is None else degrees
    if isinstance(degrees, tuple):
        assert len(out) == len(ref) == len(degrees), (name, out, ref)
        for got, want, each in zip(out, ref, degrees):
            assert_scales(name, got, want, e, each)
        return
    fields = getattr(ref, "__dataclass_fields__", None)
    if isinstance(degrees, dict):
        degrees = {field: degrees.get(field, 0) for field in fields}
    else:
        degrees = dict.fromkeys(fields, degrees) if fields else {None: degrees}
    for field, degree in degrees.items():
        got, want = (out, ref) if field is None else (getattr(out, field), getattr(ref, field))
        if want is not None and degree:
            want = np.ldexp(want, e)
        assert bits(got) == bits(want), (name, field, e, got, want)


def bits(value):
    """The shape, dtype and bytes of an array or number, None for None, and a
    str as it is."""
    if value is None or isinstance(value, str):
        return value
    value = np.asarray(value)
    return value.shape, value.dtype.str, value.tobytes()


def row(result, i):
    """Row i of a stacked result: of an array, or of each field of a record,
    such as SvdFactors or AngleSpectrum, whose fields are arrays."""
    fields = getattr(result, "__dataclass_fields__", None)
    if fields is None:
        return result[i]
    return type(result)(**{name: getattr(result, name)[i] for name in fields})


def _on_stack(call, stack):
    """The STACKED entry of a form that takes its stack as one argument."""
    return (lambda: call(stack)), (lambda i: call(stack[i])), ()


def _generators(streams):
    """Fresh generators of Philox streams ``(7, s)``: a list for a list of
    stream ids, one generator for one id."""
    return [_stream(7, s) for s in streams] if isinstance(streams, list) else _stream(7, streams)


def _rank_pair(rng):
    """Two 5-by-3 matrices, of ranks 2 and 3, as one stack."""
    return np.array([rank_matrix(rng, 5, 3, 2), rank_matrix(rng, 5, 3, 3)])


def _family(rng):
    """A 6-by-3 pinned family of rank 1, so of freedom 2."""
    return align(random_orthonormal(6, 3, rng), rank_matrix(rng, 6, 3, 1), rtol=RANK_RTOL)[1]


def _pinned_pair_stack(rng):
    """``(x, two bases near x, d)``, all pinned against a rank-2 d of 7-by-3."""
    d = rank_matrix(rng, 7, 3, 2)
    x_any = random_orthonormal(7, 3, rng)
    near = [np.linalg.qr(x_any + eps * rng.standard_normal((7, 3)))[0] for eps in (1e-6, 1e-3)]
    return align(x_any, d, rtol=RANK_RTOL)[0], [align(y, d, rtol=RANK_RTOL)[0] for y in near], d


def _optimal_representative_example(rng):
    aset = _family(rng)
    stack = np.array([random_orthonormal(6, 3, rng) for _ in range(2)])
    return _on_stack(lambda y: optimal_representative(aset, y), stack)


def _canonical_angles_example(rng):
    x = random_orthonormal(6, 3, rng)
    stack = np.array([random_orthonormal(6, 3, rng) for _ in range(2)])
    return _on_stack(lambda y: canonical_angles(x, y), stack)


def _make_pair_example(rng):
    config = ExperimentConfig(n=12, k=3, seed=int(rng.integers(2**32)))
    deltas = tuple(rng.uniform(0.0, 1.0, 2).tolist())
    return (lambda: make_pair(config, deltas, index=3),
            lambda i: make_pair(config, deltas[i], index=3 + i), (0,))


def _evaluate_example(rng):
    x, stack, d = _pinned_pair_stack(rng)
    return _on_stack(lambda y: evaluate_instance(x, y, d, NORM_KINDS, rtol=RANK_RTOL), stack)


#: The ten stacked public forms and the convention they share: a stack in,
#: one call on all of it, and every array of the result with a leading axis
#: over the stack whose row i is, bit for bit, the result of member i alone.
#: Each entry turns a generator into a 2-member example ``(stacked, alone,
#: shared)``: ``stacked()`` calls the form on the stack, ``alone(i)`` on member
#: i, and `shared` lists the positions of a tuple result that a stack gives
#: once, not per member.  Reports are records, not arrays, so
#: `evaluate_instance` alone returns a list, of what each member gives.
STACKED = {
    "svd": lambda rng: _on_stack(svd, _rank_pair(rng)),
    "singular_values": lambda rng: _on_stack(singular_values, _rank_pair(rng)),
    "matrix_norm": lambda rng: _on_stack(
        lambda b: tuple(matrix_norm(b, kind) for kind in NORM_KINDS), _rank_pair(rng)),
    "AlignedBasisSet.member": lambda rng: _on_stack(_family(rng).member, haar_stack(2, 2, rng)),
    "optimal_representative": _optimal_representative_example,
    "canonical_angles": _canonical_angles_example,
    "evaluate_instance": _evaluate_example,
    "random_orthonormal": lambda rng: _on_stack(
        lambda streams: random_orthonormal(6, 3, _generators(streams)),
        rng.integers(2**63, size=2).tolist()),
    "haar_orthogonal": lambda rng: _on_stack(
        lambda streams: haar_orthogonal(3, _generators(streams)),
        rng.integers(2**63, size=2).tolist()),
    "make_pair": _make_pair_example,
}


def leaves(result):
    """The arrays, numbers, strings and Nones of a result, in order: a tuple
    or a list by its members, a record by its fields."""
    if isinstance(result, (tuple, list)):
        return [leaf for each in result for leaf in leaves(each)]
    fields = getattr(result, "__dataclass_fields__", None)
    if fields is None:
        return [result]
    return [leaf for name in fields for leaf in leaves(getattr(result, name))]


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


def at_the_limit(rng, n, k, r):
    """A rank-r pinning matrix d and two n-by-k bases, k >= 2, a few ulps
    apart at the orthonormality limit, ``1e-12 * n`` on ``||x.T x - I||_F``.

    Both are ``I + t s`` on the k rows where d holds ``q diag(l) q.T`` and zero
    elsewhere, with s symmetric of zero diagonal; the bisection on t leaves
    ``check_orthonormal`` accepting the first and rejecting the second at
    adjacent floats t.  Their products with d, ``(I + t s) q diag(l) q.T``,
    are symmetric PSD to within about 1e-11 ``||d||_2``, so both are pinned.
    """
    rows = rng.permutation(n)[:k]
    q = random_orthonormal(k, k, rng)
    d = np.zeros((n, k))
    d[rows] = (q * np.concatenate([rng.uniform(0.3, 3.0, r), np.zeros(k - r)])) @ q.T
    s = rng.standard_normal((k, k))
    s += s.T
    np.fill_diagonal(s, 0.0)
    s /= np.linalg.norm(s)  # ||x.T x - I||_F is about 2t

    def basis(t):
        x = np.zeros((n, k))
        x[rows] = np.eye(k) + t * s
        return x

    def accepted(t):
        try:
            check_orthonormal(basis(t))
        except InvalidBasis:
            return False
        return True

    lo, hi = 0.0, 1e-12 * n
    assert accepted(lo) and not accepted(hi)
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
    return d, basis(lo), basis(hi)


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


#: Relative tolerance for the factored, exactly cancelling sine computation.
CLOSED_FORM_RTOL = 1e-9


@dataclass(frozen=True)
class ClosedFormCheck:
    """Outcome of :func:`verify_closed_form` for one delta."""

    delta: float
    closed: dict
    computed: dict
    assembled: dict
    max_relative_error: float


def verify_closed_form(config, delta):
    """Regression check of sine accuracy for the Hadamard pair construction.

    Two computations are checked against the closed forms ``(delta,
    sqrt(k) * delta, k * delta)``:

    * the factored path: the 2k Hadamard columns used satisfy ``c.T @ c ==
      n * I`` (checked exactly in integer arithmetic), so the complement
      product of the pair reduces to ``delta * q2`` with no cancellation, and
      its sines keep full *relative* accuracy at any delta and must match to
      relative `CLOSED_FORM_RTOL`;
    * the general-purpose angle routine on the assembled matrices, whose
      accuracy is capped near 1e-15 absolute once the pair is rounded to
      float64, held to an absolute-plus-relative 1e-9 band.

    Raises AssertionError naming the norm kind and delta on any breach.
    """
    n, k = config.n, config.k
    delta = _delta(delta)  # a scalar: a tuple would ask make_pair for many pairs
    x_diamond, x_tilde_diamond, _, q2 = make_pair(config, delta)

    # x_tilde_diamond = (cos * c[:, :k] @ q1 + delta * c[:, k:] @ q2) / sqrt(n).
    # With c.T @ c == n * I, a complement basis of x_diamond can start with
    # c[:, k:] / sqrt(n), and its product with x_tilde_diamond is then
    # [delta * q2; 0] exactly: the sines are the singular values of delta * q2.
    c = hadamard(n, 2 * k)
    if not np.array_equal(c.T @ c, n * np.eye(2 * k, dtype=np.int64)):
        raise AssertionError(f"the first {2 * k} Hadamard columns are not orthogonal")
    sines = np.linalg.svd(delta * q2, compute_uv=False)

    assembled_angles = canonical_angles(x_diamond, x_tilde_diamond)
    closed, computed, assembled = {}, {}, {}
    worst = 0.0
    for kind in config.norms:
        closed[kind] = _closed_form(kind, k, delta)
        computed[kind] = _gauge(sines, kind)
        assembled[kind] = sin_theta_norm(assembled_angles, kind)
        if closed[kind] == 0.0:
            if computed[kind] > 1e-12:
                raise AssertionError(
                    f"{kind} at delta=0: factored value {computed[kind]:.3e} != 0"
                )
        else:
            rel = abs(computed[kind] - closed[kind]) / closed[kind]
            worst = max(worst, rel)
            if rel > CLOSED_FORM_RTOL:
                raise AssertionError(
                    f"{kind} at delta={delta}: factored value {computed[kind]!r} "
                    f"differs from closed form {closed[kind]!r} by relative {rel:.3e}"
                )
        band = SIN_CROSS_CHECK_TOL * (1.0 + closed[kind])
        if abs(assembled[kind] - closed[kind]) > band:
            raise AssertionError(
                f"{kind} at delta={delta}: assembled value {assembled[kind]!r} "
                f"outside the {band:.3e} band around {closed[kind]!r}"
            )
    return ClosedFormCheck(
        delta=delta,
        closed=closed,
        computed=computed,
        assembled=assembled,
        max_relative_error=worst,
    )


def reference_parse_matrix(text):
    """`matrixio.parse_matrix` as it read files before it used `np.loadtxt`:
    ``int()`` and ``float()`` over a Python walk of the lines.  The reader must
    match it value for value and message for message."""
    if not text.isascii():  # int() and float() read other scripts' digits and spaces
        raise InvalidInput(f"not an ASCII matrix file: {_reference_non_ascii_line(text)}")
    rows = cols = None
    tokens = []  # every value token, converted in one pass at the end
    data = []  # (line number, line) of each data row
    for lineno, raw in enumerate(_reference_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if rows is None:
            parts = line.split()
            if len(parts) != 2:
                raise InvalidInput(f"line {lineno}: expected header 'rows cols'")
            try:
                if "_" in line:  # int() would read "1_0" as 10
                    raise ValueError("digit-group underscore")
                rows, cols = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise InvalidInput(f"line {lineno}: bad header {line!r}") from exc
            if rows < 1 or cols < 1:
                raise InvalidInput(f"line {lineno}: dimensions must be positive")
            continue
        parts = line.split()
        if len(parts) != cols:
            _reference_floats(tokens, data)  # a bad number on an earlier row comes first
            raise InvalidInput(
                f"line {lineno}: expected {cols} values, got {len(parts)}"
            )
        tokens += parts
        data.append((lineno, line))
        if len(data) > rows:
            _reference_floats(tokens, data)
            raise InvalidInput(f"line {lineno}: more than {rows} data rows")
    if rows is None:
        raise InvalidInput("no header line found")
    a = np.array(_reference_floats(tokens, data), dtype=np.float64)
    if len(data) != rows:
        raise InvalidInput(f"expected {rows} data rows, got {len(data)}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix contains non-finite entries")
    return a.reshape(rows, cols)


def _reference_lines(text):
    """The lines of `text`, each ended only by LF, CR LF or CR.

    str.splitlines also ends a line at \\v, \\f and \\x1c to \\x1e.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _reference_non_ascii_line(text):
    """``line N: ...`` naming the first line of `text` that is not ASCII."""
    for lineno, raw in enumerate(_reference_lines(text), start=1):
        if not raw.isascii():
            return f"line {lineno}: non-ASCII character in {raw!r}"


def _reference_floats(tokens, data):
    """The tokens as floats; on a bad one, InvalidInput naming its line."""
    try:
        if any("_" in line for _, line in data):  # float() reads "1_0" as 10
            raise ValueError("digit-group underscore")
        return list(map(float, tokens))
    except ValueError:
        for lineno, line in data:
            try:
                if "_" in line:
                    raise ValueError("digit-group underscore")
                list(map(float, line.split()))
            except ValueError as exc:
                raise InvalidInput(f"line {lineno}: bad number in {line!r}") from exc
        raise
