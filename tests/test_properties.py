"""Invariants of the paper's objects, as hypothesis properties.

Every example is drawn from a seed, so the derandomized profile of
``conftest.py`` makes each run draw the same pairs.  The shapes run over
``n == k``, ``2k > n`` and ``k = 1``, and the rank over freedoms 0 to 3.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from subspace_align import (
    NORM_KINDS,
    ExperimentConfig,
    InvalidInput,
    SubspaceAlignError,
    align,
    canonical_angles,
    eta,
    evaluate_instance,
    format_matrix,
    load_matrix,
    make_pair,
    matrix_norm,
    optimal_representative,
    parse_matrix,
    polar,
    polar_factor_bound,
    save_matrix,
    singular_values,
    svd,
    wedin_bound,
    xi,
)
from subspace_align.alignment import _pin
from subspace_align.kernels import haar_orthogonal, random_orthonormal

from support import (
    RANK_RTOL,
    SCALING,
    STACKED,
    assert_scales,
    at_the_limit,
    bits,
    equal_rank_pair,
    leaves,
    rank_matrix,
    row,
    subspace_pair,
)

_SEEDS = st.integers(0, 2**64 - 1)


@st.composite
def _shapes(draw):
    """(n, k, r): n from k to 2k + 3, so n == k and 2k > n both come up, and
    the freedom k - r from 0 to 3."""
    k = draw(st.integers(1, 6))
    r = k - draw(st.integers(0, min(3, k - 1)))
    return draw(st.integers(k, 2 * k + 3)), k, r


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def _pinned_pair(n, k, r, seed):
    """A pair of bases pinned by a rank-r matrix d, with their families;
    an instance whose rank decision is not clear-cut is rejected."""
    rng = _rng(seed)
    d = rank_matrix(rng, n, k, r)
    x_any, y_any = subspace_pair(rng, n, k)
    x, sx = align(x_any, d, rtol=RANK_RTOL)
    y, sy = align(y_any, d, rtol=RANK_RTOL)
    assume(sx.r == r and sy.r == r and min(sx.sigma_r, sy.sigma_r) >= 1e-6)
    return x_any, x, y, d, sx


def _close(a, b, atol):
    return np.allclose(a, b, rtol=0.0, atol=atol)


@given(shape=_shapes(), seed=_SEEDS)
@example(shape=(4, 4, 4), seed=0)
@example(shape=(5, 3, 3), seed=1)
@example(shape=(7, 1, 1), seed=2)
def test_canonical_angles_symmetric_and_basis_free(shape, seed):
    n, k, _ = shape
    rng = _rng(seed)
    x, y = subspace_pair(rng, n, k)
    angles = canonical_angles(x, y)
    swapped = canonical_angles(y, x)
    rotated = canonical_angles(x @ haar_orthogonal(k, rng), y @ haar_orthogonal(k, rng))
    for other in (swapped, rotated):
        assert _close(other.sines, angles.sines, 1e-12)
        assert _close(other.cosines, angles.cosines, 1e-12)


@given(shape=_shapes(), seed=_SEEDS)
@example(shape=(4, 4, 1), seed=0)
@example(shape=(5, 3, 2), seed=1)
@example(shape=(9, 4, 1), seed=2)
def test_align_idempotent_and_base_depends_only_on_subspace(shape, seed):
    n, k, r = shape
    x_any, x, _, d, aset = _pinned_pair(n, k, r, seed)
    again, aset_again = align(x, d, rtol=RANK_RTOL)
    _, aset_rotated = align(x_any @ haar_orthogonal(k, _rng(seed ^ 1)), d, rtol=RANK_RTOL)
    for other in (aset_again, aset_rotated):
        assert other.r == r
        assert _close(other.base, aset.base, 1e-9)
    # re-pinning a pinned basis gives a member of its family (`member` checks
    # that w is orthogonal); the freedom may turn the null-space part, so at
    # full rank alone is `again` the same basis
    w = aset.freedom_left.T @ (again - aset.base) @ aset.freedom_right
    assert _close(aset.member(w), again, 1e-9)
    if r == k:
        assert _close(again, x, 1e-9)


@given(shape=_shapes(), seed=_SEEDS)
@example(shape=(4, 4, 1), seed=0)
@example(shape=(5, 3, 2), seed=1)
@example(shape=(6, 4, 1), seed=2)
@example(shape=(3, 1, 1), seed=3)
@example(shape=(11, 6, 3), seed=4)
def test_measured_within_xi(shape, seed):
    n, k, r = shape
    _, x, y, d, _ = _pinned_pair(n, k, r, seed)
    for report in evaluate_instance(x, y, d, NORM_KINDS, rtol=RANK_RTOL):
        assert report.r == r
        assert report.regime == ("full_rank" if r == k else "rank_deficient")
        assert report.measured <= report.xi + 1e-10


#: Members at the orthonormality limit to add to a stack, each ``False`` (a
#: few ulps inside ``1e-12 * n``) or ``True`` (a few ulps outside it).
_LIMITS = st.lists(st.booleans(), max_size=2)


def _limit_members(rng, limits, n, k, r):
    """The pinning matrix and the bases of :func:`at_the_limit` that `limits`
    asks for; (None, []) at k == 1, whose Gram matrix is a scalar near 1, too
    coarse to place a defect by the ulp."""
    if not limits or k < 2:
        return None, []
    d, inside, outside = at_the_limit(rng, n, k, r)
    return d, [outside if limit else inside for limit in limits]


def _inserted(rng, stack, members):
    """`stack` with each of `members` inserted at a random place."""
    for member in members:
        stack.insert(int(rng.integers(0, len(stack) + 1)), member)
    return stack


def _same_verdicts(stacked, alone, members):
    """The value of the call `stacked`, or None after checking that it raises
    the error of the first member that `alone` rejects."""
    for member in members:
        error = _error(lambda: alone(member))
        if error:
            assert _error(stacked) == error
            return None
    return stacked()


@given(shape=_shapes(), seed=_SEEDS, m=st.integers(1, 4), limits=_LIMITS)
@example(shape=(4, 4, 4), seed=0, m=2, limits=[])
@example(shape=(5, 3, 2), seed=1, m=3, limits=[])
@example(shape=(11, 6, 3), seed=2, m=4, limits=[])
@example(shape=(7, 3, 2), seed=3, m=1, limits=[False])
@example(shape=(6, 4, 4), seed=4, m=2, limits=[False, True])
def test_a_stack_equals_its_bases_one_at_a_time(shape, seed, m, limits):
    # a member at the orthonormality limit gets the verdict of its own call
    n, k, r = shape
    rng = _rng(seed)
    d = rank_matrix(rng, n, k, r)
    limit_d, members = _limit_members(rng, limits, n, k, r)
    d = d if limit_d is None else limit_d
    x_any = random_orthonormal(n, k, rng)
    x, sx = align(x_any, d, rtol=RANK_RTOL)
    stack = []
    for _ in range(m):
        eps = 10.0 ** rng.uniform(-8, -0.2)
        y, sy = align(np.linalg.qr(x_any + eps * rng.standard_normal((n, k)))[0], d, rtol=RANK_RTOL)
        assume(sy.r == r and sy.sigma_r >= 1e-6)
        stack.append(y)
    assume(sx.r == r and sx.sigma_r >= 1e-6)
    stack = _inserted(rng, stack, members)
    reports = _same_verdicts(
        lambda: evaluate_instance(x, np.array(stack), d, NORM_KINDS, rtol=RANK_RTOL),
        lambda y: evaluate_instance(x, y, d, NORM_KINDS, rtol=RANK_RTOL), stack)
    angles = _same_verdicts(lambda: canonical_angles(x, stack),
                            lambda y: canonical_angles(x, y), stack)
    if reports is None:
        return
    assert len(reports) == len(angles.sines) == len(stack)
    for i, (y, stacked) in enumerate(zip(stack, reports)):
        spectrum = row(angles, i)
        assert stacked == evaluate_instance(x, y, d, NORM_KINDS, rtol=RANK_RTOL)
        alone = canonical_angles(x, y)
        assert np.array_equal(spectrum.sines, alone.sines)
        assert np.array_equal(spectrum.cosines, alone.cosines)


#: relative rank tolerance of the near-tolerance cases; the pinned bases
#: round to about u / rtol, which at 1e-6 exceeds the bound check's fixed
#: 1e-10 slack where sin-theta is 0
_RTOL = 1e-3


@st.composite
def _near_tolerance(draw):
    """(n, k, r, factor): a product of rank r >= 2 whose r-th singular value
    sits at `factor` times the rank tolerance ``_RTOL * sigma_1``."""
    k = draw(st.integers(2, 6))
    r = draw(st.integers(2, k))
    n = draw(st.integers(k, 2 * k + 3))
    return n, k, r, draw(st.sampled_from((0.5, 1.0, 2.0)))


@given(case=_near_tolerance(), seed=_SEEDS)
@example(case=(6, 3, 3, 0.5), seed=0)
@example(case=(6, 3, 3, 1.0), seed=0)
@example(case=(6, 3, 3, 2.0), seed=0)
@example(case=(5, 5, 2, 1.0), seed=1)
def test_rank_decision_at_the_tolerance(case, seed):
    n, k, r, factor = case
    rng = _rng(seed)
    x, y_any = subspace_pair(rng, n, k, eps=10.0 ** rng.uniform(-12, -9))
    s = np.zeros(k)
    s[:r] = np.sort(rng.uniform(0.3, 1.0, r))[::-1]
    s[0], s[r - 1] = 1.0, factor * _RTOL
    v = haar_orthogonal(k, rng)
    off = rng.standard_normal((n, k))
    d = x @ ((v * s) @ v.T) + (off - x @ (x.T @ off))  # x.T @ d is PSD: x is pinned
    y, _ = align(y_any, d, rtol=_RTOL)
    try:
        reports = evaluate_instance(x, y, d, NORM_KINDS, rtol=_RTOL)
    except InvalidInput:  # RankMismatch and NotAligned among them: a typed refusal
        return
    sigma = np.linalg.svd(x.T @ d, full_matrices=False)[1]
    for report in reports:
        assert report.r == int(np.count_nonzero(sigma > report.rank_tolerance))
        assert report.regime == ("full_rank" if report.r == k else "rank_deficient")
        assert not (np.isnan(report.eta) or np.isnan(report.xi))
        assert report.measured <= report.xi + 1e-10


_INTEGER_STACKS = st.integers(1, 6).flatmap(lambda m: st.integers(1, 6).flatmap(lambda n: st.lists(
    hnp.arrays(np.float64, (m, n), elements=st.integers(-10**6, 10**6)), min_size=1, max_size=4)))
_ONES = np.ones((2, 2))


@given(bs=_INTEGER_STACKS, es=st.lists(st.integers(-1000, 1000), min_size=4, max_size=4))
# largest entry 2**400 < sigma_1 = 2**401: in range by the largest entry
@example(bs=[_ONES], es=[400, 0, 0, 0])
# largest entry 2**-401 < 2**-400 = sigma_1: out of range by the largest entry
@example(bs=[_ONES], es=[-401, 0, 0, 0])
# a stack mixing both windows with members in range
@example(bs=[_ONES, _ONES, np.array([[1.0, 2.0], [3.0, 4.0]]), _ONES], es=[400, -401, 0, -3])
@example(bs=[np.array([[3.0, 0.0, 1.0], [0.0, 0.0, 0.0]])] * 2, es=[1000, -1000, 1000, -1000])
def test_kernels_scale_with_powers_of_two_as_the_table_says(bs, es):
    # integer entries up to 2**20, so every b * 2**e is exact; a stack scales
    # each member by its own 2**e, a pair both matrices by one 2**e
    scaled = [np.ldexp(b, e) for b, e in zip(bs, es)]
    kernels = {
        "svd": [svd, lambda b: svd(b, rtol=0.5)],
        "singular_values": [singular_values],
        "matrix_norm": [lambda b, kind=kind: matrix_norm(b, kind) for kind in NORM_KINDS],
        "polar": [lambda b: polar(b if len(b) >= len(b.T) else b.T)],
    }
    for name, calls in kernels.items():
        for call in calls:
            for b, c, e in zip(bs, scaled, es):
                assert_scales(name, call(c), call(b), e)
            if name != "polar":  # each member of a stack as alone
                stacked = call(np.array(scaled))
                for i, (b, e) in enumerate(zip(bs, es)):
                    assert_scales(name, row(stacked, i), call(b), e)
    d, *rest = [b if len(b) >= len(b.T) else b.T for b in bs]
    bases = (np.linalg.qr(b)[0] for b in (d, rest[-1] if rest else d))
    _d_scales_as_the_table_says(d, *bases, es[1])
    _coefficients_scale_as_the_table_says(bs, es[2])
    pair, e = (bs[0], bs[-1]), es[0]
    r = svd(bs[0]).numerical_rank
    assume(r > 0 and svd(bs[-1]).numerical_rank == r)
    _pair_scales_as_the_table_says(pair, r, e)
    others = {"wedin_bound", "polar_factor_bound", "align", "evaluate_instance", "eta", "xi"}
    assert set(kernels) | others == set(SCALING)


@given(shape=_shapes(), seed=_SEEDS, e=st.integers(-1050, 1020))
@example(shape=(20, 5, 4), seed=0, e=-1043)
@example(shape=(6, 3, 3), seed=1, e=1020)
@example(shape=(9, 4, 1), seed=2, e=-1050)
def test_scaling_d_by_a_power_of_two_is_exact(shape, seed, e):
    n, k, r = shape
    rng = _rng(seed)
    # multiples of 2**-11 in [-1, 1], at most 12 significant bits, so d * 2**e
    # is exact down to e = -1063; the zero columns make the rank r
    d = rng.integers(-2048, 2049, (n, k)) / 2048.0
    d[:, r:] = 0.0
    _d_scales_as_the_table_says(d, *subspace_pair(rng, n, k), e, rtol=RANK_RTOL)


@st.composite
def _tall_ranks(draw):
    """(m, n, r): a tall or square m-by-n shape and a rank r in [1, n]."""
    n = draw(st.integers(1, 6))
    return draw(st.integers(n, n + 4)), n, draw(st.integers(1, n))


@given(shape=_tall_ranks(), seed=_SEEDS, e=st.integers(-1000, 1021))
@example(shape=(100, 100, 100), seed=0, e=1020)
@example(shape=(6, 4, 2), seed=1, e=1021)
@example(shape=(7, 3, 3), seed=2, e=-1000)
def test_scaling_a_pair_by_a_power_of_two_keeps_ranks_and_bounds(shape, seed, e):
    m, n, r = shape
    pair = equal_rank_pair(_rng(seed), m, n, r)
    scaled = [np.ldexp(b, e) for b in pair]
    tiny = np.finfo(np.float64).tiny
    for b, c in zip(pair, scaled):
        sigma1 = float(np.linalg.svd(b, compute_uv=False)[0]) * 2.0**e
        assume(np.isfinite(sigma1) and np.isfinite(c).all() and np.abs(c[c != 0]).min() >= tiny)
    stacked = svd(np.array(scaled))
    for i, (b, c) in enumerate(zip(pair, scaled)):
        assert_scales("svd", svd(c), svd(b), e)
        assert_scales("svd", row(stacked, i), svd(b), e)
        p = polar(c)
        assert_scales("polar", p, polar(b), e)
        assert p.r == svd(b).numerical_rank
        assert np.isfinite(p.h).all()
    _pair_scales_as_the_table_says(pair, r, e)


def _pair_scales_as_the_table_says(pair, r, e):
    """`wedin_bound` at rank r and, for a tall or square pair,
    `polar_factor_bound`, with both matrices scaled by one 2**e."""
    scaled = [np.ldexp(b, e) for b in pair]
    for kind in NORM_KINDS:
        ref = wedin_bound(*pair, r, kind)
        assert_scales("wedin_bound", wedin_bound(*scaled, r, kind), ref, e)
        if len(pair[0]) >= len(pair[0].T):
            ref = polar_factor_bound(*pair, kind)
            assert_scales("polar_factor_bound", polar_factor_bound(*scaled, kind), ref, e)


def _d_scales_as_the_table_says(d, x_any, y_any, e, rtol=None):
    """`align` and `evaluate_instance` in `d`, at `rtol` and 0.5, with the pinned
    bases of `x_any` and `y_any`: a refusal is refused again, with the same
    class, at every scale."""
    scaled = np.ldexp(d, e)
    for each in (rtol, 0.5):
        for basis in (x_any, y_any):
            assert_scales("align", align(basis, scaled, rtol=each), align(basis, d, rtol=each), e)
    x, y = align(x_any, d, rtol=rtol)[0], align(y_any, d, rtol=rtol)[0]
    for x_tilde in (y, [y, x]):
        try:
            ref = evaluate_instance(x, x_tilde, d, NORM_KINDS, rtol=rtol)
        except SubspaceAlignError as exc:
            with pytest.raises(type(exc)):
                evaluate_instance(x, x_tilde, scaled, NORM_KINDS, rtol=rtol)
            continue
        out = evaluate_instance(x, x_tilde, scaled, NORM_KINDS, rtol=rtol)
        for got, want in zip(out, ref) if isinstance(ref, list) else [(out, ref)]:
            for rep_got, rep_want in zip(got, want, strict=True):
                assert_scales("evaluate_instance", rep_got, rep_want, e)


def _coefficients_scale_as_the_table_says(bs, e):
    """`eta` and `xi` in ``(sigma_r, sigma_r_tilde, d_norm)``,
    three positive integers of `bs` that stay normal at every scale."""
    entries = np.concatenate([b.ravel() for b in bs])
    values = [1.0 + abs(float(entries[i])) for i in (0, -1, len(entries) // 2)]
    scaled = [math.ldexp(v, e) for v in values]
    for kind in NORM_KINDS:
        for r, k in ((1, 1), (1, 2), (2, 3)):
            for name, call in (("eta", eta), ("xi", xi)):
                tail = () if name == "eta" else (0.25,)
                out, ref = call(kind, r, k, *scaled, *tail), call(kind, r, k, *values, *tail)
                assert_scales(name, out, ref, e)


_FLOAT_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308)
_TEXT_MATRICES = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
    elements=st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(_FLOAT_EDGES),
)
_EXTRA_LINES = st.lists(
    st.sampled_from(["", "  ", "\t\f", "# a comment", " # x_1, 1_0 \v"]), max_size=2
)
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@given(a=_TEXT_MATRICES, data=st.data())
def test_matrix_text_round_trips_under_any_line_end(a, data):
    lines = []
    for line in format_matrix(a).split("\n")[:-1]:
        lines += data.draw(_EXTRA_LINES) + [line]
    lines += data.draw(_EXTRA_LINES)
    text = "".join(line + data.draw(_LINE_ENDS) for line in lines)
    with tempfile.TemporaryDirectory() as tmp:
        saved, rewritten = Path(tmp) / "saved.txt", Path(tmp) / "rewritten.txt"
        save_matrix(saved, a)
        rewritten.write_bytes(text.encode("ascii"))
        for b in (parse_matrix(text), load_matrix(saved), load_matrix(rewritten)):
            assert b.shape == a.shape and b.tobytes() == a.tobytes()


def _stacked_rank_matrices(rng, m, p, q):
    """m matrices of one shape, each with a rank of its own in [0, min(p, q)]."""
    return [rank_matrix(rng, p, q, r) if r else np.zeros((p, q))
            for r in rng.integers(0, min(p, q) + 1, m)]


@given(seed=_SEEDS, m=st.integers(1, 5), p=st.integers(1, 7), q=st.integers(1, 7),
       rtol=st.sampled_from([None, RANK_RTOL, 0.5]))
@example(seed=0, m=1, p=3, q=2, rtol=None)
@example(seed=1, m=4, p=6, q=4, rtol=RANK_RTOL)
def test_a_stacked_svd_equals_each_matrix_alone(seed, m, p, q, rtol):
    bs = _stacked_rank_matrices(_rng(seed), m, p, q)
    for stack in (bs, np.array(bs)):
        factors = svd(stack, rtol=rtol)
        assert len(factors.numerical_rank) == m
        for i, b in enumerate(bs):
            f, alone = row(factors, i), svd(b, rtol=rtol)
            for name in ("u", "sigma", "v"):
                assert getattr(f, name).tobytes() == getattr(alone, name).tobytes(), name
            assert f.numerical_rank == alone.numerical_rank
            assert f.rank_tolerance == alone.rank_tolerance


@given(seed=_SEEDS, m=st.integers(1, 5), p=st.integers(1, 7), q=st.integers(1, 7),
       exponents=st.lists(st.sampled_from([0, 0, -600, 600]), min_size=5, max_size=5))
@example(seed=0, m=1, p=3, q=2, exponents=[0] * 5)
@example(seed=0, m=1, p=4, q=3, exponents=[600] * 5)
@example(seed=1, m=4, p=6, q=4, exponents=[600, 0, -600, 0, 0])
def test_stacked_singular_values_and_norms_equal_each_matrix_alone(seed, m, p, q, exponents):
    # zero matrices come up among the ranks; a member scaled by 2**+-600 lies
    # outside the _SAFE range and is rescaled on its own
    bs = [np.ldexp(b, e) for b, e in zip(_stacked_rank_matrices(_rng(seed), m, p, q), exponents)]
    alone = {kind: np.array([matrix_norm(b, kind) for b in bs]) for kind in NORM_KINDS}
    # every memory layout gives the bits of the C-ordered matrix, alone or
    # stacked: a member of a Fortran-ordered stack is neither C- nor
    # F-contiguous, and a column slice of a wider array is strided
    wide = np.repeat(np.array(bs), 2, axis=-1)
    for stack in (bs, np.array(bs), np.asfortranarray(bs), [np.asfortranarray(b) for b in bs],
                  wide[..., ::2], [each[:, ::2] for each in wide]):
        values = singular_values(stack)
        assert values.shape == (m, min(p, q))
        assert values.tobytes() == np.array([singular_values(b) for b in bs]).tobytes()
        for kind in NORM_KINDS:
            norms = matrix_norm(stack, kind)
            assert norms.shape == (m,)
            assert norms.tobytes() == alone[kind].tobytes(), kind
            each = np.array([matrix_norm(b, kind) for b in stack])
            assert each.tobytes() == alone[kind].tobytes(), kind


@given(shape=_shapes(), seed=_SEEDS, m=st.integers(1, 4))
@example(shape=(4, 4, 4), seed=0, m=1)
@example(shape=(7, 4, 2), seed=1, m=3)
def test_a_stacked_optimal_representative_equals_each_basis_alone(shape, seed, m):
    n, k, r = shape
    rng = _rng(seed)
    _, aset = align(random_orthonormal(n, k, rng), rank_matrix(rng, n, k, r), rtol=RANK_RTOL)
    bases = [random_orthonormal(n, k, rng) for _ in range(m)]
    f = aset.freedom
    for stack in (bases, np.array(bases)):
        y_opt, w_opt = optimal_representative(aset, stack)
        assert y_opt.shape == (m, n, k) and w_opt.shape == (m, f, f)
        for x_tilde, y, w in zip(bases, y_opt, w_opt):
            y_alone, w_alone = optimal_representative(aset, x_tilde)
            assert y.tobytes() == y_alone.tobytes() and w.tobytes() == w_alone.tobytes()


@given(seed=_SEEDS, m=st.integers(1, 6), n=st.integers(1, 9), k=st.integers(1, 9))
@example(seed=0, m=1, n=3, k=3)
def test_stacked_draws_equal_each_generator_alone(seed, m, n, k):
    assume(k <= n)
    def streams():
        return [_rng(np.array([seed, i], dtype=np.uint64)) for i in range(m)]

    stacked, alone = streams(), streams()
    for draw in (lambda g: random_orthonormal(n, k, g), lambda g: haar_orthogonal(k, g)):
        many = draw(stacked)
        assert many.shape[0] == m
        for g, each in zip(alone, many):
            assert each.tobytes() == draw(g).tobytes()
    for a, b in zip(stacked, alone):  # and each generator is left where its own draws leave it
        assert repr(a.bit_generator.state) == repr(b.bit_generator.state)


def test_a_stacked_pin_scales_products_below_the_range_as_align_does():
    # d in range as it stands, and products near 2**-470, below 2**-459 where
    # LAPACK would rescale by a ratio that is not a power of two
    rng = _rng(3)
    d = np.zeros((8, 2))
    d[:4] = np.ldexp(rng.standard_normal((4, 2)), -400)
    bases = []
    for _ in range(16):
        x = np.zeros((8, 2))
        x[4:] = random_orthonormal(4, 2, rng)
        x[:4] = np.ldexp(rng.standard_normal((4, 2)), -70)
        bases.append(np.linalg.qr(x)[0])
    for x, pinned in zip(bases, _pin(np.array(bases), d)):
        assert pinned.tobytes() == align(x, d)[0].tobytes()


@given(shape=_shapes(), seed=_SEEDS, m=st.integers(1, 5), rtol=st.sampled_from([None, RANK_RTOL]),
       limits=_LIMITS)
@example(shape=(4, 4, 4), seed=0, m=1, rtol=None, limits=[])
@example(shape=(7, 3, 2), seed=1, m=4, rtol=RANK_RTOL, limits=[])
@example(shape=(5, 2, 1), seed=2, m=2, rtol=RANK_RTOL, limits=[False])
@example(shape=(9, 5, 3), seed=3, m=1, rtol=None, limits=[True, False])
def test_a_stacked_align_equals_each_basis_alone(shape, seed, m, rtol, limits):
    n, k, r = shape
    rng = _rng(seed)
    d = rank_matrix(rng, n, k, r)
    _, members = _limit_members(rng, limits, n, k, r)
    bases = []
    for low in rng.integers(0, 2, m):
        x_any = random_orthonormal(n, k, rng)
        if low and n > r:  # a column orthogonal to range(d) lowers this basis's rank
            v = np.linalg.svd(d)[0][:, -1:]
            x_any = np.linalg.qr(np.hstack([v, x_any[:, 1:] - v @ (v.T @ x_any[:, 1:])]))[0]
        bases.append(x_any)
    bases = _inserted(rng, bases, members)
    # the sweep's pin of the stack: each basis that align accepts gets align's
    # bits, at any rtol, for the pinned basis does not depend on the rank
    pinned = _pin(np.array(bases), d)
    assert pinned.shape == (len(bases), n, k)
    for x_any, x in zip(bases, pinned):
        if _error(lambda: align(x_any, d, rtol=rtol)) is None:
            assert x.tobytes() == align(x_any, d, rtol=rtol)[0].tobytes()


_HADAMARD_SIZES = st.sampled_from([(2, 1), (4, 2), (8, 3), (12, 5), (20, 4), (32, 3)])


@given(size=_HADAMARD_SIZES, seed=_SEEDS, index=st.integers(0, 50),
       deltas=st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, 1e-12]),
                       min_size=1, max_size=5))
@example(size=(4, 2), seed=0, index=0, deltas=[0.5])
def test_a_stacked_make_pair_equals_each_delta_alone(size, seed, index, deltas):
    n, k = size
    config = ExperimentConfig(n=n, k=k, seed=seed)
    x_diamond, *stacks = make_pair(config, tuple(deltas), index=index)
    assert [len(stack) for stack in stacks] == [len(deltas)] * 3
    for i, delta in enumerate(deltas):
        pair = (x_diamond, *(stack[i] for stack in stacks))
        for stacked, alone in zip(pair, make_pair(config, delta, index=index + i)):
            assert stacked.tobytes() == alone.tobytes()


@given(seed=_SEEDS)
@example(seed=0)
def test_each_stacked_form_returns_arrays_whose_row_i_is_member_i_alone(seed):
    for name, build in STACKED.items():
        stacked, alone, shared = build(_rng(seed))
        error = next(filter(None, (_error(lambda i=i: alone(i)) for i in range(2))), None)
        if error:  # the stack raises the error of its first failing member
            assert _error(stacked) == error, name
            continue
        result, members = stacked(), [alone(i) for i in range(2)]
        assert isinstance(result, list) == (name == "evaluate_instance"), name
        if isinstance(result, list):
            assert [list(map(bits, leaves(each))) for each in result] == [
                list(map(bits, leaves(member))) for member in members], name
            continue
        tuples = isinstance(result, tuple)
        for j, part in enumerate(result if tuples else (result,)):
            for i, member in enumerate(members):
                want = member[j] if tuples else member
                if j in shared:  # given once for the whole stack
                    assert bits(part) == bits(want), (name, j)
                    continue
                for leaf, value in zip(leaves(part), leaves(want), strict=True):
                    assert isinstance(leaf, np.ndarray) and len(leaf) == 2, (name, j)
                    assert bits(leaf[i]) == bits(value), (name, j, i)


def _error(call):
    """The class and message of what `call` raises, or None."""
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@given(seed=_SEEDS, m=st.integers(1, 4), data=st.data())
def test_a_stack_with_one_bad_member_raises_its_error(seed, m, data):
    bad = data.draw(st.integers(0, m - 1))
    rng = _rng(seed)
    matrices = [rank_matrix(rng, 4, 3, 2) for _ in range(m)]
    matrices[bad] = np.where(matrices[bad] == matrices[bad].max(), np.nan, matrices[bad])
    bases = [random_orthonormal(6, 3, rng) for _ in range(m)]
    bases[bad] = 1.5 * bases[bad]
    deltas = [0.25] * m
    deltas[bad] = data.draw(st.sampled_from([1.5, -0.1, "abc"]))
    config = ExperimentConfig(n=8, k=3, seed=seed)
    _, aset = align(random_orthonormal(6, 3, rng), rank_matrix(rng, 6, 3, 1))
    cases = [
        (lambda: svd(matrices), lambda: svd(matrices[bad])),
        (lambda: singular_values(matrices), lambda: singular_values(matrices[bad])),
        *[(lambda kind=kind: matrix_norm(matrices, kind),
           lambda kind=kind: matrix_norm(matrices[bad], kind)) for kind in NORM_KINDS],
        (lambda: optimal_representative(aset, bases),
         lambda: optimal_representative(aset, bases[bad])),
        (lambda: make_pair(config, tuple(deltas)), lambda: make_pair(config, deltas[bad], index=bad)),
    ]
    for stacked, alone in cases:
        expected = _error(alone)
        assert expected is not None
        assert _error(stacked) == expected
