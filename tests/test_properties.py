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
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from subspace_align import (
    NORM_KINDS,
    InvalidInput,
    SubspaceAlignError,
    align,
    canonical_angles,
    eta,
    evaluate_instance,
    format_matrix,
    load_matrix,
    matrix_norm,
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
    CONTRACTS,
    LIMITS,
    RANK_RTOL,
    SEEDS,
    Replay,
    assert_scales,
    bits,
    equal_rank_pair,
    error_of,
    inserted,
    leaves,
    limit_members,
    philox,
    rank_matrix,
    row,
    shapes,
    subspace_pair,
)


def _pinned_pair(n, k, r, seed):
    """A pair of bases pinned by a rank-r matrix d, with their families;
    an instance whose rank decision is not clear-cut is rejected."""
    rng = philox(seed)
    d = rank_matrix(rng, n, k, r)
    x_any, y_any = subspace_pair(rng, n, k)
    x, sx = align(x_any, d, rtol=RANK_RTOL)
    y, sy = align(y_any, d, rtol=RANK_RTOL)
    assume(sx.r == r and sy.r == r and min(sx.sigma_r, sy.sigma_r) >= 1e-6)
    return x_any, x, y, d, sx


def _close(a, b, atol):
    return np.allclose(a, b, rtol=0.0, atol=atol)


@given(shape=shapes(), seed=SEEDS)
@example(shape=(4, 4, 4), seed=0)
@example(shape=(5, 3, 3), seed=1)
@example(shape=(7, 1, 1), seed=2)
def test_canonical_angles_symmetric_and_basis_free(shape, seed):
    n, k, _ = shape
    rng = philox(seed)
    x, y = subspace_pair(rng, n, k)
    angles = canonical_angles(x, y)
    swapped = canonical_angles(y, x)
    rotated = canonical_angles(x @ haar_orthogonal(k, rng), y @ haar_orthogonal(k, rng))
    for other in (swapped, rotated):
        assert _close(other.sines, angles.sines, 1e-12)
        assert _close(other.cosines, angles.cosines, 1e-12)


@given(shape=shapes(), seed=SEEDS)
@example(shape=(4, 4, 1), seed=0)
@example(shape=(5, 3, 2), seed=1)
@example(shape=(9, 4, 1), seed=2)
def test_align_idempotent_and_base_depends_only_on_subspace(shape, seed):
    n, k, r = shape
    x_any, x, _, d, aset = _pinned_pair(n, k, r, seed)
    again, aset_again = align(x, d, rtol=RANK_RTOL)
    _, aset_rotated = align(x_any @ haar_orthogonal(k, philox(seed ^ 1)), d, rtol=RANK_RTOL)
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


@given(shape=shapes(), seed=SEEDS)
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


@given(case=_near_tolerance(), seed=SEEDS)
@example(case=(6, 3, 3, 0.5), seed=0)
@example(case=(6, 3, 3, 1.0), seed=0)
@example(case=(6, 3, 3, 2.0), seed=0)
@example(case=(5, 5, 2, 1.0), seed=1)
def test_rank_decision_at_the_tolerance(case, seed):
    n, k, r, factor = case
    rng = philox(seed)
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
    checked = set()
    for name, calls in kernels.items():
        for call in calls:
            for b, c, e in zip(bs, scaled, es):
                checked.add(assert_scales(name, call(c), call(b), e))
            if name != "polar":  # each member of a stack as alone
                stacked = call(np.array(scaled))
                for i, (b, e) in enumerate(zip(bs, es)):
                    assert_scales(name, row(stacked, i), call(b), e)
    d, *rest = [b if len(b) >= len(b.T) else b.T for b in bs]
    bases = (np.linalg.qr(b)[0] for b in (d, rest[-1] if rest else d))
    checked |= _d_scales_as_the_table_says(d, *bases, es[1])
    checked |= _coefficients_scale_as_the_table_says(bs, es[2])
    pair, e = (bs[0], bs[-1]), es[0]
    r = svd(bs[0]).numerical_rank
    assume(r > 0 and svd(bs[-1]).numerical_rank == r)
    checked |= _pair_scales_as_the_table_says(pair, r, e)
    # every scaling law of CONTRACTS is checked here
    assert checked == {name for name, row in CONTRACTS.items() if not isinstance(row.scaling, str)}


@given(shape=shapes(), seed=SEEDS, e=st.integers(-1050, 1020))
@example(shape=(20, 5, 4), seed=0, e=-1043)
@example(shape=(6, 3, 3), seed=1, e=1020)
@example(shape=(9, 4, 1), seed=2, e=-1050)
def test_scaling_d_by_a_power_of_two_is_exact(shape, seed, e):
    n, k, r = shape
    rng = philox(seed)
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


@given(shape=_tall_ranks(), seed=SEEDS, e=st.integers(-1000, 1021))
@example(shape=(100, 100, 100), seed=0, e=1020)
@example(shape=(6, 4, 2), seed=1, e=1021)
@example(shape=(7, 3, 3), seed=2, e=-1000)
def test_scaling_a_pair_by_a_power_of_two_keeps_ranks_and_bounds(shape, seed, e):
    m, n, r = shape
    pair = equal_rank_pair(philox(seed), m, n, r)
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
    """`wedin_bound` at rank r and `polar_factor_bound`, of a wide pair on its
    transposes, with both matrices scaled by one 2**e; the names checked."""
    tall = pair if len(pair[0]) >= len(pair[0].T) else [b.T for b in pair]
    checked = set()
    for kind in NORM_KINDS:
        ref = wedin_bound(*pair, r, kind)
        out = wedin_bound(*[np.ldexp(b, e) for b in pair], r, kind)
        checked.add(assert_scales("wedin_bound", out, ref, e))
        ref = polar_factor_bound(*tall, kind)
        out = polar_factor_bound(*[np.ldexp(b, e) for b in tall], kind)
        checked.add(assert_scales("polar_factor_bound", out, ref, e))
    return checked


def _d_scales_as_the_table_says(d, x_any, y_any, e, rtol=None):
    """`align` and `evaluate_instance` in `d`, at `rtol` and 0.5, with the pinned
    bases of `x_any` and `y_any`: a refusal is refused again, with the same
    class, at every scale; the names checked."""
    scaled = np.ldexp(d, e)
    checked = set()
    for each in (rtol, 0.5):
        for basis in (x_any, y_any):
            out, ref = align(basis, scaled, rtol=each), align(basis, d, rtol=each)
            checked.add(assert_scales("align", out, ref, e))
    x, y = align(x_any, d, rtol=rtol)[0], align(y_any, d, rtol=rtol)[0]
    for x_tilde in (y, [y, x]):
        try:
            ref = evaluate_instance(x, x_tilde, d, NORM_KINDS, rtol=rtol)
        except SubspaceAlignError as exc:
            with pytest.raises(type(exc)):
                evaluate_instance(x, x_tilde, scaled, NORM_KINDS, rtol=rtol)
            checked.add("evaluate_instance")
            continue
        out = evaluate_instance(x, x_tilde, scaled, NORM_KINDS, rtol=rtol)
        for got, want in zip(out, ref) if isinstance(ref, list) else [(out, ref)]:
            for rep_got, rep_want in zip(got, want, strict=True):
                checked.add(assert_scales("evaluate_instance", rep_got, rep_want, e))
    return checked


def _coefficients_scale_as_the_table_says(bs, e):
    """`eta` and `xi` in ``(sigma_r, sigma_r_tilde, d_norm)``,
    three positive integers of `bs` that stay normal at every scale; the
    names checked."""
    entries = np.concatenate([b.ravel() for b in bs])
    values = [1.0 + abs(float(entries[i])) for i in (0, -1, len(entries) // 2)]
    scaled = [math.ldexp(v, e) for v in values]
    checked = set()
    for kind in NORM_KINDS:
        for r, k in ((1, 1), (1, 2), (2, 3)):
            for name, call in (("eta", eta), ("xi", xi)):
                tail = () if name == "eta" else (0.25,)
                out, ref = call(kind, r, k, *scaled, *tail), call(kind, r, k, *values, *tail)
                checked.add(assert_scales(name, out, ref, e))
    return checked


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


def test_a_stacked_pin_scales_products_below_the_range_as_align_does():
    # d in range as it stands, and products near 2**-470, below 2**-459 where
    # LAPACK would rescale by a ratio that is not a power of two
    rng = philox(3)
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


@given(shape=shapes(), seed=SEEDS, m=st.integers(1, 5), rtol=st.sampled_from([None, RANK_RTOL]),
       limits=LIMITS)
@example(shape=(4, 4, 4), seed=0, m=1, rtol=None, limits=[])
@example(shape=(7, 3, 2), seed=1, m=4, rtol=RANK_RTOL, limits=[])
@example(shape=(5, 2, 1), seed=2, m=2, rtol=RANK_RTOL, limits=[False])
@example(shape=(9, 5, 3), seed=3, m=1, rtol=None, limits=[True, False])
def test_a_stacked_align_equals_each_basis_alone(shape, seed, m, rtol, limits):
    n, k, r = shape
    rng = philox(seed)
    d = rank_matrix(rng, n, k, r)
    _, members = limit_members(rng, limits, n, k, r)
    bases = []
    for low in rng.integers(0, 2, m):
        x_any = random_orthonormal(n, k, rng)
        if low and n > r:  # a column orthogonal to range(d) lowers this basis's rank
            v = np.linalg.svd(d)[0][:, -1:]
            x_any = np.linalg.qr(np.hstack([v, x_any[:, 1:] - v @ (v.T @ x_any[:, 1:])]))[0]
        bases.append(x_any)
    bases = inserted(rng, bases, members)
    # the sweep's pin of the stack: each basis that align accepts gets align's
    # bits, at any rtol, for the pinned basis does not depend on the rank
    pinned = _pin(np.array(bases), d)
    assert pinned.shape == (len(bases), n, k)
    for x_any, x in zip(bases, pinned):
        if error_of(lambda: align(x_any, d, rtol=rtol)) is None:
            assert x.tobytes() == align(x_any, d, rtol=rtol)[0].tobytes()


@pytest.mark.parametrize("name", [name for name, row in CONTRACTS.items()
                                  if row.stacked and name not in ("svd", "make_pair")])
def test_each_stacked_form_row_i_is_member_i_alone(name):
    # the convention of every stacked public form: a stack in, one call on all
    # of it, and every array of the result with a leading axis over the stack
    # whose row i is, bit for bit, what member i gives alone; a stack with a
    # failing member raises the error of its first failing member.  Here on a
    # row's draws, svd's and make_pair's under their own names below; the
    # rows' explicit examples run in the two tests after those
    @given(data=st.data())
    def holds(data):
        _assert_stacked(name, CONTRACTS[name].stacked[0](data))

    holds()


def test_a_stacked_svd_equals_each_matrix_alone():
    test_each_stacked_form_row_i_is_member_i_alone("svd")


def test_a_stacked_make_pair_equals_each_delta_alone():
    test_each_stacked_form_row_i_is_member_i_alone("make_pair")


def test_each_stacked_form_returns_arrays_whose_row_i_is_member_i_alone():
    _replay([(name, each) for name, row in CONTRACTS.items() if row.stacked
             for each in row.stacked[1]])


def test_a_stack_with_one_bad_member_raises_its_error():
    # each explicit example that draws a member to spoil, with each member
    # spoiled in turn, by each bad delta, and with each norm kind first
    spoils = {"make_pair": [{"bad delta": value} for value in (1.5, -0.1, "abc")],
              "matrix_norm": [{"kinds": NORM_KINDS[i:] + NORM_KINDS[:i]} for i in range(3)]}
    _replay([(name, dict(each, bad=bad, **spoil))
             for name, row in CONTRACTS.items() if row.stacked
             for each in row.stacked[1] if "bad" in each
             for bad in range(len(each["deltas"]) if "deltas" in each else each["m"])
             for spoil in spoils.get(name, [{}])])


def _replay(cases):
    """The convention at each ``(name, draws)`` of `cases`, as the explicit
    examples of a property: row `name`'s builder reads its draws from `draws`."""

    @settings(phases=[Phase.explicit])
    @given(case=st.sampled_from(cases))
    def holds(case):
        name, draws = case
        stack = CONTRACTS[name].stacked[0](Replay(draws))
        assert stack.bad == draws.get("bad"), name
        _assert_stacked(name, stack)

    for case in cases:
        holds = example(case=case)(holds)
    holds()


def _assert_stacked(name, stack):
    members = []
    for i in range(stack.size):
        if error := error_of(lambda: members.append(stack.alone(i))):
            assert error_of(stack.stacked) == error, name
            return
    assert stack.bad is None, (name, stack.bad, "built to fail, this member did not")
    result = stack.stacked()
    # reports are records, not arrays: evaluate_instance alone returns a list
    assert isinstance(result, list) == (name == "evaluate_instance"), name
    if isinstance(result, list):
        assert [list(map(bits, leaves(each))) for each in result] == [
            list(map(bits, leaves(member))) for member in members], name
        return
    tuples = isinstance(result, tuple)
    for j, part in enumerate(result if tuples else (result,)):
        for i, member in enumerate(members):
            want = member[j] if tuples else member
            if j in stack.shared:  # given once for the whole stack
                assert bits(part) == bits(want), (name, j)
                continue
            for leaf, value in zip(leaves(part), leaves(want), strict=True):
                assert isinstance(leaf, np.ndarray) and len(leaf) == stack.size, (name, j)
                assert bits(leaf[i]) == bits(value), (name, j, i)
