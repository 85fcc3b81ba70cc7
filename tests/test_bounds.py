import functools
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from subspace_align import (
    DimensionMismatch,
    ExperimentConfig,
    InvalidInput,
    NORM_KINDS,
    NotAligned,
    NotApplicable,
    RankMismatch,
    align,
    canonical_angles,
    eta,
    evaluate_instance,
    make_pair,
    matrix_norm,
    optimal_representative,
    pinning_matrix,
    polar_factor_bound,
    sin_theta_norm,
    wedin_bound,
    xi,
    xi_sharpened,
)
from subspace_align.kernels import random_orthonormal

from support import (
    RANK_RTOL,
    draw_aligned_instance,
    equal_rank_pair,
    rank_matrix,
    reference_eta,
    reference_xi,
)

SQRT2 = math.sqrt(2.0)


def _each(func, *columns):
    """`func` called on each row of equal-length columns, as an array: the
    coefficients take scalars only."""
    rows = zip(*(np.asarray(column).tolist() for column in columns))
    return np.array([func(*row) for row in rows])


def _bits(value):
    return struct.pack("<d", value)


@functools.lru_cache(maxsize=1)
def _mixed_instances():
    """300 pinned pairs of the criterion-02 mix, each with its reports."""
    rng = np.random.Generator(np.random.Philox(key=3))
    out = []
    for _ in range(300):
        x, y, d, r, k = draw_aligned_instance(rng)
        out.append((x, y, d, r, evaluate_instance(x, y, d, NORM_KINDS, rtol=RANK_RTOL)))
    return out


class TestEta:
    def test_full_rank_value(self):
        assert eta("trace", 3, 3, 1.0, 1.0, 1.0) == pytest.approx(2.0 * SQRT2)
        for kind in NORM_KINDS:
            assert eta(kind, 3, 3, 1.0, 1.0, 1.0) == pytest.approx(2.0 * SQRT2)

    def test_rank_deficient_frobenius_value(self):
        assert eta("frobenius", 2, 3, 1.0, 1.0, 1.0) == pytest.approx(2.0 * SQRT2 + 4.0)

    def test_rank_deficient_spectral_value(self):
        expected = SQRT2 + math.sqrt(2.0 + 4.0) + 4.0
        assert eta("spectral", 2, 3, 1.0, 1.0, 1.0) == pytest.approx(expected)

    def test_rank_deficient_trace_value(self):
        expected = 2.0 * SQRT2 + (2.0 * SQRT2 + 4.0)
        assert eta("trace", 2, 3, 1.0, 1.0, 1.0) == pytest.approx(expected)

    def test_ordering_full_below_improved_below_generic(self, rng):
        size = 100_000
        s = 10.0 ** rng.uniform(-3, 3, size)
        st = 10.0 ** rng.uniform(-3, 3, size)
        d = np.maximum(s, st) * 10.0 ** rng.uniform(0, 3, size)
        full = _each(functools.partial(eta, "frobenius", 4, 4), s, st, d)
        fro = _each(functools.partial(eta, "frobenius", 3, 4), s, st, d)
        spec = _each(functools.partial(eta, "spectral", 3, 4), s, st, d)
        generic = _each(functools.partial(eta, "trace", 3, 4), s, st, d)
        assert np.all(full < fro)
        assert np.all(full < spec)
        assert np.all(fro < generic)
        assert np.all(spec < generic)
        assert np.all(full > SQRT2)

    def test_errors(self):
        with pytest.raises(InvalidInput):
            eta("trace", 2, 3, 0.0, 1.0, 1.0)
        with pytest.raises(InvalidInput):
            eta("trace", 2, 3, 1.0, -1.0, 1.0)
        with pytest.raises(InvalidInput):
            eta("trace", 4, 3, 1.0, 1.0, 1.0)
        with pytest.raises(InvalidInput):
            eta("operator", 2, 3, 1.0, 1.0, 1.0)

        good = dict(sigma_r=1.0, sigma_r_tilde=1.0, d_norm=1.0, sin_theta=0.5)
        for name in good:
            for bad in (0.0, -1.0, math.nan, math.inf):
                if bad == 0.0 and name in ("d_norm", "sin_theta"):
                    assert xi("trace", 2, 3, **{**good, name: bad}) >= 0.0
                    continue
                for value in (bad, np.float64(bad), np.array(bad)):
                    with pytest.raises(InvalidInput, match=rf"^{name} must"):
                        xi("trace", 2, 3, **{**good, name: value})
            with pytest.raises(InvalidInput, match=rf"^{name} must"):
                xi("trace", 2, 3, **{**good, name: 10**400})  # beyond float64

    def test_arrays_rejected(self):
        good = dict(sigma_r=1.0, sigma_r_tilde=1.0, d_norm=1.0, sin_theta=0.5)
        for name in good:
            for value in (np.array([1.0, 0.5]), np.ones((2, 2)), [0.5], "one", None):
                with pytest.raises(InvalidInput, match=rf"^{name} must be a real scalar"):
                    xi("trace", 2, 3, **{**good, name: value})

    def test_scalar_types_give_python_floats(self):
        for value in (0.5, np.float64(0.5), np.array(0.5), np.float32(0.5), 1):
            assert type(eta("spectral", 2, 3, value, 1.0, 1.0)) is float
            assert type(xi("spectral", 2, 3, 1.0, 1.0, 1.0, value)) is float

    def test_overflow_gives_inf_without_warning(self):
        # pytest turns warnings into errors; d_norm / sigma overflows in the
        # square of the spectral term, then in the ratio itself
        assert eta("spectral", 2, 3, 1e-200, 1e-200, 1.0) == math.inf
        for kind in NORM_KINDS:
            for r in (2, 3):
                assert eta(kind, r, 3, 5e-324, 5e-324, 1.0) == math.inf
                assert xi(kind, r, 3, 5e-324, 5e-324, 1.0, 0.5) == math.inf

    def test_zero_sin_theta_gives_zero_even_when_eta_is_inf(self):
        for kind in NORM_KINDS:
            assert xi(kind, 3, 3, 5e-324, 5e-324, 1.0, 0.0) == 0.0
            assert xi(kind, 2, 3, 1e-200, 1e-200, 1.0, 0.0) == 0.0
            assert xi_sharpened(kind, 2, 3, 5e-324, 5e-324, 1.0, 0.0) == 0.0


_POSITIVE = st.floats(min_value=1e-8, max_value=1e8)
_ENTRY = st.tuples(_POSITIVE, _POSITIVE, st.floats(0.0, 1e8), st.floats(0.0, 1.0))
#: positive or nonnegative floats, subnormals included, up to 2**1020: there
#: the numpy formula's sums and multiples of d_norm stay finite, and only its
#: ratios over the singular values overflow, to a vacuous inf
_ANY_POSITIVE = st.floats(min_value=0.0, max_value=2.0**1020, exclude_min=True)
_ANY_NONNEGATIVE = st.floats(min_value=0.0, max_value=2.0**1020)


class TestCoefficientProperties:
    @given(
        s=_ANY_POSITIVE,
        s_tilde=_ANY_POSITIVE,
        d=_ANY_NONNEGATIVE,
        sin_t=st.floats(min_value=0.0, allow_infinity=False),
        kind=st.sampled_from(NORM_KINDS),
        r=st.sampled_from((4, 3, 1)),
    )
    # numpy squared with libm's pow, which rounds these squares differently
    # from a product
    @example(s=0.78, s_tilde=0.78, d=4.01, sin_t=0.5, kind="spectral", r=3)
    @example(s=0.15, s_tilde=0.7, d=8.4, sin_t=0.5, kind="spectral", r=1)
    def test_bits_equal_numpy_formula(self, s, s_tilde, d, sin_t, kind, r):
        # the numpy evaluation the coefficients had when they took arrays
        expected_eta = reference_eta(kind, r, 4, s, s_tilde, d)
        expected_xi = reference_xi(kind, r, 4, s, s_tilde, d, sin_t)
        got_eta = eta(kind, r, 4, s, s_tilde, d)
        got_xi = xi(kind, r, 4, s, s_tilde, d, sin_t)
        assert type(got_eta) is float and type(got_xi) is float
        assert _bits(got_eta) == _bits(expected_eta)
        if math.isnan(expected_xi):  # a vacuous eta times a zero sine is 0
            assert sin_t == 0.0 and got_eta == math.inf and _bits(got_xi) == _bits(sin_t)
        else:
            assert _bits(got_xi) == _bits(expected_xi)
        if r < 4:
            assert _bits(xi_sharpened(kind, r, 4, s, s_tilde, d, sin_t)) == _bits(got_xi)

    @given(entry=_ENTRY, kind=st.sampled_from(NORM_KINDS), r=st.sampled_from((3, 1)))
    def test_sharpened_is_xi_of_the_truncated_norm(self, entry, kind, r):
        assert xi_sharpened(kind, r, 4, *entry) == xi(kind, r, 4, *entry)


class TestXi:
    def test_zero_distance(self):
        assert xi("frobenius", 2, 3, 1.0, 1.0, 1.0, 0.0) == 0.0

    def test_homogeneous_degree_one(self, rng):
        s = 10.0 ** rng.uniform(-3, 3, 1000)
        st = 10.0 ** rng.uniform(-3, 3, 1000)
        d = np.maximum(s, st) * 10.0 ** rng.uniform(0, 2, 1000)
        sin_t = 10.0 ** rng.uniform(-12, 0, 1000)
        lam = 10.0 ** rng.uniform(-6, 6, 1000)
        for kind in NORM_KINDS:
            bound = functools.partial(xi, kind, 2, 4)
            a = _each(bound, s, st, d, lam * sin_t)
            b = lam * _each(bound, s, st, d, sin_t)
            assert np.allclose(a, b, rtol=1e-12)

    def test_full_rank_hadamard_instance_formula(self):
        config = ExperimentConfig()
        d = pinning_matrix(config.n, config.k)
        xd, xtd, _, _ = make_pair(config, 1e-6)
        x, sx = align(xd, d)
        xt, st = align(xtd, d)
        rep = evaluate_instance(x, xt, d, "spectral")
        d_norm = np.linalg.norm(d, 2)
        sin_t = sin_theta_norm(canonical_angles(x, xt), "spectral")
        by_hand = SQRT2 * (1.0 + 2.0 * d_norm / (sx.sigma_r + st.sigma_r)) * sin_t
        assert rep.xi == pytest.approx(by_hand, rel=1e-12)
        assert rep.xi == pytest.approx(
            xi("spectral", 5, 5, sx.sigma_r, st.sigma_r, d_norm, sin_t), rel=1e-15
        )

    def test_negative_sin_rejected(self):
        with pytest.raises(InvalidInput):
            xi("trace", 2, 3, 1.0, 1.0, 1.0, -0.1)

    def test_log_log_slope_exactly_one(self):
        # degree-1 homogeneity, seen as a slope: with the bound parameters
        # frozen, xi against the sweep's delta grid is exactly linear
        config = ExperimentConfig()
        d = pinning_matrix(config.n, config.k)
        xd, xtd, _, _ = make_pair(config, 1e-6)
        _, sx = align(xd, d)
        _, st = align(xtd, d)
        d_norm = np.linalg.norm(d, 2)
        deltas = np.asarray(config.deltas)
        for kind in NORM_KINDS:
            values = np.array(
                [xi(kind, 5, 5, sx.sigma_r, st.sigma_r, d_norm, delta) for delta in deltas]
            )
            slope = np.polyfit(np.log10(deltas), np.log10(values), 1)[0]
            assert abs(slope - 1.0) <= 1e-6


class TestXiSharpened:
    def test_full_rank_rejected(self):
        with pytest.raises(NotApplicable):
            xi_sharpened("trace", 3, 3, 1.0, 1.0, 1.0, 0.5)

    def test_equal_angles_trace_scales_by_r_over_k(self):
        config = ExperimentConfig()
        d = pinning_matrix(config.n, config.k, zero_last=1)
        xd, xtd, _, _ = make_pair(config, 1e-4)
        x, _ = align(xd, d, rtol=RANK_RTOL)
        xt, _ = align(xtd, d, rtol=RANK_RTOL)
        rep = evaluate_instance(x, xt, d, "trace", rtol=RANK_RTOL)
        assert rep.r == 4 and rep.k == 5
        # all five sines equal: truncating to the 4 largest scales by 4/5
        assert rep.xi_sharpened == pytest.approx(0.8 * rep.xi, rel=1e-9)
        assert rep.xi_sharpened <= rep.xi

    def test_single_angle_truncation_noop(self, rng):
        s, st, d = 0.7, 0.9, 2.0
        value = 1e-3
        for kind in NORM_KINDS:
            full = xi(kind, 1, 3, s, st, d, value)
            sharp = xi_sharpened(kind, 1, 3, s, st, d, value)
            assert sharp == pytest.approx(full, rel=1e-15)

    def test_spectral_equals_unsharpened(self, rng):
        for _ in range(200):
            inst = draw_aligned_instance(rng, drops=(1, 2))
            x, y, d, r, k = inst
            rep = evaluate_instance(x, y, d, "spectral", rtol=RANK_RTOL)
            assert rep.xi_sharpened == pytest.approx(rep.xi, rel=1e-12)

    def test_never_exceeds_xi(self, rng):
        size = 100_000
        s = 10.0 ** rng.uniform(-3, 3, size)
        st = 10.0 ** rng.uniform(-3, 3, size)
        d = np.maximum(s, st) * 10.0 ** rng.uniform(0, 2, size)
        k, r = 5, 3
        sines = np.sort(rng.uniform(0.0, 1.0, size=(size, k)), axis=1)
        top = sines[:, -r:]
        for kind in NORM_KINDS:
            if kind == "spectral":
                full, trunc = sines[:, -1], top[:, -1]
            elif kind == "frobenius":
                full = np.sqrt((sines**2).sum(axis=1))
                trunc = np.sqrt((top**2).sum(axis=1))
            else:
                full, trunc = sines.sum(axis=1), top.sum(axis=1)
            sharp = _each(functools.partial(xi_sharpened, kind, r, k), s, st, d, trunc)
            plain = _each(functools.partial(xi, kind, r, k), s, st, d, full)
            assert np.all(sharp <= plain + 1e-12)


class TestWedinBound:
    def test_identical_matrices(self, rng):
        b = rank_matrix(rng, 8, 5, 3)
        w = wedin_bound(b, b, 3, "frobenius")
        assert w.bound_truncated == 0.0
        assert w.bound_full == 0.0
        assert w.measured_left <= 1e-10
        assert w.measured_right <= 1e-10

    def test_rotated_rank_one_projector(self):
        alpha = 0.3
        b = np.diag([1.0, 0.0])
        u = np.array([math.cos(alpha), math.sin(alpha)])
        bt = np.outer(u, u)
        w = wedin_bound(b, bt, 1, "spectral")
        assert w.measured_left == pytest.approx(math.sin(alpha), abs=1e-12)
        assert w.measured_right == pytest.approx(math.sin(alpha), abs=1e-12)
        # the difference of the two rank-1 projectors has both singular
        # values equal to sin(alpha), and both r-th singular values are 1
        assert w.bound_truncated == pytest.approx(math.sin(alpha), abs=1e-12)
        assert max(w.measured_left, w.measured_right) <= w.bound_truncated + 1e-12

    def test_random_pairs_never_violate(self, rng):
        for _ in range(300):
            m = int(rng.integers(3, 16))
            n = int(rng.integers(3, 16))
            r = int(rng.integers(1, min(m, n) + 1))
            b, bt = equal_rank_pair(rng, m, n, r)
            for kind in NORM_KINDS:
                w = wedin_bound(b, bt, r, kind)
                measured = max(w.measured_left, w.measured_right)
                assert measured <= w.bound_truncated + 1e-10
                assert w.bound_truncated <= w.bound_full + 1e-12
                if r == min(m, n):  # one spectrum, truncated to all of it
                    assert w.bound_truncated == w.bound_full

    def test_rank_mismatch_rejected(self, rng):
        b = rank_matrix(rng, 6, 4, 2)
        bt = rank_matrix(rng, 6, 4, 3)
        with pytest.raises(RankMismatch):
            wedin_bound(b, bt, 2, "trace")
        with pytest.raises(DimensionMismatch):
            wedin_bound(b, rank_matrix(rng, 5, 4, 2), 2, "trace")


class TestPolarFactorBound:
    def test_square_full_rank_branch(self, rng):
        for _ in range(100):
            m = int(rng.integers(2, 9))
            b, bt = equal_rank_pair(rng, m, m, m)
            for kind in NORM_KINDS:
                pb = polar_factor_bound(b, bt, kind)
                assert pb.measured <= pb.bound_generic + 1e-10
                assert pb.bound_improved is None

    def test_tall_and_deficient_branches(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 14))
            m = int(rng.integers(2, n))
            r = int(rng.integers(1, m + 1))
            b, bt = equal_rank_pair(rng, n, m, r)
            for kind in NORM_KINDS:
                pb = polar_factor_bound(b, bt, kind, rtol=RANK_RTOL)
                assert pb.measured <= pb.bound_generic + 1e-10
                if kind == "trace":
                    assert pb.bound_improved is None
                else:
                    assert pb.measured <= pb.bound_improved + 1e-10
                    assert pb.bound_improved <= pb.bound_generic + 1e-12

    def test_rank_mismatch_rejected(self, rng):
        b = rank_matrix(rng, 7, 4, 2)
        bt = rank_matrix(rng, 7, 4, 4)
        with pytest.raises(RankMismatch):
            polar_factor_bound(b, bt, "frobenius", rtol=RANK_RTOL)


class TestEvaluateInstance:
    def test_identical_bases(self, rng):
        d = rank_matrix(rng, 10, 4, 4)
        x, _ = align(random_orthonormal(10, 4, rng), d, rtol=RANK_RTOL)
        rep = evaluate_instance(x, x, d, "frobenius", rtol=RANK_RTOL)
        assert rep.measured == 0.0
        assert rep.sin_theta <= 1e-12
        assert rep.xi <= 1e-11
        assert math.isinf(rep.slack)
        assert rep.regime == "full_rank"
        assert rep.xi_sharpened is None

    def test_full_rank_hadamard_sweep_point(self):
        config = ExperimentConfig()
        d = pinning_matrix(config.n, config.k)
        xd, xtd, _, _ = make_pair(config, 1e-3)
        x, _ = align(xd, d)
        xt, _ = align(xtd, d)
        for kind in NORM_KINDS:
            rep = evaluate_instance(x, xt, d, kind)
            assert rep.measured <= rep.xi
            assert 1.0 < rep.slack < 50.0
            assert rep.measured == rep.measured_lower == rep.measured_upper

    def test_rank_deficient_spectral_interval(self):
        config = ExperimentConfig()
        d = pinning_matrix(config.n, config.k, zero_last=2)
        xd, xtd, _, _ = make_pair(config, 1e-3)
        x, _ = align(xd, d, rtol=RANK_RTOL)
        xt, _ = align(xtd, d, rtol=RANK_RTOL)
        rep_f = evaluate_instance(x, xt, d, "frobenius", rtol=RANK_RTOL)
        rep_s = evaluate_instance(x, xt, d, "spectral", rtol=RANK_RTOL)
        rep_t = evaluate_instance(x, xt, d, "trace", rtol=RANK_RTOL)
        assert rep_f.measured == rep_f.measured_lower == rep_f.measured_upper
        assert rep_s.measured_lower == pytest.approx(
            rep_f.measured / math.sqrt(5), rel=1e-12
        )
        assert rep_s.measured == rep_s.measured_upper
        assert rep_s.measured_lower <= rep_s.measured_upper
        assert rep_t.measured_lower == pytest.approx(rep_f.measured, rel=1e-12)
        assert rep_t.measured_lower <= rep_t.measured_upper
        assert rep_s.regime == rep_t.regime == "rank_deficient"

    def test_two_member_minimum_is_exact(self, rng):
        x, y, d, r, k = draw_aligned_instance(rng, drops=(1,))
        _, aset = align(x, d, rtol=RANK_RTOL)
        expected = {
            kind: min(
                np.linalg.svd(y - aset.member(np.array([[s]])), compute_uv=False)[0]
                for s in (1.0, -1.0)
            )
            for kind in ["spectral"]
        }
        rep = evaluate_instance(x, y, d, "spectral", rtol=RANK_RTOL)
        assert rep.measured == pytest.approx(expected["spectral"], rel=1e-12)
        assert rep.measured == rep.measured_lower == rep.measured_upper

    @pytest.mark.parametrize("drop", [0, 1, 2])
    def test_many_kinds_match_single_calls(self, rng, drop):
        x, y, d, r, k = draw_aligned_instance(rng, drops=(drop,))
        assert k - r == drop
        singles = tuple(
            evaluate_instance(x, y, d, kind, rtol=RANK_RTOL) for kind in NORM_KINDS
        )
        assert evaluate_instance(x, y, d, NORM_KINDS, rtol=RANK_RTOL) == singles
        # the rank decision is the one align makes on the same product
        aset = align(x, d, rtol=RANK_RTOL)[1]
        for rep in singles:
            assert (rep.r, rep.sigma_r) == (aset.r, aset.sigma_r)
            assert rep.rank_tolerance == aset.rank_tolerance
        reverse = list(NORM_KINDS[::-1])
        assert evaluate_instance(x, y, d, reverse, rtol=RANK_RTOL) == singles[::-1]
        for kinds in [("operator", "spectral"), ["spectral", "trace", "operator"], ()]:
            with pytest.raises(InvalidInput):
                evaluate_instance(x, y, d, kinds, rtol=RANK_RTOL)

    @pytest.mark.parametrize("drop", [0, 1, 2])
    def test_measured_is_the_smallest_matrix_norm(self, rng, drop):
        # one SVD per candidate serves both the spectral and the trace norm
        # and must give what a matrix_norm call per kind gives, bit for bit
        x, y, d, r, k = draw_aligned_instance(rng, drops=(drop,))
        _, aset = align(x, d, rtol=RANK_RTOL)
        if drop == 0:
            diffs = [x - y]
        elif drop == 1:
            diffs = [y - aset.member(np.array([[s]])) for s in (1.0, -1.0)]
        else:
            diffs = [y - optimal_representative(aset, y)[0]]
        reports = evaluate_instance(x, y, d, NORM_KINDS, rtol=RANK_RTOL)
        for rep in reports:
            assert rep.measured == min(matrix_norm(diff, rep.kind) for diff in diffs)
            assert rep.measured == evaluate_instance(x, y, d, rep.kind, rtol=RANK_RTOL).measured
        assert reports[0].d_norm == np.linalg.norm(d, 2)

    @pytest.mark.parametrize("scale", [1e150, 1e-150, 1e200, 1e-200])
    def test_scaling_d_keeps_rank_eta_and_measured(self, scale):
        # x.T @ d scales with d, and near 1e200 the squares of its rounding
        # asymmetry overflow unless the PSD check scales them first
        for x, y, d, r, reports in _mixed_instances():
            scaled = evaluate_instance(x, y, scale * d, NORM_KINDS, rtol=RANK_RTOL)
            for rep, ref in zip(scaled, reports):
                assert rep.r == ref.r == r
                assert rep.eta == pytest.approx(ref.eta, rel=1e-9)
                assert rep.measured == pytest.approx(ref.measured, rel=1e-9, abs=1e-12)

    def test_not_aligned_rejected(self, rng):
        d = rank_matrix(rng, 10, 4, 4)
        x_any = random_orthonormal(10, 4, rng)
        x, _ = align(x_any, d, rtol=RANK_RTOL)
        g = x_any.T @ d
        assume_not_psd = (
            np.linalg.norm(g - g.T) > 1e-6
            or np.linalg.eigvalsh((g + g.T) / 2)[0] < -1e-6
        )
        if assume_not_psd:
            with pytest.raises(NotAligned):
                evaluate_instance(x_any, x, d, "frobenius", rtol=RANK_RTOL)

    def test_rank_hypothesis_violation_rejected(self, rng):
        n, k = 12, 4
        d = rank_matrix(rng, n, k, k)
        x, sx = align(random_orthonormal(n, k, rng), d, rtol=RANK_RTOL)
        # build a second subspace orthogonal to one direction of range(d),
        # so its product with d is exactly rank deficient
        w = d[:, -1] / np.linalg.norm(d[:, -1])
        g = rng.standard_normal((n, k))
        y_any, _ = np.linalg.qr(g - np.outer(w, w @ g))
        y, sy = align(y_any, d, rtol=RANK_RTOL)
        assert sx.r == k and sy.r == k - 1
        with pytest.raises(RankMismatch):
            evaluate_instance(x, y, d, "frobenius", rtol=RANK_RTOL)

    def test_zero_pinning_matrix_rejected(self, rng):
        x = random_orthonormal(8, 3, rng)
        with pytest.raises(InvalidInput):
            evaluate_instance(x, x, np.zeros((8, 3)), "trace")

    def test_equal_subspaces_bound_zero_where_eta_is_inf(self):
        # x.T @ d has rank 2 with sigma_r = 1e-160, so the spectral
        # coefficient's square overflows; the subspaces are equal
        x = np.eye(6)[:, :3]
        d = np.zeros((6, 3))
        d[0, 0] = d[1, 1] = 1e-160
        d[3, 0] = d[4, 1] = d[5, 2] = 1.0
        for rep in evaluate_instance(x, x.copy(), d, NORM_KINDS):
            assert rep.r == 2 and rep.sin_theta == 0.0 and rep.measured == 0.0
            assert rep.xi == 0.0 and rep.xi_sharpened == 0.0
        assert evaluate_instance(x, x.copy(), d, "spectral").eta == math.inf
