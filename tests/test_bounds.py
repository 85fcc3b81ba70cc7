import functools
import math
import re

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
)
from subspace_align.experiments import SWEEP_RANK_RTOL
from subspace_align.kernels import _gauge, random_orthonormal

from support import (
    RANK_RTOL,
    assert_self_consistent,
    bits,
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

    def test_exact_near_the_top_of_the_float_range(self):
        # eta reads only the ratios of its inputs, so scaling all three by a
        # power of two changes no bit, even where s + s~ or 4 * d overflows
        assert eta("trace", 3, 3, 1e308, 1e308, 1e307) == pytest.approx(1.1 * math.sqrt(2))
        assert eta("spectral", 3, 3, 1e308, 1e308, 1e308) == pytest.approx(2 * math.sqrt(2))
        assert eta("frobenius", 2, 3, 5e307, 5e307, 5e307) == pytest.approx(
            2 * math.sqrt(2) + 4
        )
        top = np.finfo(np.float64).max
        triples = [
            (1e308, 1e308, 1e307),
            (1e308, 1e308, 1e308),
            (5e307, 5e307, 5e307),
            (top, top, top),
            (top, 1e-300, top),
            (1.0, 2.0, top),
        ]
        for kind in NORM_KINDS:
            for r in (2, 3):
                for triple in triples:
                    scaled = [v * 2.0**-64 for v in triple]
                    assert bits(eta(kind, r, 3, *triple)) == bits(eta(kind, r, 3, *scaled))

    @pytest.mark.parametrize("phi", [1e-2, 1e-4, 1e-7])
    @pytest.mark.parametrize("n, k", [(2, 1), (5, 1), (4, 2), (5, 2)])
    def test_full_rank_coefficient_is_attained_within_sqrt2(self, n, k, phi):
        # x = (cos phi, sin phi) and its sign flip x~ = (-cos phi, sin phi),
        # pinned by d = e2, in k orthogonal copies zero-padded to n rows:
        # sigma_r = sin phi, ||d||_2 = 1, sin-theta is sin 2 phi per copy and
        # measured 2 cos phi, so measured / xi = 1 / (sqrt2 (1 + sin phi)) in
        # every norm, which tends to 1 / sqrt2; an eta scaled by 0.7 fails here
        x, x_tilde, d = (np.zeros((n, k)) for _ in range(3))
        for j in range(k):
            x[2 * j : 2 * j + 2, j] = math.cos(phi), math.sin(phi)
            x_tilde[2 * j : 2 * j + 2, j] = -math.cos(phi), math.sin(phi)
            d[2 * j + 1, j] = 1.0
        ratio = 1.0 / (SQRT2 * (1.0 + math.sin(phi)))
        for rep in evaluate_instance(x, x_tilde, d, NORM_KINDS):
            assert rep.regime == "full_rank" and rep.measured <= rep.xi + 1e-10, rep
            assert abs(rep.measured / rep.xi - ratio) <= 1e-9, (rep, ratio)

    def test_zero_sin_theta_gives_zero_even_when_eta_is_inf(self):
        for kind in NORM_KINDS:
            assert xi(kind, 3, 3, 5e-324, 5e-324, 1.0, 0.0) == 0.0
            assert xi(kind, 2, 3, 1e-200, 1e-200, 1.0, 0.0) == 0.0
            assert xi(kind, 2, 3, 5e-324, 5e-324, 1.0, 0.0) == 0.0


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
        assert bits(got_eta) == bits(expected_eta)
        if math.isnan(expected_xi):  # a vacuous eta times a zero sine is 0
            assert sin_t == 0.0 and got_eta == math.inf and bits(got_xi) == bits(sin_t)
        else:
            assert bits(got_xi) == bits(expected_xi)

    def test_sharpened_is_xi_of_the_truncated_norm(self):
        # the reports of the criterion-02 mix: below full rank the sharpened
        # bound is xi, bit for bit, of the norm of the r largest sines
        deficient = 0
        for x, y, _, r, reports in _mixed_instances():
            top = canonical_angles(x, y).sines[-r:]
            for rep in reports:
                if rep.r == rep.k:
                    assert rep.xi_sharpened is None
                    continue
                deficient += 1
                assert bits(rep.sin_theta_truncated) == bits(_gauge(top, rep.kind))
                args = (rep.kind, r, rep.k, rep.sigma_r, rep.sigma_r_tilde, rep.d_norm)
                assert bits(rep.xi_sharpened) == bits(xi(*args, rep.sin_theta_truncated))
        assert deficient


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

    @pytest.mark.parametrize("zero_last", [1, 2])
    @pytest.mark.parametrize("kind", NORM_KINDS)
    def test_rank_deficient_hadamard_instance_formula(self, kind, zero_last):
        # the paper's rank-deficient coefficients, written out: a = ||d||_2 /
        # (sigma_r + sigma_r~) and b = ||d||_2 / max(sigma_r, sigma_r~)
        config = ExperimentConfig()
        d = pinning_matrix(config.n, config.k, zero_last)
        xd, xtd, _, _ = make_pair(config, 1e-6)
        x, sx = align(xd, d, rtol=RANK_RTOL)
        xt, st = align(xtd, d, rtol=RANK_RTOL)
        rep = evaluate_instance(x, xt, d, kind, rtol=RANK_RTOL)
        r = config.k - zero_last
        assert rep.r == sx.r == st.r == r
        d_norm = np.linalg.norm(d, 2)
        a = d_norm / (sx.sigma_r + st.sigma_r)
        b = d_norm / max(sx.sigma_r, st.sigma_r)
        coefficient = {
            "spectral": SQRT2 + math.sqrt(8.0 * a**2 + 4.0 * b**2) + 4.0 * b,
            "frobenius": SQRT2 * (1.0 + 2.0 * a) + 4.0 * b,
            "trace": SQRT2 * (1.0 + 2.0 * a) + (2.0 * SQRT2 + 4.0) * b,
        }[kind]
        sines = np.sort(canonical_angles(x, xt).sines)
        gauge = {"spectral": np.max, "frobenius": np.linalg.norm, "trace": np.sum}[kind]
        assert rep.xi == pytest.approx(coefficient * gauge(sines), rel=1e-12)
        assert rep.xi_sharpened == pytest.approx(coefficient * gauge(sines[-r:]), rel=1e-12)

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
        # at r = 1 the truncated norm keeps one sine, the largest, in every kind
        s, st, d = 0.7, 0.9, 2.0
        value = 1e-3
        sines = np.array([2e-4, 5e-4, value])
        for kind in NORM_KINDS:
            full = xi(kind, 1, 3, s, st, d, value)
            sharp = xi(kind, 1, 3, s, st, d, _gauge(sines[-1:], kind))
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
            bound = functools.partial(xi, kind, r, k)
            sharp, plain = _each(bound, s, st, d, trunc), _each(bound, s, st, d, full)
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

    def test_difference_past_the_float_range(self):
        # sigma_1 of the difference, sqrt(6) * 1.7e308, and of each matrix lie
        # past DBL_MAX: the pair is scaled into range first, so the bounds are
        # the ratio 1.7 of the two, not inf / inf
        ones = np.ones((3, 2))
        for kind in NORM_KINDS:
            w = wedin_bound(ones * 1e308, ones * -0.7e308, 1, kind)
            assert w.bound_truncated == w.bound_full == pytest.approx(1.7, rel=1e-15)
            assert max(w.measured_left, w.measured_right) <= 1e-15

    def test_rank_mismatch_rejected(self, rng):
        b = rank_matrix(rng, 6, 4, 2)
        bt = rank_matrix(rng, 6, 4, 3)
        with pytest.raises(RankMismatch):
            wedin_bound(b, bt, 2, "trace")
        with pytest.raises(DimensionMismatch):
            wedin_bound(b, rank_matrix(rng, 5, 4, 2), 2, "trace")


@pytest.mark.parametrize("scale", [1e-170, 1e160])
def test_bounds_hold_far_from_unit_scale(rng, scale):
    # the Frobenius sums of squares of these pairs underflow or overflow in
    # float64, and the spectral polar coefficient squares 1 / sigma_r
    for n, m, r in [(6, 4, 4), (7, 4, 2), (5, 5, 5)]:
        b, bt = equal_rank_pair(rng, n, m, r)
        for kind in NORM_KINDS:
            pb = polar_factor_bound(scale * b, scale * bt, kind, rtol=RANK_RTOL)
            unit = polar_factor_bound(b, bt, kind, rtol=RANK_RTOL)
            assert pb.measured <= pb.bound_generic
            assert pb.bound_generic == pytest.approx(unit.bound_generic, rel=1e-12)
            if pb.bound_improved is not None:
                assert pb.measured <= pb.bound_improved
                assert pb.bound_improved == pytest.approx(unit.bound_improved, rel=1e-12)
            w = wedin_bound(scale * b, scale * bt, r, kind)
            assert max(w.measured_left, w.measured_right) <= w.bound_truncated + 1e-10
            assert w.bound_full == pytest.approx(wedin_bound(b, bt, r, kind).bound_full, rel=1e-12)


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

    @pytest.mark.parametrize("kind", NORM_KINDS)
    def test_pairs_at_the_bottom_of_the_float_range(self, rng, kind):
        # sigma_r of these pairs is subnormal, and 2 / sigma_r overflows
        b, bt = equal_rank_pair(rng, 7, 4, 2)
        same = polar_factor_bound(b * 1e-308, b * 1e-308, kind)
        assert same.bound_generic == 0.0
        assert same.bound_improved == (None if kind == "trace" else 0.0)
        pb = polar_factor_bound(b * 1e-308, bt * 1e-308, kind)
        assert pb.measured <= pb.bound_generic < math.inf
        if kind != "trace":
            assert pb.measured <= pb.bound_improved < math.inf


    @pytest.mark.parametrize("kind", NORM_KINDS)
    def test_subnormal_sigma_r_in_an_in_range_pair(self, kind):
        # the pair needs no rescale, but 2 / sigma_r overflows; the bounds are
        # 5/3 generic, 2/3 improved Frobenius and sqrt(4/9 + 1/2) improved
        # spectral, to the spacing of subnormals near 1e-320 (about 5e-4 relative)
        b = [[1.0, 0.0], [0.0, 1e-320], [0.0, 0.0]]
        bt = [[1.0, 0.0], [0.0, 2e-320], [0.0, 0.0]]
        pb = polar_factor_bound(b, bt, kind, rtol=0.0)
        assert pb.measured <= pb.bound_generic < math.inf
        assert pb.bound_generic == pytest.approx(5.0 / 3.0, rel=1e-3)
        improved = {"spectral": math.sqrt(4.0 / 9.0 + 0.5), "frobenius": 2.0 / 3.0}
        if kind == "trace":
            assert pb.bound_improved is None
        else:
            assert pb.measured <= pb.bound_improved < math.inf
            assert pb.bound_improved == pytest.approx(improved[kind], rel=1e-3)


class TestEvaluateInstance:
    @pytest.mark.parametrize("zero_last", (0, 2))
    def test_truncated_sines_closed_form(self, zero_last):
        # five equal sines delta; the norm of the r largest is delta,
        # sqrt(r) * delta and r * delta, the untruncated norm at r == k
        config = ExperimentConfig()
        d = pinning_matrix(config.n, config.k, zero_last)
        xd, xtd, _, _ = make_pair(config, 1e-3)
        x, _ = align(xd, d, rtol=SWEEP_RANK_RTOL)
        xt, _ = align(xtd, d, rtol=SWEEP_RANK_RTOL)
        r = config.k - zero_last
        expected = {"spectral": 1e-3, "frobenius": math.sqrt(r) * 1e-3, "trace": r * 1e-3}
        for rep in evaluate_instance(x, xt, d, NORM_KINDS, rtol=SWEEP_RANK_RTOL):
            assert rep.r == r
            assert rep.sin_theta_truncated == pytest.approx(expected[rep.kind], rel=1e-9)

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

    def test_tall_stack_reports_equal_single_calls(self, rng):
        # OpenBLAS picks its kernels by size, and the property tests stay small
        n, k, r = 520, 8, 6
        d = rank_matrix(rng, n, k, r)
        x_any = random_orthonormal(n, k, rng)
        x = align(x_any, d, rtol=RANK_RTOL)[0]
        stack = [
            align(np.linalg.qr(x_any + 10.0**-e * rng.standard_normal((n, k)))[0], d, rtol=RANK_RTOL)[0]
            for e in (2, 4, 6)
        ]
        reports = evaluate_instance(x, np.array(stack), d, NORM_KINDS, rtol=RANK_RTOL)
        assert len(reports) == len(stack)
        for y, stacked in zip(stack, reports):
            # repr writes every float exactly, signed zeros included
            assert repr(stacked) == repr(evaluate_instance(x, y, d, NORM_KINDS, rtol=RANK_RTOL))

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
        # every decision is made on d normalized by a power of two, so scale * d
        # and d differ there only by the rounding of the product scale * d
        # (these scales are not powers of two), and the results by its effect
        for x, y, d, r, reports in _mixed_instances():
            scaled = evaluate_instance(x, y, scale * d, NORM_KINDS, rtol=RANK_RTOL)
            for rep, ref in zip(scaled, reports):
                assert rep.r == ref.r == r
                assert rep.eta == pytest.approx(ref.eta, rel=1e-9)
                assert rep.measured == pytest.approx(ref.measured, rel=1e-9, abs=1e-12)
                assert_self_consistent(rep)

    def test_d_norm_beyond_the_float_range_reads_inf(self, rng):
        # ||d||_2 = sqrt(5) * 1e308 overflows, d * 2**-1023 does not: every
        # decision is made on the latter, and only the d_norm field overflows
        x = np.eye(4)[:, :2]
        d = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0]]) * 1e308
        y, _ = align(np.linalg.qr(x + 1e-3 * rng.standard_normal((4, 2)))[0], d)
        reports = evaluate_instance(x, y, d, NORM_KINDS)
        for rep, ref in zip(reports, evaluate_instance(x, y, np.ldexp(d, -1023), NORM_KINDS)):
            assert rep.d_norm == math.inf and ref.d_norm < math.inf
            assert rep.sigma_r == ref.sigma_r * 2.0**1023 == 1e308
            assert (rep.eta, rep.xi, rep.measured) == (ref.eta, ref.xi, ref.measured)

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

    def test_not_aligned_message_reads_in_the_units_of_d(self, rng):
        # d is used as it stands within the range rule, so the tolerance the
        # message names is 1e-10 * ||d||_2 of the caller's d
        d = 3.0 * rank_matrix(rng, 10, 4, 4)
        x, _ = align(random_orthonormal(10, 4, rng), d, rtol=RANK_RTOL)
        flipped = x @ np.diag([1.0, -1.0, 1.0, 1.0])  # x.T @ d not symmetric
        tol = 1e-10 * float(np.linalg.svd(d, compute_uv=False)[0])
        with pytest.raises(NotAligned, match=rf" > {tol:.3e}$"):
            evaluate_instance(x, flipped, d, "trace", rtol=RANK_RTOL)

    @pytest.mark.parametrize("e", [500, -500])
    def test_not_aligned_message_reads_in_the_units_of_d_outside_the_range(self, rng, e):
        # outside [2**-400, 2**400] the checks see d scaled into [1, 2); the
        # message scales its numbers back, so they are those of the caller's d
        d = np.ldexp(pinning_matrix(10, 4), e)
        x, _ = align(random_orthonormal(10, 4, rng), d)
        tol = f"{1e-10 * matrix_norm(d, 'spectral'):.3e}"
        flipped = x @ np.diag([1.0, -1.0, 1.0, 1.0])  # x.T @ d not symmetric
        g = flipped.T @ d
        asymmetry = f"asymmetry {float(np.linalg.norm(g - g.T)):.3e} > {tol}"
        floor = f"min eigenvalue {float(np.linalg.eigvalsh(-x.T @ d)[0]):.3e}"
        for first, second, message in [
            (x, flipped, f"x_tilde.T @ d is not symmetric: {asymmetry}"),
            (flipped, x, f"x.T @ d is not symmetric: {asymmetry}"),
            (x, -x, f"x_tilde.T @ d is not positive semidefinite: {floor}"),  # symmetric
        ]:
            with pytest.raises(NotAligned, match=f"^{re.escape(message)}$"):
                evaluate_instance(first, second, d, "trace")

    def test_not_aligned_numbers_past_the_float_range_read_inf(self):
        # x.T @ d is PSD of rank 1 with entries 1.9 * 2**1023; the products of
        # the flipped and the negated basis have defects past DBL_MAX
        d = np.zeros((4, 2))
        d[:2] = np.ldexp(1.9, 1023)
        x = np.eye(4)[:, :2]
        for x_tilde, ending in [(x * [1.0, -1.0], r"asymmetry inf > 3\.416e\+298$"),
                                (-x, "min eigenvalue -inf$")]:
            with pytest.raises(NotAligned, match=ending):
                evaluate_instance(x, x_tilde, d, "trace")

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


class TestStackOfBases:
    """One reference `x` against an (m, n, k) stack: each element is the
    single call on that basis; a failing basis raises its own error."""

    def _stack(self, rng, n=10, k=3, m=3):
        d = rank_matrix(rng, n, k, k)
        x_any = random_orthonormal(n, k, rng)
        x, _ = align(x_any, d, rtol=RANK_RTOL)
        stack = []
        for _ in range(m):
            y_any, _ = np.linalg.qr(x_any + 1e-3 * rng.standard_normal((n, k)))
            stack.append(align(y_any, d, rtol=RANK_RTOL)[0])
        return x, stack, d

    def test_list_and_array_stacks_equal_single_calls(self, rng):
        x, stack, d = self._stack(rng)
        single = [evaluate_instance(x, y, d, "trace", rtol=RANK_RTOL) for y in stack]
        assert evaluate_instance(x, stack, d, "trace", rtol=RANK_RTOL) == single
        assert evaluate_instance(x, np.array(stack), d, "trace", rtol=RANK_RTOL) == single
        one = evaluate_instance(x, stack[:1], d, NORM_KINDS, rtol=RANK_RTOL)
        assert one == [evaluate_instance(x, stack[0], d, NORM_KINDS, rtol=RANK_RTOL)]

    def test_empty_stack_rejected(self, rng):
        x, _, d = self._stack(rng)
        with pytest.raises(InvalidInput, match="^x_tilde is an empty stack"):
            evaluate_instance(x, np.empty((0, 10, 3)), d, "trace")

    def test_stack_of_another_shape_rejected(self, rng):
        x, _, d = self._stack(rng)
        with pytest.raises(DimensionMismatch, match=r"\(10, 3\) vs \(12, 3\)"):
            evaluate_instance(x, [random_orthonormal(12, 3, rng)] * 2, d, "trace")

    def test_one_unpinned_basis_raises_its_single_call_error(self, rng):
        x, stack, d = self._stack(rng)
        stack[1] = stack[1] @ np.diag([1.0, -1.0, 1.0])  # x_tilde.T @ d not PSD
        with pytest.raises(NotAligned) as alone:
            evaluate_instance(x, stack[1], d, "trace", rtol=RANK_RTOL)
        with pytest.raises(NotAligned) as stacked:
            evaluate_instance(x, stack, d, "trace", rtol=RANK_RTOL)
        assert str(stacked.value) == str(alone.value)
