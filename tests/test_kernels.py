import numpy as np
import pytest

from subspace_align import (
    EmptyComplement,
    ExperimentConfig,
    InvalidBasis,
    InvalidInput,
    UnsupportedOrder,
    align,
    canonical_angles,
    check_orthonormal,
    default_delta_grid,
    eta,
    haar_orthogonal,
    hadamard,
    hausdorff_distance_estimate,
    is_hadamard_order,
    make_pair,
    matrix_norm,
    orthonormal_completion,
    pinning_matrix,
    random_orthonormal,
    singular_values,
    svd,
    truncated_norm,
    truncated_sin_theta_norm,
    verify_closed_form,
    wedin_bound,
    xi_sharpened,
)
from subspace_align.kernels import UNIT_ROUNDOFF

from support import haar_stack


class TestSvd:
    def test_identity(self):
        f = svd(np.eye(3))
        assert np.allclose(f.sigma, [1.0, 1.0, 1.0])
        assert f.numerical_rank == 3

    def test_zero_singular_value(self):
        f = svd(np.diag([3.0, 0.0]))
        assert np.allclose(f.sigma, [3.0, 0.0])
        assert f.numerical_rank == 1

    def test_tiny_singular_value_counts_as_zero(self, rng):
        u0 = haar_orthogonal(2, rng)
        v0 = haar_orthogonal(2, rng)
        b = (u0 * [2.0, 1e-20]) @ v0.T
        f = svd(b)
        assert f.numerical_rank == 1
        assert abs(f.sigma[0] - 2.0) <= 1e-12
        assert f.sigma[1] <= 1e-12

    def test_default_tolerance_formula(self, rng):
        b = rng.standard_normal((7, 4))
        f = svd(b)
        assert f.rank_tolerance == pytest.approx(7 * f.sigma[0] * UNIT_ROUNDOFF)

    def test_relative_and_absolute_policies(self):
        b = np.diag([4.0, 1.0])
        assert svd(b, rtol=0.5).numerical_rank == 1
        assert svd(b, rtol=0.125).numerical_rank == 2
        assert svd(b, rtol=0.125).rank_tolerance == 0.5
        # the rank rule is strict: a singular value at the tolerance is zero
        assert svd(b, rtol=0.25).numerical_rank == 1
        assert svd(b, rtol=1.0).numerical_rank == 0

    def test_rank_bracket_invariant(self, rng):
        for _ in range(20):
            m, n = rng.integers(2, 12, size=2)
            f = svd(rng.standard_normal((m, n)))
            r = f.numerical_rank
            if r > 0:
                assert f.sigma[r - 1] > f.rank_tolerance
            if r < min(m, n):
                assert f.sigma[r] <= f.rank_tolerance

    def test_factor_contracts(self, rng):
        for m, n in [(5, 5), (9, 4), (4, 9), (200, 50), (120, 37)]:
            b = rng.uniform(-1.0, 1.0, size=(m, n))
            f = svd(b)
            p = min(m, n)
            assert f.u.shape == (m, p) and f.sigma.shape == (p,) and f.v.shape == (n, p)
            assert np.abs(f.u.T @ f.u - np.eye(p)).max() <= 1e-12 * m
            assert np.abs(f.v.T @ f.v - np.eye(p)).max() <= 1e-12 * n
            assert np.all(np.diff(f.sigma) <= 0.0)
            assert np.all(f.sigma >= 0.0)
            residual = np.linalg.norm(f.u @ np.diag(f.sigma) @ f.v.T - b)
            assert residual <= 1e-12 * max(m, n) * f.sigma[0]

    def test_errors(self):
        with pytest.raises(InvalidInput):
            svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(InvalidInput):
            svd(np.eye(2), rtol=-1.0)
        with pytest.raises(InvalidInput):
            svd(np.ones(3))
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidInput, match="^rtol must be nonnegative"):
                svd(np.eye(2), rtol=bad)
        # the tolerance is keyword-only, so a positional one is never misread
        with pytest.raises(TypeError):
            svd(np.eye(2), 0.1)
        # a NaN tolerance must not pass for rank 0 and the freedom-k family
        with pytest.raises(InvalidInput, match="^rtol must be nonnegative"):
            align(np.eye(3)[:, :2], np.ones((3, 2)), rtol=float("nan"))


class TestTruncatedNorm:
    def test_trace_of_two_largest(self):
        assert truncated_norm(np.diag([3.0, 2.0, 1.0]), 2, "trace") == pytest.approx(5.0)

    def test_r_beyond_rank_is_full_norm(self):
        b = np.diag([3.0, 2.0, 1.0])
        assert truncated_norm(b, 5, "frobenius") == pytest.approx(np.sqrt(14.0))

    def test_spectral_truncation_is_noop(self, rng):
        b = rng.standard_normal((6, 4))
        full = singular_values(b)[0]
        assert truncated_norm(b, 2, "spectral") == pytest.approx(full, rel=1e-14)

    def test_monotone_in_r_and_constant_beyond_rank(self, rng):
        for _ in range(10):
            b = rng.standard_normal((8, 5))
            f = svd(b)
            values = [truncated_norm(b, r, "trace") for r in range(1, 8)]
            assert all(a <= b_ + 1e-12 for a, b_ in zip(values, values[1:]))
            plateau = values[f.numerical_rank - 1]
            for v in values[f.numerical_rank - 1 :]:
                assert v == pytest.approx(plateau, rel=1e-12)

    def test_r_zero_rejected(self):
        with pytest.raises(InvalidInput):
            truncated_norm(np.eye(2), 0, "trace")
        with pytest.raises(InvalidInput):
            truncated_norm(np.eye(2), 1, "nuclear")


def test_matrix_norm_matches_singular_values(rng):
    b = rng.standard_normal((7, 3))
    s = singular_values(b)
    assert matrix_norm(b, "spectral") == pytest.approx(s[0])
    assert matrix_norm(b, "frobenius") == pytest.approx(np.sqrt((s * s).sum()))
    assert matrix_norm(b, "trace") == pytest.approx(s.sum())


class TestOrthonormalCompletion:
    def test_single_vector_in_plane(self):
        comp = orthonormal_completion(np.array([[1.0], [0.0]]))
        assert comp.shape == (2, 1)
        assert abs(comp[0, 0]) <= 1e-15
        assert abs(abs(comp[1, 0]) - 1.0) <= 1e-15

    def test_identity_columns(self):
        n, k = 6, 2
        x = np.eye(n)[:, :k]
        comp = orthonormal_completion(x)
        assert np.linalg.norm(comp.T @ x) <= 1e-12 * n
        assert np.linalg.norm(comp.T @ comp - np.eye(n - k)) <= 1e-12 * n
        # spans exactly the last n-k coordinates
        assert np.linalg.norm(comp @ comp.T - np.diag([0, 0, 1, 1, 1, 1])) <= 1e-12

    def test_random_full_square(self, rng):
        x = random_orthonormal(10, 3, rng)
        full = np.hstack([x, orthonormal_completion(x)])
        assert np.linalg.norm(full.T @ full - np.eye(10)) <= 1e-12 * 10

    def test_residual_contract(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(1, n))
            x = random_orthonormal(n, k, rng)
            comp = orthonormal_completion(x)
            assert np.linalg.norm(comp.T @ x) <= 1e-12 * n
            assert np.linalg.norm(comp.T @ comp - np.eye(n - k)) <= 1e-12 * n

    def test_square_basis_rejected(self, rng):
        with pytest.raises(EmptyComplement):
            orthonormal_completion(haar_orthogonal(4, rng))

    def test_non_orthonormal_rejected(self, rng):
        with pytest.raises(InvalidBasis):
            orthonormal_completion(rng.standard_normal((5, 2)))


class TestHadamard:
    def test_order_one(self):
        assert np.array_equal(hadamard(1), np.array([[1]]))

    def test_order_two(self):
        assert np.array_equal(hadamard(2), np.array([[1, 1], [1, -1]]))

    def test_order_96_exact_integer_orthogonality(self):
        h = hadamard(96)
        assert h.dtype == np.int64
        assert np.array_equal(h.T @ h, 96 * np.eye(96, dtype=np.int64))

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 12, 16, 20, 24, 32, 40, 48, 64, 80, 96, 128])
    def test_supported_orders_scaled_orthogonal(self, n):
        h = hadamard(n)
        assert np.abs(h).max() == 1 if n > 0 else True
        m = h / np.sqrt(n)
        assert np.linalg.norm(m.T @ m - np.eye(n)) <= 1e-13 * n

    @pytest.mark.parametrize("n", [1, 2, 4, 12, 20, 24, 40, 96, 160])
    def test_leading_columns_are_those_of_the_full_matrix(self, n):
        # reference: Sylvester doubling of the odd-part seed block
        full = hadamard(n)
        seed = n
        while seed % 2 == 0 and seed not in (12, 20):
            seed //= 2
        doubled = hadamard(seed)
        while doubled.shape[0] < n:
            doubled = np.block([[doubled, doubled], [doubled, -doubled]])
        assert full.tobytes() == doubled.tobytes()
        for c in sorted({c for c in (1, 2, n // 2, n) if 1 <= c <= n}):
            h = hadamard(n, c)
            assert h.dtype == np.int64 and h.shape == (n, c)
            assert np.array_equal(h, full[:, :c])
        assert np.array_equal(hadamard(n, np.int64(n)), full)

    def test_order_support_predicate(self):
        supported = {a for a in range(1, 129) if is_hadamard_order(a)}
        expected = set()
        for seed in (1, 12, 20):
            order = seed
            while order <= 128:
                expected.add(order)
                order *= 2
        expected |= {2}
        assert supported == expected
        assert not is_hadamard_order(True) and not is_hadamard_order(2.0)

    @pytest.mark.parametrize("n", [3, 6, 10, 36, 52])
    def test_unsupported_orders(self, n):
        with pytest.raises(UnsupportedOrder):
            hadamard(n)

    def test_bad_order_values(self):
        with pytest.raises(InvalidInput):
            hadamard(0)
        with pytest.raises(InvalidInput):
            hadamard(-4)
        for columns in (0, 9, -1):
            with pytest.raises(InvalidInput, match=r"^columns must lie in \[1, 8\]"):
                hadamard(8, columns)


class TestGenerators:
    def test_haar_orthogonal_is_orthogonal(self, rng):
        q = haar_orthogonal(6, rng)
        assert np.linalg.norm(q.T @ q - np.eye(6)) <= 1e-13

    def test_haar_one_by_one_hits_both_signs(self, rng):
        draws = {float(haar_orthogonal(1, rng)[0, 0]) for _ in range(64)}
        assert draws == {1.0, -1.0}

    def test_haar_orthogonal_is_the_square_random_orthonormal_draw(self):
        for size in (1, 2, 5):
            a = haar_orthogonal(size, np.random.Generator(np.random.Philox(key=size)))
            b = random_orthonormal(size, size, np.random.Generator(np.random.Philox(key=size)))
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("size, count", [(1, 2000), (2, 10_000), (3, 2000)])
    def test_stacked_haar_draw_matches_single_draws(self, size, count):
        one, many = (np.random.Generator(np.random.Philox(key=5)) for _ in range(2))
        single = np.stack([haar_orthogonal(size, one) for _ in range(count)])
        assert single.tobytes() == haar_stack(size, count, many).tobytes()
        assert repr(one.bit_generator.state) == repr(many.bit_generator.state)

    def test_random_orthonormal(self, rng):
        x = random_orthonormal(9, 4, rng)
        assert x.shape == (9, 4)
        check_orthonormal(x)

    def test_check_orthonormal_rejects(self, rng):
        with pytest.raises(InvalidBasis):
            check_orthonormal(rng.standard_normal((6, 3)))
        with pytest.raises(InvalidBasis):
            check_orthonormal(np.ones((2, 3)))


def _all_bases_of_a_plane():
    """A zero pinning matrix pins nothing: the family has freedom 2."""
    return align(np.eye(3)[:, :2], np.zeros((3, 2)))[1]


def _angles():
    return canonical_angles(np.eye(4)[:, :2], np.eye(4)[:, 1:3])


_SMALL_CONFIG = ExperimentConfig(n=8, k=2, deltas=(0.1,))


def _plane_estimate(seed):
    plane = _all_bases_of_a_plane()
    return hausdorff_distance_estimate(plane, plane, "spectral", samples=2, seed=seed)


#: Each call passes a float or a bool where an integer belongs, as the named
#: argument; none may be truncated to an int.
_NON_INTEGER_CALLS = {
    "random_orthonormal": ("n", lambda: random_orthonormal(10.9, 3, None)),
    "random_orthonormal-bool": ("k", lambda: random_orthonormal(10, True, None)),
    "haar_orthogonal": ("size", lambda: haar_orthogonal(2.5, None)),
    "haar_orthogonal-bool": ("size", lambda: haar_orthogonal(True, None)),
    "hadamard-bool": ("n", lambda: hadamard(True)),
    "hadamard-columns": ("columns", lambda: hadamard(8, 2.0)),
    "hadamard-columns-bool": ("columns", lambda: hadamard(8, True)),
    "pinning_matrix-n": ("n", lambda: pinning_matrix(8.7, 3)),
    "pinning_matrix": ("zero_last", lambda: pinning_matrix(8, 3, zero_last=1.6)),
    "pinning_matrix-bool": ("zero_last", lambda: pinning_matrix(8, 3, zero_last=True)),
    "eta-r": ("r", lambda: eta("spectral", 2.9, 3, 0.5, 0.5, 1.0)),
    "eta-k": ("k", lambda: eta("spectral", 2, 3.5, 0.5, 0.5, 1.0)),
    "eta-bool": ("r", lambda: eta("spectral", True, 3, 0.5, 0.5, 1.0)),
    "xi_sharpened": ("k", lambda: xi_sharpened("trace", 2, 3.0, 0.5, 0.5, 1.0, 0.1)),
    "truncated_norm": ("r", lambda: truncated_norm(np.eye(3), 1.9, "spectral")),
    "truncated_sin_theta_norm": (
        "r",
        lambda: truncated_sin_theta_norm(_angles(), 1.9, "trace"),
    ),
    "wedin_bound": ("r", lambda: wedin_bound(np.eye(3), np.eye(3), 3.0, "spectral")),
    "hausdorff_distance_estimate": (
        "samples",
        lambda: hausdorff_distance_estimate(
            _all_bases_of_a_plane(), _all_bases_of_a_plane(), "trace", samples=8.5
        ),
    ),
    "hausdorff_distance_estimate-seed": ("seed", lambda: _plane_estimate(seed=1.5)),
    "hausdorff_distance_estimate-seed-bool": ("seed", lambda: _plane_estimate(seed=True)),
    "make_pair": ("index", lambda: make_pair(_SMALL_CONFIG, 0.1, index=1.5)),
    "make_pair-bool": ("index", lambda: make_pair(_SMALL_CONFIG, 0.1, index=True)),
    "verify_closed_form": ("index", lambda: verify_closed_form(_SMALL_CONFIG, 0.1, 1.5)),
    "default_delta_grid": ("points", lambda: default_delta_grid(points=3.0)),
}


@pytest.mark.parametrize("case", list(_NON_INTEGER_CALLS))
def test_non_integer_sizes_ranks_and_counts_rejected(case):
    name, call = _NON_INTEGER_CALLS[case]
    with pytest.raises(InvalidInput, match=f"^{name} must be an integer, got "):
        call()


#: Philox key words are unsigned 64-bit: a key or stream id outside that range
#: must be rejected by name, not wrapped or raised as a bare OverflowError.
_KEYS_OUT_OF_RANGE = {
    "hausdorff-seed-negative": ("seed", lambda: _plane_estimate(seed=-1)),
    "hausdorff-seed-2**64": ("seed", lambda: _plane_estimate(seed=2**64)),
    "make_pair-index-negative": ("index", lambda: make_pair(_SMALL_CONFIG, 0.1, index=-1)),
    "make_pair-index-2**63": ("index", lambda: make_pair(_SMALL_CONFIG, 0.1, index=2**63)),
}


@pytest.mark.parametrize("case", list(_KEYS_OUT_OF_RANGE))
def test_philox_keys_out_of_range_rejected(case):
    name, call = _KEYS_OUT_OF_RANGE[case]
    with pytest.raises(InvalidInput, match=f"^{name} must "):
        call()


def test_valid_philox_keys_keep_their_streams():
    assert _plane_estimate(seed=np.uint64(5)) == _plane_estimate(seed=5)
    assert _plane_estimate(seed=2**64 - 1) != _plane_estimate(seed=0)
    for index in (np.int64(3), 2**63 - 1):
        q1, q2 = make_pair(_SMALL_CONFIG, 0.1, index=index)[2:]
        key = [np.uint64(0), np.uint64(2 * int(index))]
        expected = haar_orthogonal(2, np.random.Generator(np.random.Philox(key=key)))
        assert np.array_equal(q1, expected)
        assert not np.array_equal(q1, q2)
