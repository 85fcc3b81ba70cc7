import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from subspace_align import (
    ExperimentConfig,
    InvalidBasis,
    InvalidInput,
    UnsupportedOrder,
    align,
    canonical_angles,
    check_orthonormal,
    haar_orthogonal,
    hadamard,
    make_pair,
    matrix_norm,
    orthonormal_completion,
    polar,
    random_orthonormal,
    singular_values,
    svd,
)
from subspace_align.kernels import _UNIT_ROUNDOFF, _gauge, _seed_order

from support import PLANE, assert_error, error_cases, haar_stack, row


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
        assert f.rank_tolerance == pytest.approx(7 * f.sigma[0] * _UNIT_ROUNDOFF)

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

    def test_outside_the_safe_range(self):
        # sigma_1 of this rank-1 matrix is past DBL_MAX: the rank and the
        # factors come from the matrix scaled into range, sigma_1 reads inf,
        # and no warning escapes (warnings are errors in this suite)
        ones = np.ones((3, 2))
        f = svd(ones * 1.7e308)
        assert f.numerical_rank == 1 and f.sigma[0] == math.inf
        assert np.abs(polar(ones * 1.7e308).q - polar(ones).q).max() <= 1e-15
        # a stack scales each member on its own
        stacked = svd([ones * 1.7e308, ones])
        for i, alone in enumerate((f, svd(ones))):
            member = row(stacked, i)
            assert member.numerical_rank == alone.numerical_rank
            assert member.u.tobytes() == alone.u.tobytes()
        # an exact power-of-two scale keeps the rank and the factors' bits
        tiny, unit = svd(ones * 2.0**-1000), svd(ones)
        assert tiny.numerical_rank == unit.numerical_rank == 1
        assert tiny.u.tobytes() == unit.u.tobytes() and tiny.v.tobytes() == unit.v.tobytes()
        assert tiny.sigma.tobytes() == (unit.sigma * 2.0**-1000).tobytes()

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


def test_matrix_norm_matches_singular_values(rng):
    b = rng.standard_normal((7, 3))
    s = singular_values(b)
    assert matrix_norm(b, "spectral") == pytest.approx(s[0])
    assert matrix_norm(b, "frobenius") == pytest.approx(np.sqrt((s * s).sum()))
    assert matrix_norm(b, "trace") == pytest.approx(s.sum())


@given(
    b=st.integers(1, 6).flatmap(lambda m: st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n), min_size=m, max_size=m))),
    e=st.integers(-1000, 1000),
    r=st.integers(1, 6),
)
def test_norms_scale_exactly_with_powers_of_two(b, e, r):
    # integer entries up to 2**20: b * 2**e is exact over the whole range of e,
    # where the squares of a Frobenius sum overflow (e > 490) or go subnormal
    # (e < -530) and LAPACK rescales by a ratio that is not a power of two
    b = np.array(b, dtype=np.float64)
    scaled = np.ldexp(b, e)
    for kind in ("spectral", "frobenius", "trace"):
        assert matrix_norm(scaled, kind) == matrix_norm(b, kind) * 2.0**e, kind
        # the norm of the r largest singular values, as the bounds take it
        truncated = _gauge(singular_values(b)[:r], kind)
        assert _gauge(singular_values(scaled)[:r], kind) == truncated * 2.0**e, kind


@pytest.mark.parametrize("shape", [(96, 5), (1024, 8), (8193, 1), (2048, 8), (3, 2500, 7)])
def test_a_frobenius_norm_sums_blocks_of_8192_entries_in_order(rng, shape):
    # one dot up to 8192 entries, the bits of np.linalg.norm; past that the
    # dots of consecutive 8192-entry blocks, added in order, which no BLAS
    # thread split can reorder (test_cli compares 1 and 2 threads)
    b = rng.standard_normal(shape)
    norms = np.atleast_1d(matrix_norm(b, "frobenius"))
    for member, norm in zip(b.reshape(-1, *shape[-2:]), norms, strict=True):
        v = member.ravel()
        total = 0.0
        for block in np.split(v, range(8192, v.size, 8192)):
            total += block.dot(block)
        assert norm == math.sqrt(total)
        if v.size <= 8192:
            assert norm == np.linalg.norm(member)
        # a sum of v.size nonnegative terms, in any order, is within v.size * u
        assert norm == pytest.approx(np.linalg.norm(member), rel=v.size * 2.0**-53)


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

    @given(
        n=st.integers(2, 200),
        k_frac=st.floats(0.0, 1.0),
        layout=st.sampled_from(("haar", "identity", "permuted", "defect")),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_residual_contract(self, n, k_frac, layout, seed):
        k = 1 + min(int(k_frac * (n - 1)), n - 2)  # 1 <= k <= n-1, 2k > n included
        rng = np.random.default_rng(seed)
        if layout == "haar":
            x = random_orthonormal(n, k, rng)
        elif layout == "defect":
            # x (I + E) with E symmetric: ||x.T x - I||_F is about 2 ||E||_F
            f = rng.standard_normal((k, k))
            f += f.T
            x = random_orthonormal(n, k, rng) @ (np.eye(k) + 0.45e-12 * n * f / np.linalg.norm(f))
            assert 0.8e-12 * n < np.linalg.norm(x.T @ x - np.eye(k)) <= 1e-12 * n
        else:
            # signed identity columns, in order (LAPACK returns tau = 0 for
            # each) or permuted
            order = np.arange(n) if layout == "identity" else rng.permutation(n)
            x = np.eye(n)[:, order[:k]] * rng.choice((-1.0, 1.0), k)
            if layout == "identity":
                assert not np.linalg.qr(x, mode="raw")[1].any()
        before = x.copy()
        comp = orthonormal_completion(x)
        assert comp.shape == (n, n - k)
        assert np.linalg.norm(comp.T @ x) <= 1e-12 * n
        assert np.linalg.norm(comp.T @ comp - np.eye(n - k)) <= 1e-12 * n
        assert comp.flags.c_contiguous
        assert not np.shares_memory(comp, x)
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("delta", [1e-8, 1e-5, 1e-3])
    def test_tall_hadamard_pair_sines(self, delta):
        # tall bases: at n = 2048, k = 8 every sine is delta to within 1e-9
        x, xt, _, _ = make_pair(ExperimentConfig(n=2048, k=8, seed=7), delta)
        sines = canonical_angles(x, xt).sines
        assert np.max(np.abs(sines - delta)) <= 1e-9 * (1.0 + delta)

    @pytest.mark.parametrize("n", [1, 2, 4, 9])
    def test_square_basis_has_empty_completion(self, rng, n):
        # the orthogonal complement of R^n is {0}, whose basis is n-by-0
        comp = orthonormal_completion(haar_orthogonal(n, rng))
        assert comp.shape == (n, 0)
        assert comp.flags.c_contiguous

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
        supported = {a for a in range(1, 129) if _seed_order(a) is not None}
        expected = set()
        for seed in (1, 12, 20):
            order = seed
            while order <= 128:
                expected.add(order)
                order *= 2
        expected |= {2}
        assert supported == expected
        for a in range(1, 129):  # hadamard builds exactly the orders the predicate names
            if a in supported:
                assert hadamard(a).shape == (a, a)
            else:
                message = f"^no Hadamard construction for order {a}$"
                with pytest.raises(UnsupportedOrder, match=message):
                    hadamard(a)

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

    def test_stacks_of_generators_and_matrices(self, rng):
        for draw in (lambda g: haar_orthogonal(3, g), lambda g: random_orthonormal(4, 2, g),
                     lambda g: haar_orthogonal(0, g)):
            with pytest.raises(InvalidInput, match=r"^rng is an empty sequence$"):
                draw([])
        assert haar_orthogonal(0, (rng, rng)).shape == (2, 0, 0)
        assert random_orthonormal(5, 2, [rng, rng, rng]).shape == (3, 5, 2)
        with pytest.raises(InvalidInput, match=r"^b is an empty stack$"):
            svd(np.zeros((0, 3, 2)))
        with pytest.raises(InvalidInput, match=r"^x_any must be 2-dimensional, got ndim=3$"):
            align(np.zeros((0, 3, 2)), np.ones((3, 2)))
        with pytest.raises(InvalidInput, match=r"^b must be 2-dimensional, got ndim=4$"):
            svd(np.ones((1, 1, 3, 2)))

    def test_non_generator_rng_rejected(self, rng):
        message = r"^rng must be a numpy\.random\.Generator or a list or tuple of them$"
        for draw in (lambda g: haar_orthogonal(3, g), lambda g: random_orthonormal(4, 2, g),
                     lambda g: haar_orthogonal(0, g)):
            for bad in (42, None, [rng, 42], (np.random.default_rng(0).bit_generator,)):
                with pytest.raises(InvalidInput, match=message):
                    draw(bad)

    def test_check_orthonormal_rejects(self, rng):
        with pytest.raises(InvalidBasis):
            check_orthonormal(rng.standard_normal((6, 3)))
        with pytest.raises(InvalidBasis):
            check_orthonormal(np.ones((2, 3)))


@pytest.mark.parametrize("error", error_cases("lapack"))
def test_lapack_failure_is_numerical_failure(error, monkeypatch):
    # each call reaches the numpy.linalg routine it names, made to fail there
    assert_error(error, monkeypatch)


@pytest.mark.parametrize("error", error_cases("range"))
def test_out_of_range_input_gets_its_typed_result_without_a_warning(error):
    # a basis whose Gram matrix overflows, or a norm past the float range:
    # an InvalidBasis naming the basis, or an inf, with no warning ahead of it
    assert_error(error)


@pytest.mark.parametrize("error", error_cases("integer"))
def test_non_integer_sizes_ranks_and_counts_rejected(error):
    # a float or a bool where an integer belongs: none may be truncated
    assert_error(error)


@pytest.mark.parametrize("error", error_cases("raise"))
def test_reachable_raises(error):
    # raises that no other test reaches, with the exact class and message
    assert_error(error)


@pytest.mark.parametrize("error", error_cases("unaddressable"))
def test_unaddressable_sizes_rejected(error):
    # more entries than numpy can address, refused before any allocation;
    # sizes numpy can address but the machine cannot hold are not called
    assert_error(error)


@pytest.mark.parametrize("rtol", ["abc", [1e-8], 1j], ids=["str", "list", "complex"])
@pytest.mark.parametrize("error", error_cases("rtol"))
def test_non_scalar_rtol_rejected(error, rtol):
    # every function that takes rtol reads it by one scalar rule
    assert_error(error, rtol)


#: complex, ragged and text input: each public matrix entry point refuses it
#: by argument name, never keeping the real part or raising a bare numpy error
_NOT_REAL = {
    "complex": [[1j, 0.0], [0.0, 1.0], [0.0, 0.0]],
    "ragged": [[1.0, 0.0], [0.0], [0.0, 0.0]],
    "ragged-stack": [PLANE, np.eye(2)],
    "text": "abc",
}


@pytest.mark.parametrize("value", list(_NOT_REAL))
@pytest.mark.parametrize("error", error_cases("matrix"))
def test_non_real_matrices_rejected(error, value):
    assert_error(error, _NOT_REAL[value])


@pytest.mark.parametrize("error", error_cases("key"))
def test_philox_keys_out_of_range_rejected(error):
    # Philox key words are unsigned 64-bit: one outside is rejected by name,
    # not wrapped or raised as a bare OverflowError
    assert_error(error)


def test_valid_philox_keys_keep_their_streams():
    def first_draw(seed):
        return make_pair(ExperimentConfig(n=8, k=2, deltas=(0.1,), seed=seed), 0.1)[2]

    assert first_draw(np.uint64(5)).tobytes() == first_draw(5).tobytes()
    assert first_draw(2**64 - 1).tobytes() != first_draw(0).tobytes()
    for index in (np.int64(3), 2**63 - 1):
        q1, q2 = make_pair(ExperimentConfig(n=8, k=2, deltas=(0.1,)), 0.1, index=index)[2:]
        key = [np.uint64(0), np.uint64(2 * int(index))]
        expected = haar_orthogonal(2, np.random.Generator(np.random.Philox(key=key)))
        assert np.array_equal(q1, expected)
        assert not np.array_equal(q1, q2)
