import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from subspace_align import (
    DimensionMismatch,
    ExperimentConfig,
    InvalidBasis,
    InvalidInput,
    NumericalFailure,
    UnsupportedOrder,
    align,
    align_rotation,
    canonical_angles,
    check_orthonormal,
    default_delta_grid,
    eta,
    evaluate_instance,
    haar_orthogonal,
    hadamard,
    make_pair,
    matrix_norm,
    optimal_representative,
    orthonormal_completion,
    pinning_matrix,
    polar,
    polar_factor_bound,
    random_orthonormal,
    singular_values,
    svd,
    wedin_bound,
)
from subspace_align.kernels import _UNIT_ROUNDOFF, _gauge, _seed_order

from support import haar_stack, row


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


_SMALL_CONFIG = ExperimentConfig(n=8, k=2, deltas=(0.1,))


def _closest_member_call():
    x = np.eye(4, 2)
    _, aset = align(x, np.diag([1.0, 0.0])[[0, 1, 1, 1]])  # rank 1 of 2: freedom 1
    return lambda: optimal_representative(aset, x)


def _pinned_pair_call():
    d = pinning_matrix(8, 2)
    x, _ = align(np.eye(8, 2), d)
    return lambda: evaluate_instance(x, x, d, "trace")


#: Each entry sets up a call, before the numpy.linalg routine it names fails,
#: that then reaches that routine.
_LAPACK_CALLS = {
    "canonical_angles": ("svd", lambda: lambda: canonical_angles(np.eye(4, 2), np.eye(4, 2))),
    "optimal_representative": ("svd", _closest_member_call),
    "align_rotation": ("svd", lambda: lambda: align_rotation(np.eye(4, 2), np.eye(4, 2))),
    "evaluate_instance": ("eigvalsh", _pinned_pair_call),
}


@pytest.mark.parametrize("case", list(_LAPACK_CALLS))
def test_lapack_failure_is_numerical_failure(case, monkeypatch):
    routine, setup = _LAPACK_CALLS[case]
    call = setup()

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{routine} did not converge")

    monkeypatch.setattr(np.linalg, routine, fail)
    with pytest.raises(NumericalFailure, match=f"^numpy.linalg.{routine} failed: "):
        call()


_HUGE = np.eye(4, 2) * 1e200  # its Gram matrix overflows

#: Each call on input past the float range must give its typed result, an
#: InvalidBasis naming the basis or an inf norm, with no warning ahead of it.
_OUT_OF_RANGE_CALLS = {
    "check_orthonormal": lambda: check_orthonormal(_HUGE),
    "align": lambda: align(_HUGE, np.eye(4, 2)),
    "canonical_angles": lambda: canonical_angles(_HUGE, np.eye(4, 2)),
    "canonical_angles-stack": lambda: canonical_angles(np.eye(4, 2), [np.eye(4, 2), _HUGE]),
    "orthonormal_completion": lambda: orthonormal_completion(_HUGE),
    "align_rotation": lambda: align_rotation(_HUGE, np.eye(4, 2)),
    "matrix_norm-trace": lambda: matrix_norm(np.eye(4, 2) * 1.7e308, "trace"),
}


@pytest.mark.parametrize("case", list(_OUT_OF_RANGE_CALLS))
def test_out_of_range_input_gets_its_typed_result_without_a_warning(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = _OUT_OF_RANGE_CALLS[case]()
        except InvalidBasis as exc:
            assert re.match(r"^(x|x_any|y) is not orthonormal: \|\|x\.T x - I\|\|_F = inf > ",
                            str(exc)), exc
        else:
            assert case == "matrix_norm-trace" and result == math.inf


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
    "wedin_bound": ("r", lambda: wedin_bound(np.eye(3), np.eye(3), 3.0, "spectral")),
    "ExperimentConfig-seed": ("seed", lambda: ExperimentConfig(seed=1.5)),
    "ExperimentConfig-seed-bool": ("seed", lambda: ExperimentConfig(seed=True)),
    "make_pair": ("index", lambda: make_pair(_SMALL_CONFIG, 0.1, index=1.5)),
    "make_pair-bool": ("index", lambda: make_pair(_SMALL_CONFIG, 0.1, index=True)),
    "default_delta_grid": ("points", lambda: default_delta_grid(points=3.0)),
}


@pytest.mark.parametrize("case", list(_NON_INTEGER_CALLS))
def test_non_integer_sizes_ranks_and_counts_rejected(case):
    name, call = _NON_INTEGER_CALLS[case]
    with pytest.raises(InvalidInput, match=f"^{name} must be an integer, got "):
        call()


#: Each call reaches a raise that no other test reaches, with the exact class
#: and the whole message it must give.
_REACHABLE_RAISES = {
    "svd-no-rows": (InvalidInput, "b must be at least 1x1, got shape (0, 3)",
                    lambda: svd(np.zeros((0, 3)))),
    "check_orthonormal-no-columns": (InvalidInput, "x must be at least 1x1, got shape (3, 0)",
                                     lambda: check_orthonormal(np.zeros((3, 0)))),
    "haar_orthogonal": (InvalidInput, "size must be nonnegative",
                        lambda: haar_orthogonal(-1, np.random.default_rng(0))),
    "random_orthonormal": (InvalidInput, "need 1 <= k <= n, got n=3, k=4",
                           lambda: random_orthonormal(3, 4, np.random.default_rng(0))),
    "wedin_bound": (InvalidInput, "rank r must be at least 1",
                    lambda: wedin_bound(np.eye(3), np.eye(3), 0, "spectral")),
    "polar_factor_bound": (InvalidInput, "both matrices are numerically zero",
                           lambda: polar_factor_bound(np.zeros((3, 2)), np.zeros((3, 2)), "trace")),
    "default_delta_grid": (InvalidInput, "need at least 2 grid points",
                           lambda: default_delta_grid(1)),
    "optimal_representative": (
        DimensionMismatch, "basis shapes differ: (6, 3) vs (7, 3)",
        lambda: optimal_representative(align(np.eye(6, 3), pinning_matrix(6, 3, 1))[1],
                                       np.eye(7, 3)),
    ),
}


@pytest.mark.parametrize("case", list(_REACHABLE_RAISES))
def test_reachable_raises(case):
    cls, message, call = _REACHABLE_RAISES[case]
    with pytest.raises(cls) as info:
        call()
    assert type(info.value) is cls and str(info.value) == message


#: Each call asks for a result of more entries than numpy can address, so it
#: must be refused before anything is allocated.  Sizes that numpy can address
#: but the machine cannot hold are not called: they would try to allocate.
_UNADDRESSABLE_CALLS = {
    "hadamard": lambda: hadamard(2**64),
    "hadamard-columns": lambda: hadamard(2**62, 1),
    "haar_orthogonal": lambda: haar_orthogonal(2**64, np.random.default_rng(0)),
    "random_orthonormal": lambda: random_orthonormal(2**64, 1, np.random.default_rng(0)),
    "random_orthonormal-stack": lambda: random_orthonormal(
        2**57, 1, [np.random.default_rng(0)] * 8),  # addressable alone, not stacked
    "pinning_matrix": lambda: pinning_matrix(2**64, 1),
}


@pytest.mark.parametrize("case", list(_UNADDRESSABLE_CALLS))
def test_unaddressable_sizes_rejected(case):
    with pytest.raises(InvalidInput, match=r"^a \d+(x\d+)+ array cannot be addressed$"):
        _UNADDRESSABLE_CALLS[case]()


_PLANE = np.eye(3)[:, :2]  # pinned by itself: the product is the identity

#: every public function that takes `rtol` reads it by one scalar rule
_RTOL_CALLS = {
    "svd": lambda rtol: svd(_PLANE, rtol=rtol),
    "polar": lambda rtol: polar(_PLANE, rtol=rtol),
    "align": lambda rtol: align(_PLANE, _PLANE, rtol=rtol),
    "polar_factor_bound": lambda rtol: polar_factor_bound(
        _PLANE, _PLANE, "trace", rtol=rtol
    ),
    "evaluate_instance": lambda rtol: evaluate_instance(
        _PLANE, _PLANE, _PLANE, "trace", rtol=rtol
    ),
}


@pytest.mark.parametrize("rtol", ["abc", [1e-8], 1j], ids=["str", "list", "complex"])
@pytest.mark.parametrize("case", list(_RTOL_CALLS))
def test_non_scalar_rtol_rejected(case, rtol):
    with pytest.raises(InvalidInput, match="^rtol must be a real scalar"):
        _RTOL_CALLS[case](rtol)


#: complex, ragged and text input: each public matrix entry point refuses it
#: by argument name, never keeping the real part or raising a bare numpy error
_NOT_REAL = {
    "complex": [[1j, 0.0], [0.0, 1.0], [0.0, 0.0]],
    "ragged": [[1.0, 0.0], [0.0], [0.0, 0.0]],
    "ragged-stack": [_PLANE, np.eye(2)],
    "text": "abc",
}
_MATRIX_CALLS = {
    "check_orthonormal": ("x", check_orthonormal),
    "svd": ("b", svd),
    "singular_values": ("b", singular_values),
    "matrix_norm": ("b", lambda a: matrix_norm(a, "trace")),
    "align": ("x_any", lambda a: align(a, _PLANE)),
    "AlignedBasisSet.member": ("w", lambda a: align(_PLANE, _PLANE)[1].member(a)),
    "canonical_angles": ("y", lambda a: canonical_angles(_PLANE, a)),
    "evaluate_instance": ("x_tilde", lambda a: evaluate_instance(_PLANE, a, _PLANE, "trace")),
}


@pytest.mark.parametrize("value", list(_NOT_REAL))
@pytest.mark.parametrize("case", list(_MATRIX_CALLS))
def test_non_real_matrices_rejected(case, value):
    name, call = _MATRIX_CALLS[case]
    with pytest.raises(InvalidInput, match=f"^{name} must be a real numeric array"):
        call(_NOT_REAL[value])


#: Philox key words are unsigned 64-bit: a key or stream id outside that range
#: must be rejected by name, not wrapped or raised as a bare OverflowError.
_KEYS_OUT_OF_RANGE = {
    "ExperimentConfig-seed-negative": ("seed", lambda: ExperimentConfig(seed=-1)),
    "ExperimentConfig-seed-2**64": ("seed", lambda: ExperimentConfig(seed=2**64)),
    "make_pair-index-negative": ("index", lambda: make_pair(_SMALL_CONFIG, 0.1, index=-1)),
    "make_pair-index-2**63": ("index", lambda: make_pair(_SMALL_CONFIG, 0.1, index=2**63)),
}


@pytest.mark.parametrize("case", list(_KEYS_OUT_OF_RANGE))
def test_philox_keys_out_of_range_rejected(case):
    name, call = _KEYS_OUT_OF_RANGE[case]
    with pytest.raises(InvalidInput, match=f"^{name} must "):
        call()


def test_valid_philox_keys_keep_their_streams():
    def first_draw(seed):
        return make_pair(ExperimentConfig(n=8, k=2, deltas=(0.1,), seed=seed), 0.1)[2]

    assert first_draw(np.uint64(5)).tobytes() == first_draw(5).tobytes()
    assert first_draw(2**64 - 1).tobytes() != first_draw(0).tobytes()
    for index in (np.int64(3), 2**63 - 1):
        q1, q2 = make_pair(_SMALL_CONFIG, 0.1, index=index)[2:]
        key = [np.uint64(0), np.uint64(2 * int(index))]
        expected = haar_orthogonal(2, np.random.Generator(np.random.Philox(key=key)))
        assert np.array_equal(q1, expected)
        assert not np.array_equal(q1, q2)
