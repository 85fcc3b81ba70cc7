import numpy as np
import pytest

from subspace_align import (
    DimensionMismatch,
    ExperimentConfig,
    InvalidInput,
    NORM_KINDS,
    RankMismatch,
    ShapeError,
    align,
    canonical_angles,
    eta,
    hadamard,
    hausdorff_distance_estimate,
    make_pair,
    matrix_norm,
    optimal_representative,
    pinning_matrix,
    polar,
    sin_theta_norm,
    subspace_distance,
)
from subspace_align.kernels import haar_orthogonal, random_orthonormal, svd

from support import RANK_RTOL, brute_min_distance, rank_matrix


class TestPolar:
    def test_identity(self):
        p = polar(np.eye(3))
        assert np.allclose(p.q, np.eye(3))
        assert np.allclose(p.h, np.eye(3))
        assert p.r == 3

    def test_psd_diagonal_with_zero(self):
        p = polar(np.diag([3.0, 0.0]))
        assert np.allclose(p.q, np.diag([1.0, 0.0]), atol=1e-14)
        assert np.allclose(p.h, np.diag([3.0, 0.0]), atol=1e-14)
        assert p.r == 1
        assert p.sigma_r == 3.0
        assert polar(np.zeros((3, 2))).sigma_r == 0.0

    def test_constructed_factor_recovered(self, rng):
        u0 = haar_orthogonal(2, rng)
        v0 = haar_orthogonal(2, rng)
        b = (u0 * [2.0, 1.0]) @ v0.T
        p = polar(b)
        assert np.linalg.norm(p.q - u0 @ v0.T) <= 1e-12

    def test_wide_input_rejected(self, rng):
        with pytest.raises(ShapeError):
            polar(rng.standard_normal((2, 5)))

    @pytest.mark.parametrize("shape,r", [((6, 6), 6), ((9, 4), 4), ((9, 4), 2), ((7, 7), 3)])
    def test_invariants(self, rng, shape, r):
        n, m = shape
        b = rank_matrix(rng, n, m, r)
        p = polar(b, rtol=RANK_RTOL)
        sigma1 = np.linalg.norm(b, 2)
        assert p.r == r
        assert p.sigma_r == svd(b, rtol=RANK_RTOL).sigma[r - 1]
        assert np.linalg.norm(p.h - p.h.T) <= 1e-12 * sigma1
        assert np.linalg.eigvalsh(p.h)[0] >= -1e-12 * sigma1
        assert np.linalg.norm(p.q @ p.h - b) <= 1e-10 * sigma1 * max(n, m)
        # q.T q is the orthogonal projector onto range(h)
        evals, evecs = np.linalg.eigh(p.h)
        cols = evecs[:, evals > 1e-8 * sigma1]
        assert np.linalg.norm(p.q.T @ p.q - cols @ cols.T) <= 1e-10
        assert np.linalg.matrix_rank(p.q, tol=1e-8) == r


class TestAlign:
    def test_already_aligned_is_fixed_point(self, rng):
        x_any = random_orthonormal(8, 3, rng)
        spd = rank_matrix(rng, 3, 3, 3)
        spd = spd @ spd.T + 0.5 * np.eye(3)
        d = x_any @ spd
        x, aset = align(x_any, d)
        assert np.linalg.norm(x - x_any) <= 1e-12
        assert aset.r == 3
        assert aset.freedom == 0

    def test_hadamard_full_rank_instance(self):
        n, k = 96, 5
        d = pinning_matrix(n, k)
        x_any = hadamard(n)[:, :k] / np.sqrt(n)
        x, aset = align(x_any, d)
        g = x.T @ d
        assert aset.r == k
        assert np.linalg.eigvalsh((g + g.T) / 2.0)[0] > 0.0
        assert subspace_distance(x, x_any) <= 1e-12

    def test_zeroed_column_gives_two_member_family(self, rng):
        n, k = 96, 5
        d = pinning_matrix(n, k, zero_last=1)
        x_any = hadamard(n)[:, :k] / np.sqrt(n)
        x, aset = align(x_any, d, rtol=RANK_RTOL)
        assert aset.r == k - 1
        assert aset.freedom == 1
        members = [aset.member(np.array([[s]])) for s in (1.0, -1.0)]
        assert np.linalg.norm(members[0] - x) <= 1e-12
        # every aligned basis of this subspace is one of the two members
        for _ in range(20):
            z, _ = align(x_any @ haar_orthogonal(k, rng), d, rtol=RANK_RTOL)
            dist = min(np.linalg.norm(z - m) for m in members)
            assert dist <= 1e-10

    def test_members_are_aligned_bases(self, rng):
        n, k, r = 12, 5, 3
        d = rank_matrix(rng, n, k, r)
        x_any = random_orthonormal(n, k, rng)
        x, aset = align(x_any, d, rtol=RANK_RTOL)
        d_norm = np.linalg.norm(d, 2)
        for _ in range(10):
            y = aset.member(haar_orthogonal(aset.freedom, rng))
            assert np.linalg.norm(y.T @ y - np.eye(k)) <= 1e-12 * n
            g = y.T @ d
            assert np.linalg.norm(g - g.T) <= 1e-10 * d_norm
            assert np.linalg.eigvalsh((g + g.T) / 2.0)[0] >= -1e-10 * d_norm
            assert subspace_distance(y, x_any) <= 1e-10

    def test_base_depends_only_on_subspace(self, rng):
        for r in (5, 4, 3):
            n, k = 14, 5
            d = rank_matrix(rng, n, k, r)
            x_any = random_orthonormal(n, k, rng)
            _, set_a = align(x_any, d, rtol=RANK_RTOL)
            _, set_b = align(x_any @ haar_orthogonal(k, rng), d, rtol=RANK_RTOL)
            assert set_a.r == set_b.r == r
            assert np.linalg.norm(set_a.base - set_b.base) <= 1e-10
            # base.T base is a rank-r orthogonal projector
            p = set_a.base.T @ set_a.base
            assert np.linalg.norm(p @ p - p) <= 1e-10
            assert abs(np.trace(p) - r) <= 1e-8

    def test_full_rank_alignment_unique(self, rng):
        for _ in range(50):
            n, k = 10, 4
            d = rank_matrix(rng, n, k, k)
            x_any = random_orthonormal(n, k, rng)
            x1, s1 = align(x_any, d, rtol=RANK_RTOL)
            x2, s2 = align(x_any @ haar_orthogonal(k, rng), d, rtol=RANK_RTOL)
            if min(s1.sigma_r, s2.sigma_r) < 1e-6:
                continue
            assert np.linalg.norm(x1 - x2) <= 1e-10

    def test_member_sets_coincide_for_small_freedom(self, rng):
        for r in (4, 3):
            n, k = 12, 5
            d = rank_matrix(rng, n, k, r)
            x_any = random_orthonormal(n, k, rng)
            _, set_a = align(x_any, d, rtol=RANK_RTOL)
            _, set_b = align(x_any @ haar_orthogonal(k, rng), d, rtol=RANK_RTOL)
            for _ in range(20):
                member = set_a.member(haar_orthogonal(set_a.freedom, rng))
                y_opt, _ = optimal_representative(set_b, member)
                assert np.linalg.norm(member - y_opt) <= 1e-10

    def test_rank_zero_degenerate_family(self, rng):
        n, k = 8, 3
        x_any = random_orthonormal(n, k, rng)
        # a zero product has rank 0 under the default rule
        x, aset = align(x_any, np.zeros((n, k)))
        assert aset.r == 0
        assert aset.freedom == k
        assert np.linalg.norm(aset.base) <= 1e-10
        assert aset.sigma_r == 0.0

    def test_trace_increase_law(self, rng):
        strict_checked = 0
        for _ in range(200):
            n = int(rng.integers(4, 20))
            k = int(rng.integers(1, min(n // 2, 6) + 1))
            d = rng.standard_normal((n, k))
            x_any = random_orthonormal(n, k, rng)
            x, _ = align(x_any, d)
            best = np.trace(x.T @ d)
            q = haar_orthogonal(k, rng)
            assert best >= np.trace((x_any @ q).T @ d) - 1e-10
            g = x_any.T @ d
            sym_floor = np.linalg.eigvalsh((g + g.T) / 2.0)[0]
            if np.linalg.norm(g - g.T) > 1e-8 or sym_floor < -1e-8:
                assert best > np.trace(g)
                strict_checked += 1
        assert strict_checked > 50

    def test_shape_errors(self, rng):
        x = random_orthonormal(6, 2, rng)
        with pytest.raises(DimensionMismatch):
            align(x, rng.standard_normal((6, 3)))
        with pytest.raises(DimensionMismatch):
            align(x, rng.standard_normal((5, 2)))


class TestMember:
    def test_full_rank_empty_freedom(self, rng):
        d = rank_matrix(rng, 8, 3, 3)
        x, aset = align(random_orthonormal(8, 3, rng), d, rtol=RANK_RTOL)
        assert np.array_equal(aset.member(np.zeros((0, 0))), aset.base)

    def test_identity_freedom_reproduces_aligned_basis(self, rng):
        d = rank_matrix(rng, 10, 4, 2)
        x, aset = align(random_orthonormal(10, 4, rng), d, rtol=RANK_RTOL)
        assert np.linalg.norm(aset.member(np.eye(2)) - x) <= 1e-12

    def test_sign_flip_gives_second_member(self, rng):
        d = rank_matrix(rng, 10, 4, 3)
        x, aset = align(random_orthonormal(10, 4, rng), d, rtol=RANK_RTOL)
        minus = aset.member(np.array([[-1.0]]))
        expected = aset.base - aset.freedom_left @ aset.freedom_right.T
        assert np.allclose(minus, expected)

    def test_invalid_w_rejected(self, rng):
        d = rank_matrix(rng, 10, 4, 2)
        _, aset = align(random_orthonormal(10, 4, rng), d, rtol=RANK_RTOL)
        with pytest.raises(InvalidInput):
            aset.member(np.array([[1.0, 0.0], [0.0, 2.0]]))
        with pytest.raises(DimensionMismatch):
            aset.member(np.eye(3))

    @pytest.mark.parametrize("deficiency", [1, 2])
    def test_nan_w_rejected(self, rng, deficiency):
        # NaN fails every comparison, so a NaN defect must not pass the check
        d = rank_matrix(rng, 10, 4, 4 - deficiency)
        _, aset = align(random_orthonormal(10, 4, rng), d, rtol=RANK_RTOL)
        w = np.eye(deficiency)
        w[0, 0] = np.nan
        with pytest.raises(InvalidInput, match="^w is not orthogonal"):
            aset.member(w)


class TestOptimalRepresentative:
    def test_member_recovers_itself(self, rng):
        d = rank_matrix(rng, 12, 5, 3)
        _, aset = align(random_orthonormal(12, 5, rng), d, rtol=RANK_RTOL)
        target = aset.member(haar_orthogonal(2, rng))
        y_opt, _ = optimal_representative(aset, target)
        assert np.linalg.norm(target - y_opt) <= 1e-10

    def test_two_member_family_picks_closer(self, rng):
        d = rank_matrix(rng, 12, 5, 4)
        _, aset = align(random_orthonormal(12, 5, rng), d, rtol=RANK_RTOL)
        target = random_orthonormal(12, 5, rng)
        y_opt, w_opt = optimal_representative(aset, target)
        dists = [
            np.linalg.norm(target - aset.member(np.array([[s]]))) for s in (1.0, -1.0)
        ]
        assert np.linalg.norm(target - y_opt) == pytest.approx(min(dists), abs=1e-12)
        assert w_opt.shape == (1, 1) and abs(abs(w_opt[0, 0]) - 1.0) <= 1e-12

    def test_beats_dense_grid_and_samples(self, rng):
        d = rank_matrix(rng, 12, 4, 2)
        _, aset = align(random_orthonormal(12, 4, rng), d, rtol=RANK_RTOL)
        target = random_orthonormal(12, 4, rng)
        y_opt, _ = optimal_representative(aset, target)
        opt = np.linalg.norm(target - y_opt)
        grid_min = brute_min_distance(aset, target, "frobenius", n_grid=100_000)
        sample_min = brute_min_distance(
            aset, target, "frobenius", n_samples=10_000, rng=rng
        )
        assert opt <= grid_min + 1e-10
        assert opt <= sample_min + 1e-10
        assert opt == pytest.approx(grid_min, abs=1e-8)

    def test_full_rank_family_returns_base(self, rng):
        d = rank_matrix(rng, 10, 3, 3)
        x, aset = align(random_orthonormal(10, 3, rng), d, rtol=RANK_RTOL)
        y_opt, w_opt = optimal_representative(aset, random_orthonormal(10, 3, rng))
        assert np.array_equal(y_opt, aset.base)
        assert w_opt.shape == (0, 0)
        assert np.array_equal(aset.member(np.eye(0)), aset.base)

    def test_rank_zero_family_reduces_to_rotation_alignment(self, rng):
        from subspace_align import align_rotation

        n, k = 9, 3
        x_any = random_orthonormal(n, k, rng)
        _, aset = align(x_any, np.zeros((n, k)))
        assert aset.r == 0
        target = random_orthonormal(n, k, rng)
        y_opt, _ = optimal_representative(aset, target)
        # with no pinning at all, the closest family member is the closest
        # rotation of any basis of the subspace
        _, residuals = align_rotation(target, x_any)
        assert np.linalg.norm(target - y_opt) == pytest.approx(
            residuals["frobenius"], abs=1e-10
        )


class TestHausdorff:
    def _pair_of_sets(self, rng, zero_last, delta=1e-4):
        config = ExperimentConfig(rank_deficiency=zero_last)
        d = pinning_matrix(config.n, config.k, zero_last)
        xd, xtd, _, _ = make_pair(config, delta)
        _, set_a = align(xd, d, rtol=RANK_RTOL)
        _, set_b = align(xtd, d, rtol=RANK_RTOL)
        return set_a, set_b, d, xd, xtd

    def test_identical_sets(self, rng):
        set_a, _, _, _, _ = self._pair_of_sets(rng, 1)
        est = hausdorff_distance_estimate(set_a, set_a, "frobenius")
        assert est.value <= 1e-10
        assert est.exact

    def test_singletons_reduce_to_matrix_distance(self, rng):
        set_a, set_b, d, xd, xtd = self._pair_of_sets(rng, 0)
        xa, _ = align(xd, d)
        xb, _ = align(xtd, d)
        for kind in NORM_KINDS:
            est = hausdorff_distance_estimate(set_a, set_b, kind)
            assert est.exact
            assert est.samples_used == 0
            assert est.value == pytest.approx(matrix_norm(xa - xb, kind), abs=1e-12)
            assert est.value == matrix_norm(set_b.base - set_a.base, kind)

    def test_bounded_by_eta_sin_theta(self, rng):
        set_a, set_b, d, xd, xtd = self._pair_of_sets(rng, 2)
        angles = canonical_angles(xd, xtd)
        for kind in NORM_KINDS:
            est = hausdorff_distance_estimate(set_a, set_b, kind, samples=64, seed=3)
            bound = eta(
                kind,
                set_a.r,
                set_a.k,
                set_a.sigma_r,
                set_b.sigma_r,
                np.linalg.norm(d, 2),
            ) * sin_theta_norm(angles, kind)
            assert est.value <= bound
            assert not est.exact

    def test_two_member_families_exact(self, rng):
        set_a, set_b, _, _, _ = self._pair_of_sets(rng, 1)
        members_a = [set_a.member(np.array([[s]])) for s in (1.0, -1.0)]
        members_b = [set_b.member(np.array([[s]])) for s in (1.0, -1.0)]
        for kind in NORM_KINDS:
            est = hausdorff_distance_estimate(set_a, set_b, kind)
            expected = max(
                min(matrix_norm(mb - ma, kind) for ma in members_a) for mb in members_b
            )
            assert est.exact
            assert est.value == expected

    def test_rank_mismatch_rejected(self, rng):
        set_a, _, _, _, _ = self._pair_of_sets(rng, 1)
        set_c, _, _, _, _ = self._pair_of_sets(rng, 2)
        with pytest.raises(RankMismatch):
            hausdorff_distance_estimate(set_a, set_c, "frobenius")

    def test_determinism_per_seed(self, rng):
        set_a, set_b, _, _, _ = self._pair_of_sets(rng, 2)
        a = hausdorff_distance_estimate(set_a, set_b, "spectral", samples=32, seed=9)
        b = hausdorff_distance_estimate(set_a, set_b, "spectral", samples=32, seed=9)
        assert a == b
