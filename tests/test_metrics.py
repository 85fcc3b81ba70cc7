import numpy as np
import pytest

from subspace_align import (
    AngleSpectrum,
    DimensionMismatch,
    ExperimentConfig,
    InvalidBasis,
    InvalidInput,
    NORM_KINDS,
    align_rotation,
    canonical_angles,
    make_pair,
    sin_theta_norm,
)
from subspace_align.kernels import (
    haar_orthogonal,
    matrix_norm,
    orthonormal_completion,
    random_orthonormal,
)

from support import row

SQRT2 = np.sqrt(2.0)


def two_angle_pair(s1, s2):
    """Bases of two planes in R^4 whose canonical sines are exactly {s1, s2}."""
    c1, c2 = np.sqrt(1 - s1 * s1), np.sqrt(1 - s2 * s2)
    x = np.eye(4)[:, :2]
    y = np.array([[c1, 0.0], [0.0, c2], [s1, 0.0], [0.0, s2]])
    return x, y


class TestCanonicalAngles:
    def test_same_subspace_different_bases(self, rng):
        x = random_orthonormal(8, 3, rng)
        y = x @ haar_orthogonal(3, rng)
        angles = canonical_angles(x, y)
        assert np.all(angles.sines <= 1e-12)
        assert np.all(np.abs(angles.cosines - 1.0) <= 1e-12)

    def test_orthogonal_lines_in_plane(self):
        x = np.array([[1.0], [0.0]])
        y = np.array([[0.0], [1.0]])
        angles = canonical_angles(x, y)
        assert angles.k == 1
        assert angles.sines[0] == pytest.approx(1.0, abs=1e-12)
        assert angles.cosines[0] == pytest.approx(0.0, abs=1e-12)

    def test_hadamard_pair_equal_sines(self):
        config = ExperimentConfig()
        x, y, _, _ = make_pair(config, 0.5)
        angles = canonical_angles(x, y)
        assert np.all(np.abs(angles.sines - 0.5) <= 1e-12)

    def test_overlapping_subspaces_pad_zero_sines(self, rng):
        # 3-dim subspaces of R^4 share at least a 2-dim intersection
        x = random_orthonormal(4, 3, rng)
        y = random_orthonormal(4, 3, rng)
        angles = canonical_angles(x, y)
        assert angles.k == 3
        assert np.all(angles.sines[:2] <= 1e-12)

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_square_bases_take_the_general_path(self, rng, n):
        # at n == k the n-by-0 completion gives no sine values: all k are padding
        x = haar_orthogonal(n, rng)
        stack = haar_orthogonal(n, [rng] * 3)
        spectra = canonical_angles(x, stack)
        for y, angles in [(stack[0], canonical_angles(x, stack[0]))] + [
            (y, row(spectra, i)) for i, y in enumerate(stack)
        ]:
            assert angles.k == n
            assert angles.sines.tobytes() == np.zeros(n).tobytes()
            cosines = np.clip(np.linalg.svd(x.T @ y, compute_uv=False), 0.0, 1.0)
            assert angles.cosines.tobytes() == cosines.tobytes()

    def test_symmetry(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 51))
            k = int(rng.integers(1, min(n, 11)))
            x = random_orthonormal(n, k, rng)
            y = random_orthonormal(n, k, rng)
            a = canonical_angles(x, y).sines
            b = canonical_angles(y, x).sines
            assert np.all(np.abs(a - b) <= 1e-12)

    def test_basis_invariance(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 31))
            k = int(rng.integers(1, min(n, 9)))
            x = random_orthonormal(n, k, rng)
            y = random_orthonormal(n, k, rng)
            a = canonical_angles(x, y)
            b = canonical_angles(x @ haar_orthogonal(k, rng), y)
            assert np.all(np.abs(a.sines - b.sines) <= 1e-12)
            assert np.all(np.abs(a.cosines - b.cosines) <= 1e-12)

    def test_sine_cosine_pairing(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 41))
            k = int(rng.integers(1, min(n, 9)))
            x = random_orthonormal(n, k, rng)
            y = random_orthonormal(n, k, rng)
            a = canonical_angles(x, y)
            paired = a.sines**2 + a.cosines**2
            assert np.all(np.abs(paired - 1.0) <= 1e-10)

    def test_errors(self, rng):
        x = random_orthonormal(6, 2, rng)
        with pytest.raises(DimensionMismatch):
            canonical_angles(x, random_orthonormal(6, 3, rng))
        with pytest.raises(DimensionMismatch):
            canonical_angles(x, random_orthonormal(7, 2, rng))
        with pytest.raises(InvalidBasis):
            canonical_angles(x, rng.standard_normal((6, 2)))

    def test_stack_errors(self, rng):
        x = random_orthonormal(6, 2, rng)
        with pytest.raises(InvalidInput, match="^y is an empty stack"):
            canonical_angles(x, np.empty((0, 6, 2)))
        with pytest.raises(DimensionMismatch):
            canonical_angles(x, [random_orthonormal(7, 2, rng)] * 2)
        with pytest.raises(InvalidBasis):
            canonical_angles(x, [x, 2.0 * x])

    @pytest.mark.parametrize("n, k, m", [(520, 8, 3), (1100, 4, 2)])
    def test_tall_stack_gets_each_bases_own_bits(self, rng, n, k, m):
        # OpenBLAS picks its kernels by size, and the property tests stay small
        x = random_orthonormal(n, k, rng)
        stack = [np.linalg.qr(x + 10.0**-e * rng.standard_normal((n, k)))[0] for e in range(m)]
        xp = orthonormal_completion(x)
        spectra = canonical_angles(x, stack)
        assert len(spectra.sines) == len(spectra.cosines) == m
        for i, y in enumerate(stack):
            stacked, alone = row(spectra, i), canonical_angles(x, y)
            assert stacked.sines.tobytes() == alone.sines.tobytes()
            assert stacked.cosines.tobytes() == alone.cosines.tobytes()
            # the complement product keeps the bits of xp.T @ y
            sines = np.clip(np.linalg.svd(xp.T @ y, compute_uv=False)[::-1], 0.0, 1.0)
            assert alone.sines.tobytes() == sines.tobytes()


class TestSinThetaNorms:
    @pytest.mark.parametrize("sines", [[2.0], [-1.0], [np.nan, 0.5], [np.inf], [[0.1, 0.2]]])
    def test_bad_spectrum_rejected(self, sines):
        angles = AngleSpectrum(cosines=np.zeros(np.shape(sines)), sines=np.array(sines))
        for kind in NORM_KINDS:
            with pytest.raises(InvalidInput, match="^angles.sines must be a 1-d array"):
                sin_theta_norm(angles, kind)

    @pytest.mark.parametrize("angles", [None, (0.1, 0.2)])
    def test_non_spectrum_rejected(self, angles):
        with pytest.raises(InvalidInput, match="^angles.sines must be a real numeric array"):
            sin_theta_norm(angles, "spectral")

    def test_zero_distance(self, rng):
        x = random_orthonormal(6, 2, rng)
        angles = canonical_angles(x, x @ haar_orthogonal(2, rng))
        for kind in NORM_KINDS:
            assert sin_theta_norm(angles, kind) <= 1e-12

    def test_hadamard_pair_closed_forms(self):
        config = ExperimentConfig()
        x, y, _, _ = make_pair(config, 1e-3)
        angles = canonical_angles(x, y)
        assert sin_theta_norm(angles, "spectral") == pytest.approx(1e-3, rel=1e-9)
        assert sin_theta_norm(angles, "frobenius") == pytest.approx(
            np.sqrt(5) * 1e-3, rel=1e-9
        )
        assert sin_theta_norm(angles, "trace") == pytest.approx(5e-3, rel=1e-9)

    def test_two_known_angles(self):
        x, y = two_angle_pair(0.6, 0.8)
        angles = canonical_angles(x, y)
        assert sin_theta_norm(angles, "spectral") == pytest.approx(0.8, abs=1e-14)
        assert sin_theta_norm(angles, "frobenius") == pytest.approx(1.0, abs=1e-14)
        assert sin_theta_norm(angles, "trace") == pytest.approx(1.4, abs=1e-14)

    def test_triangle_inequality(self, rng):
        for _ in range(1000):
            n = int(rng.integers(3, 13))
            k = int(rng.integers(1, min(n, 5)))
            x = random_orthonormal(n, k, rng)
            y = random_orthonormal(n, k, rng)
            z = random_orthonormal(n, k, rng)
            for kind in NORM_KINDS:
                dxz = sin_theta_norm(canonical_angles(x, z), kind)
                dxy = sin_theta_norm(canonical_angles(x, y), kind)
                dyz = sin_theta_norm(canonical_angles(y, z), kind)
                assert dxz <= dxy + dyz + 1e-10


class TestAlignRotation:
    def test_exact_rotation_recovered(self, rng):
        x = random_orthonormal(9, 3, rng)
        q0 = haar_orthogonal(3, rng)
        y = x @ q0
        q, residuals = align_rotation(x, y)
        assert np.linalg.norm(q - q0.T) <= 1e-12
        for kind in NORM_KINDS:
            assert residuals[kind] <= 1e-12

    def test_hadamard_pair_sandwich(self):
        config = ExperimentConfig()
        x, y, _, _ = make_pair(config, 0.5)
        angles = canonical_angles(x, y)
        _, residuals = align_rotation(x, y)
        for kind in NORM_KINDS:
            s = sin_theta_norm(angles, kind)
            assert s - 1e-10 <= residuals[kind] <= SQRT2 * s + 1e-10

    def test_extreme_angle_saturates_upper_bound(self):
        x = np.array([[1.0], [0.0]])
        y = np.array([[0.0], [1.0]])
        _, residuals = align_rotation(x, y)
        assert residuals["spectral"] == pytest.approx(SQRT2, abs=1e-12)

    def test_sandwich_random(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(1, min(n, 8) + 1))
            x = random_orthonormal(n, k, rng)
            y = random_orthonormal(n, k, rng)
            angles = canonical_angles(x, y)
            q, residuals = align_rotation(x, y)
            for kind in NORM_KINDS:
                s = sin_theta_norm(angles, kind)
                assert s - 1e-10 <= residuals[kind] <= SQRT2 * s + 1e-10
            # all three residuals read one spectrum of the residual matrix
            diff = x - y @ q
            for kind in ("spectral", "trace"):
                assert residuals[kind] == matrix_norm(diff, kind)
            frobenius = matrix_norm(diff, "frobenius")
            assert residuals["frobenius"] == pytest.approx(frobenius, rel=1e-14)

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            align_rotation(random_orthonormal(6, 2, rng), random_orthonormal(5, 2, rng))
