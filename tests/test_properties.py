"""Invariants of the paper's objects, as hypothesis properties.

Every example is drawn from a seed, so the derandomized profile of
``conftest.py`` makes each run draw the same pairs.  The shapes run over
``n == k``, ``2k > n`` and ``k = 1``, and the rank over freedoms 0 to 3.
"""

import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st

from subspace_align import NORM_KINDS, align, canonical_angles, evaluate_instance
from subspace_align.kernels import haar_orthogonal

from support import RANK_RTOL, rank_matrix, subspace_pair

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
