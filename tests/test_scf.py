"""The bound on the paper's own regime: pinned SCF iterates (tests/scf.py).

Consecutive iterates of a pinned SCF trajectory come nearer the bound than the
figure rows do, so a coefficient cut below the paper's fails here first.
"""

import pytest

import scf
from subspace_align import NORM_KINDS, evaluate_instance, load_matrix
from support import assert_self_consistent

#: The Tier-1 corpus: 24 trajectories of 20 steps, 480 pairs.
CORPUS = {"seed": 2026, "trajectories": 24, "steps": 20}

#: The most pairs of the corpus that may raise, as a share.
MOST_RAISED = 0.05

#: What ``python tests/scf.py`` found and stored: the largest `scf.bite` per
#: kind and regime, rounded down, which each stored pair must keep.
STORED_BITE = {
    ("spectral", "full_rank"): 0.346,
    ("spectral", "rank_deficient"): 0.163,
    ("frobenius", "full_rank"): 0.397,
    ("frobenius", "rank_deficient"): 0.240,
    ("trace", "full_rank"): 0.414,
    ("trace", "rank_deficient"): 0.224,
}


def _check(rep):
    assert rep.measured <= rep.xi + scf.SLACK, ("measured > xi", rep)
    assert_self_consistent(rep)


def test_scf_corpus_stays_within_the_bound():
    reports, failures = scf.corpus(**CORPUS)
    pairs = len(reports) // len(NORM_KINDS) + len(failures)
    assert pairs == CORPUS["trajectories"] * CORPUS["steps"]
    # a pair that raises is counted here, not dropped
    assert len(failures) <= MOST_RAISED * pairs, (
        f"{len(failures)} of {pairs} pairs raised: {[f[-1] for f in failures[:5]]}"
    )
    assert {rep.regime for rep, _ in reports} == set(scf.REGIMES)
    for rep, _ in reports:
        _check(rep)


@pytest.mark.parametrize("kind, regime", sorted(STORED_BITE))
def test_stored_scf_pair_stays_within_the_bound(kind, regime):
    x, xt, d = (load_matrix(scf.DATA / f"{kind}-{regime}.{part}.txt") for part in ("x", "xt", "d"))
    reports = evaluate_instance(x, xt, d, NORM_KINDS, rtol=scf.RANK_RTOL)
    for rep in reports:
        _check(rep)
    rep = reports[NORM_KINDS.index(kind)]
    assert rep.regime == regime
    assert scf.bite(rep) >= STORED_BITE[kind, regime], rep
