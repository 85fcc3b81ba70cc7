"""Pinned SCF (self-consistent-field) trajectories: the paper's own regime as
test data.

The paper's bound serves the convergence analysis of the NEPv approach to
maximizing ``f(X) = tr(X.T A X) + 2 tr(X.T D)`` over n-by-k X with orthonormal
columns, A symmetric.  Its KKT condition ``A X + D = X L`` with ``X.T D``
symmetric gives ``H(X) X = X (L + D.T X)`` for ``H(X) = A + D X.T + X D.T``.
One SCF step takes the top-k eigenvectors of ``H(X_i)`` (numpy's ``eigh``)
and pins them with ``align(v, D)`` into ``X_{i+1}``, so consecutive iterates
are pinned pairs with one fixed D.  Zeroed last columns of D give the
rank-deficient regime r < k.

Every trajectory is a function of its seed and index alone.
``PYTHONPATH=src python tests/scf.py`` runs the larger search (600
trajectories of 30 steps, seed 2026) and stores its worst pairs under
``tests/data/scf``, one per kind and regime by `bite`.
"""

from pathlib import Path

import numpy as np

from subspace_align import (
    NORM_KINDS,
    SubspaceAlignError,
    align,
    evaluate_instance,
    random_orthonormal,
    save_matrix,
)
from support import RANK_RTOL  # the zeroed columns of D give exact zeros, the rest are generic

#: The stored worst pairs, three matrix files each: ``<kind>-<regime>.x.txt``,
#: ``.xt.txt`` and ``.d.txt``.
DATA = Path(__file__).resolve().parent / "data" / "scf"

REGIMES = ("full_rank", "rank_deficient")

#: The absolute slack of every ``measured <= xi`` check of the suite.
SLACK = 1e-10


def trajectory(seed, index, steps):
    """``(d, xs)``: the pinning matrix and the `steps` + 1 pinned iterates of
    trajectory `index` of `seed`.

    The shape is drawn with k in 2..4 and n in [max(6, 2k), 16]; D has 0, 1 or
    2 zeroed last columns (fewer than k) and its scale relative to A spans two
    decades either way, so some trajectories converge and some do not."""
    rng = np.random.default_rng([seed, index])
    k = int(rng.integers(2, 5))
    n = int(rng.integers(max(6, 2 * k), 17))
    zeroed = int(rng.integers(0, min(2, k - 1) + 1))
    g = rng.standard_normal((n, n))
    a = (g + g.T) / 2.0
    d = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-2.0, 2.0)
    d[:, k - zeroed :] = 0.0
    x, _ = align(random_orthonormal(n, k, rng), d, rtol=RANK_RTOL)
    xs = [x]
    for _ in range(steps):
        h = a + d @ x.T + x @ d.T
        _, v = np.linalg.eigh((h + h.T) / 2.0)
        x, _ = align(v[:, -k:], d, rtol=RANK_RTOL)
        xs.append(x)
    return d, xs


def corpus(seed, trajectories, steps):
    """``(reports, failures)`` over each pinned pair ``(x_i, x_{i+1}, d)`` of
    the first `trajectories` trajectories of `seed`: each report in all three
    norms with its pair, and the pairs whose evaluation raised a
    SubspaceAlignError, each as ``(x, xt, d, error)``, for the caller to count."""
    reports, failures = [], []
    for index in range(trajectories):
        d, xs = trajectory(seed, index, steps)
        for x, xt in zip(xs, xs[1:]):
            try:
                found = evaluate_instance(x, xt, d, NORM_KINDS, rtol=RANK_RTOL)
            except SubspaceAlignError as exc:
                failures.append((x, xt, d, exc))
                continue
            reports.extend((rep, (x, xt, d)) for rep in found)
    return reports, failures


def bite(rep):
    """``(measured - SLACK) / xi``: the largest factor on `eta` at which `rep`
    fails ``measured <= xi + SLACK``, 0 where xi is 0.

    It is ``measured / xi`` less ``SLACK / xi``.  Converged iterates move by
    rounding alone, and there ``measured / xi`` can reach 0.4 with both below
    1e-14; the slack then passes any factor, and `bite` is negative."""
    return (rep.measured - SLACK) / rep.xi if rep.xi else 0.0


def worst(reports):
    """``{(kind, regime): (bite, pair)}`` of the largest `bite` per kind and regime."""
    best = {}
    for rep, pair in reports:
        key = (rep.kind, rep.regime)
        if key not in best or bite(rep) > best[key][0]:
            best[key] = (bite(rep), pair)
    return best


def store(best):
    """Write each worst pair of `best` under `DATA` in the matrix text format."""
    DATA.mkdir(parents=True, exist_ok=True)
    for (kind, regime), (_, (x, xt, d)) in sorted(best.items()):
        for part, a in (("x", x), ("xt", xt), ("d", d)):
            save_matrix(DATA / f"{kind}-{regime}.{part}.txt", a)


if __name__ == "__main__":  # the search whose worst pairs are stored
    reports, failures = corpus(seed=2026, trajectories=600, steps=30)
    best = worst(reports)
    store(best)
    print(f"{len(reports)} reports, {len(failures)} pairs raised")
    for (kind, regime), (value, (x, _, _)) in sorted(best.items()):
        print(f"{kind:9} {regime:14} n={x.shape[0]:2} k={x.shape[1]} bite={value:.4f}")
