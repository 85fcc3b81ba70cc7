"""End-to-end acceptance suite.

Each test enforces one release criterion at its stated tolerance and prints a
single PASS/FAIL line (run with ``pytest -s`` to see them as they happen).
The randomized suites are fully deterministic: every generator is Philox with
a fixed key.
"""

import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from subspace_align import (
    ExperimentConfig,
    NORM_KINDS,
    align,
    align_rotation,
    canonical_angles,
    eta,
    evaluate_instance,
    make_pair,
    optimal_representative,
    pinning_matrix,
    polar_factor_bound,
    run_sweep,
    sin_theta_norm,
    wedin_bound,
    xi,
)
from subspace_align.experiments import SWEEP_RANK_RTOL
from subspace_align.kernels import haar_orthogonal, random_orthonormal

from support import (
    RANK_RTOL,
    assert_self_consistent,
    brute_min_distance,
    draw_aligned_instance,
    equal_rank_pair,
    rank_matrix,
    verify_closed_form,
)

SQRT2 = math.sqrt(2.0)


def _rng(key):
    return np.random.Generator(np.random.Philox(key=key))


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL  {description}", flush=True)
        raise
    print(f"criterion {number:02d} PASS  {description}", flush=True)


def _fit_slope(xs, ys):
    return float(np.polyfit(np.log10(xs), np.log10(ys), 1)[0])


def _check_sweep_shape(rows, norms):
    """Slope 1 +- 0.05 for measured and bound, slack band <= 10, bound holds."""
    for kind in norms:
        kind_rows = [r for r in rows if r.kind == kind]
        assert kind_rows and all(not r.flag for r in kind_rows)
        deltas = [r.delta for r in kind_rows]
        assert abs(_fit_slope(deltas, [r.measured for r in kind_rows]) - 1.0) <= 0.05
        assert abs(_fit_slope(deltas, [r.xi for r in kind_rows]) - 1.0) <= 0.05
        slacks = [r.slack for r in kind_rows]
        assert max(slacks) / min(slacks) <= 10.0
        for r in kind_rows:
            assert r.measured <= r.xi + 1e-10
            assert abs(r.sin_theta_closed - r.sin_theta_computed) <= 1e-9 * (
                1.0 + r.sin_theta_closed
            )


def test_criterion_01_closed_form_angles():
    with criterion(1, "closed-form sine norms hold to relative 1e-9 over the grid"):
        start = time.perf_counter()
        config = ExperimentConfig()
        for delta in config.deltas:
            check = verify_closed_form(config, delta)
            assert check.max_relative_error <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_bound_never_violated():
    with criterion(2, "bound holds on 10^4 random pinned instances, all norms"):
        start = time.perf_counter()
        rng = _rng(202608)
        checked = 0
        while checked < 10_000:
            x, y, d, r, k = draw_aligned_instance(rng)
            checked += 1
            for rep in evaluate_instance(x, y, d, NORM_KINDS, rtol=RANK_RTOL):
                assert rep.measured <= rep.xi + 1e-10, (
                    f"violation: kind={rep.kind} r={r} k={k} "
                    f"measured={rep.measured!r} xi={rep.xi!r}"
                )
                assert_self_consistent(rep)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.2f}s"


def test_criterion_03_full_rank_sweep():
    with criterion(3, "full-rank sweep: slopes 1 +- 0.05, slack band <= 10"):
        start = time.perf_counter()
        config = ExperimentConfig(seed=0)
        rows = run_sweep(config)
        _check_sweep_shape(rows, config.norms)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_04_two_member_sweep():
    with criterion(4, "one-column-deficient sweep uses the exact two-member minimum"):
        config = ExperimentConfig(rank_deficiency=1, seed=0)
        rows = run_sweep(config)
        _check_sweep_shape(rows, config.norms)
        d = pinning_matrix(config.n, config.k, 1)
        for index in (0, 13, 26, 39):
            delta = config.deltas[index]
            xd, xtd, _, _ = make_pair(config, delta, index=index)
            x, aset = align(xd, d, rtol=SWEEP_RANK_RTOL)
            xt, _ = align(xtd, d, rtol=SWEEP_RANK_RTOL)
            assert aset.freedom == 1
            members = [aset.member(np.array([[s]])) for s in (1.0, -1.0)]
            for kind in config.norms:
                row = next(
                    r for r in rows if r.kind == kind and r.delta == delta
                )
                sv = [np.linalg.svd(xt - m, compute_uv=False) for m in members]
                vals = {
                    "spectral": min(s[0] for s in sv),
                    "frobenius": min(float(np.sqrt((s**2).sum())) for s in sv),
                    "trace": min(float(s.sum()) for s in sv),
                }
                assert row.measured == pytest.approx(vals[kind], rel=1e-12)


def test_criterion_05_freedom_two_sweep():
    with criterion(
        5, "two-column-deficient sweep: optimal member certified, sandwich ordered"
    ):
        config = ExperimentConfig(rank_deficiency=2, seed=0)
        rows = run_sweep(config)
        _check_sweep_shape(rows, config.norms)
        d = pinning_matrix(config.n, config.k, 2)
        oracle_rng = _rng(909)
        for index, delta in enumerate(config.deltas):
            xd, xtd, _, _ = make_pair(config, delta, index=index)
            x, aset = align(xd, d, rtol=SWEEP_RANK_RTOL)
            xt, _ = align(xtd, d, rtol=SWEEP_RANK_RTOL)
            assert aset.freedom == 2
            row_f = next(
                r for r in rows if r.kind == "frobenius" and r.delta == delta
            )
            sampled = brute_min_distance(
                aset, xt, "frobenius", n_samples=10_000, rng=oracle_rng
            )
            assert row_f.measured <= sampled + 1e-10
            y_opt, _ = optimal_representative(aset, xt)
            for kind in ("spectral", "trace"):
                row = next(r for r in rows if r.kind == kind and r.delta == delta)
                assert row.measured_lower <= row.measured_upper + 1e-15
                assert row.measured == row.measured_upper
                inner = brute_min_distance(
                    aset, xt, kind, n_samples=256, rng=oracle_rng
                )
                inner = min(
                    inner,
                    float(np.linalg.svd(xt - y_opt, compute_uv=False)[0])
                    if kind == "spectral"
                    else float(np.linalg.svd(xt - y_opt, compute_uv=False).sum()),
                )
                assert row.measured_lower - 1e-12 <= inner <= row.measured_upper + 1e-12


def test_criterion_06_rotation_sandwich():
    with criterion(6, "rotation residual sandwich on 1000 random pairs, all norms"):
        rng = _rng(606)
        for _ in range(1000):
            n = int(rng.integers(2, 41))
            k = int(rng.integers(1, min(n, 8) + 1))
            x = random_orthonormal(n, k, rng)
            y = random_orthonormal(n, k, rng)
            angles = canonical_angles(x, y)
            _, residuals = align_rotation(x, y)
            for kind in NORM_KINDS:
                s = sin_theta_norm(angles, kind)
                assert s - 1e-10 <= residuals[kind] <= SQRT2 * s + 1e-10


def test_criterion_07_svd_and_polar_perturbation_suites():
    with criterion(
        7, "singular-subspace and polar-factor bounds on 1000 equal-rank pairs each"
    ):
        rng = _rng(707)
        for _ in range(1000):
            m = int(rng.integers(2, 17))
            n = int(rng.integers(2, 17))
            r = int(rng.integers(1, min(m, n) + 1))
            b, bt = equal_rank_pair(rng, m, n, r, scale=float(rng.uniform(0.01, 0.5)))
            for kind in NORM_KINDS:
                w = wedin_bound(b, bt, r, kind)
                assert max(w.measured_left, w.measured_right) <= w.bound_truncated + 1e-10
                assert w.bound_truncated <= w.bound_full + 1e-12
        rng = _rng(708)
        for i in range(1000):
            if i % 3 == 0:
                m = int(rng.integers(2, 11))
                n, r = m, m
            else:
                n = int(rng.integers(3, 15))
                m = int(rng.integers(2, n + 1))
                r = int(rng.integers(1, m + 1))
            b, bt = equal_rank_pair(rng, n, m, r, scale=float(rng.uniform(0.01, 0.5)))
            for kind in NORM_KINDS:
                p = polar_factor_bound(b, bt, kind, rtol=RANK_RTOL)
                assert p.measured <= p.bound_generic + 1e-10
                if p.bound_improved is not None:
                    assert p.measured <= p.bound_improved + 1e-10


def test_criterion_08_alignment_laws():
    with criterion(
        8, "trace increase, full-rank uniqueness, and base-term invariance"
    ):
        rng = _rng(808)
        for _ in range(1000):
            n = int(rng.integers(4, 24))
            k = int(rng.integers(1, min(n // 2, 6) + 1))
            d = rng.standard_normal((n, k))
            x_any = random_orthonormal(n, k, rng)
            q = haar_orthogonal(k, rng)
            x, _ = align(x_any, d)
            assert np.trace(x.T @ d) >= np.trace((x_any @ q).T @ d) - 1e-10
            g = x_any.T @ d
            if (
                np.linalg.norm(g - g.T) > 1e-8
                or np.linalg.eigvalsh((g + g.T) / 2.0)[0] < -1e-8
            ):
                assert np.trace(x.T @ d) > np.trace(g)
        rng = _rng(809)
        done = 0
        while done < 200:
            n, k = 12, 4
            d = rank_matrix(rng, n, k, k)
            x_any = random_orthonormal(n, k, rng)
            x1, s1 = align(x_any, d, rtol=RANK_RTOL)
            x2, s2 = align(x_any @ haar_orthogonal(k, rng), d, rtol=RANK_RTOL)
            if min(s1.sigma_r, s2.sigma_r) < 1e-6:
                continue
            assert np.linalg.norm(x1 - x2) <= 1e-10
            done += 1
        rng = _rng(810)
        done = 0
        while done < 200:
            n, k = 12, 4
            r = int(rng.choice([2, 3, 4]))
            d = rank_matrix(rng, n, k, r)
            x_any = random_orthonormal(n, k, rng)
            _, set_a = align(x_any, d, rtol=RANK_RTOL)
            _, set_b = align(x_any @ haar_orthogonal(k, rng), d, rtol=RANK_RTOL)
            if set_a.r != r or set_b.r != r or min(set_a.sigma_r, set_b.sigma_r) < 1e-6:
                continue
            assert np.linalg.norm(set_a.base - set_b.base) <= 1e-10
            done += 1


def test_criterion_09_coefficient_ordering_and_sharpening():
    with criterion(
        9, "coefficient ordering and sharpened <= plain bound on 10^5 tuples"
    ):
        rng = _rng(909)
        size = 100_000
        s = 10.0 ** rng.uniform(-3, 3, size)
        st = 10.0 ** rng.uniform(-3, 3, size)
        d = np.maximum(s, st) * 10.0 ** rng.uniform(0, 3, size)
        k = 5
        r = 3
        sines = np.sort(rng.uniform(0.0, 1.0, size=(size, k)), axis=1)
        top = sines[:, -r:]
        norms = {
            "spectral": (sines[:, -1], top[:, -1]),
            "frobenius": (
                np.sqrt((sines**2).sum(axis=1)),
                np.sqrt((top**2).sum(axis=1)),
            ),
            "trace": (sines.sum(axis=1), top.sum(axis=1)),
        }
        norms = {kind: (a.tolist(), b.tolist()) for kind, (a, b) in norms.items()}
        # the coefficients take scalars: every tuple is checked at each
        # deficient rank, and its sharpening at r = 3 in each norm kind
        for i, (a, b, c) in enumerate(zip(s.tolist(), st.tolist(), d.tolist())):
            full = eta("frobenius", k, k, a, b, c)
            for rank in (2, 3, 4):
                fro = eta("frobenius", rank, k, a, b, c)
                spec = eta("spectral", rank, k, a, b, c)
                generic = eta("trace", rank, k, a, b, c)
                assert full < fro and full < spec
                assert fro < generic and spec < generic
            for kind, (full_norm, trunc_norm) in norms.items():
                sharp = xi(kind, r, k, a, b, c, trunc_norm[i])
                plain = xi(kind, r, k, a, b, c, full_norm[i])
                assert sharp <= plain + 1e-12
                if kind == "spectral":
                    assert sharp == plain


def test_criterion_10_byte_identical_experiment(tmp_path):
    with criterion(10, "repeated experiment runs emit byte-identical CSV"):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "subspace_align",
                    "experiment",
                    "--figure",
                    "1",
                    "--seed",
                    "7",
                    "--out",
                    str(out),
                ],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) > 0
