"""The three benchmark workloads: inputs from a seed, one op, its checks.

Each workload drives the public API the way a user does: the figure sweeps
through the CLI, ``bounds.evaluate_instance`` on random pinned pairs, and the
CLI on tall basis files.  Package functions are always reached through their
module attribute (``cli.main``, ``bounds.evaluate_instance``) so that the
tracer's rebinding, or a fault injected by the self-test, is seen here.

The correctness checks use only numpy functions bound at import time, never
the package, so a traced run does not count them and a fault in the package
cannot hide itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
from numpy.linalg import eigvalsh, norm, svd

from subspace_align import alignment, bounds, cli, experiments, kernels

NORMS = ("spectral", "frobenius", "trace")

#: Tolerance of the bound check, as in acceptance criterion 02 and row_passes.
BOUND_SLACK = 1e-10

#: Rank tolerance of the random instances, as in the acceptance suite.
RANK_RTOL = 1e-8


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _psd_defect(g, d_norm):
    """Error text when g is not symmetric PSD to 1e-10 * ||d||_2, else None."""
    tol = 1e-10 * d_norm
    asym = float(norm(g - g.T))
    floor = float(eigvalsh((g + g.T) / 2.0)[0])
    if asym > tol or floor < -tol:
        return f"x.T @ d not symmetric PSD: asymmetry {asym:.3e}, min eig {floor:.3e}"
    return None


class Figures:
    """``subspace-align experiment --figure F --seed S`` at the CLI defaults.

    F cycles through 1, 2 and 3 and S through two seeds drawn from the
    benchmark seed, so every (F, S) config repeats within a run and each
    repeat must rewrite a byte-identical ``sweep.csv``.
    """

    name = "figures"
    reference = ("python", "linalg")

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        seeds = [int(s) for s in rng.integers(0, 2**32, size=2)]
        self.configs = [(f, s) for s in seeds for f in (1, 2, 3)]
        self.workdir = Path(workdir)
        self.digests = {}

    @property
    def cycle(self):
        return len(self.configs)

    def kind(self, i):
        """Ops of one figure cost the same whatever the seed."""
        return self.configs[i % self.cycle][0]

    def run(self, i):
        figure, seed = self.configs[i % self.cycle]
        out = self.workdir / f"fig{figure}-seed{seed}"
        code, _, err = _run_cli(
            ["experiment", "--figure", str(figure), "--seed", str(seed), "--out", str(out)]
        )
        # the next repeat of this config overwrites the file: digest it now
        digest = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
        return code, err, digest

    def check(self, i, result):
        code, err, digest = result
        key = "fig{}-seed{}".format(*self.configs[i % self.cycle])
        if code != 0:
            return f"{key}: exit code {code}: {err.strip()[:200]}"
        first = self.digests.setdefault(key, digest)
        if digest != first:
            return f"{key}: sweep.csv differs from its first write in this run"
        return None

    def summary(self):
        return {"sweep_csv_sha256": dict(sorted(self.digests.items()))}


def _rank_matrix(rng, m, n, r):
    u = kernels.random_orthonormal(m, r, rng)
    v = kernels.random_orthonormal(n, r, rng)
    s = np.sort(rng.uniform(0.3, 3.0, r))[::-1]
    return (u * s) @ v.T


def _pinned_instance(rng):
    """Criterion-02 mix: k in 3..8, n in [2k, 64], rank deficiency 0, 1 or 2.

    Returns (x, x_tilde, d, r, k), or None when the draw is too close to a
    rank decision to be unambiguous, in which case the caller draws again.
    """
    k = int(rng.integers(3, 9))
    n = int(rng.integers(2 * k, 65))
    r = k - int(rng.choice((0, 1, 2)))
    d = _rank_matrix(rng, n, k, r)
    x_any = kernels.random_orthonormal(n, k, rng)
    eps = 10.0 ** rng.uniform(-8, -0.2)
    y_any, _ = np.linalg.qr(x_any + eps * rng.standard_normal((n, k)))
    x, sx = alignment.align(x_any, d, rtol=RANK_RTOL)
    y, sy = alignment.align(y_any, d, rtol=RANK_RTOL)
    if sx.r != r or sy.r != r or min(sx.sigma_r, sy.sigma_r) < 1e-6:
        return None
    return x, y, d, r, k


class Instances:
    """One random pinned instance evaluated in all three norms.

    A pool of instances is drawn in set-up from the benchmark seed and the
    ops cycle over it.
    """

    name = "instances"
    reference = ("python", "linalg")
    pool_size = 256

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.pool = []
        while len(self.pool) < self.pool_size:
            inst = _pinned_instance(rng)
            if inst is not None:
                self.pool.append(inst)

    @property
    def cycle(self):
        return len(self.pool)

    def kind(self, i):
        """Every instance has a shape and rank of its own."""
        return i % self.cycle

    def run(self, i):
        x, y, d, _, _ = self.pool[i % self.cycle]
        return [bounds.evaluate_instance(x, y, d, kind, rtol=RANK_RTOL) for kind in NORMS]

    def check(self, i, reports):
        _, _, _, r, k = self.pool[i % self.cycle]
        regime = "full_rank" if r == k else "rank_deficient"
        for rep in reports:
            if not rep.measured <= rep.xi + BOUND_SLACK:
                return f"{rep.kind}: measured {rep.measured!r} > xi {rep.xi!r}"
            if rep.r != r or rep.regime != regime:
                return f"{rep.kind}: r={rep.r} regime={rep.regime}, built r={r} of k={k}"
        return None

    def summary(self):
        ranks = [k - r for _, _, _, r, k in self.pool]
        return {"pool": self.cycle, "deficiency_counts": [ranks.count(z) for z in (0, 1, 2)]}


def _write_matrix(path, a):
    """The matrix text format, written by the benchmark and not the package."""
    rows = [" ".join(f"{v:.17g}" for v in row) for row in a]
    path.write_text(f"{a.shape[0]} {a.shape[1]}\n" + "\n".join(rows) + "\n", "ascii")


def _read_matrix(text):
    head, _, body = text.partition("\n")
    m, n = (int(t) for t in head.split())
    return np.array(body.split(), dtype=np.float64).reshape(m, n)


class TallFiles:
    """CLI commands on matrix files of pinned pairs at n=2048, k=8.

    Three pairs, one per rank deficiency z in {0, 1, 2}, each from
    ``make_pair`` at a delta drawn from the seed.  The ops cycle through
    ``align --emit-set``, ``angles`` and ``bounds --norm all --json`` on each
    pair in turn.
    """

    name = "tall_files"
    reference = ("python", "linalg", "complete_qr")
    n, k = 2048, 8
    commands = ("align", "angles", "bounds")

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        workdir = Path(workdir)
        self.pairs = []
        for z in (0, 1, 2):
            delta = float(10.0 ** rng.uniform(-8, -3))
            config = experiments.ExperimentConfig(
                n=self.n, k=self.k, seed=int(rng.integers(0, 2**32))
            )
            x_any, xt_any, _, _ = experiments.make_pair(config, delta)
            d = experiments.pinning_matrix(self.n, self.k, z)
            rtol = experiments.SWEEP_RANK_RTOL
            x, _ = alignment.align(x_any, d, rtol=rtol)
            xt, _ = alignment.align(xt_any, d, rtol=rtol)
            files = {}
            for tag, a in (("xany", xt_any), ("x", x), ("xt", xt), ("d", d)):
                files[tag] = workdir / f"z{z}_{tag}.txt"
                _write_matrix(files[tag], a)
            self.pairs.append(
                {"z": z, "delta": delta, "files": files, "xany": xt_any, "d": d}
            )

    @property
    def cycle(self):
        return len(self.commands) * len(self.pairs)

    def kind(self, i):
        """An op's cost is set by its command and its pair's rank deficiency:
        ``align --emit-set`` writes one file at z=0 and three at z>=1, and
        ``bounds`` aligns only when the pair is rank deficient."""
        command, pair = self._op(i)
        return command, pair["z"]

    def _op(self, i):
        i %= self.cycle
        return self.commands[i % len(self.commands)], self.pairs[i // len(self.commands)]

    def run(self, i):
        command, pair = self._op(i)
        f = {tag: str(path) for tag, path in pair["files"].items()}
        if command == "align":
            argv = ["align", "--x", f["xany"], "--d", f["d"], "--emit-set"]
        elif command == "angles":
            argv = ["angles", "--x", f["x"], "--y", f["xt"]]
        else:
            argv = ["bounds", "--x", f["x"], "--xt", f["xt"], "--d", f["d"],
                    "--norm", "all", "--json"]
        return _run_cli(argv)

    def check(self, i, result):
        command, pair = self._op(i)
        code, out, err = result
        tag = f"{command} z={pair['z']}"
        if code != 0:
            return f"{tag}: exit code {code}: {err.strip()[:200]}"
        delta, d = pair["delta"], pair["d"]
        if command == "angles":
            lines = out.splitlines()
            sines = np.array([float(line.split(",")[1]) for line in lines[1 : 1 + self.k]])
            worst = float(np.max(np.abs(sines - delta)))
            if worst > 1e-9 * (1.0 + delta):
                return f"{tag}: sine off the closed form {delta!r} by {worst:.3e}"
        elif command == "bounds":
            reports = json.loads(out)
            if [rep["kind"] for rep in reports] != list(NORMS):
                return f"{tag}: expected one report per norm"
            for rep in reports:
                if not rep["measured"] <= rep["xi"] + BOUND_SLACK:
                    return f"{tag} {rep['kind']}: measured {rep['measured']!r} > xi {rep['xi']!r}"
                if rep["r"] != self.k - pair["z"]:
                    return f"{tag} {rep['kind']}: r={rep['r']}, expected {self.k - pair['z']}"
        else:
            x = _read_matrix(out)
            x_in = pair["xany"]
            defect = float(norm(x.T @ x - np.eye(self.k)))
            residual = float(norm(x - x_in @ (x_in.T @ x)))
            if defect > 1e-10 or residual > 1e-10:
                return f"{tag}: output not an orthonormal basis of the input span"
            return _psd_defect(x.T @ d, float(svd(d, compute_uv=False)[0]))
        return None

    def summary(self):
        return {"pairs": [{"z": p["z"], "delta": p["delta"]} for p in self.pairs]}


WORKLOADS = {w.name: w for w in (Figures, Instances, TallFiles)}
