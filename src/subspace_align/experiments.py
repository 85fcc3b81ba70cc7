"""Deterministic bound-tightness sweeps.

The harness builds pairs of subspaces at a controlled sin-theta distance
``delta`` from scaled Hadamard columns, pins their bases with a structured
target matrix (optionally rank-deficient), and tracks the measured basis
error against the predicted bound across a logarithmic delta grid.  Output is
a row list plus optional CSV, one SVG plot per norm, and an exact JSON echo
of the configuration.

Randomness is fully reproducible: the two rotations of each sweep point are
drawn from Philox streams keyed ``(seed, 2*index)`` and ``(seed, 2*index+1)``,
so points may be evaluated in any order, or in parallel, without changing a
single bit of the output.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .alignment import align
from .bounds import evaluate_instance
from .errors import (
    InvalidInput,
    NotAligned,
    RankMismatch,
    UnsupportedOrder,
    VerificationFailure,
)
from .kernels import (
    NORM_KINDS,
    _gauge,
    _integer,
    _uint64,
    haar_orthogonal,
    hadamard,
    is_hadamard_order,
)
from .metrics import canonical_angles, sin_theta_norm
from .svgplot import write_loglog_svg

__all__ = [
    "default_delta_grid",
    "ExperimentConfig",
    "SweepRow",
    "make_pair",
    "pinning_matrix",
    "run_sweep",
    "ClosedFormCheck",
    "verify_closed_form",
    "config_from_dict",
    "row_passes",
]

#: Cross-check band for the general-purpose sine computation on assembled
#: (rounded) pair matrices: absolute below one, relative above.
SIN_CROSS_CHECK_TOL = 1e-9

#: Relative tolerance for the factored, exactly cancelling sine computation.
CLOSED_FORM_RTOL = 1e-9

#: Rank tolerance used by the sweep, relative to the largest singular value
#: of each pinned product.  The pinning matrix has exact rank by
#: construction, so the positive singular values sit many orders above this
#: while the default policy (dimension * sigma_1 * roundoff) can graze the
#: rounding floor of trailing singular values of computed products.
SWEEP_RANK_RTOL = 1e-8


def default_delta_grid(points=40):
    """Logarithmic grid of `points` deltas from 1e-12 to 1e-2 inclusive."""
    if _integer(points, "points") < 2:
        raise InvalidInput("need at least 2 grid points")
    return tuple(float(v) for v in np.logspace(-12.0, -2.0, points))


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep configuration; immutable and hashable once constructed."""

    n: int = 96
    k: int = 5
    deltas: tuple = field(default_factory=default_delta_grid)
    rank_deficiency: int = 0
    seed: int = 0
    norms: tuple = NORM_KINDS

    def __post_init__(self):
        try:
            object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
            object.__setattr__(self, "norms", tuple(self.norms))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInput(f"deltas and norms must be sequences: {exc}") from exc
        for name in ("n", "k", "rank_deficiency"):
            _integer(getattr(self, name), name)
        _uint64(self.seed, "seed")
        if self.k < 1 or self.n < 2 * self.k:
            raise InvalidInput(f"need n >= 2k >= 2, got n={self.n}, k={self.k}")
        if not is_hadamard_order(self.n):
            raise UnsupportedOrder(f"no Hadamard construction for n={self.n}")
        if not self.deltas:
            raise InvalidInput("deltas must be nonempty")
        if any(not 0.0 < d < 1.0 for d in self.deltas):
            raise InvalidInput("every delta must lie strictly between 0 and 1")
        if self.rank_deficiency not in (0, 1, 2) or self.rank_deficiency >= self.k:
            raise InvalidInput(f"rank_deficiency must be 0, 1, or 2 and below k={self.k}")
        bad = [kind for kind in self.norms if kind not in NORM_KINDS]
        if bad or not self.norms or len(set(self.norms)) != len(self.norms):
            raise InvalidInput(
                f"norms must be a nonempty subset of {NORM_KINDS}, each kind once"
            )


def config_from_dict(payload):
    """Rebuild a configuration from the dict shape emitted in config.json."""
    if not isinstance(payload, dict):
        raise InvalidInput(f"config must be a JSON object, got {type(payload).__name__}")
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(payload) - known
    if unknown:
        raise InvalidInput(f"unknown config fields: {sorted(unknown)}")
    return ExperimentConfig(**payload)


def _stream(seed, stream_id):
    key = np.array([np.uint64(seed), np.uint64(stream_id)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def make_pair(config, delta, index=0):
    """Two orthonormal bases whose canonical angles all have sine `delta`.

    The first basis is the leading k columns of the scaled Hadamard matrix
    ``m = hadamard(n, 2 * k) / sqrt(n)``; the second mixes those columns with the
    next k, each block rotated by its own Haar-orthogonal matrix:
    ``sqrt(1 - delta**2) * m[:, :k] @ q1 + delta * m[:, k:2k] @ q2``, so every
    canonical angle between the spans has cosine ``sqrt(1 - delta**2)``.  The
    first basis is not rotated.  q1 and q2 come from the Philox streams
    ``(config.seed, 2 * index)`` and ``(config.seed, 2 * index + 1)``, so
    `index` must satisfy ``0 <= 2 * index + 1 < 2**64``.

    Returns
    -------
    x_diamond, x_tilde_diamond : (n, k) ndarray
    q1, q2 : (k, k) ndarray
    """
    if not 0.0 <= delta <= 1.0:
        raise InvalidInput(f"delta must lie in [0, 1], got {delta}")
    if not 0 <= 2 * _integer(index, "index") + 1 < 2**64:
        raise InvalidInput(f"index must lie in [0, 2**63), got {index}")
    n, k = config.n, config.k
    m = hadamard(n, 2 * k) / math.sqrt(n)
    q1 = haar_orthogonal(k, _stream(config.seed, 2 * index))
    q2 = haar_orthogonal(k, _stream(config.seed, 2 * index + 1))
    x_diamond = m[:, :k].copy()
    x_tilde_diamond = (
        math.sqrt(max(0.0, 1.0 - delta * delta)) * m[:, :k] @ q1
        + delta * m[:, k : 2 * k] @ q2
    )
    return x_diamond, x_tilde_diamond, q1, q2


def pinning_matrix(n, k, zero_last=0):
    """Structured pinning matrix used by the sweeps.

    The top k-by-k block is the identity; below it, the zero-based row i
    holds ``(i + 1) / (8n + j)`` in column j.  Resetting the trailing
    `zero_last` columns to zero forces rank ``k - zero_last``.
    """
    n, k = _integer(n, "n"), _integer(k, "k")
    if not 1 <= k <= n:
        raise InvalidInput(f"need 1 <= k <= n, got n={n}, k={k}")
    zero_last = _integer(zero_last, "zero_last")
    if not 0 <= zero_last <= k:
        raise InvalidInput(f"zero_last must lie in [0, {k}], got {zero_last}")
    d = np.zeros((n, k))
    d[:k, :k] = np.eye(k)
    rows = np.arange(k + 1, n + 1, dtype=np.float64)
    cols = 8.0 * n + np.arange(k, dtype=np.float64)
    d[k:, :] = rows[:, None] / cols[None, :]
    if zero_last:
        d[:, k - zero_last :] = 0.0
    return d


@dataclass(frozen=True)
class SweepRow:
    """One (delta, norm) evaluation of the sweep.

    ``sin_theta_closed`` is the construction's closed form (delta, sqrt(k)
    delta, or k delta); ``sin_theta_computed`` is the general-purpose angle
    computation on the assembled matrices.  ``measured_lower`` and
    ``measured_upper`` bracket the true minimum distance when it is not
    computed exactly, and coincide with ``measured`` when it is.  A nonempty
    ``flag`` holds the name and message of the error that prevented
    evaluation; such a row keeps the defaults, NaN and None.
    """

    delta: float
    kind: str
    sin_theta_closed: float
    sin_theta_computed: float = math.nan
    measured: float = math.nan
    measured_lower: float = math.nan
    measured_upper: float = math.nan
    xi: float = math.nan
    xi_sharpened: float | None = None
    slack: float = math.nan
    sigma_r: float = math.nan
    sigma_r_tilde: float = math.nan
    flag: str = ""


_CLOSED_FACTORS = {"spectral": lambda k: 1.0, "frobenius": math.sqrt, "trace": float}


def _closed_form(kind, k, delta):
    return _CLOSED_FACTORS[kind](k) * delta


def run_sweep(config, out_dir=None):
    """Evaluate the bound across the delta grid.

    Per grid point: build the pair, pin the second basis against the
    configured pinning matrix (the first basis is the same at every point and
    is pinned once), verify the equal-rank hypothesis, and report measured
    error, bound, and slack for each requested norm, all norms in one
    evaluation.  A hypothesis failure flags every row of that point and the
    sweep continues.

    With `out_dir` set, writes ``sweep.csv`` (columns exactly the SweepRow
    fields, shortest round-trip floats), one ``sweep_<kind>.svg`` per norm,
    and ``config.json``.

    Returns
    -------
    list of SweepRow
    """
    d = pinning_matrix(config.n, config.k, config.rank_deficiency)
    rows = []
    x = None  # x_diamond depends on neither delta nor index: pin it once
    for index, delta in enumerate(config.deltas):
        x_diamond, x_tilde_diamond, _, _ = make_pair(config, delta, index=index)
        if x is None:
            x, _ = align(x_diamond, d, rtol=SWEEP_RANK_RTOL)
        xt, _ = align(x_tilde_diamond, d, rtol=SWEEP_RANK_RTOL)
        try:
            reports = evaluate_instance(x, xt, d, config.norms, rtol=SWEEP_RANK_RTOL)
        except (RankMismatch, NotAligned, InvalidInput) as exc:
            flag = f"{type(exc).__name__}: {exc}"
            rows += [
                SweepRow(delta, kind, _closed_form(kind, config.k, delta), flag=flag)
                for kind in config.norms
            ]
            continue
        rows += [
            SweepRow(
                delta=delta,
                kind=rep.kind,
                sin_theta_closed=_closed_form(rep.kind, config.k, delta),
                sin_theta_computed=rep.sin_theta,
                measured=rep.measured,
                measured_lower=rep.measured_lower,
                measured_upper=rep.measured_upper,
                xi=rep.xi,
                xi_sharpened=rep.xi_sharpened,
                slack=rep.slack,
                sigma_r=rep.sigma_r,
                sigma_r_tilde=rep.sigma_r_tilde,
            )
            for rep in reports
        ]
    if out_dir is not None:
        _emit(config, rows, Path(out_dir))
    return rows


def row_passes(row):
    """True when a sweep row satisfies the bound and the sine cross-check."""
    if row.flag:
        return False
    if not row.measured <= row.xi + 1e-10:
        return False
    return (
        abs(row.sin_theta_closed - row.sin_theta_computed)
        <= SIN_CROSS_CHECK_TOL * (1.0 + row.sin_theta_closed)
    )


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_rows_csv(rows, fh):
    """Write sweep rows as CSV with the SweepRow field names as header."""
    names = [f.name for f in fields(SweepRow)]
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(names)
    for row in rows:
        writer.writerow([_csv_cell(getattr(row, name)) for name in names])


def _emit(config, rows, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "sweep.csv", "w", encoding="ascii", newline="") as fh:
        write_rows_csv(rows, fh)
    with open(out_dir / "config.json", "w", encoding="ascii") as fh:
        json.dump(asdict(config), fh, indent=2)
        fh.write("\n")
    for kind in config.norms:
        kind_rows = [r for r in rows if r.kind == kind and not r.flag]
        deltas = [r.delta for r in kind_rows]
        series = [
            ("measured", deltas, [r.measured for r in kind_rows]),
            ("bound", deltas, [r.xi for r in kind_rows]),
        ]
        if any(r.measured_lower != r.measured_upper for r in kind_rows):
            series.append(
                ("min lower bracket", deltas, [r.measured_lower for r in kind_rows])
            )
        write_loglog_svg(
            out_dir / f"sweep_{kind}.svg",
            series,
            title=f"{kind} norm: measured error vs bound",
            xlabel="delta",
            ylabel="error",
        )


@dataclass(frozen=True)
class ClosedFormCheck:
    """Outcome of :func:`verify_closed_form` for one delta."""

    delta: float
    closed: dict
    computed: dict
    assembled: dict
    max_relative_error: float


def verify_closed_form(config, delta, index=0):
    """Regression check of sine accuracy for the Hadamard pair construction.

    Two computations are checked against the closed forms ``(delta,
    sqrt(k) * delta, k * delta)``:

    * the factored path: the 2k Hadamard columns used satisfy ``c.T @ c ==
      n * I`` (checked exactly in integer arithmetic), so the complement
      product of the pair reduces to ``delta * q2`` with no cancellation, and
      its sines keep full *relative* accuracy at any delta and must match to
      relative 1e-9;
    * the general-purpose angle routine on the assembled matrices, whose
      accuracy is capped near 1e-15 absolute once the pair is rounded to
      float64, held to an absolute-plus-relative 1e-9 band.

    Raises VerificationFailure naming the norm kind and delta on any breach.
    """
    n, k = config.n, config.k
    x_diamond, x_tilde_diamond, _, q2 = make_pair(config, delta, index=index)

    # x_tilde_diamond = (cos * c[:, :k] @ q1 + delta * c[:, k:] @ q2) / sqrt(n).
    # With c.T @ c == n * I, a complement basis of x_diamond can start with
    # c[:, k:] / sqrt(n), and its product with x_tilde_diamond is then
    # [delta * q2; 0] exactly: the sines are the singular values of delta * q2.
    c = hadamard(n, 2 * k)
    if not np.array_equal(c.T @ c, n * np.eye(2 * k, dtype=np.int64)):
        raise VerificationFailure(f"the first {2 * k} Hadamard columns are not orthogonal")
    sines = np.linalg.svd(delta * q2, compute_uv=False)

    assembled_angles = canonical_angles(x_diamond, x_tilde_diamond)
    closed, computed, assembled = {}, {}, {}
    worst = 0.0
    for kind in config.norms:
        closed[kind] = _closed_form(kind, k, delta)
        computed[kind] = _gauge(sines, kind)
        assembled[kind] = sin_theta_norm(assembled_angles, kind)
        if closed[kind] == 0.0:
            if computed[kind] > 1e-12:
                raise VerificationFailure(
                    f"{kind} at delta=0: factored value {computed[kind]:.3e} != 0"
                )
        else:
            rel = abs(computed[kind] - closed[kind]) / closed[kind]
            worst = max(worst, rel)
            if rel > CLOSED_FORM_RTOL:
                raise VerificationFailure(
                    f"{kind} at delta={delta}: factored value {computed[kind]!r} "
                    f"differs from closed form {closed[kind]!r} by relative {rel:.3e}"
                )
        band = SIN_CROSS_CHECK_TOL * (1.0 + closed[kind])
        if abs(assembled[kind] - closed[kind]) > band:
            raise VerificationFailure(
                f"{kind} at delta={delta}: assembled value {assembled[kind]!r} "
                f"outside the {band:.3e} band around {closed[kind]!r}"
            )
    return ClosedFormCheck(
        delta=delta,
        closed=closed,
        computed=computed,
        assembled=assembled,
        max_relative_error=worst,
    )
