"""Deterministic bound-tightness sweeps.

The harness builds pairs of subspaces at a controlled sin-theta distance
``delta`` from scaled Hadamard columns, pins their bases with a structured
target matrix (optionally rank-deficient), and tracks the measured basis
error against the predicted bound across a logarithmic delta grid.  Output is
a row list plus optional CSV, one SVG plot per norm, and an exact JSON echo
of the configuration.

Randomness is fully reproducible: the two rotations of each sweep point are
drawn from Philox streams keyed ``(seed, 2*index)`` and ``(seed, 2*index+1)``,
so points may be built in any order or in parallel, and evaluated together or
one by one, without changing a single bit of the output.  A sweep is one
stacked pass: its points are built, pinned and evaluated together, each
stage one call on the stack of all points, and each point gets exactly the
bits it would get alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from .alignment import _pin
from .bounds import evaluate_instance
from .errors import InvalidInput, UnsupportedOrder
from .kernels import (
    NORM_KINDS,
    _addressable,
    _checked,
    _integer,
    _record,
    _seed_order,
    _stream,
    _uint64,
    haar_orthogonal,
    hadamard,
)
from .matrixio import _rewrite
from .svgplot import write_loglog_svg

__all__ = [
    "default_delta_grid",
    "ExperimentConfig",
    "SweepRow",
    "make_pair",
    "pinning_matrix",
    "run_sweep",
]

#: Cross-check band for the general-purpose sine computation on assembled
#: (rounded) pair matrices: absolute below one, relative above.
SIN_CROSS_CHECK_TOL = 1e-9

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
        # Python ints, so a numpy integer config echoes to config.json as an int one does
        for name in ("n", "k", "rank_deficiency"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        object.__setattr__(self, "seed", _uint64(self.seed, "seed"))
        if self.k < 1 or self.n < 2 * self.k:
            raise InvalidInput(f"need n >= 2k >= 2, got n={self.n}, k={self.k}")
        if _seed_order(self.n) is None:
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


def _delta(value):
    """`value` as a float in [0, 1]; InvalidInput otherwise."""
    delta = _checked(value, "delta", zero_ok=True)
    if delta > 1.0:
        raise InvalidInput(f"delta must lie in [0, 1], got {delta}")
    return delta


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

    `delta` may be a tuple of m deltas, as ``config.deltas`` is (a list is
    not one, as for :meth:`str.startswith`): the pair of the i-th delta is
    then the pair of index ``index + i``, and all of them come from one
    ``hadamard(n, 2 * k)``, one Haar draw over their 2m streams and one
    stacked product per block.

    Returns
    -------
    x_diamond, x_tilde_diamond : (n, k) ndarray
    q1, q2 : (k, k) ndarray
        For a tuple of deltas, `x_diamond` once and stacks of the other
        three, whose row i is what the i-th delta alone gives.
    """
    many = isinstance(delta, tuple)
    deltas = [_delta(each) for each in (delta if many else (delta,))]
    if not deltas:
        raise InvalidInput("delta is an empty tuple")
    index = _integer(index, "index")
    # the first of index, index + 1, ... that lies outside [0, 2**63), if any does
    first = index if index < 0 else max(index, 2**63)
    if first < index + len(deltas):
        raise InvalidInput(f"index must lie in [0, 2**63), got {first}")
    n, k = config.n, config.k
    m = hadamard(n, 2 * k) / math.sqrt(n)
    streams = range(2 * index, 2 * (index + len(deltas)))
    q = haar_orthogonal(k, [_stream(config.seed, each) for each in streams])
    q1, q2 = q[0::2], q[1::2]
    cosines = [math.sqrt(max(0.0, 1.0 - each * each)) for each in deltas]
    x_tilde_diamond = (
        np.array(cosines)[:, None, None] * m[:, :k] @ q1
        + np.array(deltas)[:, None, None] * m[:, k : 2 * k] @ q2
    )
    stacks = x_tilde_diamond, q1, q2
    return m[:, :k].copy(), *(stacks if many else (each[0] for each in stacks))


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
    _addressable(n, k)
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

    One :func:`make_pair` call builds all grid points: the first basis, the
    same at every point, and the stack of second bases.  One stacked pin
    turns them all into :func:`align` bases against the configured pinning
    matrix, and one :func:`evaluate_instance` call on the stack verifies the
    equal-rank hypothesis and reports measured error, bound and slack per
    norm; if it fails, each point is evaluated alone, a failure flags every
    row of that point with its own message, and the sweep goes on.

    With `out_dir` set, writes ``sweep.csv`` (columns exactly the SweepRow
    fields, shortest round-trip floats), one ``sweep_<kind>.svg`` per norm,
    and ``config.json``.

    Returns
    -------
    list of SweepRow
    """
    d = pinning_matrix(config.n, config.k, config.rank_deficiency)
    x_diamond, x_tilde_diamonds, _, _ = make_pair(config, config.deltas)
    pinned = _pin(np.concatenate([x_diamond[None], x_tilde_diamonds]), d)
    x, xts = pinned[0], pinned[1:]
    try:
        results = evaluate_instance(x, xts, d, config.norms, rtol=SWEEP_RANK_RTOL)
    except InvalidInput:  # point by point, so each failing point keeps its own message
        results = []
        for xt in xts:
            try:
                results.append(evaluate_instance(x, xt, d, config.norms, rtol=SWEEP_RANK_RTOL))
            except InvalidInput as exc:
                results.append(f"{type(exc).__name__}: {exc}")
    rows = []
    for delta, reports in zip(config.deltas, results):
        closed = {kind: _closed_form(kind, config.k, delta) for kind in config.norms}
        if isinstance(reports, str):
            rows += [SweepRow(delta, kind, closed[kind], flag=reports) for kind in config.norms]
            continue
        rows += [
            _record(
                SweepRow,
                delta=delta, kind=rep.kind, sin_theta_closed=closed[rep.kind],
                sin_theta_computed=rep.sin_theta, measured=rep.measured,
                measured_lower=rep.measured_lower, measured_upper=rep.measured_upper,
                xi=rep.xi, xi_sharpened=rep.xi_sharpened, slack=rep.slack,
                sigma_r=rep.sigma_r, sigma_r_tilde=rep.sigma_r_tilde, flag="",
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


def write_rows_csv(rows, fh):
    """Write sweep rows as CSV with the SweepRow field names as header.

    The bytes are ``csv.writer(fh, lineterminator="\n")``'s: a float cell
    is its repr, None an empty cell, and a text cell is quoted only when it
    holds a comma, a quote or a newline, with each quote doubled.  Each
    distinct nonzero float is formatted once per file; zeros and NaN are
    formatted every time, since ``0.0 == -0.0`` and no NaN equals itself.
    """
    names = [f.name for f in fields(SweepRow)]
    memo = {}
    get = memo.get
    lines = [",".join(names)]
    for values in map(attrgetter(*names), rows):
        cells = []
        for value in values:
            if type(value) is float:
                text = get(value)
                if text is None:
                    text = repr(value)
                    if value and value == value:
                        memo[value] = text
            elif value is None:
                text = ""
            else:
                text = value if type(value) is str else str(value)
                if "," in text or '"' in text or "\n" in text:
                    text = '"' + text.replace('"', '""') + '"'
            cells.append(text)
        lines.append(",".join(cells))
    lines.append("")
    fh.write("\n".join(lines))


def _emit(config, rows, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    with _rewrite(out_dir / "sweep.csv", encoding="ascii", newline="") as fh:
        write_rows_csv(rows, fh)
    # serialized before the file opens, so a value JSON cannot hold leaves no partial file
    text = json.dumps({f.name: getattr(config, f.name) for f in fields(config)}, indent=2)
    with _rewrite(out_dir / "config.json", encoding="ascii") as fh:
        fh.write(text + "\n")
    by_kind = {kind: [] for kind in config.norms}
    for row in rows:
        if not row.flag:
            by_kind[row.kind].append(row)
    for kind, kind_rows in by_kind.items():
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
