import collections
import csv
import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from subspace_align import (
    ExperimentConfig,
    InvalidInput,
    NORM_KINDS,
    RankMismatch,
    UnsupportedOrder,
    align,
    canonical_angles,
    default_delta_grid,
    evaluate_instance,
    make_pair,
    optimal_representative,
    pinning_matrix,
    run_sweep,
)
from subspace_align.experiments import (
    SWEEP_RANK_RTOL,
    SweepRow,
    config_from_dict,
    row_passes,
    write_rows_csv,
)
from subspace_align.kernels import _Key, _stream, svd

import support
from support import assert_self_consistent, verify_closed_form

SMALL = dict(n=32, k=3, deltas=tuple(float(v) for v in np.logspace(-8, -2, 8)))

#: The five files a three-norm sweep writes.
SWEEP_FILES = (
    "sweep.csv", "config.json", "sweep_spectral.svg", "sweep_frobenius.svg", "sweep_trace.svg",
)


def _pinned_point(config, index):
    """The pinned second basis of sweep point `index`, built as run_sweep does."""
    d = pinning_matrix(config.n, config.k, config.rank_deficiency)
    _, x_tilde_diamond, _, _ = make_pair(config, config.deltas[index], index=index)
    return align(x_tilde_diamond, d, rtol=SWEEP_RANK_RTOL)[0]


_CELL_FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.5e-310, 1e-12])
_CELL_TEXT = st.text(st.sampled_from(["a", " ", ",", '"', "\n", "\r"]), max_size=6)
_SWEEP_ROWS = st.builds(SweepRow, **{
    **{f.name: _CELL_FLOATS for f in dataclasses.fields(SweepRow)},
    "kind": st.sampled_from(NORM_KINDS) | _CELL_TEXT,
    "xi_sharpened": st.none() | _CELL_FLOATS,
    "flag": _CELL_TEXT,
})

#: Stream seeds and ids: the ends of the 64-bit range and its middle, or any value.
_WORDS = st.sampled_from([0, 1, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1)


@given(seed=_WORDS, stream_id=_WORDS)
@example(seed=0, stream_id=0)
@example(seed=5, stream_id=0)
@example(seed=2**64 - 1, stream_id=0)
@example(seed=2**64 - 1, stream_id=2**63)
def test_stream_is_the_philox_stream_keyed_seed_and_id(seed, stream_id):
    # the sweeps' draws must not move if numpy derives Philox keys another
    # way; stream 0 is also numpy's one-word key
    keys = [np.array([seed, stream_id], dtype=np.uint64)]
    if stream_id == 0:
        keys.append(np.uint64(seed))
    for key in keys:
        ours = _stream(seed, stream_id)
        keyed = np.random.Generator(np.random.Philox(key=key))
        assert repr(ours.bit_generator.state) == repr(keyed.bit_generator.state)
        assert ours.standard_normal(9).tobytes() == keyed.standard_normal(9).tobytes()


@pytest.mark.parametrize(
    "n_words, dtype", [(1, np.uint64), (3, np.uint64), (2, np.uint32), (4, np.uint32)]
)
def test_the_key_seed_sequence_serves_only_a_philox_key(n_words, dtype):
    key = _Key(2**64 - 1, 7)
    assert key.generate_state(2, np.uint64).tolist() == [2**64 - 1, 7]
    with pytest.raises(ValueError):
        key.generate_state(n_words, dtype)
    with pytest.raises(ValueError):
        key.generate_state(2)  # uint32 words, the default


class TestConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.n == 96 and config.k == 5
        assert len(config.deltas) == 40
        assert config.deltas[0] == pytest.approx(1e-12)
        assert config.deltas[-1] == pytest.approx(1e-2)
        assert config.norms == NORM_KINDS

    _NORMS_RULE = "norms must be a nonempty subset of "
    _SEQUENCES_RULE = "deltas and norms must be sequences: "
    #: Each config breaks one rule: the error class it must raise and the
    #: start of its message.
    _INVALID = [
        (dict(n=9), InvalidInput, "need n >= 2k >= 2, got n=9, k=5"),
        (dict(n=8, k=5), InvalidInput, "need n >= 2k >= 2, got n=8, k=5"),
        (dict(deltas=(0.0, 0.5)), InvalidInput, "every delta must lie strictly between 0 and 1"),
        (dict(deltas=(0.5, 1.0)), InvalidInput, "every delta must lie strictly between 0 and 1"),
        (dict(deltas=()), InvalidInput, "deltas must be nonempty"),
        (dict(rank_deficiency=3), InvalidInput, "rank_deficiency must be 0, 1, or 2 and below k=5"),
        (dict(seed=-1), InvalidInput, "seed must be an unsigned 64-bit integer, got -1"),
        (dict(norms=("spectral", "euclid")), InvalidInput, _NORMS_RULE),
        (dict(norms=()), InvalidInput, _NORMS_RULE),
        (dict(n=4, k=2, rank_deficiency=2), InvalidInput,
         "rank_deficiency must be 0, 1, or 2 and below k=2"),
        (dict(k=5.0), InvalidInput, "k must be an integer, got 5.0"),
        (dict(seed=1.5), InvalidInput, "seed must be an integer, got 1.5"),
        (dict(seed=-0.5), InvalidInput, "seed must be an integer, got -0.5"),
        (dict(rank_deficiency=True), InvalidInput, "rank_deficiency must be an integer, got True"),
        (dict(norms=("spectral", "trace", "spectral")), InvalidInput, _NORMS_RULE),
        (dict(deltas=5), InvalidInput, _SEQUENCES_RULE),
        (dict(deltas=(0.1, "x")), InvalidInput, _SEQUENCES_RULE),
        (dict(deltas=(10**400,)), InvalidInput, _SEQUENCES_RULE),
        (dict(norms=5), InvalidInput, _SEQUENCES_RULE),
        # n >= 2k holds, and 14 = 2 * 7 is no Hadamard order
        (dict(n=14, k=5), UnsupportedOrder, "no Hadamard construction for n=14"),
    ]

    @pytest.mark.parametrize(
        "kwargs, error, message", _INVALID, ids=[f"kwargs{i}" for i in range(len(_INVALID))]
    )
    def test_invalid_configs(self, kwargs, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}") as info:
            ExperimentConfig(**kwargs)
        assert type(info.value) is error

    def test_numpy_integers_write_the_files_of_ints(self, tmp_path):
        sizes = dict(n=8, k=2, deltas=(0.1, 0.01), rank_deficiency=1, seed=5)
        as_numpy = dict(
            sizes, n=np.int64(8), k=np.int32(2), rank_deficiency=np.uint8(1), seed=np.uint64(5)
        )
        config = ExperimentConfig(**as_numpy)
        for name in ("n", "k", "rank_deficiency", "seed"):
            assert type(getattr(config, name)) is int
        run_sweep(ExperimentConfig(**sizes), tmp_path / "int")
        run_sweep(config, tmp_path / "numpy")
        names = ["sweep.csv", "config.json", *(f"sweep_{kind}.svg" for kind in NORM_KINDS)]
        for name in names:
            assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "int" / name).read_bytes()

    def test_round_trip_through_dict(self):
        config = ExperimentConfig(**SMALL, seed=11)
        assert config_from_dict(dataclasses.asdict(config)) == config
        with pytest.raises(InvalidInput):
            config_from_dict({"n": 96, "mystery": 1})


class TestMakePair:
    def test_zero_delta_same_subspace(self):
        config = ExperimentConfig(**SMALL)
        x, y, q1, _ = make_pair(config, 0.0)
        assert np.allclose(y, x @ q1)
        assert np.all(canonical_angles(x, y).sines <= 1e-12)

    def test_unit_delta_orthogonal_subspaces(self):
        config = ExperimentConfig(**SMALL)
        x, y, _, _ = make_pair(config, 1.0)
        assert np.all(np.abs(canonical_angles(x, y).sines - 1.0) <= 1e-12)

    def test_half_delta_equal_sines(self):
        config = ExperimentConfig()
        x, y, _, _ = make_pair(config, 0.5)
        sines = canonical_angles(x, y).sines
        assert sines.shape == (5,)
        assert np.all(np.abs(sines - 0.5) <= 1e-10)

    def test_product_singular_values(self):
        config = ExperimentConfig()
        delta = 0.3
        x, y, _, _ = make_pair(config, delta)
        sv = np.linalg.svd(x.T @ y, compute_uv=False)
        assert np.all(np.abs(sv - math.sqrt(1 - delta**2)) <= 1e-10)

    def test_deterministic_per_seed_and_index(self):
        config = ExperimentConfig(**SMALL, seed=5)
        a = make_pair(config, 0.25, index=3)
        b = make_pair(config, 0.25, index=3)
        for left, right in zip(a, b):
            assert np.array_equal(left, right)
        c = make_pair(config, 0.25, index=4)
        assert not np.array_equal(a[3], c[3])

    def test_errors_of_a_tuple_of_deltas(self):
        config = ExperimentConfig(**SMALL)
        with pytest.raises(InvalidInput, match=r"^delta is an empty tuple$"):
            make_pair(config, ())
        # the first member whose index leaves [0, 2**63) names it, as its own call does
        for deltas, index, first in [((0.1, 0.2, 0.3), 2**63 - 2, 2**63), ((0.1,), -1, -1)]:
            with pytest.raises(InvalidInput) as stacked:
                make_pair(config, deltas, index=index)
            with pytest.raises(InvalidInput) as alone:
                make_pair(config, 0.1, index=first)
            assert str(stacked.value) == str(alone.value) == (
                f"index must lie in [0, 2**63), got {first}")

    def test_bad_delta(self):
        config = ExperimentConfig(**SMALL)
        for delta, message in [
            (1.5, "delta must lie in [0, 1], got 1.5"),
            (-0.1, "delta must be nonnegative and finite"),
            (math.nan, "delta must be nonnegative and finite"),
            ("abc", "delta must be a real scalar, got 'abc'"),
            ([0.1], "delta must be a real scalar, got [0.1]"),
            (1j, "delta must be a real scalar, got 1j"),
        ]:
            with pytest.raises(InvalidInput) as info:
                make_pair(config, delta)
            assert str(info.value) == message, delta


class TestPinningMatrix:
    def test_displayed_entries(self):
        d = pinning_matrix(96, 5)
        assert np.array_equal(d[:5, :5], np.eye(5))
        assert d[5, 0] == pytest.approx(6.0 / 768.0)
        assert d[5, 1] == pytest.approx(6.0 / 769.0)
        assert d[95, 4] == pytest.approx(96.0 / 772.0)

    def test_full_rank(self):
        f = svd(pinning_matrix(96, 5))
        assert f.numerical_rank == 5
        assert f.sigma[-1] > 0.1

    def test_zeroed_columns_drop_rank(self):
        for zero_last in (1, 2):
            d = pinning_matrix(96, 5, zero_last=zero_last)
            assert np.all(d[:, 5 - zero_last :] == 0.0)
            assert svd(d).numerical_rank == 5 - zero_last

    def test_bad_arguments(self):
        with pytest.raises(InvalidInput):
            pinning_matrix(96, 5, zero_last=6)
        with pytest.raises(InvalidInput):
            pinning_matrix(4, 5)


class TestVerifyClosedForm:
    @pytest.mark.parametrize("delta", [1e-12, 1e-9, 1e-6, 1e-3, 1e-2])
    def test_accuracy_across_scales(self, delta):
        check = verify_closed_form(ExperimentConfig(), delta)
        assert check.max_relative_error <= 1e-9
        assert check.computed["spectral"] == pytest.approx(delta, rel=1e-9)
        assert check.computed["frobenius"] == pytest.approx(
            math.sqrt(5) * delta, rel=1e-9
        )
        assert check.computed["trace"] == pytest.approx(5 * delta, rel=1e-9)

    def test_tiny_delta_band(self):
        check = verify_closed_form(ExperimentConfig(), 1e-12)
        assert 0.999e-12 <= check.computed["spectral"] <= 1.001e-12

    def test_large_delta_trace_band(self):
        check = verify_closed_form(ExperimentConfig(), 1e-2)
        assert abs(check.computed["trace"] - 5e-2) <= 5e-11

    def test_zero_delta(self):
        check = verify_closed_form(ExperimentConfig(), 0.0)
        assert all(v == 0.0 for v in check.computed.values())

    def test_failure_names_norm_and_delta(self, monkeypatch):
        monkeypatch.setattr(support, "CLOSED_FORM_RTOL", 0.0)
        with pytest.raises(AssertionError, match="delta"):
            verify_closed_form(ExperimentConfig(), 1e-3)


class TestRunSweep:
    def test_row_grid(self):
        config = ExperimentConfig(**SMALL)
        rows = run_sweep(config)
        assert len(rows) == len(config.deltas) * len(config.norms)
        for row in rows:
            assert row_passes(row), row

    def test_full_rank_rows_have_exact_measurement(self):
        config = ExperimentConfig(**SMALL)
        for row in run_sweep(config):
            assert row.measured == row.measured_lower == row.measured_upper
            assert row.xi_sharpened is None

    def test_two_member_rows_match_enumeration(self):
        config = ExperimentConfig(**SMALL, rank_deficiency=1, seed=2)
        rows = run_sweep(config)
        d = pinning_matrix(config.n, config.k, 1)
        for row in rows[:6]:
            index = config.deltas.index(row.delta)
            xd, xtd, _, _ = make_pair(config, row.delta, index=index)
            x, aset = align(xd, d, rtol=SWEEP_RANK_RTOL)
            xt, _ = align(xtd, d, rtol=SWEEP_RANK_RTOL)
            vals = []
            for s in (1.0, -1.0):
                diff = xt - aset.member(np.array([[s]]))
                sv = np.linalg.svd(diff, compute_uv=False)
                vals.append(
                    {
                        "spectral": sv[0],
                        "frobenius": float(np.sqrt((sv**2).sum())),
                        "trace": float(sv.sum()),
                    }[row.kind]
                )
            assert row.measured == pytest.approx(min(vals), rel=1e-12)

    def test_freedom_two_rows_carry_intervals(self):
        config = ExperimentConfig(
            n=32, k=4, deltas=SMALL["deltas"], rank_deficiency=2, seed=3
        )
        rows = run_sweep(config)
        d = pinning_matrix(config.n, config.k, 2)
        for row in rows:
            if row.kind == "frobenius":
                assert row.measured == row.measured_lower == row.measured_upper
            else:
                assert row.measured_lower <= row.measured_upper + 1e-15
                assert row.measured == row.measured_upper
        # frobenius measurement equals the closed-form optimal representative
        row = next(r for r in rows if r.kind == "frobenius")
        index = config.deltas.index(row.delta)
        xd, xtd, _, _ = make_pair(config, row.delta, index=index)
        x, aset = align(xd, d, rtol=SWEEP_RANK_RTOL)
        xt, _ = align(xtd, d, rtol=SWEEP_RANK_RTOL)
        y_opt, _ = optimal_representative(aset, xt)
        assert row.measured == pytest.approx(np.linalg.norm(xt - y_opt), rel=1e-12)

    def test_flagged_point_keeps_the_message(self, monkeypatch, tmp_path, capsys):
        import subspace_align.experiments as exp
        from subspace_align.cli import main

        message = "rank(x.T d) = 3 but rank(x_tilde.T d) = 2"
        real = exp.evaluate_instance
        # the third point's basis in the two sweeps below, SMALL and CLI figure 1
        thirds = [_pinned_point(ExperimentConfig(**c), 2) for c in (SMALL, dict(n=32, k=3))]

        def evaluate(x, x_tilde, *args, **kwargs):
            # fires on the call that receives a third point's basis, stacked or alone
            bases = np.reshape(x_tilde, (-1, *np.shape(x)))
            if any(np.array_equal(b, t) for b in bases for t in thirds):
                raise RankMismatch(message)
            return real(x, x_tilde, *args, **kwargs)

        monkeypatch.setattr(exp, "evaluate_instance", evaluate)
        rows = run_sweep(ExperimentConfig(**SMALL))
        flagged = [row for row in rows if row.flag]
        assert [row.kind for row in flagged] == list(NORM_KINDS)
        assert {row.delta for row in flagged} == {SMALL["deltas"][2]}
        for row in flagged:
            assert row.flag == f"RankMismatch: {message}"
            assert not row_passes(row)

        argv = ["experiment", "--figure", "1", "--n", "32", "--k", "3"]
        assert main([*argv, "--out", str(tmp_path)]) == 1
        assert f"flag=RankMismatch: {message}" in capsys.readouterr().err
        assert message in (tmp_path / "sweep.csv").read_text()

    def test_a_real_failure_flags_only_its_point(self, monkeypatch):
        import subspace_align.experiments as exp

        config = ExperimentConfig(**SMALL)
        d = pinning_matrix(config.n, config.k)
        # an orthonormal basis with one column orthogonal to range(d): its
        # pinned product has rank 2, so the stacked evaluation fails for real
        q, _ = np.linalg.qr(np.hstack([d, np.ones((config.n, 1))]))
        low = q[:, [0, 1, 3]]
        real = exp.make_pair

        def make_pair_low_third(config, deltas, index=0):
            # the sweep builds its pairs in one stacked call: replace the third basis
            x_diamond, x_tildes, q1, q2 = real(config, deltas, index=index)
            x_tildes[2] = low
            return x_diamond, x_tildes, q1, q2

        reference = run_sweep(config)
        monkeypatch.setattr(exp, "make_pair", make_pair_low_third)
        rows = run_sweep(config)
        message = "RankMismatch: rank(x.T d) = 3 but rank(x_tilde.T d) = 2"
        assert [row.kind for row in rows] == [row.kind for row in reference]
        for row, expected in zip(rows, reference):
            if row.delta == config.deltas[2]:
                assert row.flag == message and math.isnan(row.measured)
            else:
                assert row == expected

    def test_one_shared_evaluation_per_sweep(self, monkeypatch):
        import subspace_align.alignment as alignment
        import subspace_align.bounds as bounds
        import subspace_align.experiments as exp
        import subspace_align.kernels as kernels
        import subspace_align.metrics as metrics

        calls = collections.Counter()

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return wrapper

        names = ("evaluate_instance", "canonical_angles", "orthonormal_completion")
        built = ("make_pair", "hadamard", "haar_orthogonal", "align")
        for module in (kernels, metrics, alignment, bounds, exp):
            for name in names + built:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        run_sweep(ExperimentConfig(**SMALL))
        assert calls.pop("align") <= 3
        assert calls == dict.fromkeys(names + built[:3], 1)

    @pytest.mark.parametrize("rank_deficiency", [0, 1, 2])
    def test_lapack_calls_per_sweep_do_not_grow_with_the_grid(self, monkeypatch, rank_deficiency):
        import subspace_align.alignment as alignment
        import subspace_align.bounds as bounds

        calls = collections.Counter()

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        monkeypatch.setattr(
            bounds, "optimal_representative", counted("optimal", bounds.optimal_representative)
        )
        monkeypatch.setattr(
            alignment.AlignedBasisSet, "member", counted("member", alignment.AlignedBasisSet.member)
        )
        counts = []
        for points in (len(SMALL["deltas"]), 2 * len(SMALL["deltas"])):
            calls.clear()
            config = ExperimentConfig(
                **{**SMALL, "deltas": tuple(np.logspace(-8, -2, points))},
                rank_deficiency=rank_deficiency,
            )
            assert all(row_passes(row) for row in run_sweep(config))
            assert calls["optimal"] <= 1 and calls["member"] <= 2, calls
            counts.append(calls["svd"])
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("rank_deficiency", [0, 1, 2])
    def test_rows_equal_a_per_point_reference(self, rank_deficiency):
        # the sweep pins x_diamond once; a point built from scratch must agree
        config = ExperimentConfig(**SMALL, rank_deficiency=rank_deficiency, seed=6)
        d = pinning_matrix(config.n, config.k, rank_deficiency)
        rows = iter(run_sweep(config))
        for index, delta in enumerate(config.deltas):
            xd, xtd, _, _ = make_pair(config, delta, index=index)
            x, _ = align(xd, d, rtol=SWEEP_RANK_RTOL)
            xt, _ = align(xtd, d, rtol=SWEEP_RANK_RTOL)
            reports = evaluate_instance(x, xt, d, config.norms, rtol=SWEEP_RANK_RTOL)
            for rep in reports:
                row = next(rows)
                expected = dict(
                    delta=delta,
                    kind=rep.kind,
                    sin_theta_computed=rep.sin_theta,
                    measured=rep.measured,
                    measured_lower=rep.measured_lower,
                    measured_upper=rep.measured_upper,
                    xi=rep.xi,
                    xi_sharpened=rep.xi_sharpened,
                    slack=rep.slack,
                    sigma_r=rep.sigma_r,
                    sigma_r_tilde=rep.sigma_r_tilde,
                    flag="",
                )
                for name, value in expected.items():
                    assert getattr(row, name) == value, (name, index)
        assert next(rows, None) is None

    @pytest.mark.parametrize("figure", [1, 2, 3])
    def test_every_figure_report_is_self_consistent(self, monkeypatch, figure):
        # the reports behind the paper figure: eta, xi and xi_sharpened are
        # each what the bound functions give on the report's own fields
        import subspace_align.experiments as exp

        reports = []

        def evaluate(*args, **kwargs):
            result = real(*args, **kwargs)
            reports.extend(rep for point in result for rep in point)
            return result

        real = exp.evaluate_instance
        monkeypatch.setattr(exp, "evaluate_instance", evaluate)
        config = ExperimentConfig(rank_deficiency=figure - 1)
        rows = run_sweep(config)
        assert len(reports) == len(rows) == len(config.deltas) * len(config.norms)
        for rep, row in zip(reports, rows):
            assert_self_consistent(rep)
            assert (row.xi, row.xi_sharpened) == (rep.xi, rep.xi_sharpened)

    def test_determinism(self):
        config = ExperimentConfig(**SMALL, seed=9)
        assert run_sweep(config) == run_sweep(config)

    def test_csv_emission(self, tmp_path):
        config = ExperimentConfig(**SMALL, seed=4)
        rows = run_sweep(config, out_dir=tmp_path)
        csv_path = tmp_path / "sweep.csv"
        assert csv_path.exists()
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        assert header == [f.name for f in dataclasses.fields(SweepRow)]
        assert len(lines) == 1 + len(rows)
        buffer = io.StringIO()
        write_rows_csv(rows, buffer)
        assert buffer.getvalue() == csv_path.read_text()
        for kind in config.norms:
            svg = (tmp_path / f"sweep_{kind}.svg").read_text()
            assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        echoed = (tmp_path / "config.json").read_text()
        assert echoed == json.dumps(dataclasses.asdict(config), indent=2) + "\n"
        assert config_from_dict(json.loads(echoed)) == config
        # at freedom 2 only the Frobenius minimum is exact; the others bracket it
        deficient = ExperimentConfig(**SMALL, seed=4, rank_deficiency=2)
        run_sweep(deficient, out_dir=tmp_path / "deficient")
        for kind in config.norms:
            svg = (tmp_path / "deficient" / f"sweep_{kind}.svg").read_text()
            assert ("min lower bracket" in svg) == (kind != "frobenius")

    def test_csv_cells_follow_the_csv_module(self):
        rows = [
            SweepRow(
                delta=0.1,
                kind="spectral",
                sin_theta_closed=5e-324,
                sin_theta_computed=-0.0,
                measured=math.inf,
                measured_lower=-math.inf,
                xi_sharpened=None,
            ),
            SweepRow(
                delta=1e-12,
                kind="trace",
                sin_theta_closed=3e-12,
                xi_sharpened=0.25,
                flag='InvalidInput: a, "b"\nc',
            ),
        ]
        buffer = io.StringIO(newline="")
        write_rows_csv(rows, buffer)
        assert buffer.getvalue() == (
            "delta,kind,sin_theta_closed,sin_theta_computed,measured,measured_lower,"
            "measured_upper,xi,xi_sharpened,slack,sigma_r,sigma_r_tilde,flag\n"
            "0.1,spectral,5e-324,-0.0,inf,-inf,nan,nan,,nan,nan,nan,\n"
            '1e-12,trace,3e-12,nan,nan,nan,nan,nan,0.25,nan,nan,nan,"InvalidInput: a, ""b""\nc"\n'
        )

    @given(rows=st.lists(_SWEEP_ROWS, max_size=4))
    @example(rows=[])
    # 0.0 and -0.0 compare equal: in one column and across columns
    @example(rows=[SweepRow(0.0, "spectral", -0.0), SweepRow(-0.0, "trace", 0.0)])
    # one value held by two float objects, and two NaN objects
    @example(rows=[
        SweepRow(float("1e-12"), "frobenius", float("1e-12"), float("nan"), float("nan"))
    ])
    @example(rows=[SweepRow(0.5, "spectral", 0.5, flag="\r")])
    def test_csv_bytes_are_the_csv_modules(self, rows):
        # csv.writer is the reference: it quotes a cell holding a comma, a
        # quote or a newline, not one holding only a carriage return, and
        # writes None as an empty cell
        names = [f.name for f in dataclasses.fields(SweepRow)]
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(names)
        writer.writerows([getattr(row, name) for name in names] for row in rows)
        buffer = io.StringIO(newline="")
        write_rows_csv(rows, buffer)
        assert buffer.getvalue() == expected.getvalue()

    def test_csv_floats_round_trip(self, tmp_path):
        config = ExperimentConfig(**SMALL, seed=4)
        rows = run_sweep(config, out_dir=tmp_path)
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        first = lines[1].split(",")
        assert float(first[0]) == rows[0].delta
        assert float(first[4]) == rows[0].measured


class TestOutputsRewritten:
    """A sweep rewrites the files of an earlier run in place and cuts each
    to length, so they hold exactly what a fresh run writes."""

    def test_a_shorter_sweep_leaves_exactly_its_files(self, tmp_path):
        few = ExperimentConfig(rank_deficiency=1, deltas=default_delta_grid(3))
        run_sweep(ExperimentConfig(rank_deficiency=1), tmp_path / "out")
        run_sweep(few, tmp_path / "out")
        run_sweep(few, tmp_path / "fresh")
        for name in SWEEP_FILES:
            fresh = (tmp_path / "fresh" / name).read_bytes()
            assert (tmp_path / "out" / name).read_bytes() == fresh, name

    def test_a_write_that_fails_leaves_what_it_wrote(self, monkeypatch, tmp_path):
        import subspace_align.experiments as exp

        config = ExperimentConfig(**SMALL)
        run_sweep(config, tmp_path)

        def failing(rows, fh):
            fh.write("delta,kind\n")
            raise RuntimeError("failed part-way")

        monkeypatch.setattr(exp, "write_rows_csv", failing)
        with pytest.raises(RuntimeError, match="part-way"):
            run_sweep(config, tmp_path)
        assert (tmp_path / "sweep.csv").read_bytes() == b"delta,kind\n"
