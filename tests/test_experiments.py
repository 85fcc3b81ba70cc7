import dataclasses
import io
import json
import math

import numpy as np
import pytest

from subspace_align import (
    ExperimentConfig,
    InvalidInput,
    NORM_KINDS,
    RankMismatch,
    UnsupportedOrder,
    VerificationFailure,
    align,
    canonical_angles,
    evaluate_instance,
    make_pair,
    optimal_representative,
    pinning_matrix,
    run_sweep,
    verify_closed_form,
)
from subspace_align.experiments import (
    SWEEP_RANK_RTOL,
    SweepRow,
    config_from_dict,
    row_passes,
    write_rows_csv,
)
from subspace_align.kernels import svd

SMALL = dict(n=32, k=3, deltas=tuple(float(v) for v in np.logspace(-8, -2, 8)))


class TestConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.n == 96 and config.k == 5
        assert len(config.deltas) == 40
        assert config.deltas[0] == pytest.approx(1e-12)
        assert config.deltas[-1] == pytest.approx(1e-2)
        assert config.norms == NORM_KINDS

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=9),
            dict(n=8, k=5),
            dict(deltas=(0.0, 0.5)),
            dict(deltas=(0.5, 1.0)),
            dict(deltas=()),
            dict(rank_deficiency=3),
            dict(seed=-1),
            dict(norms=("spectral", "euclid")),
            dict(norms=()),
            dict(n=4, k=2, rank_deficiency=2),
            dict(k=5.0),
            dict(seed=1.5),
            dict(seed=-0.5),
            dict(rank_deficiency=True),
            dict(norms=("spectral", "trace", "spectral")),
            dict(deltas=5),
            dict(deltas=(0.1, "x")),
            dict(deltas=(10**400,)),
            dict(norms=5),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises((InvalidInput, UnsupportedOrder)):
            ExperimentConfig(**kwargs)

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

    def test_bad_delta(self):
        with pytest.raises(InvalidInput):
            make_pair(ExperimentConfig(**SMALL), 1.5)


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
        import subspace_align.experiments as exp

        monkeypatch.setattr(exp, "CLOSED_FORM_RTOL", 0.0)
        with pytest.raises(VerificationFailure, match="delta"):
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
        calls = []

        def evaluate(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise RankMismatch(message)
            return real(*args, **kwargs)

        monkeypatch.setattr(exp, "evaluate_instance", evaluate)
        rows = run_sweep(ExperimentConfig(**SMALL))
        flagged = [row for row in rows if row.flag]
        assert [row.kind for row in flagged] == list(NORM_KINDS)
        assert {row.delta for row in flagged} == {SMALL["deltas"][2]}
        for row in flagged:
            assert row.flag == f"RankMismatch: {message}"
            assert not row_passes(row)

        calls.clear()
        argv = ["experiment", "--figure", "1", "--n", "32", "--k", "3"]
        assert main([*argv, "--out", str(tmp_path)]) == 1
        assert f"flag=RankMismatch: {message}" in capsys.readouterr().err
        assert message in (tmp_path / "sweep.csv").read_text()

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
        echoed = json.loads((tmp_path / "config.json").read_text())
        assert config_from_dict(echoed) == config
        # at freedom 2 only the Frobenius minimum is exact; the others bracket it
        deficient = ExperimentConfig(**SMALL, seed=4, rank_deficiency=2)
        run_sweep(deficient, out_dir=tmp_path / "deficient")
        for kind in config.norms:
            svg = (tmp_path / "deficient" / f"sweep_{kind}.svg").read_text()
            assert ("min lower bracket" in svg) == (kind != "frobenius")

    def test_csv_floats_round_trip(self, tmp_path):
        config = ExperimentConfig(**SMALL, seed=4)
        rows = run_sweep(config, out_dir=tmp_path)
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        first = lines[1].split(",")
        assert float(first[0]) == rows[0].delta
        assert float(first[4]) == rows[0].measured
