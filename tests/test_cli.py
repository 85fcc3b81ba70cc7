import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subspace_align import (
    BoundReport,
    ExperimentConfig,
    align,
    load_matrix,
    make_pair,
    parse_matrix,
    pinning_matrix,
    save_matrix,
)
from subspace_align import cli, experiments
from subspace_align.experiments import SIN_CROSS_CHECK_TOL, row_passes
from subspace_align.kernels import random_orthonormal

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "subspace_align", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def test_angles_csv_output(tmp_path):
    save_matrix(tmp_path / "x.txt", np.array([[1.0], [0.0]]))
    save_matrix(tmp_path / "y.txt", np.array([[0.0], [1.0]]))
    proc = run_cli(
        "angles", "--x", str(tmp_path / "x.txt"), "--y", str(tmp_path / "y.txt")
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "index,sine,cosine"
    index, sine, cosine = lines[1].split(",")
    assert index == "1"
    assert float(sine) == pytest.approx(1.0, abs=1e-12)
    assert float(cosine) == pytest.approx(0.0, abs=1e-12)
    assert lines[2].startswith("norms,spectral=")
    assert "trace=" in lines[2]


def test_angles_single_norm(tmp_path, rng):
    x = random_orthonormal(6, 2, rng)
    save_matrix(tmp_path / "x.txt", x)
    save_matrix(tmp_path / "y.txt", x)
    proc = run_cli(
        "angles",
        "--x",
        str(tmp_path / "x.txt"),
        "--y",
        str(tmp_path / "y.txt"),
        "--norm",
        "frobenius",
    )
    assert proc.returncode == 0
    norms_line = proc.stdout.splitlines()[-1]
    assert norms_line.startswith("norms,frobenius=")
    assert "spectral" not in norms_line


def test_align_stdout_and_emitted_set(tmp_path, rng):
    n, k = 12, 4
    x_any = random_orthonormal(n, k, rng)
    d = rng.standard_normal((n, k))
    save_matrix(tmp_path / "x.txt", x_any)
    save_matrix(tmp_path / "d.txt", d)
    proc = run_cli(
        "align",
        "--x",
        str(tmp_path / "x.txt"),
        "--d",
        str(tmp_path / "d.txt"),
        "--emit-set",
    )
    assert proc.returncode == 0, proc.stderr
    got = parse_matrix(proc.stdout)
    expected, aset = align(x_any, d)
    assert np.allclose(got, expected, atol=1e-14)
    base = load_matrix(tmp_path / "x.base.txt")
    assert np.allclose(base, aset.base, atol=1e-14)
    if aset.freedom == 0:
        assert "unique" in proc.stderr
    else:
        assert (tmp_path / "x.freedom_left.txt").exists()


def test_bounds_json_fields_match_report(tmp_path, rng):
    n, k = 16, 4
    d = pinning_matrix(n, k)
    x, _ = align(random_orthonormal(n, k, rng), d)
    xt, _ = align(random_orthonormal(n, k, rng), d)
    save_matrix(tmp_path / "x.txt", x)
    save_matrix(tmp_path / "xt.txt", xt)
    save_matrix(tmp_path / "d.txt", d)
    proc = run_cli(
        "bounds",
        "--x",
        str(tmp_path / "x.txt"),
        "--xt",
        str(tmp_path / "xt.txt"),
        "--d",
        str(tmp_path / "d.txt"),
        "--norm",
        "all",
        "--json",
    )
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(proc.stdout)
    assert len(reports) == 3
    field_names = {f.name for f in dataclasses.fields(BoundReport)}
    for report in reports:
        assert set(report) == field_names
        assert report["measured"] <= report["xi"] + 1e-10


def test_bounds_json_is_strict_where_a_field_is_infinite(tmp_path, rng):
    # --xt == --x measures 0, so slack is infinite: a string, not a bare Infinity
    d = pinning_matrix(16, 4)
    x, _ = align(random_orthonormal(16, 4, rng), d)
    save_matrix(tmp_path / "x.txt", x)
    save_matrix(tmp_path / "d.txt", d)
    x_file, d_file = str(tmp_path / "x.txt"), str(tmp_path / "d.txt")
    proc = run_cli("bounds", "--x", x_file, "--xt", x_file, "--d", d_file, "--json")
    assert proc.returncode == 0, proc.stderr

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    reports = json.loads(proc.stdout, parse_constant=reject)
    assert len(reports) == 3
    for report in reports:
        assert report["measured"] == 0.0
        assert report["slack"] == "inf" and float(report["slack"]) == math.inf
        assert all(isinstance(value, (int, float)) for name, value in report.items()
                   if name not in ("kind", "regime", "slack", "xi_sharpened"))


def test_bounds_text_output(tmp_path, rng):
    n, k = 16, 4
    d = pinning_matrix(n, k)
    x, _ = align(random_orthonormal(n, k, rng), d)
    save_matrix(tmp_path / "x.txt", x)
    save_matrix(tmp_path / "d.txt", d)
    proc = run_cli(
        "bounds",
        "--x",
        str(tmp_path / "x.txt"),
        "--xt",
        str(tmp_path / "x.txt"),
        "--d",
        str(tmp_path / "d.txt"),
        "--norm",
        "trace",
    )
    assert proc.returncode == 0
    assert "kind='trace'" in proc.stdout
    assert "measured=0.0" in proc.stdout


def test_experiment_writes_outputs(tmp_path):
    out = tmp_path / "out"
    proc = run_cli(
        "experiment",
        "--figure",
        "2",
        "--n",
        "32",
        "--k",
        "3",
        "--points",
        "6",
        "--seed",
        "1",
        "--out",
        str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "sweep.csv").exists()
    assert (out / "config.json").exists()
    for kind in ("spectral", "frobenius", "trace"):
        assert (out / f"sweep_{kind}.svg").exists()
    assert "all rows satisfy" in proc.stdout


def test_experiment_custom_config(tmp_path):
    config = {
        "n": 32,
        "k": 3,
        "deltas": [1e-6, 1e-4, 1e-2],
        "rank_deficiency": 0,
        "seed": 3,
        "norms": ["frobenius"],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    proc = run_cli("experiment", "--custom", str(config_path), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 3


def test_experiment_custom_config_rejects_float_k(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"n": 32, "k": 5.0}))
    proc = run_cli("experiment", "--custom", str(config_path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_missing_file_reports_error(tmp_path):
    proc = run_cli("angles", "--x", str(tmp_path / "nope.txt"), "--y", str(tmp_path / "nope.txt"))
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_invalid_matrix_reports_error(tmp_path):
    (tmp_path / "bad.txt").write_text("1 1\nfish\n")
    proc = run_cli(
        "angles", "--x", str(tmp_path / "bad.txt"), "--y", str(tmp_path / "bad.txt")
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr


_MALFORMED_CUSTOM = {
    "invalid-json": (b'{"n": 32', "Expecting"),
    "non-ascii-byte": (b'{"n": 32, "k": 3}\xe9', "'ascii' codec can't decode"),
    "deltas-number": (b'{"deltas": 5}', "deltas and norms must be sequences"),
    "norms-number": (b'{"norms": 5}', "deltas and norms must be sequences"),
    "deltas-string-entry": (b'{"deltas": [0.1, "x"]}', "deltas and norms must be sequences"),
    "list-payload": (b"[1, 2]", "config must be a JSON object"),
    "deep-nesting": (b"[" * 100000, "maximum recursion depth"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_CUSTOM))
def test_experiment_custom_malformed_file_reports_error(tmp_path, case):
    payload, message = _MALFORMED_CUSTOM[case]
    config_path = tmp_path / "config.json"
    config_path.write_bytes(payload)
    proc = run_cli("experiment", "--custom", str(config_path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_experiment_custom_rejects_sweep_flags(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"n": 32, "k": 3, "deltas": [1e-4]}))
    for flags in (["--seed", "5", "--n", "64"], ["--k", "2"], ["--points", "3"]):
        out = tmp_path / "out"
        proc = run_cli("experiment", "--custom", str(config_path), "--out", str(out), *flags)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: --custom takes n, k, seed and deltas")
        assert not out.exists()
    # without --custom the flags keep their defaults
    out = tmp_path / "fig"
    proc = run_cli("experiment", "--figure", "1", "--points", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    config = json.loads((out / "config.json").read_text())
    assert (config["n"], config["k"], config["seed"]) == (96, 5, 0)
    assert config["deltas"] == pytest.approx([1e-12, 1e-2])


def test_non_ascii_matrix_file_reports_error(tmp_path):
    # a comment is allowed anywhere, but the file must be ASCII
    path = tmp_path / "x.txt"
    path.write_bytes("# café\n1 1\n1\n".encode("utf-8"))
    for args in (
        ["angles", "--x", str(path), "--y", str(path)],
        ["align", "--x", str(path), "--d", str(path)],
        ["bounds", "--x", str(path), "--xt", str(path), "--d", str(path)],
    ):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {path}: not an ASCII matrix file")
        assert "Traceback" not in proc.stderr


_INPUTS = {
    "angles": ("--x", "--y"),
    "align": ("--x", "--d"),
    "bounds": ("--x", "--xt", "--d"),
}


@pytest.mark.parametrize(
    "command,bad", [(command, flag) for command, flags in _INPUTS.items() for flag in flags]
)
def test_matrix_file_error_names_the_file(tmp_path, command, bad):
    good = tmp_path / "good.txt"
    save_matrix(good, np.eye(3, 2))
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n1 0\n0 x\n0 0\n")
    args = [command]
    for flag in _INPUTS[command]:
        args += [flag, str(path if flag == bad else good)]
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {path}: line 3: bad number"), proc.stderr
    assert "Traceback" not in proc.stderr


def _main_in_process(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse exits on an error and after --help
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_one_parser_serves_every_call_of_a_process(tmp_path, rng, capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    x = tmp_path / "x.txt"
    save_matrix(x, random_orthonormal(6, 2, rng))
    save_matrix(tmp_path / "y.txt", random_orthonormal(6, 2, rng))
    calls = (
        ["angles", "--x", str(x)],  # --y missing: usage and exit code 2
        ["angles", "--x", str(x), "--y", str(tmp_path / "y.txt")],
        ["experiment", "--help"],
    )
    shared = [_main_in_process(argv, capsys) for argv in calls]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", cli._build())
        fresh.append(_main_in_process(argv, capsys))
    assert shared == fresh
    (code, out, err), (ok, csv, _), (helped, usage, _) = shared
    assert code == 2 and out == "" and err.startswith("usage: subspace-align angles")
    assert ok == 0 and csv.startswith("index,sine,cosine\n")
    assert helped == 0 and usage.startswith("usage: subspace-align experiment")


def test_experiment_exits_1_where_the_bound_breaks(tmp_path, capsys, monkeypatch):
    # every report states a measured error past its bound and nothing else
    # changes, so each row keeps its sines and fails the bound check alone
    evaluate, sweep, rows = experiments.evaluate_instance, cli.run_sweep, []

    def overstated(*args, **kwargs):
        return [
            tuple(dataclasses.replace(rep, measured=rep.xi + 1.0) for rep in reports)
            for reports in evaluate(*args, **kwargs)
        ]

    def recorded(config, out_dir=None):
        rows.extend(sweep(config, out_dir=out_dir))
        return rows

    monkeypatch.setattr(experiments, "evaluate_instance", overstated)
    monkeypatch.setattr(cli, "run_sweep", recorded)
    argv = ["experiment", "--figure", "2", "--points", "3", "--out", str(tmp_path)]
    code, out, err = _main_in_process(argv, capsys)
    assert code == 1 and "all rows satisfy" not in out
    assert len(rows) == 9 and not any(row_passes(row) for row in rows)
    for row in rows:
        assert not row.flag and row.measured > row.xi + 1e-10
        closed = row.sin_theta_closed
        assert abs(closed - row.sin_theta_computed) <= SIN_CROSS_CHECK_TOL * (1.0 + closed)
    assert err.splitlines() == [
        f"row failed invariants: delta={row.delta!r} kind={row.kind} flag=bound/cross-check"
        for row in rows
    ]


#: Runs ``subspace-align`` once per argument list, the lists split at "+".
_COMMANDS = (
    "import sys\n"
    "from subspace_align.cli import main\n"
    "cut = sys.argv.index('+')\n"
    "sys.exit(main(sys.argv[1:cut]) or main(sys.argv[cut + 1:]))\n"
)


def test_outputs_keep_their_bytes_at_any_blas_thread_count(tmp_path):
    # OpenBLAS splits a dot of more than 8192 entries across its threads; a
    # figure sweep and a bounds report on n * k = 16384 keep every byte at 1
    # and 2 threads (a 2-CPU host tries no more; CI's "Matrix files" step
    # also compares 4)
    x_any, xt_any, _, _ = make_pair(ExperimentConfig(n=2048, k=8, seed=301), 1e-6)
    d = pinning_matrix(2048, 8, zero_last=2)
    for name, a in (("x", align(x_any, d, rtol=1e-8)[0]),
                    ("xt", align(xt_any, d, rtol=1e-8)[0]), ("d", d)):
        save_matrix(tmp_path / f"{name}.txt", a)
    files = {name: str(tmp_path / f"{name}.txt") for name in ("x", "xt", "d")}
    argv = ["experiment", "--figure", "3", "--n", "2048", "--k", "8", "--points", "8",
            "--out", "fig", "+", "bounds", "--x", files["x"], "--xt", files["xt"],
            "--d", files["d"], "--norm", "all", "--json"]
    outputs = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run([sys.executable, "-c", _COMMANDS, *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        written = {path.name: path.read_bytes() for path in sorted((cwd / "fig").iterdir())}
        assert "sweep.csv" in written
        outputs.append((proc.stdout, written))
    assert outputs[0] == outputs[1]
