import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subspace_align import (
    BoundReport,
    align,
    load_matrix,
    parse_matrix,
    pinning_matrix,
    save_matrix,
)
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
