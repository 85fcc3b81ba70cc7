"""Checks on the test setup and on the source tree as a whole."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "subspace_align"

#: numpy.linalg functions that always factor their input with an SVD
SVD_ALWAYS = {"matrix_rank", "cond", "pinv", "lstsq", "svdvals"}
#: numpy.linalg norms that take an SVD for these orders of a matrix
SVD_NORMS = {"norm", "matrix_norm"}
SVD_ORDERS = {2, -2, "nuc"}


def test_failing_property_test_reports_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "\n"
        "@settings(derandomize=True, database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(value):\n"
        "    assert value < 10\n"
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_fails.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out


def _linalg_name(func, imported, modules):
    """The numpy.linalg function a call goes to, or None."""
    if isinstance(func, ast.Name):
        return imported.get(func.id)
    if isinstance(func, ast.Attribute):
        owner = func.value
        if isinstance(owner, ast.Attribute) and owner.attr == "linalg":
            return func.attr
        if isinstance(owner, ast.Name) and owner.id in modules:
            return func.attr
    return None


def _hidden_svd_calls(tree):
    """Lines of calls to numpy.linalg functions that run an SVD inside numpy,
    where a wrapper around ``numpy.linalg.svd`` cannot see it."""
    imported, modules = {}, set()  # local names of its functions, of itself
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            imported.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            modules.update(a.asname or a.name for a in node.names if a.name == "linalg")
        elif isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.name == "numpy.linalg" and a.asname)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _linalg_name(node.func, imported, modules)
        if name in SVD_ALWAYS:
            found.append((node.lineno, name))
        elif name in SVD_NORMS:
            order = [kw.value for kw in node.keywords if kw.arg == "ord"] + node.args[1:2]
            if order:
                try:
                    value = ast.literal_eval(order[0])
                except ValueError:  # not a literal: it may be one of them
                    value = "nuc"
                if value in SVD_ORDERS:
                    found.append((node.lineno, f"{name}(ord={value!r})"))
    return found


def test_detector_sees_each_hidden_svd():
    code = (
        "import numpy as np\n"
        "import numpy.linalg as la\n"
        "from numpy import linalg\n"
        "from numpy.linalg import pinv as pseudo\n"
        "np.linalg.norm(a)\n"
        "np.linalg.norm(a, 'fro')\n"
        "np.linalg.svd(a)\n"
        "np.linalg.norm(a, 2)\n"
        "np.linalg.norm(a, ord=-2)\n"
        "np.linalg.norm(a, 'nuc', axis=(1, 2))\n"
        "np.linalg.norm(a, order)\n"
        "np.linalg.matrix_rank(a)\n"
        "la.cond(a)\n"
        "pseudo(a)\n"
        "linalg.lstsq(a, b)\n"
        "np.linalg.svdvals(a)\n"
    )
    lines = sorted(line for line, _ in _hidden_svd_calls(ast.parse(code)))
    assert lines == list(range(8, 17))


def test_src_runs_no_hidden_svd():
    # the traced benchmark counts SVDs by wrapping numpy.linalg.svd; these
    # calls factor inside numpy and would go uncounted
    found = {}
    for path in sorted(SRC.glob("*.py")):
        calls = _hidden_svd_calls(ast.parse(path.read_text(), filename=str(path)))
        if calls:
            found[path.name] = calls
    assert not found, f"use kernels.svd or kernels.matrix_norm instead: {found}"
