"""Checks on the test setup and on the source tree as a whole."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import subspace_align

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


def _linalg_aliases(tree):
    """The local names of numpy.linalg's functions that `tree` imports, and of
    numpy.linalg itself."""
    imported, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            imported.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            modules.update(a.asname or a.name for a in node.names if a.name == "linalg")
        elif isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.name == "numpy.linalg" and a.asname)
    return imported, modules


def _hidden_svd_calls(tree):
    """Lines of calls to numpy.linalg functions that run an SVD inside numpy,
    where a wrapper around ``numpy.linalg.svd`` cannot see it."""
    imported, modules = _linalg_aliases(tree)
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


def _linalg_calls(tree):
    """Calls in `tree` to numpy.linalg functions, as (line, name) pairs."""
    imported, modules = _linalg_aliases(tree)
    return [
        (node.lineno, name)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (name := _linalg_name(node.func, imported, modules)) is not None
    ]


def test_only_kernels_calls_numpy_linalg():
    # kernels._lapack raises a LAPACK failure as NumericalFailure; a call made
    # elsewhere would let numpy's LinAlgError escape.  The one exception is
    # AlignedBasisSet.member's np.linalg.norm: it is the only call that reaches
    # numpy.linalg.norm, which the benchmark's reach check requires on every
    # workload (ROADMAP item 1), and a Frobenius norm runs no LAPACK routine.
    allowed = {("alignment.py", "norm")}
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "kernels.py":
            for line, name in _linalg_calls(ast.parse(path.read_text(), filename=str(path))):
                found.setdefault((path.name, name), []).append(line)
    member = inspect.getsource(subspace_align.AlignedBasisSet.member)
    assert member.count("np.linalg.norm(") == 1
    assert len(found.get(("alignment.py", "norm"), [])) == 1
    assert set(found) <= allowed, f"use kernels._lapack instead: {found}"


#: kernels' own names for its range rule, which each kernel applies before its
#: call, and numpy's finiteness test, which `kernels._top` makes once per
#: matrix argument; a module that used them would hold a second copy of the
#: rule or scan an argument a second time
RANGE_RULE = {"_SAFE", "_scaled", "_exponent", "isfinite"}


def test_only_kernels_applies_the_range_rule():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "kernels.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            names = {
                alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module != "math"
                for alias in node.names
                if alias.name in RANGE_RULE
            } | {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in RANGE_RULE
                 and not (isinstance(node.value, ast.Name) and node.value.id == "math")}
            if names:
                found[path.name] = sorted(names)
    assert not found, (
        "scale through a kernels entry point (svd, singular_values, matrix_norm, "
        f"_pinning or _scaled_pair) or scan with kernels._top instead: {found}"
    )


def _readme_python_blocks():
    text = (ROOT / "README.md").read_text()
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run(tmp_path):
    # each fenced python block runs in a fresh interpreter, in an empty
    # directory, with every warning an error, as CI runs the demos
    blocks = _readme_python_blocks()
    assert blocks
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    for i, block in enumerate(blocks):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", block],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, f"README python block {i + 1}:\n{proc.stderr}"


#: numpy.random classes that build a random stream; kernels._stream is the
#: package's one constructor of them
STREAM_BUILDERS = {"Philox", "Generator"}


def _stream_builds(tree):
    """Lines of calls that build a numpy.random Philox or Generator."""
    imported, modules = set(), set()  # local names of the classes, of numpy.random
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            imported.update(a.asname or a.name for a in node.names if a.name in STREAM_BUILDERS)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            modules.update(a.asname or a.name for a in node.names if a.name == "random")
        elif isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.name == "numpy.random" and a.asname)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            found.append(node.lineno)
        elif isinstance(func, ast.Attribute) and func.attr in STREAM_BUILDERS:
            owner = func.value
            if (isinstance(owner, ast.Attribute) and owner.attr == "random") or (
                isinstance(owner, ast.Name) and owner.id in modules
            ):
                found.append(node.lineno)
    return found


def test_only_kernels_builds_random_streams():
    # a stream built elsewhere may read OS entropy or key its words another way
    code = (
        "import numpy as np\n"
        "import numpy.random as npr\n"
        "from numpy import random\n"
        "from numpy.random import Philox as P, Generator\n"
        "np.random.default_rng(0)\n"
        "np.random.Generator(np.random.Philox(key=1))\n"
        "npr.Philox(1)\n"
        "random.Generator(bits)\n"
        "Generator(P(2))\n"
    )
    assert sorted(_stream_builds(ast.parse(code))) == [6, 6, 7, 8, 9, 9]
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "kernels.py":
            lines = _stream_builds(ast.parse(path.read_text(), filename=str(path)))
            if lines:
                found[path.name] = lines
    assert not found, f"use kernels._stream instead: {found}"


def _file_writes(tree):
    """Lines of calls that open a file for writing, each with the function
    it is in: ``open``, ``io.open`` or a ``.open`` method such as
    ``Path.open`` given a mode with ``w``, ``a``, ``x`` or ``+`` (or a mode
    that is not a literal), and every ``write_text`` or ``write_bytes``."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            module = getattr(getattr(func, "value", None), "id", None)
            if name in ("write_text", "write_bytes"):
                found.append((owner, node.lineno))
            elif name == "open" and module != "os":  # os.open takes flags, not a mode
                # the mode follows the path of open() and io.open(); a method has no path
                at = 1 if isinstance(func, ast.Name) or module in ("io", "builtins") else 0
                modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
                modes += node.args[at : at + 1]
                for mode in modes:
                    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or (
                        set(mode.value) & set("wax+")
                    ):
                        found.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def test_only_rewrite_opens_files_for_writing():
    # matrixio._rewrite writes every file in place and cuts it to length; an
    # open(path, "w") elsewhere pays O_TRUNC again, or leaves an old tail
    code = (
        "import io\n"
        "open(p)\n"
        "open(p, 'r', encoding='ascii')\n"
        "open(p, 'w')\n"
        "open(p, mode='a')\n"
        "io.open(p, 'xb')\n"
        "Path(p).open('w')\n"
        "Path(p).open()\n"
        "Path(p).write_text('x')\n"
        "os.open(p, os.O_WRONLY)\n"
        "open(p, 'r+')\n"
        "open(p, mode)\n"
        "def _rewrite(path):\n"
        "    with open(path, 'w', opener=keep) as fh:\n"
        "        yield fh\n"
    )
    assert _file_writes(ast.parse(code)) == [
        (None, 4), (None, 5), (None, 6), (None, 7), (None, 9), (None, 11), (None, 12),
        ("_rewrite", 14),
    ]
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for owner, line in _file_writes(ast.parse(path.read_text(), filename=str(path))):
            found.setdefault(f"{path.name}:{owner}", []).append(line)
    assert len(found.pop("matrixio.py:_rewrite", ())) == 1  # the one writer is seen
    assert not found, f"write files with matrixio._rewrite instead: {found}"


def test_export_contract():
    # the package re-exports these modules' __all__ by star import, where a
    # name listed twice would silently shadow the first binding
    owners = {}
    for name in ("alignment", "bounds", "errors", "experiments", "kernels", "matrixio", "metrics"):
        module = getattr(subspace_align, name)
        for public in module.__all__:
            assert public not in owners, f"{public} in {owners.get(public)} and {name}"
            owners[public] = name
            obj = getattr(module, public)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == module.__name__, public
    assert sorted(subspace_align.__all__) == sorted(owners)
    namespace = {}
    exec("from subspace_align import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(subspace_align.__all__)


def test_every_public_callable_has_a_scaling_row_or_an_exemption():
    # Contract B: a new public function states how it scales with its input,
    # or why it has nothing to state; a stale row or exemption fails too
    from support import SCALING, SCALING_EXEMPT

    public = set()
    for path in sorted(SRC.glob("[!_]*.py")):  # each module, not the package or __main__
        module = importlib.import_module(f"subspace_align.{path.stem}")
        public |= {name for name in getattr(module, "__all__", ())
                   if callable(getattr(module, name))}
    assert not set(SCALING) & set(SCALING_EXEMPT)
    assert all(isinstance(why, str) and why for why in SCALING_EXEMPT.values())
    missing = public - set(SCALING) - set(SCALING_EXEMPT)
    assert not missing, f"add a SCALING row or an exemption with a reason: {sorted(missing)}"
    assert set(SCALING) | set(SCALING_EXEMPT) <= public


def test_figures_reach_every_traced_function(tmp_path, capsys):
    # the benchmark's traced run fails a workload whose ops skip a function its
    # layer map names; this is that check on three small figure sweeps
    from subspace_align import cli
    from support import bench_module

    spans = bench_module("spans")

    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        tracer.op = 0
        for figure in (1, 2, 3):
            argv = ["experiment", "--figure", str(figure), "--n", "32", "--k", "3"]
            assert cli.main([*argv, "--out", str(tmp_path / f"fig{figure}")]) == 0
    finally:
        tracer.op = None
        undo()
    _, calls = tracer.aggregate(1)
    assert spans.unreached(calls, "figures") == []


def _raised_names(tree):
    """Names of the classes that ``raise`` statements in `tree` raise, called
    or not."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_class_is_raised():
    # a public error class that nothing raises is dead API that callers may
    # still try to catch; the base class is for catching only
    from subspace_align import errors

    raised = set()
    for path in sorted(SRC.glob("*.py")):
        raised |= _raised_names(ast.parse(path.read_text(), filename=str(path)))
    unraised = set(errors.__all__) - {"SubspaceAlignError"} - raised
    assert not unraised, f"never raised in src: {sorted(unraised)}"
