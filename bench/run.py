"""Benchmark of subspace-align, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload figures|instances|tall_files|all \\
        --seed N --seconds S --trace 0|1

Each workload is a closed loop from one process: one caller sends the next op
only after the previous one returned.  Every process is fresh, so import
time, first-call cost and peak memory belong to the workload, and the BLAS
thread variables are set before numpy is imported.

Workloads (inputs come from ``--seed``; the program sees only those inputs):

``figures``
    ``cli.main(["experiment", "--figure", F, "--seed", S, "--out", dir])`` at
    the defaults (n=96, k=5, 40 points, three norms), F cycling over 1, 2, 3.
    The paper's reproduction as a user runs it: the k-by-k LAPACK calls are
    tiny, so Python overhead, repeated validation, ``hadamard(n)`` rebuilt at
    every point and the CSV/SVG writers carry the time.
``instances``
    One random pinned instance (k in 3..8, n in [2k, 64], rank deficiency 0,
    1 or 2) evaluated by ``bounds.evaluate_instance`` in all three norms.
    Every ``measured`` branch runs, and there are no files, no Hadamard
    matrices and no CLI, so a gain in ``experiments`` or the writers shows on
    ``figures`` and not here.
``tall_files``
    ``align --emit-set``, ``angles`` and ``bounds --norm all --json`` through
    ``cli.main`` on matrix files of pinned pairs at n=2048, k=8.  The n-by-n
    complete QR in ``kernels.orthonormal_completion`` dominates here and is
    nearly invisible at n <= 96; this is also the only workload that reads
    and writes matrix files.

``--trace 0`` reports the end-to-end metrics.  The machine this was tuned on
is a shared VM whose speed drifts by 30 % or more over seconds to minutes, so
the timings are made steady in two steps (see ``worker.py``):

* every op's latency is scaled by a fixed reference computation timed in the
  same process, in bursts between the ops around it, so a slowdown of the
  whole host cancels out;
* the ops of a workload come in kinds of equal cost (a figure, an instance,
  a CLI command on one pair), and each kind's own latency is the 10th
  percentile of its scaled repeats in the run, since interference only adds
  time.

From those:

* ``ops_per_s``: kinds divided by the sum of their own latencies, the rate of
  a loop that runs each kind once;
* ``op_p50_ms``: the median own latency;
* ``ops_ok_frac``: ops that returned and passed every check over ops
  attempted (a metric may not be 0, so the failed fraction goes to the
  detail line, with the failures);
* ``setup_s``: the time from starting a workload process to the end of its
  warm-up op (imports, inputs from the seed, one untimed op), scaled by
  reference bursts run right after it, the median over ``SETUP_RUNS``
  processes;
* ``peak_rss_mb``: ``ru_maxrss`` of the process that ran the timed loop.

The line before the result holds the tail, ``op_tail_ms``: over every timed
op's scaled latency, the highest percentile with at least ten samples beyond
it, with that percentile and the number of ops.  It is not an end-to-end
metric because on the machine this was tuned on it measures the host, not
the program (see ``worker.timed``).  Beside it are the raw wall-clock figures
(rate, median and tail over every op, the set-up wall times), the sample
counts, the failures and the provenance.

``--trace 1`` is a separate run: it wraps the public functions of
every layer and the ``numpy.linalg`` calls they make (see ``spans.py``, whose
``LAYER_MAP`` records which end-to-end metric each layer should move on which
workload) and reports calls, raw self time and bytes per op.  No traced
number feeds an end-to-end metric.

Left out of the benchmark:

* n=8192: one angle call takes seconds and the complete Q needs about 1 GB,
  too long and too large for the repeated runs on a 2-CPU machine.
* The wall time of the test suite: most of it is test-oracle code, not the
  program.
* A separate single-thread workload: every run uses ``BLAS_THREADS`` and
  records it, with the BLAS build, in the provenance block.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402

#: OpenBLAS and OpenMP threads of every workload process.  One thread: with
#: two, a fresh process on a 2-CPU machine stalled its first LAPACK calls for
#: up to a second in some starts, and other jobs share these CPUs.
BLAS_THREADS = 1

#: Workload processes whose set-up time is measured; ``setup_s`` is their median.
SETUP_RUNS = 5

#: The whole run, every process included, must end within this many seconds.
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("ops_ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def worker(args, deadline, setup_only=False):
    """Run one workload process to its end and return its JSON result."""
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--started", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{args.workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(args, deadline):
    if args.trace:
        main = worker(args, deadline)
        units = spans.per_layer_metrics()
        values = main["metrics"]
        setups = []
    else:
        setups = [worker(args, deadline, setup_only=True) for _ in range(SETUP_RUNS - 1)]
        main = worker(args, deadline)
        setups.append(main)
        values = {name: main[name] for name in ("ops_per_s", "op_p50_ms", "peak_rss_mb")}
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        values["ops_ok_frac"] = 1.0 - len(main["failures"]) / main["attempted"]
        units = END_TO_END
    attempted, failed = main["attempted"], len(main["failures"])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_failed_frac": failed / attempted,
        "failures": main["failures"][:5],
        "setup_s_samples": [s["setup_s"] for s in setups],
        "setup_wall_s_samples": [s["setup_wall_s"] for s in setups],
        "provenance": dict(main["provenance"], git_commit=git_commit()),
    }
    detail.update({k: v for k, v in main.items()
                   if k not in ("metrics", "failures", "provenance", "setup_wall_s")
                   and k not in values})
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    return detail, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spans.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "subspace_align" / "__init__.py").is_file():
        raise SystemExit(f"no subspace_align package under {ROOT / 'src'}")

    names = spans.WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    for name in names:
        detail, result = run_workload(argparse.Namespace(**dict(vars(args), workload=name)),
                                      deadline)
        print(json.dumps({"detail": detail}))
        print(json.dumps(result))


if __name__ == "__main__":
    main()
