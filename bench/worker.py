"""One workload run in a process of its own.

``run.py`` starts this script with the BLAS thread variables already set, so
they hold before numpy is imported, and with ``PYTHONPATH`` naming only the
checkout's ``src``.  The process imports, builds the workload's inputs from
the seed and runs one untimed warm-up op; that is set-up.  Then, unless
``--setup-only``, it runs the closed loop: one caller, the next op sent only
after the previous one returned.  The last line of its standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np
from numpy.linalg import norm, qr, svd

import subspace_align

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


class Loop:
    """Closed-loop ops on one workload, each checked right after it returns.

    ``busy_s`` is the time spent inside ops; the checks are kept out of it.
    """

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.latencies = []
        self.failures = []
        self.busy_s = 0.0

    def run(self, i):
        tracer = self.tracer
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            result, error = self.workload.run(i), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if tracer is not None:
            tracer.op = None
        self.latencies.append(end - start)
        if error is None:
            try:
                error = self.workload.check(i, result)
            except Exception as exc:  # output the check cannot read
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append(f"op {i}: {error}")
        self.busy_s += end - start

    def run_for(self, first, seconds):
        """Ops first, first+1, ... until `seconds` of loop time have passed."""
        i, stop = first, self.busy_s + seconds
        while self.busy_s < stop:
            self.run(i)
            i += 1


#: An op kind's own latency is this quantile of its repeats within the run,
#: and the set-up reference's time is this quantile of its bursts.
#: Interference only adds time, so a low quantile estimates the undisturbed
#: cost.
OWN_QUANTILE = 0.1

#: The machine is a shared VM whose speed drifts by 30 % or more, over
#: seconds to minutes, which no statistic within one run removes.  So every
#: time reported end to end is scaled by the nominal over the measured time of
#: a fixed reference computation, run in the same process beside the measured
#: work: times read as if the reference took its nominal time.  The
#: reference is made of the kinds of work the workload spends its time in
#: (the workload's ``reference`` names them): a Python loop and small numpy
#: linalg calls for all, and for a workload that moves n-by-n matrices the
#: complete QR of a 1024-by-8 matrix, which is left out elsewhere because its
#: 8 MB would show in their peak RSS.  It runs no code of the program, so a
#: change to the program moves the scaled times as it moves the raw ones.
#: The nominal seconds are about each part's undisturbed time on the 2-vCPU
#: VM the benchmark was tuned on.
_REF_RNG = np.random.default_rng(0)
_REF_SQUARE = _REF_RNG.standard_normal((5, 5))
_REF_TALL = _REF_RNG.standard_normal((96, 5))
_REF_THIN = _REF_RNG.standard_normal((1024, 8))


def _python_loop():
    total = 0
    for i in range(100_000):
        total += i * i


def _small_linalg():
    for _ in range(100):
        svd(_REF_SQUARE)
        qr(_REF_TALL)
        norm(_REF_TALL)


def _complete_qr():
    qr(_REF_THIN, mode="complete")


REFERENCE_PARTS = {
    "python": (_python_loop, 0.0055),
    "linalg": (_small_linalg, 0.003),
    "complete_qr": (_complete_qr, 0.017),
}

#: A reference burst follows every this many seconds of ops in the timed loop.
REFERENCE_EVERY_S = 0.5

#: An op in the timed loop is scaled by the fastest of this many bursts
#: around it, half run before it and half after, so about a second each way:
#: the fastest follows the machine's speed at the time without the stalls
#: that hit single bursts.
LOCAL_BURSTS = 4

#: Reference bursts right after set-up, to scale the set-up time.
SETUP_REFERENCE_BURSTS = 6


def reference(parts):
    """One burst of the reference parts; its wall time in seconds."""
    start = time.perf_counter()
    for part in parts:
        REFERENCE_PARTS[part][0]()
    return time.perf_counter() - start


def nominal(parts):
    """The nominal seconds of one burst of the reference parts."""
    return sum(REFERENCE_PARTS[p][1] for p in parts)


def _quantile(values, q):
    ordered = sorted(values)
    return ordered[int(q * (len(ordered) - 1))]


def _tail(values):
    """The highest percentile with at least ten samples beyond it, and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def provenance():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "subspace_align": subspace_align.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def timed(loop, seconds):
    """The timed loop, with reference bursts between ops.  Every op's latency
    is scaled by the bursts around it; the rate and the median use each kind
    of op's own latency, the tail uses every op.  The raw figures over every
    op are kept beside them.

    The tail is not an end-to-end metric: on the 2-vCPU VM the benchmark was
    tuned on, its slowest ops are ordinary ops slowed by the host, about
    twice their kind's own latency and spread over all kinds, and its
    quartile spread over five to ten seeds reached 0.22 to 0.24 on
    ``figures`` and ``instances``, against 0.25 for the largest bound a metric
    may have."""
    parts = loop.workload.reference
    bursts, after = [reference(parts)], [0]  # burst j ran right after op after[j]
    i, stop, next_burst = 1, loop.busy_s + seconds, loop.busy_s + REFERENCE_EVERY_S
    while loop.busy_s < stop:
        loop.run(i)
        if loop.busy_s >= next_burst:
            bursts.append(reference(parts))
            after.append(i)
            next_burst = loop.busy_s + REFERENCE_EVERY_S
        i += 1
    nominal_s = nominal(parts)

    raw = [t * 1e3 for t in loop.latencies[1:]]
    scaled = []
    for i, t in enumerate(raw, start=1):
        j = bisect.bisect_left(after, i)  # the first burst run after op i
        near = bursts[max(0, j - LOCAL_BURSTS // 2) : j + LOCAL_BURSTS // 2]
        scaled.append(t * nominal_s / min(near))
    repeats = {}
    for i, t in enumerate(scaled, start=1):
        repeats.setdefault(loop.workload.kind(i), []).append(t)
    own = [_quantile(v, OWN_QUANTILE) for v in repeats.values()]
    tail, pct = _tail(scaled)
    raw_tail, raw_pct = _tail(raw)
    return {
        "ops_per_s": len(own) / sum(own) * 1e3,
        "op_p50_ms": statistics.median(own),
        "op_tail_ms": tail,
        "op_tail_percentile": pct,
        "ops": len(scaled),
        "op_kinds": len(own),
        "op_repeats_min": min(len(v) for v in repeats.values()),
        "reference_bursts": len(bursts),
        "raw": {
            "ops_per_s": len(raw) / sum(raw) * 1e3,
            "op_p50_ms": statistics.median(raw),
            "op_tail_ms": raw_tail,
            "op_tail_percentile": raw_pct,
        },
    }


def traced(workload, loop, seconds, trace_file):
    """Untraced ops for half the time, then whole passes over one op cycle
    with tracing on for the other half.  The traced ops are a fixed list, so
    call counts per op repeat exactly for a given seed."""
    loop.run_for(1, seconds / 2)
    untraced_ms = statistics.fmean(loop.latencies[1:]) * 1e3

    tracer = spans.Tracer()
    traced_loop = Loop(workload, tracer)
    undo = spans.install(tracer)
    try:
        while True:
            for i in range(workload.cycle):
                traced_loop.run(i)
            if traced_loop.busy_s >= seconds / 2:
                break
    finally:
        undo()
    ops = len(traced_loop.latencies)
    metrics, calls = tracer.aggregate(ops)
    missing = spans.unreached(calls, workload.name)
    if missing:
        raise SystemExit(f"traced functions never reached on {workload.name}: {missing}")
    passes = ops // workload.cycle
    linalg = {name: n for name, n in calls.items() if name.startswith("numpy.linalg.")}
    if any(n % passes for n in linalg.values()):
        raise SystemExit(f"numpy.linalg call counts differ between passes: {linalg}")
    tracer.dump(trace_file)
    metrics["trace.overhead_frac"] = statistics.fmean(traced_loop.latencies) * 1e3 / untraced_ms - 1.0
    per_pass = {name: n // passes for name, n in linalg.items()}
    return metrics, traced_loop.failures, ops, per_pass


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if Path(subspace_align.__file__).resolve().parent != src / "subspace_align":
        raise SystemExit(f"subspace_align imported from {subspace_align.__file__}, not {src}")

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        loop = Loop(workload)
        loop.run(0)
        setup_wall_s = time.monotonic() - args.started
        bursts = [reference(workload.reference) for _ in range(SETUP_REFERENCE_BURSTS)]
        out = {
            "setup_s": setup_wall_s * nominal(workload.reference) / _quantile(bursts, OWN_QUANTILE),
            "setup_wall_s": setup_wall_s,
            "first_op_ms": loop.latencies[0] * 1e3,
        }
        if not args.setup_only:
            if args.trace:
                trace_dir = ROOT / ".bench_out"
                trace_dir.mkdir(exist_ok=True)
                trace_file = trace_dir / f"trace-{args.workload}.json"
                metrics, failures, ops, per_pass = traced(workload, loop, args.seconds, trace_file)
                metrics["first_op_ms"] = out["first_op_ms"]
                out.update(
                    metrics=metrics,
                    traced_ops=ops,
                    cycle_ops=workload.cycle,
                    linalg_calls_per_cycle=per_pass,
                    trace_file=str(trace_file.relative_to(ROOT)),
                )
                loop.failures += failures
            else:
                out.update(timed(loop, args.seconds))
            out["summary"] = workload.summary()
        out["attempted"] = len(loop.latencies) + out.get("traced_ops", 0)
        out["failures"] = loop.failures
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["provenance"] = provenance()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
