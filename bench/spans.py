"""Spans around the package's public functions, from outside the package.

``install`` wraps every public function of each layer module, and the
``numpy.linalg`` calls the package makes, then rebinds each wrapper in every
module namespace that holds the original: the package imports names with
``from .kernels import svd``, so patching ``kernels`` alone would miss the
callers.  A span records name, start, end, parent span and op id, is kept in
memory, and is only recorded while an op is open, so the benchmark's own
set-up and checks never count.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

import numpy as np

PACKAGE = "subspace_align"
LAYERS = ("kernels", "metrics", "alignment", "bounds", "experiments", "svgplot", "matrixio", "cli")
LINALG = ("svd", "qr", "eigvalsh", "norm")

WORKLOADS = ("figures", "instances", "tall_files")

#: Layer groups: the traced functions, the workloads whose ops must reach each
#: of them (a rebinding miss then fails the run instead of reading as zero),
#: and the end-to-end metrics a change to the group should move.
LAYER_MAP = (
    (
        ("kernels.orthonormal_completion", "numpy.linalg.qr"),
        WORKLOADS,
        "op_p50_ms, ops_per_s and peak_rss_mb on tall_files; little on figures or instances",
    ),
    (
        (
            "kernels.check_orthonormal",
            "kernels.svd",
            "kernels.matrix_norm",
            "numpy.linalg.svd",
            "numpy.linalg.eigvalsh",
            "numpy.linalg.norm",
            "bounds.evaluate_instance",
            "bounds.eta",
            "metrics.canonical_angles",
        ),
        WORKLOADS,
        "ops_per_s on instances and figures; hidden under the QR on tall_files",
    ),
    (
        ("alignment.align", "alignment.optimal_representative"),
        WORKLOADS,
        "ops_per_s on instances and on figures 2-3; align also setup_s on instances",
    ),
    (
        ("experiments.make_pair", "kernels.hadamard", "kernels.haar_orthogonal"),
        ("figures",),
        "ops_per_s on figures; setup_s on tall_files, which builds hadamard(2048) per pair",
    ),
    (
        ("experiments.run_sweep", "experiments.write_rows_csv", "svgplot.write_loglog_svg"),
        ("figures",),
        "ops_per_s on figures only",
    ),
    (
        (
            "matrixio.load_matrix",
            "matrixio.parse_matrix",
            "matrixio.save_matrix",
            "matrixio.format_matrix",
        ),
        ("tall_files",),
        "ops_per_s on tall_files only",
    ),
    (
        ("cli.main", "cli.build_parser"),
        ("figures", "tall_files"),
        "op_p50_ms on figures and tall_files; absent from instances",
    ),
)


def _complete_q_bytes(args, kwargs):
    # orthonormal_completion builds a complete n x n float64 Q (computed, not measured)
    n = np.shape(args[0] if args else kwargs["x"])[0]
    return 8 * n * n


def _path_arg(args, kwargs):
    return os.path.getsize(args[0] if args else kwargs["path"])


#: Functions whose work is also counted in bytes: name -> (counter, bytes of a call).
BYTE_COUNTERS = {
    "kernels.orthonormal_completion": ("kernels.orthonormal_completion", _complete_q_bytes),
    "matrixio.load_matrix": ("matrixio", _path_arg),
    "matrixio.save_matrix": ("matrixio", _path_arg),
    "svgplot.write_loglog_svg": ("svgplot", _path_arg),
}


BYTES = tuple(dict.fromkeys(key for key, _ in BYTE_COUNTERS.values()))


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for names, _, _ in LAYER_MAP:
        for name in names:
            out += [(f"{name}.calls_per_op", "count"), (f"{name}.self_ms_per_op", "ms")]
    out += [(f"{key}.bytes_per_op", "B") for key in BYTES]
    # first_op_ms is the untimed warm-up op and should move setup_s everywhere
    out += [("first_op_ms", "ms"), ("trace.overhead_frac", "ratio")]
    return out


def unreached(calls, workload):
    """Traced functions the layer map says `workload` uses but no op called."""
    return [
        name
        for names, users, _ in LAYER_MAP
        if workload in users
        for name in names
        if calls.get(name, 0) == 0
    ]


class Tracer:
    """Spans of the wrapped calls made while ``op`` holds an op id."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.bytes = {}
        self.op = None
        self._stack = []

    def wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        counter = BYTE_COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name_id, start, end, stack[-1] if stack else -1, op)
            if counter is not None:
                key, nbytes = counter
                self.bytes[key] = self.bytes.get(key, 0) + nbytes(args, kwargs)
            return result

        return wrapper

    def aggregate(self, ops):
        """Calls and self time (span time minus child span time) per name, per op."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for idx, (name_id, start, end, _, _) in enumerate(self.spans):
            calls[name_id] += 1
            self_ns[name_id] += end - start - child[idx]
        out = {}
        for name_id, name in enumerate(self.names):
            out[f"{name}.calls_per_op"] = calls[name_id] / ops
            out[f"{name}.self_ms_per_op"] = self_ns[name_id] / 1e6 / ops
        for key in BYTES:
            out[f"{key}.bytes_per_op"] = self.bytes.get(key, 0) / ops
        return out, {name: calls[i] for i, name in enumerate(self.names)}

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump(
                {"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                 "spans": self.spans},
                fh,
                separators=(",", ":"),
            )


def rebind(pairs):
    """Put each stand-in in place of its original, in every namespace of the
    package and in ``numpy.linalg``; returns a function that restores them."""
    swap = {id(original): (original, stand_in) for original, stand_in in pairs}
    namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == PACKAGE]
    namespaces.append(np.linalg)
    restore = []
    for module in namespaces:
        for attr, value in list(vars(module).items()):
            hit = swap.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                restore.append((module, attr, value))

    def undo():
        for module, attr, value in restore:
            setattr(module, attr, value)

    return undo


def install(tracer):
    """Trace every public function of the layers and the numpy.linalg calls."""
    pairs = []
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, fn in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                pairs.append((fn, tracer.wrap(f"{layer}.{attr}", fn)))
    for attr in LINALG:
        fn = getattr(np.linalg, attr)
        pairs.append((fn, tracer.wrap(f"numpy.linalg.{attr}", fn)))
    return rebind(pairs)
