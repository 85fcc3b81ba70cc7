"""Command-line interface.

Subcommands:

* ``angles``      canonical-angle report for two basis files (CSV on stdout)
* ``align``       pin a basis against a target matrix (matrix text on stdout)
* ``bounds``      measured-vs-bound report for a pinned pair (text or JSON)
* ``experiment``  reproducible bound-tightness sweeps (CSV/SVG/JSON files)

Matrix files use the plain-text format of :mod:`subspace_align.matrixio`.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .alignment import align
from .bounds import evaluate_instance
from .errors import InvalidInput, SubspaceAlignError
from .experiments import (
    ExperimentConfig,
    config_from_dict,
    default_delta_grid,
    row_passes,
    run_sweep,
)
from .kernels import NORM_KINDS
from .matrixio import format_matrix, load_matrix, save_matrix
from .metrics import canonical_angles, sin_theta_norm

__all__ = ["main"]


def _norm_kinds(choice):
    return NORM_KINDS if choice == "all" else (choice,)


def _cmd_angles(args):
    x = load_matrix(args.x)
    y = load_matrix(args.y)
    angles = canonical_angles(x, y)
    out = sys.stdout
    out.write("index,sine,cosine\n")
    for i in range(angles.k):
        # index i of both arrays belongs to the same canonical angle
        out.write(f"{i + 1},{float(angles.sines[i])!r},{float(angles.cosines[i])!r}\n")
    cells = ",".join(
        f"{kind}={sin_theta_norm(angles, kind)!r}" for kind in _norm_kinds(args.norm)
    )
    out.write(f"norms,{cells}\n")
    return 0


def _cmd_align(args):
    x_any = load_matrix(args.x)
    d = load_matrix(args.d)
    x, aset = align(x_any, d)
    sys.stdout.write(format_matrix(x))
    if args.emit_set:
        base_path = _sibling(args.x, "base")
        save_matrix(base_path, aset.base)
        written = [base_path]
        if aset.freedom > 0:
            left = _sibling(args.x, "freedom_left")
            right = _sibling(args.x, "freedom_right")
            save_matrix(left, aset.freedom_left)
            save_matrix(right, aset.freedom_right)
            written += [left, right]
        else:
            print(
                "freedom is empty (full rank): the aligned basis is unique",
                file=sys.stderr,
            )
        for path in written:
            print(f"wrote {path}", file=sys.stderr)
    return 0


def _sibling(path, tag):
    p = Path(path)
    return p.with_name(f"{p.stem}.{tag}{p.suffix}")


def _cmd_bounds(args):
    x = load_matrix(args.x)
    xt = load_matrix(args.xt)
    d = load_matrix(args.d)
    reports = evaluate_instance(x, xt, d, _norm_kinds(args.norm))
    if args.json:
        json.dump([asdict(r) for r in reports], sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    for rep in reports:
        for name, value in asdict(rep).items():
            print(f"{name}={value!r}")
        print()
    return 0


def _cmd_experiment(args):
    sizes = {flag: getattr(args, flag) for flag in ("n", "k", "seed", "points") if flag in args}
    if args.custom is not None:
        if sizes:
            raise InvalidInput("--custom takes n, k, seed and deltas from its file only")
        try:
            with open(args.custom, "r", encoding="ascii") as fh:
                payload = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON, bytes or nesting
            raise InvalidInput(f"{args.custom}: {exc}") from exc
        config = config_from_dict(payload)
        out_dir = args.out or "experiment-custom"
    else:
        grid = default_delta_grid(points=sizes.pop("points", 40))
        config = ExperimentConfig(deltas=grid, rank_deficiency=args.figure - 1, **sizes)
        out_dir = args.out or f"experiment-fig{args.figure}"
    rows = run_sweep(config, out_dir=out_dir)
    failures = [row for row in rows if not row_passes(row)]
    print(
        f"wrote {out_dir}/sweep.csv ({len(rows)} rows), config.json, "
        f"{len(config.norms)} SVG plot(s)"
    )
    if failures:
        for row in failures[:10]:
            print(
                f"row failed invariants: delta={row.delta!r} kind={row.kind} "
                f"flag={row.flag or 'bound/cross-check'}",
                file=sys.stderr,
            )
        return 1
    print("all rows satisfy the bound and the closed-form cross-check")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="subspace-align",
        description="Pinned orthonormal bases, canonical angles, and perturbation bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_angles = sub.add_parser(
        "angles", help="canonical angles and sin-theta norms of two bases"
    )
    p_angles.add_argument("--x", required=True, help="matrix file, first basis")
    p_angles.add_argument("--y", required=True, help="matrix file, second basis")
    p_angles.add_argument(
        "--norm", default="all", choices=NORM_KINDS + ("all",), help="norm kind to print"
    )
    p_angles.set_defaults(func=_cmd_angles)

    p_align = sub.add_parser("align", help="pin a basis against a target matrix")
    p_align.add_argument("--x", required=True, help="matrix file, orthonormal basis")
    p_align.add_argument("--d", required=True, help="matrix file, pinning matrix")
    p_align.add_argument(
        "--emit-set",
        action="store_true",
        help="also write base/freedom factors next to the --x file",
    )
    p_align.set_defaults(func=_cmd_align)

    p_bounds = sub.add_parser("bounds", help="measured-vs-bound report for a pinned pair")
    p_bounds.add_argument("--x", required=True, help="matrix file, pinned basis")
    p_bounds.add_argument("--xt", required=True, help="matrix file, pinned comparison basis")
    p_bounds.add_argument("--d", required=True, help="matrix file, pinning matrix")
    p_bounds.add_argument(
        "--norm", default="all", choices=NORM_KINDS + ("all",), help="norm kind to report"
    )
    p_bounds.add_argument("--json", action="store_true", help="emit a JSON report")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_exp = sub.add_parser("experiment", help="run a reproducible bound sweep")
    group = p_exp.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--figure",
        type=int,
        choices=(1, 2, 3),
        help="preset sweep: 1 full rank, 2 one zeroed column, 3 two zeroed columns",
    )
    group.add_argument("--custom", help="JSON config file (the emitted config.json shape)")
    sized = dict(type=int, default=argparse.SUPPRESS)  # in args only when given
    p_exp.add_argument("--n", **sized, help="ambient dimension (default 96)")
    p_exp.add_argument("--k", **sized, help="subspace dimension (default 5)")
    p_exp.add_argument("--seed", **sized, help="Philox seed (default 0)")
    p_exp.add_argument("--points", **sized, help="delta grid size (default 40)")
    p_exp.add_argument("--out", default=None, help="output directory")
    p_exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SubspaceAlignError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
