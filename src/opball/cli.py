"""Command line front end.

Subcommands: ``identities`` (seeded invariant suites, JSON report),
``metric`` (distance between two operators given as matrix files),
``symcheck`` (complex-symmetry verdict for a matrix against a pair), and
``approx`` (symmetric-approximation experiments, CSV profiles plus a JSON
ensemble report).  Run as ``opball`` or ``python -m opball``.

Exit codes: 0 success, 1 identity/verdict/invariant failure, 2 usage or
input errors; every :class:`OpballError` becomes one stderr line
"<command>: <error>" and exit code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from pathlib import Path

from .density import ensemble_experiment, profile_csv, report_json
from .errors import BadDims, OpballError, ShapeMismatch
from .identities import run_identities
from .matio import read_matrix, read_pair
from .symmetry import canonical_pair, identity_pair, symmetry_residual
from .transform import OperatorHK, operator_dist, operators


def _fmt12(x: float) -> str:
    """Exactly 12 significant digits, positional."""
    if x == 0.0:
        return "0.000000000000"
    # the exponent of the rounded value, so a carry into the next power of
    # ten does not add a digit
    exponent = int(f"{x:.11e}".partition("e")[2])
    return f"{x:.{max(0, 11 - exponent)}f}"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it unchanged, so every
    :func:`main` call after the first reuses it."""
    parser = argparse.ArgumentParser(
        prog="opball",
        description="Operator-ball geometry and complex symmetric operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identities", help="run the seeded identity suites")
    p_id.add_argument("--seed", type=int, default=0)
    p_id.add_argument("--trials", type=int, default=100)
    p_id.add_argument("--dim-h", type=int, default=8)
    p_id.add_argument("--dim-k", type=int, default=3)
    p_id.add_argument("--tol", type=float, default=1e-8)

    p_metric = sub.add_parser("metric", help="distance between two operators")
    p_metric.add_argument("file_t", help="matrix file of the first operator")
    p_metric.add_argument("file_s", help="matrix file of the second operator")

    p_sym = sub.add_parser("symcheck", help="complex-symmetry check for a matrix")
    p_sym.add_argument("file_t", help="matrix file of the operator")
    p_sym.add_argument(
        "--pair",
        default="canonical",
        help="'canonical', 'identity', or the path of a pair file",
    )
    p_sym.add_argument("--tol", type=float, default=1e-10)

    p_ap = sub.add_parser("approx", help="symmetric approximation experiment")
    p_ap.add_argument("--dim-h", type=int, default=8)
    p_ap.add_argument("--dim-k", type=int, default=2)
    p_ap.add_argument("--trials", type=int, default=10)
    p_ap.add_argument("--seed", type=int, default=0)
    p_ap.add_argument("--jobs", type=int, default=1)
    p_ap.add_argument("--out", required=True, help="output path prefix")
    return parser


def _cmd_identities(args) -> int:
    if not (1 <= args.dim_k <= 8 and args.dim_k <= args.dim_h <= 32):
        raise BadDims("need 1 <= dim-k <= 8 and dim-k <= dim-h <= 32")
    reports = run_identities(args.seed, args.trials, args.dim_h, args.dim_k, args.tol)
    payload = {
        "seed": args.seed,
        "trials": args.trials,
        "dim_h": args.dim_h,
        "dim_k": args.dim_k,
        "tol": args.tol,
        "identities": [vars(r) for r in reports],
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_metric(args) -> int:
    mat_t = read_matrix(args.file_t)
    mat_s = read_matrix(args.file_s)
    if mat_t.shape != mat_s.shape:
        raise ShapeMismatch(
            f"shape mismatch: {args.file_t} is {mat_t.shape[0]}x{mat_t.shape[1]}, "
            f"{args.file_s} is {mat_s.shape[0]}x{mat_s.shape[1]}"
        )
    print(_fmt12(operator_dist(*operators([mat_t, mat_s]))))
    return 0


def _cmd_symcheck(args) -> int:
    if not 0 < args.tol < math.inf:
        raise BadDims("need tol > 0")
    mat = read_matrix(args.file_t)
    rows, cols = mat.shape
    if args.pair == "identity":
        if rows != cols:
            raise ShapeMismatch(f"identity pair needs a square matrix, got {rows}x{cols}")
        pair = identity_pair(rows)
    elif args.pair == "canonical":
        if rows < cols:
            raise ShapeMismatch(f"canonical pair needs rows >= cols, got {rows}x{cols}")
        pair = canonical_pair(cols, rows)
    else:
        pair = read_pair(args.pair)
    residual = symmetry_residual(OperatorHK(mat), pair)
    verdict = "SYMMETRIC" if residual <= args.tol else "NOT-SYMMETRIC"
    print(f"residual {residual!r}")
    print(verdict)
    return 0 if verdict == "SYMMETRIC" else 1


@contextlib.contextmanager
def _writing():
    """Turn an :class:`OSError` of writing the outputs into an error line."""
    try:
        yield
    except OSError as exc:
        raise OpballError(f"cannot write {exc.filename}: {exc.strerror}") from exc


def _cmd_approx(args) -> int:
    if not (1 <= args.dim_k <= args.dim_h <= 32):
        raise BadDims("need 1 <= dim-k <= dim-h <= 32")
    if args.trials < 1 or args.jobs < 1:
        raise BadDims("need trials >= 1 and jobs >= 1")
    if args.seed < 0:
        raise BadDims("need seed >= 0")
    folder = os.path.dirname(args.out)
    # the prefix is used as given; an unwritable one fails before any trial runs
    with _writing():
        if folder:
            Path(folder).mkdir(parents=True, exist_ok=True)
    report = ensemble_experiment(
        args.dim_h, args.dim_k, args.trials, args.seed, jobs=args.jobs
    )
    with _writing():
        for i, result in enumerate(report.results):
            Path(f"{args.out}_trial{i:03d}.csv").write_text(profile_csv(result))
        Path(f"{args.out}_ensemble.json").write_text(report_json(report))
    return 0 if report.all_valid() else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "identities": _cmd_identities,
        "metric": _cmd_metric,
        "symcheck": _cmd_symcheck,
        "approx": _cmd_approx,
    }
    try:
        return handlers[args.command](args)
    except OpballError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
