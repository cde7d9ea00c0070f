"""Approximation of arbitrary operators by complex symmetric ones.

The pipeline behind each approximant of depth n:

    1. transform the operator to a ball point and zero all rows past n,
    2. extend the truncation to the doubled spaces, where the swap-doubled
       conjugation pair makes it symmetric by construction,
    3. transform back; the induced conjugation pair certifies that the
       resulting doubled operator is complex symmetric.

At full depth the leading block of the approximant recovers the original
operator, and distances are measured against that full-depth iterate, which
lives on the doubled spaces like every other iterate (comparing against the
undoubled original would mix dimensions).

Trials of the ensemble experiment are independent; per-trial seeds are
spawned from the master seed with ``numpy.random.SeedSequence.spawn``, so
results do not depend on scheduling and may be computed in parallel.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .ball import BallPoint
from .errors import BadDims
from .matkernel import as_integers, gram_factor, op_norm, require_positive, require_shape
from .sampling import random_operator
from .symmetry import (
    ConjugationPair,
    double_pair,
    extension_blocks,
    induced_pairs,
    random_pair,
    symmetry_residuals,
)
from .tolerances import DEFAULT
from .transform import (
    OperatorHK,
    bounded_transform,
    inverse_bounded_transforms,
    operator_dists,
)


def _approximants(
    t: OperatorHK, pair: ConjugationPair, depths
) -> tuple[list[OperatorHK], list[ConjugationPair], list[BallPoint]]:
    """Steps 1-3 of the pipeline at each of ``depths`` (checked by the
    caller) for the operator ``t``: the approximants, their pairs and their
    doubled points, as three lists.  A ``pair`` that does not run from K to
    H raises :class:`ShapeMismatch` before any solve.  Each step runs as
    one stacked expression over all depths: the cuts (rows past the depth
    zeroed) and their extension blocks, the doubled points' factors, their
    induced pairs and the inverse transforms.  The cut is not factored on
    its own: the doubled point's factor checks both blocks."""
    require_shape(t.mat, (pair.dim_src, pair.dim_dst), "operator for the pair")
    that = bounded_transform(t)
    rows = np.arange(that.dim_h)[None, :, None]
    cuts = np.where(rows < np.asarray(depths)[:, None, None], that.mat, 0.0)
    doubled = [BallPoint(f) for f in gram_factor(extension_blocks(cuts, pair))]
    out_pairs = induced_pairs(doubled, double_pair(pair))
    return inverse_bounded_transforms(doubled), out_pairs, doubled


def symmetric_approximant(
    t: OperatorHK, pair: ConjugationPair, depth: int
) -> tuple[OperatorHK, ConjugationPair, BallPoint]:
    """Depth-n complex symmetric approximant of ``t`` on the doubled spaces.

    ``pair`` runs from K to H (the contraction side).  Returns the doubled
    operator, the conjugation pair certifying its symmetry, and the doubled
    ball point it is the inverse transform of, whose ``margin`` and
    ``factor.norm`` are those of the depth-n truncation.  ``depth`` is
    computed with as the Python int it parses to; one that is not an
    integer in 1..dimH raises :class:`BadDims`, and a pair that does not
    fit ``t`` :class:`ShapeMismatch`, before any solve.
    """
    (depth,) = as_integers(depth=depth)
    if not 1 <= depth <= t.dim_h:
        raise BadDims(f"depth {depth} outside 1..{t.dim_h}")
    approxes, out_pairs, doubled = _approximants(t, pair, [depth])
    return approxes[0], out_pairs[0], doubled[0]


@dataclass(frozen=True)
class ProfileRow:
    """One depth of a profile; the fields, in order, are the output columns."""

    n: int
    dist: float
    sym_residual: float
    margin: float


@dataclass(frozen=True)
class ApproxProfile:
    """Per-depth record of an approximation run (depth 1 .. dimH), with the
    norm of the full-depth leading block minus the operator."""

    rows: tuple[ProfileRow, ...]
    recovery_residual: float

    def violations(self) -> list[str]:
        """Invariant violations, empty when the profile is healthy."""
        tol = DEFAULT.profile
        out: list[str] = []
        depths = [r.n for r in self.rows]
        if depths != list(range(1, len(self.rows) + 1)):
            out.append(f"depths not 1..p: {depths}")
        if self.rows and abs(self.rows[-1].dist) > tol:
            out.append(f"final distance {self.rows[-1].dist:.3e} above {tol:.0e}")
        if self.recovery_residual > tol:
            out.append(f"recovery residual {self.recovery_residual:.3e} above {tol:.0e}")
        for row in self.rows:
            if row.sym_residual > tol:
                out.append(
                    f"symmetry residual {row.sym_residual:.3e} at depth {row.n}"
                )
        return out

    def min_depth(self) -> int:
        """Depth at which the distance is smallest."""
        return min(self.rows, key=lambda r: r.dist).n


def approximation_profile(t: OperatorHK, pair: ConjugationPair) -> ApproxProfile:
    """Distances and symmetry residuals of every approximant of ``t``.

    Each depth is compared against the depth-dimH approximant, whose leading
    block recovers ``t``; ``recovery_residual`` is the norm of that block
    minus ``t``.
    """
    depths = range(1, t.dim_h + 1)
    approxes, out_pairs, doubled = _approximants(t, pair, depths)
    full = approxes[-1]
    rows = tuple(
        ProfileRow(n=depth, dist=dist, sym_residual=residual, margin=point.margin)
        for depth, dist, residual, point in zip(
            depths,
            operator_dists([(a, full) for a in approxes]),
            symmetry_residuals(list(zip(approxes, out_pairs))),
            doubled,
        )
    )
    return ApproxProfile(rows, op_norm(full.mat[: t.dim_k, : t.dim_h] - t.mat))


@dataclass(frozen=True)
class EnsembleReport:
    dim_h: int
    dim_k: int
    trials: int
    seed: int
    results: tuple[ApproxProfile, ...]

    def max_sym_residual(self) -> float:
        return max(
            (row.sym_residual for r in self.results for row in r.rows), default=0.0
        )

    def median_dist(self) -> list[float]:
        """Median distance across trials at each depth."""
        if not self.results:
            return []
        dists = [[row.dist for row in r.rows] for r in self.results]
        return np.median(dists, axis=0).tolist()

    def all_valid(self) -> bool:
        return all(not r.violations() for r in self.results)


def _run_trial(dim_h: int, dim_k: int, child: np.random.SeedSequence) -> ApproxProfile:
    rng = np.random.default_rng(child)
    scale = rng.uniform(0.5, 10.0)
    t = random_operator(rng, dim_h, dim_k, scale)
    return approximation_profile(t, random_pair(dim_k, dim_h, rng))


def ensemble_experiment(
    dim_h: int, dim_k: int, trials: int, seed: int, jobs: int = 1
) -> EnsembleReport:
    """Approximation profiles for ``trials`` random operators.

    Deterministic for a fixed seed regardless of ``jobs``: trial inputs are
    derived from spawned seed-sequence children in trial order and results
    are collected by index.  ``jobs`` > 1 runs trials in worker processes,
    at most one per trial and per CPU; threads would gain nothing, since
    the Jacobi loop holds the GIL.  Each argument is computed with, and
    recorded in the report, as the Python int it parses to.  One that is
    not an integer, dimensions outside 1 <= dim_k <= dim_h, ``trials`` or
    ``jobs`` below 1 and a negative ``seed`` raise :class:`BadDims`, and
    dimensions whose operator numpy cannot index :class:`ShapeMismatch`,
    before any trial runs.
    """
    dim_h, dim_k, trials, seed, jobs = as_integers(
        dim_h=dim_h, dim_k=dim_k, trials=trials, seed=seed, jobs=jobs
    )
    if dim_k > dim_h or min(dim_h, dim_k) < 1:
        raise BadDims(f"need 1 <= dim_k <= dim_h, got ({dim_h}, {dim_k})")
    if trials < 1:
        raise BadDims(f"need trials >= 1, got {trials}")
    if jobs < 1:
        raise BadDims(f"need jobs >= 1, got {jobs}")
    if seed < 0:
        raise BadDims("need seed >= 0")
    require_positive((dim_k, dim_h))
    children = np.random.SeedSequence(seed).spawn(trials)
    run = partial(_run_trial, dim_h, dim_k)
    workers = min(jobs, trials, os.cpu_count() or 1)
    if workers > 1:
        # concurrent.futures imports its multiprocessing machinery on first use
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, children))
    else:
        results = [run(c) for c in children]
    return EnsembleReport(
        dim_h=dim_h, dim_k=dim_k, trials=trials, seed=seed, results=tuple(results)
    )


def profile_csv(profile: ApproxProfile) -> str:
    """CSV serialization.  The columns are the fields of :class:`ProfileRow`
    in field order (n, dist, sym_residual, margin), as the JSON keys of
    :func:`report_json` are the fields of the records; both are stability
    contracts relied on by downstream tooling and pinned by the CLI tests."""
    lines = [",".join(f.name for f in fields(ProfileRow))]
    lines += [",".join(map(repr, vars(row).values())) for row in profile.rows]
    return "\n".join(lines) + "\n"


def report_json(report: EnsembleReport) -> str:
    """Deterministic JSON serialization of an ensemble report."""
    payload = {
        "dim_h": report.dim_h,
        "dim_k": report.dim_k,
        "trials": report.trials,
        "seed": report.seed,
        "max_sym_residual": report.max_sym_residual(),
        "median_dist": report.median_dist(),
        "all_valid": report.all_valid(),
        "profiles": [
            {**vars(p), "rows": [vars(r) for r in p.rows]} for p in report.results
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
