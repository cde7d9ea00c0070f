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
from dataclasses import astuple, dataclass, fields
from functools import partial

import numpy as np

from .ball import BallPoint
from .errors import BadDepth, BadDims
from .matkernel import gram_factor, op_norm
from .sampling import random_operator
from .symmetry import (
    ConjugationPair,
    _induced_from,
    _pair_coordinates,
    double_pair,
    extension_blocks,
    random_pair,
    symmetry_residuals,
)
from .tolerances import DEFAULT
from .transform import (
    OperatorHK,
    bounded_transform,
    inverse_bounded_transform,
    operator_dists,
)


def _cut(point: BallPoint, depth: int) -> np.ndarray:
    """The matrix of ``point`` with every row past ``depth`` zeroed."""
    if not 1 <= depth <= point.dim_h:
        raise BadDepth(f"depth {depth} outside 1..{point.dim_h}")
    cut = point.mat.copy()
    cut[depth:, :] = 0.0
    return cut


def truncate(point: BallPoint, depth: int) -> BallPoint:
    """Keep the first ``depth`` rows of a ball point, zero the rest.

    Row selection never increases the spectral norm, so the result stays
    strictly inside the ball.
    """
    return BallPoint(_cut(point, depth))


def _require_pair_dims(t: OperatorHK, pair: ConjugationPair) -> None:
    if (pair.dim_src, pair.dim_dst) != (t.dim_k, t.dim_h):
        raise BadDims(
            f"pair dims ({pair.dim_src}, {pair.dim_dst}) do not match operator "
            f"spaces (K={t.dim_k}, H={t.dim_h})"
        )


def _approximants(
    that: BallPoint, pair: ConjugationPair, depths
) -> list[tuple[OperatorHK, ConjugationPair, BallPoint]]:
    """Steps 1-3 of the pipeline at each of ``depths``, for the ball point
    ``that`` of an operator.  Every formula runs per depth, and each step's
    solves run as one stack: first the doubled points' factors, then those
    of their induced pairs' coordinates.  The cut is not factored on its
    own: the doubled point's factor checks the norm of both blocks."""
    big_pair = double_pair(pair)
    blocks = [extension_blocks(_cut(that, depth), pair) for depth in depths]
    doubled = [BallPoint(f.mat, held=f) for f in gram_factor(blocks)]
    coords = gram_factor([_pair_coordinates(point, big_pair) for point in doubled])
    steps = []
    for point, held in zip(doubled, coords):
        out_pair = _induced_from(point, big_pair, held)
        steps.append((inverse_bounded_transform(point), out_pair, point))
    return steps


def symmetric_approximant(
    t: OperatorHK, pair: ConjugationPair, depth: int
) -> tuple[OperatorHK, ConjugationPair, BallPoint]:
    """Depth-n complex symmetric approximant of ``t`` on the doubled spaces.

    ``pair`` runs from K to H (the contraction side).  Returns the doubled
    operator, the conjugation pair certifying its symmetry, and the doubled
    ball point it is the inverse transform of, whose ``margin`` and
    ``factor.norm`` are those of the depth-n truncation.
    """
    _require_pair_dims(t, pair)
    return _approximants(bounded_transform(t), pair, [depth])[0]


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
    _require_pair_dims(t, pair)
    depths = range(1, t.dim_h + 1)
    approxes, out_pairs, doubled = zip(*_approximants(bounded_transform(t), pair, depths))
    full = approxes[-1]
    rows = tuple(
        ProfileRow(n=depth, dist=dist, sym_residual=residual, margin=point.margin)
        for depth, dist, residual, point in zip(
            depths,
            operator_dists([(a, full) for a in approxes]),
            symmetry_residuals(approxes, out_pairs),
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
        per_depth = zip(*[[row.dist for row in r.rows] for r in self.results])
        return [float(np.median(list(col))) for col in per_depth]

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
    the Jacobi loop holds the GIL.
    """
    if dim_k > dim_h or min(dim_h, dim_k) < 1:
        raise BadDims(f"need 1 <= dim_k <= dim_h, got ({dim_h}, {dim_k})")
    if trials < 1:
        raise BadDims(f"need trials >= 1, got {trials}")
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
    lines += [",".join(map(repr, astuple(row))) for row in profile.rows]
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
