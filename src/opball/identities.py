"""Seeded identity suites shared by the test suite and the CLI.

Each check draws one random configuration from its generator and returns a
scalar residual; the runner reports the maximum over the requested number of
trials.  Residuals are normalized where the natural tolerance scales with the
input (the docstring of each check says how), so a single threshold is
meaningful across the whole table.

Ensemble design notes.  The distances themselves hold their digits at any
scale, but the bounded transform of an operator of norm s has ball margin
about 1/(2 s^2), and the ball route amplifies roundoff by 1/margin, so tight
cross-checks through the ball need operands away from the sphere.  The
metric checks therefore stratify: independent operator pairs at moderate
entry scales, additively coupled pairs at larger scales, and equal pairs at
the largest norms.  The strata were calibrated empirically; the thresholds
themselves are never loosened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ball import ball_dist, mobius, mobius_inv, poincare_dist, zero_point
from .matkernel import adj, herm_inv_sqrt, inverse, op_norm
from .sampling import (
    complex_gaussian,
    random_ball_point,
    random_dims,
    random_operator,
    random_symmetric_ball_point,
)
from .symmetry import (
    canonical_pair,
    induced_operator,
    pair_residuals,
    random_pair,
    symmetric_extension,
    symmetry_residual,
)
from .transform import (
    OperatorHK,
    bounded_transform,
    inverse_bounded_transform,
    operator_dist,
    right_defect,
    right_defect_inv,
)


def _moderate_pair(rng, dim_h, dim_k):
    p, q = random_dims(rng, dim_h, dim_k)
    t = random_operator(rng, p, q, 10 ** rng.uniform(-2, 0.5))
    s = random_operator(rng, p, q, 10 ** rng.uniform(-2, 0.5))
    return t, s


def mobius_round_trip(rng, dim_h, dim_k) -> float:
    """|| mobius_inv(A, mobius(A, Z)) - Z ||, margins at least 0.05."""
    p, q = random_dims(rng, dim_h, dim_k)
    a = random_ball_point(rng, p, q, margin_min=0.05)
    z = random_ball_point(rng, p, q, margin_min=0.05)
    return op_norm(mobius_inv(a, mobius(a, z)).mat - z.mat)


def mobius_commutation(rng, dim_h, dim_k) -> float:
    """Factor-exchange identity behind the Moebius inverse, normalized by
    1 + ||A|| + ||Z||: (Z-A)(I-A*A)^(-1)(I-A*Z) = (I-ZA*)(I-AA*)^(-1)(Z-A)."""
    p, q = random_dims(rng, dim_h, dim_k)
    a_pt = random_ball_point(rng, p, q, margin_min=0.05)
    z_pt = random_ball_point(rng, p, q, margin_min=0.05)
    a, z = a_pt.mat, z_pt.mat
    lhs = (z - a) @ inverse(np.eye(q) - adj(a) @ a) @ (np.eye(q) - adj(a) @ z)
    rhs = (np.eye(p) - z @ adj(a)) @ inverse(np.eye(p) - a @ adj(a)) @ (z - a)
    return op_norm(lhs - rhs) / (1.0 + a_pt.factor.norm + z_pt.factor.norm)


def ball_membership(rng, dim_h, dim_k) -> float:
    """Excess of || mobius(A, Z) || over 1 (zero when the ball is preserved)."""
    p, q = random_dims(rng, dim_h, dim_k)
    a = random_ball_point(rng, p, q, margin_min=0.05)
    z = random_ball_point(rng, p, q, margin_min=0.05)
    return max(0.0, mobius(a, z).factor.norm - 1.0)


def mobius_invariance(rng, dim_h, dim_k) -> float:
    """| ball_dist(mobius(A,X), mobius(A,Y)) - ball_dist(X, Y) |."""
    p, q = random_dims(rng, dim_h, dim_k)
    a = random_ball_point(rng, p, q, margin_min=0.05)
    x = random_ball_point(rng, p, q, margin_min=0.05)
    y = random_ball_point(rng, p, q, margin_min=0.05)
    return abs(ball_dist(mobius(a, x), mobius(a, y)) - ball_dist(x, y))


def origin_distance(rng, dim_h, dim_k) -> float:
    """| ball_dist(0, Y) - atanh ||Y|| |."""
    p, q = random_dims(rng, dim_h, dim_k)
    y = random_ball_point(rng, p, q, margin_min=0.05)
    return abs(ball_dist(zero_point(p, q), y) - math.atanh(y.factor.norm))


def scalar_reduction(rng, dim_h, dim_k) -> float:
    """1x1 ball distance against the scalar hyperbolic distance."""
    x = random_ball_point(rng, 1, 1, margin_min=0.02)
    y = random_ball_point(rng, 1, 1, margin_min=0.02)
    return abs(ball_dist(x, y) - poincare_dist(complex(x.mat[0, 0]), complex(y.mat[0, 0])))


def transform_norm_identity(rng, dim_h, dim_k) -> float:
    """| ||T-hat||^2 - ||TT*||/(1+||TT*||) |, normalized by 1 + ||TT*||.

    Entry scales span 1e-2 .. 1e3 (large norms emulate unboundedness)."""
    p, q = random_dims(rng, dim_h, dim_k)
    t = random_operator(rng, p, q, 10 ** rng.uniform(-2, 3))
    tt = t.factor.norm ** 2
    gap = abs(bounded_transform(t).factor.norm ** 2 - tt / (1.0 + tt))
    return gap / (1.0 + tt)


def transform_round_trip(rng, dim_h, dim_k) -> float:
    """Round trips through the bounded transform, both directions.

    Ball direction at margins down to 1e-6 (absolute residual); operator
    direction at entry scales up to 30, relative to 1 + ||T||.  Larger
    operator scales push the inverse transform past double precision."""
    p, q = random_dims(rng, dim_h, dim_k)
    a = random_ball_point(rng, p, q, margin_min=1e-6)
    ball_gap = op_norm(bounded_transform(inverse_bounded_transform(a)).mat - a.mat)
    t = random_operator(rng, p, q, 10 ** rng.uniform(-2, math.log10(30.0)))
    back = inverse_bounded_transform(bounded_transform(t))
    op_gap = op_norm(back.mat - t.mat) / (1.0 + t.factor.norm)
    return max(ball_gap, op_gap)


def metric_two_routes(rng, dim_h, dim_k) -> float:
    """Operator lift asinh ||left_defect(T, S)|| against the ball lift of the
    transforms, ball_dist(T-hat, S-hat).

    Stratified: independent pairs at entry scales up to 3, coupled pairs up
    to scale 30, equal pairs (on small spaces) up to operator norms ~1e3."""
    stratum = rng.uniform()
    if stratum < 0.6:
        p, q = random_dims(rng, dim_h, dim_k)
        t = random_operator(rng, p, q, 10 ** rng.uniform(-2, math.log10(3.0)))
        s = random_operator(rng, p, q, 10 ** rng.uniform(-2, math.log10(3.0)))
    elif stratum < 0.85:
        p, q = random_dims(rng, dim_h, dim_k)
        base = 10 ** rng.uniform(math.log10(3.0), math.log10(30.0))
        t = random_operator(rng, p, q, base)
        s = OperatorHK(t.mat + complex_gaussian(rng, q, p, base * 10 ** rng.uniform(-4, -2)))
    else:
        p, q = random_dims(rng, min(4, dim_h), min(2, dim_k))
        t = random_operator(rng, p, q, 10 ** rng.uniform(math.log10(30.0), math.log10(300.0)))
        s = OperatorHK(t.mat.copy())
    d_direct = operator_dist(t, s)
    d_ball = ball_dist(bounded_transform(t), bounded_transform(s))
    return abs(d_direct - d_ball)


def metric_symmetry(rng, dim_h, dim_k) -> float:
    """| d(T, S) - d(S, T) | at moderate scales."""
    t, s = _moderate_pair(rng, dim_h, dim_k)
    return abs(operator_dist(t, s) - operator_dist(s, t))


def metric_triangle(rng, dim_h, dim_k) -> float:
    """Positive part of d(T,S) - d(T,U) - d(U,S) at moderate scales."""
    t, s = _moderate_pair(rng, dim_h, dim_k)
    u = random_operator(rng, t.dim_h, t.dim_k, 10 ** rng.uniform(-2, 0.5))
    return max(0.0, operator_dist(t, s) - operator_dist(t, u) - operator_dist(u, s))


def closed_right_inverse(rng, dim_h, dim_k) -> float:
    """Closed-form right-defect inverse against direct elimination, relative."""
    t, s = _moderate_pair(rng, dim_h, dim_k)
    direct = inverse(right_defect(s, t))
    return op_norm(right_defect_inv(s, t) - direct) / op_norm(direct)


def pair_invariants(rng, dim_h, dim_k) -> float:
    """Worst invariant residual of a random conjugation pair."""
    p, q = random_dims(rng, dim_h, dim_k)
    if rng.uniform() < 0.5:
        p, q = q, p
    pair = random_pair(p, q, rng)
    return max(pair_residuals(pair).values())


def block_characterization(rng, dim_h, dim_k) -> float:
    """Symmetry residual for the coordinate pair equals || B - B^T || of the
    leading block; reported is that gap plus the residual of a matrix built
    with an exactly symmetric block."""
    p, q = random_dims(rng, dim_h, dim_k)
    n, m = max(p, q), min(p, q)
    g = complex_gaussian(rng, n, m, 2.0)
    pair = canonical_pair(m, n)
    block = g[:m, :m]
    gap = abs(symmetry_residual(OperatorHK(g), pair) - op_norm(block - block.T))
    sym = g.copy()
    sym[:m, :m] = 0.5 * (block + block.T)
    return gap + symmetry_residual(OperatorHK(sym), pair)


def extension_symmetry(rng, dim_h, dim_k) -> float:
    """Residual of the doubled extension, for an arbitrary (non-symmetric) T."""
    p, q = random_dims(rng, dim_h, dim_k)
    t = random_operator(rng, p, q, 10 ** rng.uniform(-2, 2))
    pair = random_pair(p, q, rng)
    ext, big = symmetric_extension(t, pair)
    return symmetry_residual(ext, big)


def induced_pair_invariants(rng, dim_h, dim_k) -> float:
    """Worst residual of the induced pair plus the symmetry residual of the
    induced operator, for an admissible symmetric contraction."""
    p, q = random_dims(rng, dim_h, dim_k)
    pair = random_pair(q, p, rng)
    a = random_symmetric_ball_point(rng, pair, margin_min=0.2)
    t, out = induced_operator(a, pair)
    return max(max(pair_residuals(out).values()), symmetry_residual(t, out))


def graph_identity(rng, dim_h, dim_k) -> float:
    """||Tx||^2 + ||x||^2 against ||(I-AA*)^(-1/2) x||^2, relative."""
    p, q = random_dims(rng, dim_h, dim_k)
    a = random_ball_point(rng, p, q, margin_min=0.05)
    t = inverse_bounded_transform(a)
    lift = herm_inv_sqrt(np.eye(p) - a.mat @ adj(a.mat), floor=1e-13)
    worst = 0.0
    for _ in range(5):
        x = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        rhs = float((np.abs(lift @ x) ** 2).sum())
        lhs = float((np.abs(t.mat @ x) ** 2).sum() + (np.abs(x) ** 2).sum())
        worst = max(worst, abs(lhs - rhs) / rhs)
    return worst


def defect_commutation(rng, dim_h, dim_k) -> float:
    """|| (I-A*A)^(-1/2) A* - A* (I-AA*)^(-1/2) || / (1 + ||A||)."""
    p, q = random_dims(rng, dim_h, dim_k)
    a_pt = random_ball_point(rng, p, q, margin_min=0.05)
    a = a_pt.mat
    left = herm_inv_sqrt(np.eye(q) - adj(a) @ a, floor=1e-13) @ adj(a)
    right = adj(a) @ herm_inv_sqrt(np.eye(p) - a @ adj(a), floor=1e-13)
    return op_norm(left - right) / (1.0 + a_pt.factor.norm)


CHECKS: dict[str, Callable] = {
    "mobius_round_trip": mobius_round_trip,
    "mobius_commutation": mobius_commutation,
    "ball_membership": ball_membership,
    "mobius_invariance": mobius_invariance,
    "origin_distance": origin_distance,
    "scalar_reduction": scalar_reduction,
    "transform_norm_identity": transform_norm_identity,
    "transform_round_trip": transform_round_trip,
    "metric_two_routes": metric_two_routes,
    "metric_symmetry": metric_symmetry,
    "metric_triangle": metric_triangle,
    "closed_right_inverse": closed_right_inverse,
    "pair_invariants": pair_invariants,
    "block_characterization": block_characterization,
    "extension_symmetry": extension_symmetry,
    "induced_pair_invariants": induced_pair_invariants,
    "graph_identity": graph_identity,
    "defect_commutation": defect_commutation,
}


@dataclass(frozen=True)
class IdentityReport:
    name: str
    trials: int
    max_residual: float
    tol: float
    passed: bool


def run_identity(
    name: str, trials: int, seed, dim_h: int, dim_k: int, tol: float
) -> IdentityReport:
    check = CHECKS[name]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        worst = max(worst, check(rng, dim_h, dim_k))
    return IdentityReport(name, trials, worst, tol, worst <= tol)


def run_identities(
    seed: int,
    trials: int,
    dim_h: int,
    dim_k: int,
    tol: float,
) -> list[IdentityReport]:
    """Run the identity table; each check gets its own spawned seed stream."""
    if trials == 0:
        return []
    children = np.random.SeedSequence(seed).spawn(len(CHECKS))
    return [
        run_identity(name, trials, child, dim_h, dim_k, tol)
        for name, child in zip(CHECKS, children)
    ]
