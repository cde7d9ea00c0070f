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

from .ball import ball_dist, ball_dists, mobius, mobius_inv, poincare_dist, zero_point
from .matkernel import adj, fro_norm, herm_inv_sqrt, inverse, op_norm
from .sampling import (
    complex_gaussian,
    random_ball_point,
    random_ball_points,
    random_dims,
    random_operator,
    random_symmetric_ball_point,
)
from .symmetry import (
    canonical_pair,
    induced_operator,
    pair_residual,
    random_pair,
    symmetric_extension,
    symmetry_residual,
)
from .transform import (
    OperatorHK,
    bounded_transform,
    inverse_bounded_transform,
    operator_dist,
    operator_dists,
    operators,
    right_defect,
    right_defect_inv,
)


def _moderate_operators(rng, dim_h, dim_k, count):
    """``count`` operators between random spaces, each of entry scale drawn
    from 1e-2 .. 10^0.5 before its entries, solved as one stack."""
    p, q = random_dims(rng, dim_h, dim_k)
    return operators(
        [complex_gaussian(rng, q, p, 10 ** rng.uniform(-2, 0.5)) for _ in range(count)]
    )


def mobius_round_trip(rng, dim_h, dim_k) -> float:
    """|| mobius_inv(A, mobius(A, Z)) - Z ||, margins at least 0.05."""
    p, q = random_dims(rng, dim_h, dim_k)
    a, z = random_ball_points(rng, p, q, 2, margin_min=0.05)
    return op_norm(mobius_inv(a, mobius(a, z)).mat - z.mat)


def mobius_commutation(rng, dim_h, dim_k) -> float:
    """Factor-exchange identity behind the Moebius inverse, normalized by
    1 + ||A|| + ||Z||: (Z-A)(I-A*A)^(-1)(I-A*Z) = (I-ZA*)(I-AA*)^(-1)(Z-A)."""
    p, q = random_dims(rng, dim_h, dim_k)
    a_pt, z_pt = random_ball_points(rng, p, q, 2, margin_min=0.05)
    a, z = a_pt.mat, z_pt.mat
    lhs = (z - a) @ inverse(np.eye(q) - adj(a) @ a) @ (np.eye(q) - adj(a) @ z)
    rhs = (np.eye(p) - z @ adj(a)) @ inverse(np.eye(p) - a @ adj(a)) @ (z - a)
    return op_norm(lhs - rhs) / (1.0 + a_pt.factor.norm + z_pt.factor.norm)


def ball_membership(rng, dim_h, dim_k) -> float:
    """Excess of || mobius(A, Z) || over 1 (zero when the ball is preserved)."""
    p, q = random_dims(rng, dim_h, dim_k)
    a, z = random_ball_points(rng, p, q, 2, margin_min=0.05)
    return max(0.0, mobius(a, z).factor.norm - 1.0)


def mobius_invariance(rng, dim_h, dim_k) -> float:
    """| ball_dist(mobius(A,X), mobius(A,Y)) - ball_dist(X, Y) |."""
    p, q = random_dims(rng, dim_h, dim_k)
    a, x, y = random_ball_points(rng, p, q, 3, margin_min=0.05)
    d_image, d = ball_dists([(mobius(a, x), mobius(a, y)), (x, y)])
    return abs(d_image - d)


def origin_distance(rng, dim_h, dim_k) -> float:
    """| ball_dist(0, Y) - atanh ||Y|| |."""
    p, q = random_dims(rng, dim_h, dim_k)
    y = random_ball_point(rng, p, q, margin_min=0.05)
    return abs(ball_dist(zero_point(p, q), y) - math.atanh(y.factor.norm))


def scalar_reduction(rng, dim_h, dim_k) -> float:
    """1x1 ball distance against the scalar hyperbolic distance."""
    x, y = random_ball_points(rng, 1, 1, 2, margin_min=0.02)
    return abs(ball_dist(x, y) - poincare_dist(complex(x.mat[0, 0]), complex(y.mat[0, 0])))


def transform_norm_identity(rng, dim_h, dim_k) -> float:
    """| ||T-hat||^2 - ||TT*||/(1+||TT*||) |, normalized by 1 + ||TT*||.

    T-hat's factor (mu, V) is transported from T's, so its top eigenvalue
    meets the identity by construction; what is checked is the bound
    |mu_max - ||TT*||/(1+||TT*||)| + ||G - V diag(mu) V*||_F on the gap, G
    the held Gram matrix of T-hat's computed matrix, which by Weyl's
    inequality bounds |mu_max - ||T-hat||^2|.  Entry scales span 1e-2 .. 1e3
    (large norms emulate unboundedness)."""
    p, q = random_dims(rng, dim_h, dim_k)
    t = random_operator(rng, p, q, 10 ** rng.uniform(-2, 3))
    tt = t.factor.norm ** 2
    f = bounded_transform(t).factor
    gram = adj(f.mat) @ f.mat if f.side == "right" else f.mat @ adj(f.mat)
    drift = fro_norm(gram - (f.basis * f.eigenvalues) @ adj(f.basis))
    return (abs(f.norm ** 2 - tt / (1.0 + tt)) + drift) / (1.0 + tt)


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
        mats = [complex_gaussian(rng, q, p, 10 ** rng.uniform(-2, math.log10(3.0)))
                for _ in range(2)]
    elif stratum < 0.85:
        p, q = random_dims(rng, dim_h, dim_k)
        base = 10 ** rng.uniform(math.log10(3.0), math.log10(30.0))
        mat = complex_gaussian(rng, q, p, base)
        mats = [mat, mat + complex_gaussian(rng, q, p, base * 10 ** rng.uniform(-4, -2))]
    else:
        p, q = random_dims(rng, min(4, dim_h), min(2, dim_k))
        mat = complex_gaussian(rng, q, p, 10 ** rng.uniform(math.log10(30.0), math.log10(300.0)))
        mats = [mat, mat]
    t, s = operators(mats)
    d_direct = operator_dist(t, s)
    d_ball = ball_dist(bounded_transform(t), bounded_transform(s))
    return abs(d_direct - d_ball)


def metric_symmetry(rng, dim_h, dim_k) -> float:
    """| d(T, S) - d(S, T) | at moderate scales."""
    t, s = _moderate_operators(rng, dim_h, dim_k, 2)
    d_ts, d_st = operator_dists([(t, s), (s, t)])
    return abs(d_ts - d_st)


def metric_triangle(rng, dim_h, dim_k) -> float:
    """Positive part of d(T,S) - d(T,U) - d(U,S) at moderate scales."""
    t, s, u = _moderate_operators(rng, dim_h, dim_k, 3)
    d_ts, d_tu, d_us = operator_dists([(t, s), (t, u), (u, s)])
    return max(0.0, d_ts - d_tu - d_us)


def closed_right_inverse(rng, dim_h, dim_k) -> float:
    """Closed-form right-defect inverse against direct elimination, relative."""
    t, s = _moderate_operators(rng, dim_h, dim_k, 2)
    direct = inverse(right_defect(s, t))
    gap, size = op_norm([right_defect_inv(s, t) - direct, direct]).tolist()
    return gap / size


def pair_invariants(rng, dim_h, dim_k) -> float:
    """Isometry gap (``pair_residual``) of a random conjugation pair."""
    p, q = random_dims(rng, dim_h, dim_k)
    if rng.uniform() < 0.5:
        p, q = q, p
    pair = random_pair(p, q, rng)
    return pair_residual(pair)


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
    """Larger of the induced pair's invariant residual and the symmetry
    residual of the induced operator, for an admissible symmetric contraction."""
    p, q = random_dims(rng, dim_h, dim_k)
    pair = random_pair(q, p, rng)
    a = random_symmetric_ball_point(rng, pair, margin_min=0.2)
    t, out = induced_operator(a, pair)
    return max(pair_residual(out), symmetry_residual(t, out))


def graph_identity(rng, dim_h, dim_k) -> float:
    """||Tx||^2 + ||x||^2 against ||(I-AA*)^(-1/2) x||^2, relative."""
    p, q = random_dims(rng, dim_h, dim_k)
    a = random_ball_point(rng, p, q, margin_min=0.05)
    t = inverse_bounded_transform(a)
    lift = herm_inv_sqrt(np.eye(p) - a.mat @ adj(a.mat))
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
    left = herm_inv_sqrt(np.eye(q) - adj(a) @ a) @ adj(a)
    right = adj(a) @ herm_inv_sqrt(np.eye(p) - a @ adj(a))
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
    max_residual: float
    passed: bool


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
    reports = []
    children = np.random.SeedSequence(seed).spawn(len(CHECKS))
    for (name, check), child in zip(CHECKS.items(), children):
        rng = np.random.default_rng(child)
        worst = 0.0
        for _ in range(trials):
            worst = max(worst, check(rng, dim_h, dim_k))
        reports.append(IdentityReport(name, worst, worst <= tol))
    return reports
