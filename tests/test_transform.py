"""Bounded transform, defect maps, and the operator metric."""

import math
import warnings

import numpy as np
import pytest

from opball import (
    BallPoint,
    NearBoundaryWarning,
    OperatorHK,
    OutOfBall,
    ShapeMismatch,
    Singular,
    adj,
    ball_dist,
    ball_dists,
    bounded_transform,
    canonical_pair,
    induced_pair,
    inverse,
    inverse_bounded_transform,
    left_defect,
    mobius,
    mobius_inv,
    op_norm,
    operator_dist,
    right_defect,
    right_defect_inv,
    swap_roles,
    zero_operator,
)
from opball.ball import defects, lifts, mobius_images
from opball.sampling import complex_gaussian, random_ball_point, random_operator
from opball.symmetry import induced_pairs
from opball.transform import inverse_bounded_transforms


def scalar_op(t: complex) -> OperatorHK:
    return OperatorHK(np.array([[t]]))


def test_bounded_transform_zero():
    out = bounded_transform(zero_operator(3, 2))
    assert np.array_equal(out.mat, np.zeros((3, 2)))


def test_bounded_transform_scalars():
    assert bounded_transform(scalar_op(1.0)).mat[0, 0] == pytest.approx(
        0.7071067811865476, abs=1e-14
    )
    # norm identity evaluated by hand: ||T-hat||^2 = 9/10 for t = 3
    assert op_norm(bounded_transform(scalar_op(3.0)).mat) ** 2 == pytest.approx(
        0.9, abs=1e-12
    )
    # conjugation: t-hat = conj(t)/sqrt(1+|t|^2)
    t = 1.0 + 1.0j
    assert bounded_transform(scalar_op(t)).mat[0, 0] == pytest.approx(
        np.conj(t) / math.sqrt(3.0), abs=1e-14
    )


def test_norm_identity_ensemble():
    rng = np.random.default_rng(21)
    for _ in range(60):
        p, q = int(rng.integers(1, 13)), int(rng.integers(1, 5))
        q = min(q, p)
        t = random_operator(rng, p, q, 10 ** rng.uniform(-2, 3))
        tt = op_norm(t.mat @ adj(t.mat))
        that = bounded_transform(t)
        assert that.margin > 0.0
        assert abs(op_norm(that.mat) ** 2 - tt / (1.0 + tt)) <= 1e-10 * (1.0 + tt)


def test_inverse_transform_examples():
    assert np.array_equal(
        inverse_bounded_transform(BallPoint(np.zeros((3, 2)))).mat, np.zeros((2, 3))
    )
    a = BallPoint(np.array([[1.0 / math.sqrt(2.0)]]))
    assert inverse_bounded_transform(a).mat[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_round_trips_both_directions():
    rng = np.random.default_rng(22)
    for _ in range(40):
        p, q = int(rng.integers(1, 13)), int(rng.integers(1, 5))
        q = min(q, p)
        t = random_operator(rng, p, q, 10 ** rng.uniform(-2, math.log10(30.0)))
        back = inverse_bounded_transform(bounded_transform(t))
        assert op_norm(back.mat - t.mat) <= 1e-8 * (1.0 + op_norm(t.mat))
        a = random_ball_point(rng, p, q, margin_min=1e-6)
        again = bounded_transform(inverse_bounded_transform(a))
        assert op_norm(again.mat - a.mat) <= 1e-8


def _half() -> BallPoint:
    return BallPoint(np.array([[0.5]]))


# call on a 1 x 1 point a -> the warnings it gives near the sphere, one per
# point whose inverse defect it takes
NEAR_BOUNDARY_CALLS = {
    "mobius": (lambda a: mobius(a, _half()), 1),
    "mobius_inv": (lambda a: mobius_inv(a, _half()), 1),
    "inverse_bounded_transform": (inverse_bounded_transform, 1),
    "ball_dist": (lambda a: ball_dist(_half(), a), 1),
    "ball_dists": (lambda a: ball_dists([(_half(), a)]), 1),
    "mobius_images": (lambda a: mobius_images(a, [_half()]), 1),
    "inverse_bounded_transforms": (lambda a: inverse_bounded_transforms([a]), 1),
    "lifts": (lambda a: lifts([(a, a)]), 2),
    "defects": (lambda a: defects([a], -0.5, "left"), 1),
    "induced_pairs": (lambda a: induced_pairs([a], canonical_pair(1, 1)), 1),
}


@pytest.mark.parametrize("name", NEAR_BOUNDARY_CALLS)
def test_near_boundary_warning(name):
    # every inverse defect warns from ball.defects, below 1e-8 only, and
    # names the caller's line, for the one-item and the batched forms
    call, count = NEAR_BOUNDARY_CALLS[name]
    with pytest.warns(NearBoundaryWarning) as record:
        call(BallPoint(np.array([[1.0 - 1e-9]])))
    assert [w.filename for w in record] == [__file__] * count
    with warnings.catch_warnings():
        warnings.simplefilter("error", NearBoundaryWarning)
        call(BallPoint(np.array([[1.0 - 1e-7]])))


@pytest.mark.parametrize("shape", [(1, 1), (4, 2), (2, 4)])
def test_collapsed_margin_raises_singular(shape):
    # margin 1e-15: the smallest defect eigenvalue 1 - ||A||^2 is below 1e-13
    g = complex_gaussian(np.random.default_rng(31), *shape)
    a = BallPoint(g * ((1.0 - 1e-15) / op_norm(g)))
    assert a.margin < 1e-13
    z = BallPoint(np.zeros(shape))
    # a symmetric point whose leading square block carries the norm, for the
    # coordinate pair of either orientation: its Gram matrix I - B*B collapses
    k = min(shape)
    block = complex_gaussian(np.random.default_rng(32), k, k)
    block = (block + block.T) * ((1.0 - 1e-15) / op_norm(block + block.T))
    sym = np.zeros(shape, dtype=complex)
    sym[:k, :k] = block
    pair = canonical_pair(k, max(shape))
    pair = pair if shape[0] >= shape[1] else swap_roles(pair)
    s = BallPoint(sym)
    assert s.margin < 1e-13
    moves = (lambda: mobius(a, z), lambda: mobius_inv(a, z), lambda: inverse_bounded_transform(a),
             lambda: induced_pair(s, pair))
    for move in moves:
        with pytest.warns(NearBoundaryWarning), pytest.raises(Singular):
            move()


def test_left_defect_examples():
    rng = np.random.default_rng(23)
    x = random_operator(rng, 4, 2, 2.0)
    assert np.allclose(left_defect(zero_operator(4, 2), x), adj(x.mat))
    t = random_operator(rng, 5, 3, 3.0)
    assert op_norm(left_defect(t, t)) <= 1e-9 * (1.0 + op_norm(t.mat) ** 2)
    assert left_defect(zero_operator(1, 1), scalar_op(1.0))[0, 0] == pytest.approx(1.0)


def test_right_defect_examples():
    rng = np.random.default_rng(24)
    t = random_operator(rng, 5, 3, 2.0)
    assert op_norm(right_defect(t, t) - np.eye(3)) <= 1e-10 * (1 + op_norm(t.mat) ** 2)
    s = random_operator(rng, 4, 2, 1.5)
    from opball import herm_sqrt

    expected = herm_sqrt(np.eye(2) + s.mat @ adj(s.mat))
    assert np.allclose(right_defect(s, zero_operator(4, 2)), expected, atol=1e-12)
    assert right_defect(scalar_op(1.0), scalar_op(1.0))[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_right_defect_inv_examples():
    rng = np.random.default_rng(25)
    s = random_operator(rng, 4, 2, 2.0)
    from opball import herm_inv_sqrt

    expected = herm_inv_sqrt(np.eye(2) + s.mat @ adj(s.mat))
    assert np.allclose(right_defect_inv(s, zero_operator(4, 2)), expected, atol=1e-10)
    assert right_defect_inv(scalar_op(1.0), scalar_op(1.0))[0, 0] == pytest.approx(
        1.0, abs=1e-12
    )


@pytest.mark.parametrize("scale", [1e20, 1e150])
def test_large_rank_deficient_operators_give_typed_results(scale):
    # the Gram eigenvalue of ones(2x3) that is 0 solves as a roundoff
    # negative; held at 0, no defect divides by zero (numpy warnings fail
    # the test), and the transform's norm, 1 - 1/(2 * 6 scale^2), rounds to 1
    t = OperatorHK(scale * np.ones((2, 3)))
    with pytest.raises(OutOfBall, match=r"operator norm 1\.000000000000 "):
        bounded_transform(t)
    s = OperatorHK(2.0 * scale * np.ones((2, 3)))
    try:
        assert np.isfinite(right_defect_inv(t, s)).all()
    except Singular:
        # at 1e150 the bracket's last pivot rounds to 0: typed, not a warning
        assert scale > 1e100


def test_the_transform_ceiling_is_near_norm_2_to_the_26_5():
    # x / (1 + x) rounds to 1 once x = ||T||^2 passes 2^53, ||T|| ~ 9.49e7
    assert bounded_transform(scalar_op(9.4e7)).margin == pytest.approx(1.1e-16, rel=0.01)
    with pytest.raises(OutOfBall, match=r"operator norm 1\.000000000000 "):
        bounded_transform(scalar_op(9.5e7))


def test_right_defect_inv_matches_direct_inversion():
    rng = np.random.default_rng(26)
    for _ in range(40):
        p, q = int(rng.integers(1, 13)), int(rng.integers(1, 5))
        q = min(q, p)
        s = random_operator(rng, p, q, 10 ** rng.uniform(-2, 1))
        t = random_operator(rng, p, q, 10 ** rng.uniform(-2, 1))
        direct = inverse(right_defect(s, t))
        assert op_norm(right_defect_inv(s, t) - direct) <= 1e-8 * op_norm(direct)


def test_operator_dist_examples():
    rng = np.random.default_rng(27)
    t = random_operator(rng, 6, 2, 2.0)
    assert operator_dist(t, t) <= 1e-12
    # scalar closed form: d(0, s) = asinh(s)
    assert operator_dist(zero_operator(1, 1), scalar_op(1.0)) == pytest.approx(
        0.881373587019543, abs=1e-12
    )
    s = random_operator(rng, 6, 2, 1.2)
    assert operator_dist(zero_operator(6, 2), s) == pytest.approx(
        math.atanh(op_norm(bounded_transform(s).mat)), abs=1e-10
    )


def test_two_route_agreement_moderate():
    rng = np.random.default_rng(28)
    for _ in range(40):
        p, q = int(rng.integers(1, 13)), int(rng.integers(1, 5))
        q = min(q, p)
        t = random_operator(rng, p, q, 10 ** rng.uniform(-2, 0.5))
        s = random_operator(rng, p, q, 10 ** rng.uniform(-2, 0.5))
        d_ball = ball_dist(bounded_transform(t), bounded_transform(s))
        assert abs(operator_dist(t, s) - d_ball) <= 1e-8


def test_metric_axioms():
    rng = np.random.default_rng(29)
    for _ in range(30):
        p, q = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        q = min(q, p)
        t = random_operator(rng, p, q, rng.uniform(0.05, 1.0))
        s = random_operator(rng, p, q, rng.uniform(0.05, 1.0))
        u = random_operator(rng, p, q, rng.uniform(0.05, 1.0))
        assert abs(operator_dist(t, s) - operator_dist(s, t)) <= 1e-10
        assert operator_dist(t, s) <= operator_dist(t, u) + operator_dist(u, s) + 1e-9
        if op_norm(t.mat - s.mat) > 1e-7:
            assert operator_dist(t, s) > 1e-9


def test_shape_guards():
    with pytest.raises(ShapeMismatch):
        operator_dist(zero_operator(2, 2), zero_operator(3, 2))
    with pytest.raises(ShapeMismatch):
        left_defect(zero_operator(2, 2), zero_operator(2, 1))
    with pytest.raises(ShapeMismatch):
        right_defect(zero_operator(2, 2), zero_operator(3, 3))


def test_perturbation_scales_with_distance():
    # d(T, T + E) stays comparable to ||E|| at moderate norms
    rng = np.random.default_rng(30)
    t = random_operator(rng, 5, 2, 0.8)
    e = complex_gaussian(rng, 2, 5, 1e-6)
    d = operator_dist(t, OperatorHK(t.mat + e))
    assert 0.0 < d < 1e-4
