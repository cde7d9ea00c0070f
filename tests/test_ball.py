"""Ball geometry: Moebius maps, the scalar metric, and the ball distance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opball import (
    BallPoint,
    NearBoundaryWarning,
    OutOfBall,
    ShapeMismatch,
    Singular,
    ball_dist,
    mobius,
    mobius_inv,
    mobius_to_origin,
    op_norm,
    poincare_dist,
    zero_point,
)
from opball.sampling import random_ball_point

disc_coord = st.floats(min_value=-0.65, max_value=0.65, allow_nan=False)


def scalar_point(x: complex) -> BallPoint:
    return BallPoint(np.array([[x]]))


def test_ball_point_membership():
    p = BallPoint(np.array([[0.3, 0.1], [0.0, 0.2]]))
    assert 0.0 < p.margin < 1.0
    with pytest.raises(OutOfBall):
        BallPoint(np.eye(2))
    with pytest.raises(OutOfBall):
        BallPoint(np.array([[1.2]]))


def test_mobius_center_zero_is_identity():
    rng = np.random.default_rng(1)
    z = random_ball_point(rng, 4, 2)
    out = mobius(zero_point(4, 2), z)
    assert np.array_equal(out.mat, z.mat)


def test_mobius_sends_origin_to_center():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = random_ball_point(rng, 5, 3, margin_min=0.05)
        out = mobius(a, zero_point(5, 3))
        assert op_norm(out.mat - a.mat) <= 1e-12


def test_mobius_scalar_oracle():
    a, z = scalar_point(0.5), scalar_point(0.25)
    assert mobius(a, z).mat[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert mobius_inv(a, z).mat[0, 0] == pytest.approx(-2.0 / 7.0, abs=1e-12)


def test_mobius_inv_at_center_is_zero():
    rng = np.random.default_rng(3)
    a = random_ball_point(rng, 6, 2, margin_min=0.05)
    assert op_norm(mobius_inv(a, a).mat) <= 1e-15


def test_mobius_round_trip_ensemble():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p, q = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        q = min(q, p)
        a = random_ball_point(rng, p, q, margin_min=0.05)
        z = random_ball_point(rng, p, q, margin_min=0.05)
        back = mobius_inv(a, mobius(a, z))
        assert op_norm(back.mat - z.mat) <= 1e-9
        assert op_norm(mobius(a, z).mat) < 1.0


def test_mobius_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        mobius(zero_point(2, 2), zero_point(3, 2))


def test_mobius_near_boundary_raises_singular():
    a = BallPoint(np.array([[1.0 - 1e-14]]))
    with pytest.warns(NearBoundaryWarning), pytest.raises(Singular):
        mobius(a, scalar_point(0.1))


def test_mobius_singular_bracket():
    # I + A* Z = diag(about 2e-14, 1.01) falls below the pivot floor, and
    # the bracket is inverted before any defect of A is taken
    a = BallPoint(np.diag([1.0 - 1e-14, 0.1]))
    z = BallPoint(np.diag([-(1.0 - 1e-14), 0.1]))
    with pytest.raises(Singular, match="Moebius bracket is singular"):
        mobius(a, z)


def test_to_origin_fixed_points():
    rng = np.random.default_rng(5)
    x = random_ball_point(rng, 4, 3, margin_min=0.05)
    y = random_ball_point(rng, 4, 3, margin_min=0.05)
    assert op_norm(mobius_to_origin(x, x).mat) == 0.0
    assert op_norm(mobius_to_origin(x, zero_point(4, 3)).mat + x.mat) <= 1e-12
    assert np.array_equal(mobius_to_origin(zero_point(4, 3), y).mat, y.mat)


def test_poincare_examples():
    assert poincare_dist(0.3 + 0.1j, 0.3 + 0.1j) == 0.0
    b = 0.4 - 0.2j
    assert poincare_dist(0.0, b) == pytest.approx(math.atanh(abs(b)), abs=1e-14)
    assert poincare_dist(0.5, -0.5) == pytest.approx(math.atanh(0.8), abs=1e-14)
    assert poincare_dist(0.5, -0.5) == pytest.approx(1.0986122886681098, abs=1e-12)


def test_poincare_rejects_outside():
    # the disc is the 1 x 1 ball: a scalar outside it raises as a point does
    with pytest.raises(OutOfBall, match=r"^disc points required, got \|a\|=1.5, \|b\|=0$"):
        poincare_dist(1.5, 0)
    with pytest.raises(OutOfBall):
        poincare_dist(1.0, 0.0)
    with pytest.raises(OutOfBall):
        poincare_dist(0.0, 2.0j)
    # NaN compares false against the disc bound, so it must not pass as inside
    for a, b in ((float("nan"), 0.5), (0.2 + complex(0.0, float("nan")), 0.1), (0.0, complex("nan"))):
        with pytest.raises(OutOfBall):
            poincare_dist(a, b)
    # a disc point is a real or complex scalar, Python's or numpy's; an
    # array, a string, None or a list is refused, not compared or parsed
    for bad in (np.array([0.5, -0.5]), np.array(0.5), "-0.5", None, [0.5]):
        for a, b in ((bad, 0.1), (0.1, bad)):
            with pytest.raises(ShapeMismatch, match="^disc points must be real or complex scalars"):
                poincare_dist(a, b)
    assert poincare_dist(np.float64(0.3), np.complex128(0.1j)) == poincare_dist(0.3, 0.1j)


@given(re_a=disc_coord, im_a=disc_coord, re_b=disc_coord, im_b=disc_coord)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_poincare_metric_axioms(re_a, im_a, re_b, im_b):
    a, b = complex(re_a, im_a), complex(re_b, im_b)
    dab = poincare_dist(a, b)
    assert dab >= 0.0
    assert dab == pytest.approx(poincare_dist(b, a), abs=1e-13)
    if a != b:
        assert dab > 0.0
    assert poincare_dist(a, 0) <= poincare_dist(a, b) + poincare_dist(b, 0) + 1e-12


@given(re_a=disc_coord, im_a=disc_coord, re_z=disc_coord, im_z=disc_coord)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_scalar_mobius_matches_disc_formula(re_a, im_a, re_z, im_z):
    a, z = complex(re_a, im_a), complex(re_z, im_z)
    out = mobius(scalar_point(a), scalar_point(z)).mat[0, 0]
    expected = (z + a) / (1 + np.conj(a) * z)
    assert abs(out - expected) <= 1e-12


def test_ball_dist_examples():
    rng = np.random.default_rng(6)
    x = random_ball_point(rng, 3, 2, margin_min=0.05)
    assert ball_dist(x, x) == 0.0
    y = random_ball_point(rng, 3, 2, margin_min=0.05)
    assert ball_dist(zero_point(3, 2), y) == pytest.approx(
        math.atanh(op_norm(y.mat)), abs=1e-12
    )
    assert ball_dist(scalar_point(0.5), scalar_point(-0.5)) == pytest.approx(
        1.0986122886681098, abs=1e-12
    )


def test_ball_dist_scalar_reduction():
    rng = np.random.default_rng(8)
    for _ in range(30):
        x = random_ball_point(rng, 1, 1, margin_min=0.02)
        y = random_ball_point(rng, 1, 1, margin_min=0.02)
        d_ball = ball_dist(x, y)
        d_disc = poincare_dist(complex(x.mat[0, 0]), complex(y.mat[0, 0]))
        assert abs(d_ball - d_disc) <= 1e-12


def test_ball_dist_metric_axioms():
    rng = np.random.default_rng(9)
    for _ in range(30):
        p, q = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        q = min(q, p)
        x = random_ball_point(rng, p, q, margin_min=0.1)
        y = random_ball_point(rng, p, q, margin_min=0.1)
        z = random_ball_point(rng, p, q, margin_min=0.1)
        assert abs(ball_dist(x, y) - ball_dist(y, x)) <= 1e-10
        assert ball_dist(x, z) <= ball_dist(x, y) + ball_dist(y, z) + 1e-9
        if op_norm(x.mat - y.mat) > 1e-7:
            assert ball_dist(x, y) > 1e-9


def test_mobius_invariance_of_distance():
    rng = np.random.default_rng(10)
    for _ in range(30):
        p, q = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        q = min(q, p)
        a = random_ball_point(rng, p, q, margin_min=0.05)
        x = random_ball_point(rng, p, q, margin_min=0.05)
        y = random_ball_point(rng, p, q, margin_min=0.05)
        assert abs(ball_dist(mobius(a, x), mobius(a, y)) - ball_dist(x, y)) <= 1e-8
