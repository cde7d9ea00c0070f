"""Distances and the bounded transform against a 60-digit oracle on the exact float inputs.

The oracle evaluates the diagonal block of the U(p, q) lift, whose largest
singular value is cosh d, so it shares no formula with the library's asinh
of the off-diagonal block:

    operator pair:  cosh d = || (I + S S*)^(1/2) (I + T T*)^(1/2) - S T* ||
    ball pair:      cosh d = || (I - X X*)^(-1/2) (I - X Y*) (I - Y Y*)^(-1/2) ||

Bounds, fixed before the first run:

- unaligned 3x5 and 5x3 operator pairs at entry scales 1e-2 .. 1e8:
  relative error at most 1e-13;
- ball pairs at margins 1e-2 .. 1e-13: relative error at most
  10 eps / margin, the conditioning of the inverse defects;
- 1x1 points +-(1 - 1e-6) and +-(1 - 1e-9): 14.5086572385 and
  21.4164130453 within 1e-10 relative, from ball_dist and poincare_dist;
- bounded_transform entries of 5x3, 6x1 and 3x5 operators at entry scales
  30 .. 100: within 16 eps of the largest entry.
"""

import numpy as np
import pytest

from opball import (
    BallPoint,
    OperatorHK,
    ball_dist,
    bounded_transform,
    op_norm,
    operator_dist,
    poincare_dist,
)

mp = pytest.importorskip("mpmath").mp
mp.dps = 60
EPS = np.finfo(float).eps

# points this close to the sphere warn by design (tests/test_transform.py)
pytestmark = pytest.mark.filterwarnings("ignore::opball.NearBoundaryWarning")


def _mp(m):
    return mp.matrix([[mp.mpc(complex(v)) for v in row] for row in np.asarray(m)])


def _herm_power(h, power):
    vals, vecs = mp.eighe(h)
    diag = mp.diag([mp.re(v) ** power for v in vals])
    return vecs * diag * vecs.transpose_conj()


def _norm(m):
    vals, _ = mp.eighe(m * m.transpose_conj())
    return mp.sqrt(max(mp.re(v) for v in vals))


def oracle_operator_dist(t, s):
    t, s = _mp(t), _mp(s)
    n = t.rows
    block = (
        _herm_power(mp.eye(n) + s * s.transpose_conj(), 0.5)
        * _herm_power(mp.eye(n) + t * t.transpose_conj(), 0.5)
        - s * t.transpose_conj()
    )
    return mp.acosh(_norm(block))


def oracle_ball_dist(x, y):
    x, y = _mp(x), _mp(y)
    n = x.rows
    block = (
        _herm_power(mp.eye(n) - x * x.transpose_conj(), -0.5)
        * (mp.eye(n) - x * y.transpose_conj())
        * _herm_power(mp.eye(n) - y * y.transpose_conj(), -0.5)
    )
    return mp.acosh(_norm(block))


def _draw(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rel(got, want):
    return float(abs(mp.mpf(got) - want) / want)


@pytest.mark.parametrize("shape", [(3, 5), (5, 3)])
@pytest.mark.parametrize("scale", [1e-2, 1.0, 1e2, 1e4, 1e6, 1e8])
def test_operator_dist_unaligned_pairs(shape, scale):
    rng = np.random.default_rng(int(np.log10(scale)) + 10 * shape[0])
    t, s = scale * _draw(rng, shape), scale * _draw(rng, shape)
    got = operator_dist(OperatorHK(t), OperatorHK(s))
    assert _rel(got, oracle_operator_dist(t, s)) <= 1e-13


@pytest.mark.parametrize("shape", [(3, 5), (5, 3)])
@pytest.mark.parametrize("margin", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-13])
def test_ball_dist_near_the_sphere(shape, margin):
    rng = np.random.default_rng(int(-np.log10(margin)) + 100 * shape[0])
    points = []
    for _ in range(2):
        g = _draw(rng, shape)
        points.append(BallPoint(g * ((1.0 - margin) / op_norm(g))))
    x, y = points
    got = ball_dist(x, y)
    assert _rel(got, oracle_ball_dist(x.mat, y.mat)) <= 10 * EPS / margin


@pytest.mark.parametrize(
    "radius, expected", [(1.0 - 1e-6, 14.5086572385), (1.0 - 1e-9, 21.4164130453)]
)
def test_antipodal_scalars(radius, expected):
    want = oracle_ball_dist([[radius]], [[-radius]])
    assert _rel(expected, want) <= 1e-10
    x, y = BallPoint(np.array([[radius]])), BallPoint(np.array([[-radius]]))
    assert _rel(ball_dist(x, y), want) <= 1e-10
    assert _rel(poincare_dist(radius, -radius), want) <= 1e-10


@pytest.mark.parametrize("shape, scale", [((5, 3), 30.0), ((6, 1), 100.0), ((3, 5), 30.0)])
def test_bounded_transform_entries(shape, scale):
    # the function is taken on the Gram side T's factor holds, so no
    # pushed form cancels: within 16 eps of the largest entry either way
    rng = np.random.default_rng(shape[0] + int(scale))
    t = scale * _draw(rng, shape)
    want = _herm_power(mp.eye(shape[1]) + _mp(t).transpose_conj() * _mp(t), -0.5)
    want = np.array((want * _mp(t).transpose_conj()).tolist(), dtype=complex)
    got = bounded_transform(OperatorHK(t)).mat
    assert np.abs(got - want).max() <= 16 * EPS * np.abs(want).max()
