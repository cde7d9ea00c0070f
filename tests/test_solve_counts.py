"""Deterministic solve counts, and the Frobenius pre-screen of tolerance gates.

A solve is one Jacobi eigen-iteration (``matkernel._jacobi``); every
eigen-solve in the library goes through it, so wrapping it counts them all.
Each operand is factored once and the factor serves its norm and every
defect, which is what the counts below pin down.
"""

import numpy as np
import pytest

import opball.ball
import opball.matkernel as matkernel
import opball.transform
from opball import (
    BallPoint,
    ConjugationPair,
    NotSymmetric,
    OperatorHK,
    ShapeMismatch,
    Side,
    ball_dist,
    ensemble_experiment,
    gram_factor,
    identity_pair,
    induced_pair,
    mobius,
    op_norm,
    operator_dist,
    pair_residuals,
    random_pair,
    symmetry_residual,
)
from opball.identities import run_identities
from opball.matkernel import fro_norm


@pytest.fixture
def solves(monkeypatch):
    """A zero-argument callable returning the solves made so far."""
    count = [0]
    jacobi = matkernel._jacobi

    def counted(*args, **kwargs):
        count[0] += 1
        return jacobi(*args, **kwargs)

    monkeypatch.setattr(matkernel, "_jacobi", counted)
    return lambda: count[0]


def complex_draw(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_operator_dist_factors_each_operand_once(solves):
    rng = np.random.default_rng(21)
    t = OperatorHK(complex_draw(rng, 8, 32))
    s = OperatorHK(complex_draw(rng, 8, 32))
    operator_dist(t, s)
    assert solves() == 3  # one factor per operand, one norm of the left defect
    operator_dist(s, t)
    assert solves() == 4  # both factors reused


def test_distances_invert_nothing(solves, monkeypatch):
    # the lift needs no inverse: one norm of a defect-sandwiched difference
    inversions = [0]

    def counted(m):
        inversions[0] += 1
        return matkernel.inverse(m)

    monkeypatch.setattr(opball.ball, "inverse", counted)
    monkeypatch.setattr(opball.transform, "inverse", counted)
    rng = np.random.default_rng(26)
    operator_dist(OperatorHK(complex_draw(rng, 5, 3)), OperatorHK(complex_draw(rng, 5, 3)))
    x = BallPoint(0.2 * complex_draw(rng, 5, 3))
    y = BallPoint(0.2 * complex_draw(rng, 5, 3))
    before = solves()
    ball_dist(x, y)
    assert solves() - before == 1
    assert inversions[0] == 0


def test_mobius_solves_only_for_its_result(solves):
    rng = np.random.default_rng(22)
    a = BallPoint(0.5 * complex_draw(rng, 5, 3) / 5.0)
    z = BallPoint(0.5 * complex_draw(rng, 5, 3) / 5.0)
    before = solves()
    mobius(a, z)
    assert solves() - before == 1


def test_pair_validation_at_roundoff_needs_no_solve(solves):
    random_pair(2, 8, 23)
    assert solves() == 0


def test_approx_trial_solve_budget(solves):
    # five solves per depth (doubled point, induced Gram, approximant,
    # distance, symmetry residual) plus the operand, its transform
    # and the recovery residual
    ensemble_experiment(8, 2, 1, seed=113)
    assert solves() <= 43


def test_identities_trial_solve_budget(solves):
    # norms the operands already hold are read, not solved again
    run_identities(0, 1, 8, 3, 1e-8)
    assert solves() <= 84


def _near_identity_pair(delta, tol):
    f = (1.0 + delta) * np.eye(16)
    return lambda: ConjugationPair(f, f.T.copy(), Side.BWD_FWD, check_tol=tol)


def test_pair_gate_accepts_spectral_residual_below_tolerance():
    # composition gap 2 delta I: spectral norm 6e-11, Frobenius norm 2.4e-10
    pair = _near_identity_pair(0.3e-10, 1.0)()
    gap = pair.j_bwd @ np.conj(pair.j_fwd) - np.eye(16)
    assert pair_residuals(pair)["composition"] < 1e-10 < fro_norm(gap)
    _near_identity_pair(0.3e-10, 1e-10)()


def test_pair_gate_rejects_spectral_residual_above_tolerance():
    res = pair_residuals(_near_identity_pair(0.75e-10, 1.0)())
    assert res["composition"] > 1e-10
    expected = f"conjugation pair invariants violated: {res} exceed 1.0e-10"
    with pytest.raises(ShapeMismatch) as info:
        _near_identity_pair(0.75e-10, 1e-10)()
    assert str(info.value) == expected


def _near_symmetric_point(eps):
    """A symmetric 8x8 contraction plus eps times an antisymmetric matrix
    whose singular values are all 1, so the symmetry gap (against the
    identity pair) has spectral norm 2 eps and Frobenius norm 2 eps sqrt(8)."""
    rng = np.random.default_rng(24)
    sym = complex_draw(rng, 8, 8)
    sym = sym + sym.T
    skew = np.kron(np.eye(4), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    return BallPoint(0.5 * sym / op_norm(sym) + eps * skew)


def test_symmetry_gate_accepts_spectral_residual_below_tolerance():
    a = _near_symmetric_point(0.4e-8)
    pair = identity_pair(8)
    assert symmetry_residual(OperatorHK(a.mat), pair) < 1e-8
    assert 2e-8 < fro_norm(a.mat - a.mat.T)
    out = induced_pair(a, pair)
    assert out.side is Side.FWD_BWD


def test_symmetry_gate_rejects_spectral_residual_above_tolerance():
    a = _near_symmetric_point(0.6e-8)
    pair = identity_pair(8)
    residual = symmetry_residual(OperatorHK(a.mat), pair)
    assert residual > 1e-8
    expected = f"contraction has symmetry residual {residual:.3e} for the given pair"
    with pytest.raises(NotSymmetric) as info:
        induced_pair(a, pair)
    assert str(info.value) == expected


@pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4, 4), (1, 6), (6, 1), (1, 1)])
def test_ball_point_factor_is_gram_power(shape):
    rng = np.random.default_rng(25)
    m = complex_draw(rng, *shape)
    point = BallPoint(m * (0.9 / op_norm(m)))
    assert point.factor.norm == op_norm(point.mat) == gram_factor(point.mat).norm
    for side in ("left", "right"):
        for sign in (1.0, -1.0):
            for power in (0.5, -0.5):
                got = point.factor.power(sign, power, side)
                ref = gram_factor(point.mat).power(sign, power, side)
                assert np.array_equal(got, ref)
