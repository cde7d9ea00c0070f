"""Deterministic solve counts, and the Frobenius pre-screen of tolerance gates.

A solve is one matrix of a Jacobi eigen-iteration (``matkernel._jacobi``):
every eigen-solve in the library goes through it, one call per stack of
matrices, so wrapping it counts them all, in matrices (the stack length).
Each operand is factored once and the factor serves its norm and every
defect, which is what the counts below pin down.  A factor transported to a
singular-value function of its operand costs no solve; each transport site
is compared with a fresh solve of the matrix it produced.
"""

import collections

import numpy as np
import pytest

import opball.ball
import opball.matkernel as matkernel
import opball.transform
from opball import (
    BallPoint,
    ConjugationPair,
    GramFactor,
    NotSymmetric,
    OperatorHK,
    ShapeMismatch,
    Side,
    adj,
    approximation_profile,
    ball_dist,
    ball_dists,
    bounded_transform,
    ensemble_experiment,
    gram_factor,
    identity_pair,
    induced_pair,
    inverse_bounded_transform,
    mobius,
    op_norm,
    operator_dist,
    operator_dists,
    operators,
    pair_residual,
    random_pair,
    symmetry_residual,
)
from opball.cli import main
from opball.identities import run_identities
from opball.matkernel import fro_norm
from opball.matio import write_matrix
from opball.sampling import _at_random_margins, random_ball_point, random_ball_points


@pytest.fixture
def jacobi_stacks(monkeypatch):
    """The stack length of every ``_jacobi`` call made so far."""
    stacks = []
    jacobi = matkernel._jacobi

    def counted(h, *args, **kwargs):
        stacks.append(len(h))
        return jacobi(h, *args, **kwargs)

    monkeypatch.setattr(matkernel, "_jacobi", counted)
    return stacks


@pytest.fixture
def solves(jacobi_stacks):
    """A zero-argument callable returning the matrices solved so far."""
    return lambda: sum(jacobi_stacks)


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
    # four solves per depth (doubled point, induced Gram, distance, symmetry
    # residual) plus the operand and the recovery residual; the transform
    # and each approximant carry transported factors
    ensemble_experiment(8, 2, 1, seed=113)
    assert solves() <= 34


def test_identities_trial_solve_budget(solves):
    # norms the operands already hold are read, not solved again, and a
    # random point costs one solve
    run_identities(0, 1, 8, 3, 1e-8)
    assert solves() <= 59


def test_identities_trial_kernel_calls(jacobi_stacks):
    # the operands a check draws together are one stack, and so are the
    # distances or norms it takes of independent operands
    run_identities(0, 1, 8, 3, 1e-8)
    assert len(jacobi_stacks) == 43


def test_metric_kernel_calls(jacobi_stacks, tmp_path, capsys):
    # both operands in one stack, then the norm of the left defect
    rng = np.random.default_rng(29)
    paths = [tmp_path / "t.json", tmp_path / "s.json"]
    for path in paths:
        write_matrix(path, complex_draw(rng, 8, 32))
    assert main(["metric", *map(str, paths)]) == 0
    assert float(capsys.readouterr().out) > 0.0
    assert jacobi_stacks == [2, 1]


def test_profile_kernel_calls(jacobi_stacks):
    # the operand's factor, one stack per profile stage (doubled points, pair
    # coordinates, distances, symmetry residuals) and the recovery residual
    ensemble_experiment(8, 2, 1, seed=113)
    assert len(jacobi_stacks) <= 6


def test_each_gram_power_is_computed_once_per_profile(monkeypatch):
    requested, computed = collections.Counter(), collections.Counter()
    power, compute = GramFactor.power, GramFactor._power

    def counted_power(self, *key):
        requested[self, key] += 1
        return power(self, *key)

    def counted_compute(self, *key):
        computed[self, key] += 1
        return compute(self, *key)

    monkeypatch.setattr(GramFactor, "power", counted_power)
    monkeypatch.setattr(GramFactor, "_power", counted_compute)
    rng = np.random.default_rng(113)
    t = OperatorHK(complex_draw(rng, 2, 8))
    profile = approximation_profile(t, random_pair(2, 8, rng))
    assert not profile.violations()
    # the full-depth approximant's (I + X X*)^(1/2) serves every depth's distance
    assert max(requested.values()) == t.dim_h
    assert set(computed) == set(requested)
    assert max(computed.values()) == 1


EPS = np.finfo(float).eps


def _ball_operand(m):
    return BallPoint(m * (0.6 / op_norm(m)) if m.any() else m)


# site -> (factored operand of a matrix, the transport, solves it makes)
TRANSPORTS = {
    "bounded_transform": (OperatorHK, bounded_transform, 0),
    "inverse_bounded_transform": (_ball_operand, inverse_bounded_transform, 0),
    "rescaled_point": (
        np.asarray,
        lambda g: _at_random_margins(np.random.default_rng(27), lambda: g, 1, 0.05, 0.95)[0],
        1,
    ),
}


@pytest.mark.parametrize("site", sorted(TRANSPORTS))
@pytest.mark.parametrize("shape, zero", [
    ((3, 5), False), ((5, 3), False), ((4, 4), False), ((1, 6), False),
    ((6, 1), False), ((1, 1), False), ((3, 5), True),
], ids=["3x5", "5x3", "4x4", "1x6", "6x1", "1x1", "zero-3x5"])
def test_transported_factor_matches_a_fresh_solve(solves, site, shape, zero):
    rng = np.random.default_rng(27)
    prepare, transport, cost = TRANSPORTS[site]
    operand = prepare(np.zeros(shape) if zero else complex_draw(rng, *shape))
    getattr(operand, "factor", None)  # an operator solves its factor on first use
    before = solves()
    out = transport(operand)
    assert solves() - before == cost  # the rescaled point solves its draw once
    held, fresh = out.factor, gram_factor(out.mat)
    assert held.mat is out.mat
    if shape[0] != shape[1]:
        assert held.side == fresh.side
    top = fresh.eigenvalues[-1]
    assert np.abs(held.eigenvalues - fresh.eigenvalues).max() <= 16 * EPS * top
    assert abs(held.norm - fresh.norm) <= 8 * np.spacing(fresh.norm)
    for side in ("left", "right"):
        for sign in (1.0, -1.0):
            for power in (0.5, -0.5):
                got = held.power(sign, power, side)
                ref = fresh.power(sign, power, side)
                assert np.abs(got - ref).max() <= 64 * EPS * np.abs(ref).max()


def test_a_held_factor_must_be_of_the_matrix():
    rng = np.random.default_rng(28)
    m = 0.1 * complex_draw(rng, 3, 2)
    f = gram_factor(m)
    with pytest.raises(ValueError):
        BallPoint(m, held=f)  # an equal matrix is not the factor's own array
    with pytest.raises(ValueError):
        OperatorHK(m.copy(), held=f)
    assert BallPoint(f.mat, held=f).factor is f
    assert OperatorHK(f.mat, held=f).factor is f


def _near_identity_pair(delta, tol):
    f = (1.0 + delta) * np.eye(16)
    return lambda: ConjugationPair(f, Side.BWD_FWD, check_tol=tol)


def test_pair_gate_accepts_spectral_residual_below_tolerance():
    # isometry gap 2 delta I: spectral norm 6e-11, Frobenius norm 2.4e-10
    pair = _near_identity_pair(0.3e-10, 1.0)()
    gap = adj(pair.j_fwd) @ pair.j_fwd - np.eye(16)
    assert pair_residual(pair) < 1e-10 < fro_norm(gap)
    _near_identity_pair(0.3e-10, 1e-10)()


def test_pair_gate_rejects_spectral_residual_above_tolerance():
    res = pair_residual(_near_identity_pair(0.75e-10, 1.0)())
    assert res > 1e-10
    expected = f"conjugation pair isometry gap {res:.3e} exceeds 1.0e-10"
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


def same_bytes(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def same_factor(f, g) -> bool:
    return f.side == g.side and all(
        same_bytes(getattr(f, name), getattr(g, name))
        for name in ("mat", "eigenvalues", "basis", "norm")
    )


@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (1, 1)])
@pytest.mark.parametrize("count", [1, 3])
def test_stacked_ball_points_are_the_member_loop(shape, count):
    stacked_rng, loop_rng = np.random.default_rng(41), np.random.default_rng(41)
    stacked = random_ball_points(stacked_rng, *shape, count, margin_min=0.2)
    loop = [random_ball_point(loop_rng, *shape, margin_min=0.2) for _ in range(count)]
    assert len(stacked) == count
    for x, y in zip(stacked, loop):
        assert same_bytes(x.mat, y.mat) and same_bytes(x.margin, y.margin)
        assert same_factor(x.factor, y.factor)
    assert stacked_rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("shape", [(8, 32), (5, 3), (4, 4), (1, 1)])
def test_stacked_operators_are_the_member_loop(solves, shape):
    rng = np.random.default_rng(42)
    mats = [complex_draw(rng, *shape) for _ in range(3)] + [np.zeros(shape)]
    ops = operators(mats)
    assert solves() == len(mats)
    for op, mat in zip(ops, mats):
        assert op.factor.mat is op.mat
        assert same_factor(op.factor, OperatorHK(mat).factor)


def test_stacked_distances_are_the_member_loop(jacobi_stacks):
    rng = np.random.default_rng(43)
    t, s, u = operators([10.0 ** e * complex_draw(rng, 5, 3) for e in (-2, 0, 2)])
    pairs = [(t, s), (s, t), (t, u), (u, s), (u, u)]
    before = len(jacobi_stacks)
    dists = operator_dists(pairs)
    assert len(jacobi_stacks) - before == 1
    for dist, pair in zip(dists, pairs):
        assert same_bytes(dist, operator_dist(*pair))
    x, y, z = random_ball_points(rng, 5, 3, 3)
    pairs = [(x, y), (y, x), (x, z), (z, z)]
    before = len(jacobi_stacks)
    dists = ball_dists(pairs)
    assert len(jacobi_stacks) - before == 1
    for dist, pair in zip(dists, pairs):
        assert same_bytes(dist, ball_dist(*pair))
