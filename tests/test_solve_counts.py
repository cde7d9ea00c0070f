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
import copy
import math

import numpy as np
import pytest

import opball.ball
import opball.matkernel as matkernel
import opball.symmetry
import opball.transform
from opball import (
    DEFAULT,
    BadDims,
    BallPoint,
    ConjugationPair,
    EigenvalueBelowFloor,
    NearBoundaryWarning,
    NotSymmetric,
    OperatorHK,
    OutOfBall,
    ShapeMismatch,
    Side,
    Singular,
    adj,
    approximation_profile,
    ball_dist,
    ball_dists,
    bounded_transform,
    canonical_pair,
    double_pair,
    ensemble_experiment,
    gram_factor,
    identity_pair,
    induced_pair,
    inverse_bounded_transform,
    left_defect,
    mobius,
    op_norm,
    operator_dist,
    operator_dists,
    operators,
    pair_residual,
    random_pair,
    swap_roles,
    symmetric_approximant,
    symmetry_residual,
)
from opball.ball import defects, lifts, mobius_images
from opball.cli import main
from opball.identities import run_identities
from opball.matkernel import fro_norm, powers, transport
from opball.matio import write_matrix
from opball.sampling import (
    _at_random_margins,
    complex_gaussian,
    random_ball_point,
    random_ball_points,
    random_symmetric_ball_point,
)
from opball.symmetry import (
    extension_blocks,
    induced_pairs,
    symmetric_part,
    symmetry_residuals,
)
from opball.transform import inverse_bounded_transforms, left_defects


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


@pytest.mark.parametrize("depth", [0, 5, 1.5])
def test_a_bad_depth_is_refused_before_any_solve(solves, depth):
    t, pair = OperatorHK(np.ones((2, 4))), random_pair(2, 4, 0)
    before = solves()
    with pytest.raises(BadDims):
        symmetric_approximant(t, pair, depth)  # depths 1..4
    assert solves() - before == 0


# approximation entry -> its call on an operator and a pair
APPROXIMATIONS = {
    "approximation_profile": approximation_profile,
    "symmetric_approximant": lambda t, pair: symmetric_approximant(t, pair, 1),
}


@pytest.mark.parametrize("name", APPROXIMATIONS)
def test_a_misfit_pair_is_refused_before_any_solve(solves, name):
    # the pair runs from H to K, not from K to H
    t, pair = OperatorHK(np.ones((2, 4))), random_pair(4, 2, 0)
    before = solves()
    with pytest.raises(ShapeMismatch, match=r"^operator for the pair has shape"):
        APPROXIMATIONS[name](t, pair)
    assert solves() - before == 0


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
    assert len(jacobi_stacks) == 41


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


@pytest.fixture
def gate_stacks(monkeypatch):
    """The stack length of every tolerance gate (``symmetry._first_beyond``)
    decided so far."""
    stacks = []
    first_beyond = opball.symmetry._first_beyond

    def counted(gaps, tol):
        stacks.append(len(gaps))
        return first_beyond(gaps, tol)

    monkeypatch.setattr(opball.symmetry, "_first_beyond", counted)
    return stacks


@pytest.mark.parametrize("seed", [0, 1, 113])
def test_profile_gate_calls(gate_stacks, seed):
    # the random pair, the induced pairs' symmetry pre-gate, and the isometry
    # gaps of all 8 induced pairs as one stack; the doubled pair is derived
    # from the gated random pair, so it is built without a gate
    ensemble_experiment(8, 2, 1, seed)
    assert gate_stacks == [1, 8, 8]


def test_identities_trial_gate_calls(gate_stacks):
    # the canonical pair is exact and the doubled pair derived: no gate
    run_identities(0, 1, 8, 3, 1e-8)
    assert len(gate_stacks) == 5


@pytest.mark.parametrize("side", [Side.BWD_FWD, Side.FWD_BWD])
def test_exact_and_derived_pairs_decide_no_gate(gate_stacks, side):
    p = random_pair(*((3, 5) if side is Side.BWD_FWD else (5, 3)), 53)
    assert p.side is side and gate_stacks == [1]
    other = Side.FWD_BWD if side is Side.BWD_FWD else Side.BWD_FWD
    zero = np.zeros_like(p.j_fwd)
    built = {
        "canonical": (canonical_pair(3, 5), np.eye(5, 3), Side.BWD_FWD),
        "identity": (identity_pair(4), np.eye(4), Side.BWD_FWD),
        "swapped": (swap_roles(p), p.j_bwd, other),
        "doubled": (double_pair(p), np.block([[zero, p.j_fwd], [p.j_fwd, zero]]), side),
    }
    assert gate_stacks == [1]
    # each stores what the constructor stores for the same frame and side
    for name, (pair, frame, frame_side) in built.items():
        direct = ConjugationPair(frame, frame_side)
        assert pair.side is direct.side, name
        assert same_bytes(pair.j_fwd, direct.j_fwd), name
        for flags in (pair.j_fwd.flags, direct.j_fwd.flags):
            assert not flags.writeable and flags.c_contiguous, name


@pytest.fixture
def power_stacks(monkeypatch):
    """The members of every computation of the stacked power core, which
    every Gram power, one-item or stacked, goes through: one list of
    (factor, key) per computation."""
    stacks = []
    core = matkernel._power_stack

    def counted(factors, *key):
        stacks.append([(f, key) for f in factors])
        return core(factors, *key)

    monkeypatch.setattr(matkernel, "_power_stack", counted)
    return stacks


def test_profile_gram_powers_are_six_stacks(power_stacks):
    rng = np.random.default_rng(113)
    t = OperatorHK(complex_draw(rng, 2, 8))
    profile = approximation_profile(t, random_pair(2, 8, rng))
    assert not profile.violations()
    computed = collections.Counter(member for stack in power_stacks for member in stack)
    # the transform's power, four per depth (the induced pair's two defects,
    # the inverse transform's and the distance's), and the full-depth
    # approximant's (I + X X*)^(1/2), which serves every depth's distance
    # and is listed, and computed, once per depth
    assert len(computed) == 34 and sum(computed.values()) == 41
    assert [len(stack) for stack in power_stacks] == [1, 8, 8, 8, 8, 8]


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


TRANSPORT_SHAPES = {
    "3x5": ((3, 5), False), "5x3": ((5, 3), False), "4x4": ((4, 4), False),
    "1x6": ((1, 6), False), "6x1": ((6, 1), False), "1x1": ((1, 1), False),
    "zero-3x5": ((3, 5), True),
}


# a sampled draw has a nonzero norm, so the rescaled point has no zero case
@pytest.mark.parametrize("site, shape, zero", [
    pytest.param(site, shape, zero, id=f"{name}-{site}")
    for name, (shape, zero) in TRANSPORT_SHAPES.items()
    for site in sorted(TRANSPORTS)
    if not (zero and site == "rescaled_point")
])
def test_transported_factor_matches_a_fresh_solve(solves, site, shape, zero):
    rng = np.random.default_rng(27)
    prepare, move, cost = TRANSPORTS[site]
    operand = prepare(np.zeros(shape) if zero else complex_draw(rng, *shape))
    getattr(operand, "factor", None)  # an operator solves its factor on first use
    before = solves()
    out = move(operand)
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
                got = powers((held,), sign, power, side)[0]
                ref = powers((fresh,), sign, power, side)[0]
                assert np.abs(got - ref).max() <= 64 * EPS * np.abs(ref).max()


def test_a_record_built_from_its_factor_keeps_it(jacobi_stacks):
    rng = np.random.default_rng(28)
    f = gram_factor(0.1 * complex_draw(rng, 3, 2))
    before = len(jacobi_stacks)
    for record in (BallPoint(f), OperatorHK(f)):
        assert record.factor is f and record.mat is f.mat
    assert len(jacobi_stacks) == before
    for m in (np.eye(2), complex_draw(rng, 3, 2)):
        outside = gram_factor(m)
        assert outside.norm >= 1.0
        with pytest.raises(OutOfBall):
            BallPoint(outside)


def _near_identity_frame(delta):
    return (1.0 + delta) * np.eye(16)


def test_pair_gate_accepts_spectral_residual_below_tolerance():
    # isometry gap 2 delta I: spectral norm 6e-11, Frobenius norm 2.4e-10;
    # a directly built pair is gated at DEFAULT.pair_residual = 1e-10
    assert DEFAULT.pair_residual == 1e-10
    pair = ConjugationPair(_near_identity_frame(0.3e-10), Side.BWD_FWD)
    gap = adj(pair.j_fwd) @ pair.j_fwd - np.eye(16)
    assert pair_residual(pair) < 1e-10 < fro_norm(gap)


def test_pair_gate_rejects_spectral_residual_above_tolerance():
    frame = _near_identity_frame(0.75e-10)
    opball.symmetry._gate_isometry(frame[None], 1.0)  # passes at a loose tolerance
    # the stacked gate of the induced pairs (1e-8) passes it, and the pair is built
    opball.symmetry._gate_isometry(frame[None], DEFAULT.induced_pair_residual)
    pair = opball.symmetry._built(frame, Side.BWD_FWD)
    res = pair_residual(pair)
    assert res > 1e-10
    expected = f"conjugation pair isometry gap {res:.3e} exceeds 1.0e-10"
    with pytest.raises(ShapeMismatch) as gated:
        opball.symmetry._gate_isometry(frame[None], 1e-10)
    assert str(gated.value) == expected
    with pytest.raises(ShapeMismatch) as info:
        ConjugationPair(frame, Side.BWD_FWD)
    assert str(info.value) == expected


def _near_isometry_frames(deltas, side):
    """The ``j_fwd`` of side ``side`` of the frames (1 + delta) Q, for one
    orthonormal 5x3 Q, as one read-only stack: the isometry gap is 2 delta I
    to first order, of spectral norm 2 delta and Frobenius norm
    2 delta sqrt(3)."""
    q = random_pair(3, 5, 52).j_fwd
    return matkernel.as_cstack([(1.0 + d) * (q if side is Side.BWD_FWD else q.T)
                                for d in deltas])[0]


@pytest.mark.parametrize("side", [Side.BWD_FWD, Side.FWD_BWD])
def test_stacked_pair_gate_raises_for_the_first_member_beyond(side):
    tol = DEFAULT.induced_pair_residual
    frames = _near_isometry_frames([0.3e-8, 0.75e-8, 1e-8], side)
    firsts = opball.symmetry._first(frames, side)
    # the first member passes on its spectral norm only; the other two fail
    opball.symmetry._gate_isometry(firsts[:1], tol)
    first = opball.symmetry._built(frames[0], side)
    assert pair_residual(first) < tol < fro_norm(adj(firsts[0]) @ firsts[0] - np.eye(3))
    errors = []
    for frame, isometry in zip(frames[1:], firsts[1:]):
        with pytest.raises(ShapeMismatch) as alone:
            opball.symmetry._gate_isometry(isometry[None], tol)
        errors.append(str(alone.value))
        # the constructor's message for the same gap, at its own tolerance
        with pytest.raises(ShapeMismatch) as direct:
            ConjugationPair(frame, side)
        assert str(direct.value) == errors[-1].replace(
            f"{tol:.1e}", f"{DEFAULT.pair_residual:.1e}")
    assert errors[0] != errors[1]
    with pytest.raises(ShapeMismatch) as info:
        opball.symmetry._gate_isometry(firsts, tol)
    assert str(info.value) == errors[0]
    assert first.side is side and same_bytes(first.j_fwd, matkernel.as_cmat(frames[0]))


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
                got = powers((point.factor,), sign, power, side)[0]
                ref = powers((gram_factor(point.mat),), sign, power, side)[0]
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


def _rescaled_alone(rng, draw, margin_min, margin_max):
    """The factor of one draw solved alone, then rescaled alone to the
    margin drawn after it."""
    f = gram_factor(draw)
    c = (1.0 - rng.uniform(margin_min, margin_max)) / f.norm
    return transport((f,), f.mat * c, lambda x: c * c * x, flip=False)[0]


@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (1, 1)])
def test_sampled_points_are_their_draws_rescaled_alone(shape):
    rng = np.random.default_rng(46)
    pair = random_pair(shape[1], shape[0], rng)
    clone = copy.deepcopy(rng)
    points = random_ball_points(rng, *shape, 3, margin_min=0.2)
    points.append(random_symmetric_ball_point(rng, pair, margin_min=0.2))
    alone = [
        _rescaled_alone(clone, complex_gaussian(clone, *shape), 0.2, 0.95) for _ in range(3)
    ]
    draw = symmetric_part(complex_gaussian(clone, *shape), pair)
    alone.append(_rescaled_alone(clone, draw, 0.2, 0.9))
    for point, f in zip(points, alone, strict=True):
        assert same_bytes(point.mat, f.mat) and same_factor(point.factor, f)
    assert rng.bit_generator.state == clone.bit_generator.state


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


POWER_KEYS = [(sign, power, side) for sign in (1.0, -1.0) for power in (0.5, -0.5)
              for side in ("left", "right")]


def _power_members():
    """Fresh square factors of the same bytes on every call: two holding
    "left", a transported one holding "right", and the first listed again."""
    rng = np.random.default_rng(45)
    first, second = (_ball_operand(complex_draw(rng, 4, 4)).factor for _ in range(2))
    moved = bounded_transform(OperatorHK(complex_draw(rng, 4, 4))).factor
    return [first, moved, second, first]


@pytest.mark.parametrize("key", POWER_KEYS, ids=lambda key: "%+d,%+.1f,%s" % key)
def test_stacked_powers_are_the_member_loop(power_stacks, key):
    members = _power_members()
    assert [f.side for f in members[:3]] == ["left", "right", "left"]
    before = len(power_stacks)
    out = powers(members, *key)
    assert isinstance(out, np.ndarray) and out.shape == (4, 4, 4)
    assert not out.flags.writeable
    # a list that mixes held sides is computed member by member, and the
    # factor listed twice is computed twice
    assert [len(stack) for stack in power_stacks[before:]] == [1, 1, 1, 1]
    computed = collections.Counter(f for stack in power_stacks[before:] for f, _ in stack)
    assert computed[members[0]] == 2 and len(computed) == 3
    assert same_bytes(out[3], out[0])
    for got, f in zip(out, _power_members(), strict=True):
        assert same_bytes(got, powers((f,), *key)[0])
    # factors that hold one side are one stack, repeats included
    one_side = [members[i] for i in (0, 2, 3)]
    before = len(power_stacks)
    out = powers(one_side, *key)
    assert [len(stack) for stack in power_stacks[before:]] == [3]
    fresh = _power_members()
    for got, i in zip(out, (0, 2, 3), strict=True):
        assert same_bytes(got, powers((fresh[i],), *key)[0])


def test_a_floor_hit_in_a_stack_keeps_no_power(power_stacks):
    rng = np.random.default_rng(46)
    ok = _ball_operand(complex_draw(rng, 2, 2)).factor
    fine, edge_left, late = gram_factor(
        [np.diag([0.5, 0.25]), np.diag([1.0 - 1e-15, 0.5]), np.diag([1.0 - 4e-15, 0.5])]
    )
    # a real diagonal M has M*M = MM*, so its factor may hold either side
    edge = transport((edge_left,), edge_left.mat, lambda x: x, flip=True)[0]
    # the first hit in the list holds the other side than the first member
    # and a later hit: it raises, whatever the order the groups would be
    # computed in
    assert [f.side for f in (ok, edge, late)] == ["left", "right", "left"]
    with pytest.raises(EigenvalueBelowFloor) as alone:
        powers((gram_factor(edge.mat),), -1.0, -0.5, "left")
    with pytest.raises(EigenvalueBelowFloor) as other:
        powers((gram_factor(late.mat),), -1.0, -0.5, "left")
    assert other.value.eigenvalue != alone.value.eigenvalue
    for _ in range(2):
        with pytest.raises(EigenvalueBelowFloor) as info:
            powers([ok, fine, edge, late], -1.0, -0.5, "left")
        assert same_bytes(info.value.eigenvalue, alone.value.eigenvalue)
    # the floor is checked before any stack is computed
    assert power_stacks == []
    points = [BallPoint(f) for f in (ok, fine, edge)]
    with pytest.warns(NearBoundaryWarning), pytest.raises(Singular):
        defects(points, -0.5, "left")
    assert same_bytes(defects(points[:2], -0.5, "left")[1], powers((fine,), -1.0, -0.5, "left")[0])


def test_stacked_transport_re_sorts_a_reordered_spectrum():
    # (x - 2)^2 keeps the order of the first member's spectrum (9, 16, 25)
    # and reorders the second's (0.25, 1, 4): each member is sorted with its
    # columns as it is alone
    def fresh():
        mats = [np.zeros((4, 3), dtype=complex) for _ in range(2)]
        for m, values in zip(mats, ([3.0, 4.0, 5.0], [0.5, 1.0, 2.0]), strict=True):
            m[:3, :3] = np.diag(values)
        return gram_factor(mats)

    def shift(x):
        return (x - 2.0) ** 2

    factors = fresh()
    out = transport(factors, [f.mat for f in factors], shift, flip=False)
    for got, f in zip(out, fresh(), strict=True):
        assert same_factor(got, transport((f,), f.mat, shift, flip=False)[0])
    assert same_bytes(out[0].basis, factors[0].basis)
    assert out[1].eigenvalues.tolist() == sorted(shift(factors[1].eigenvalues).tolist())
    for got, f in zip(out, factors, strict=True):
        assert np.all(np.diff(got.eigenvalues) >= 0.0)
        assert not got.eigenvalues.flags.writeable and not got.basis.flags.writeable
        want = (f.basis * shift(f.eigenvalues)) @ adj(f.basis)
        np.testing.assert_allclose((got.basis * got.eigenvalues) @ adj(got.basis), want,
                                   atol=1e-12)
    # a map that reorders no member leaves every basis as it was, read-only
    scaled = transport(factors, [f.mat for f in factors], lambda x: 4.0 * x, False)
    for got, f in zip(scaled, factors, strict=True):
        assert same_bytes(got.basis, f.basis) and same_bytes(got.eigenvalues, 4.0 * f.eigenvalues)
        assert not got.eigenvalues.flags.writeable and not got.basis.flags.writeable


def _mixed_points():
    """Fresh ball points of the same bytes on every call, of two shapes, the
    square ones holding either Gram side."""
    rng = np.random.default_rng(47)
    return [
        _ball_operand(complex_draw(rng, 4, 4)),
        bounded_transform(OperatorHK(complex_draw(rng, 4, 4))),
        BallPoint(np.zeros((4, 4))),
        _ball_operand(complex_draw(rng, 4, 4)),
        _ball_operand(complex_draw(rng, 5, 3)),
    ]


@pytest.mark.parametrize("power", [0.5, -0.5])
@pytest.mark.parametrize("side", ["left", "right"])
def test_stacked_defects_are_the_member_loop(power, side):
    points = _mixed_points()[:4]
    assert {a.factor.side for a in points} == {"left", "right"}
    for got, a in zip(defects(points, power, side), _mixed_points()[:4], strict=True):
        assert same_bytes(got, a.defect(power, side))


def test_stacked_inverse_transforms_are_the_member_loop(jacobi_stacks):
    points = _mixed_points()[:4]
    assert {a.factor.side for a in points} == {"left", "right"}
    before = len(jacobi_stacks)
    ops = inverse_bounded_transforms(points)
    assert len(jacobi_stacks) == before  # the factors are transported
    for op, a in zip(ops, _mixed_points(), strict=False):
        alone = inverse_bounded_transform(a)
        assert op.factor.mat is op.mat
        assert same_bytes(op.mat, alone.mat) and same_factor(op.factor, alone.factor)


def test_stacked_lifts_and_images_are_the_member_loop(jacobi_stacks):
    def fresh():
        rng = np.random.default_rng(48)
        ops = operators([10.0 ** e * complex_draw(rng, 5, 3) for e in (-1, 0, 1)])
        return ops, random_ball_points(rng, 5, 3, 4)

    (t, s, u), (a, x, y, z) = fresh()
    op_pairs = [(t, s), (s, t), (u, u), (t, u)]
    ball_pairs = [(x, y), (y, x), (z, z), (x, z)]
    got = [left_defects(op_pairs), lifts(ball_pairs)]
    before = len(jacobi_stacks)
    images = mobius_images(a, [x, y, z, x])
    assert len(jacobi_stacks) - before == 1
    (t, s, u), (a, x, y, z) = fresh()
    for d, pair in zip(got[0], [(t, s), (s, t), (u, u), (t, u)], strict=True):
        assert same_bytes(d, left_defect(*pair))
    (t, s, u), (a, x, y, z) = fresh()
    for d, pair in zip(got[1], [(x, y), (y, x), (z, z), (x, z)], strict=True):
        assert same_bytes(d, lifts([pair])[0])
        assert same_bytes(math.asinh(op_norm(d)), ball_dist(*pair))
    (t, s, u), (a, x, y, z) = fresh()
    for image, point in zip(images, [x, y, z, x], strict=True):
        alone = mobius(a, point)
        assert same_bytes(image.mat, alone.mat) and same_factor(image.factor, alone.factor)


def test_stacked_symmetry_residuals_are_the_member_loop(jacobi_stacks):
    rng = np.random.default_rng(49)
    pair = random_pair(4, 4, rng)
    pairs = [pair, swap_roles(pair), swap_roles(pair), random_pair(4, 4, rng)]
    assert [p.side for p in pairs] == [Side.BWD_FWD, Side.FWD_BWD, Side.FWD_BWD, Side.BWD_FWD]
    ts = [OperatorHK(complex_draw(rng, 4, 4)) for _ in pairs]
    before = len(jacobi_stacks)
    residuals = symmetry_residuals(list(zip(ts, pairs)))
    assert len(jacobi_stacks) - before == 1
    for residual, t, p in zip(residuals, ts, pairs, strict=True):
        assert same_bytes(residual, symmetry_residual(t, p))


def test_stacked_extension_blocks_are_the_member_loop():
    rng = np.random.default_rng(50)
    pair = random_pair(3, 5, rng)
    mats = [complex_draw(rng, 5, 3) for _ in range(3)]
    for got, m in zip(extension_blocks(mats, pair), mats, strict=True):
        assert same_bytes(got, extension_blocks(m, pair))


@pytest.mark.parametrize("side", [Side.BWD_FWD, Side.FWD_BWD])
def test_stacked_induced_pairs_are_the_member_loop(jacobi_stacks, side):
    rng = np.random.default_rng(44)
    dims = (3, 5) if side is Side.BWD_FWD else (5, 3)
    pair = random_pair(*dims, rng)
    assert pair.side is side
    points = [random_symmetric_ball_point(rng, pair) for _ in range(3)]
    points.append(BallPoint(np.zeros((pair.dim_dst, pair.dim_src))))
    before = len(jacobi_stacks)
    stacked = induced_pairs(points, pair)
    assert len(jacobi_stacks) - before == 1
    for out, a in zip(stacked, points, strict=True):
        assert same_bytes(out.j_fwd, induced_pair(a, pair).j_fwd)
        # stored as the constructor stores the same frame and side
        assert out.j_fwd.dtype == np.complex128
        assert not out.j_fwd.flags.writeable and out.j_fwd.flags.c_contiguous
        assert same_bytes(out.j_fwd, ConjugationPair(out.j_fwd, out.side).j_fwd)
