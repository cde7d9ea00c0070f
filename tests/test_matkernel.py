"""Kernel tests: eigendecomposition, spectral functions, norm, inversion.

numpy.linalg serves as the independent oracle throughout; the library itself
never calls it.
"""

import dataclasses
import re
import warnings

import numpy as np
import pytest

import opball
from opball import (
    BallPoint,
    ConjugationPair,
    EigenvalueBelowFloor,
    GramFactor,
    NearBoundaryWarning,
    NoConvergence,
    NotHermitian,
    OperatorHK,
    ShapeMismatch,
    Singular,
    as_cmat,
    ball_dists,
    fro_norm,
    gram_factor,
    herm_eig,
    herm_inv_sqrt,
    herm_sqrt,
    identity_pair,
    inverse,
    mobius,
    mobius_inv,
    op_norm,
    operator_dists,
    operators,
    random_pair,
)
from opball.ball import defects, lifts, mobius_images
from opball.matkernel import powers, transport
from opball.symmetry import extension_blocks, induced_pairs, symmetry_residuals
from opball.transform import inverse_bounded_transforms, left_defects


def rand_herm(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (g + g.conj().T)


def test_as_cmat_rejects_bad_input():
    with pytest.raises(ShapeMismatch):
        as_cmat([1.0, 2.0])
    with pytest.raises(ShapeMismatch):
        as_cmat(np.zeros((0, 3)))
    with pytest.raises(ShapeMismatch):
        as_cmat([[np.nan, 0.0]])
    with pytest.raises(ShapeMismatch):
        as_cmat([[np.inf]])


def test_herm_eig_diagonal():
    vals, basis = herm_eig(np.diag([1.0, 4.0]))
    assert np.allclose(vals, [1.0, 4.0])
    assert np.allclose(np.abs(basis), np.eye(2))


def test_herm_eig_swap_matrix():
    # characteristic polynomial x^2 - 1 by hand
    vals, _ = herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_herm_eig_identity(n):
    vals, _ = herm_eig(np.eye(n))
    assert np.allclose(vals, 1.0)


def test_herm_eig_random_invariants():
    # 200 seeded Hermitian draws, sizes 1..8
    rng = np.random.default_rng(101)
    for trial in range(200):
        n = 1 + trial % 8
        h = rand_herm(rng, n, scale=10.0 ** rng.uniform(-2, 2))
        vals, basis = herm_eig(h)
        assert list(vals) == sorted(vals)
        scale = 1.0 + fro_norm(h)
        recon = basis @ np.diag(vals) @ basis.conj().T - h
        assert fro_norm(recon) <= 1e-9 * scale
        unit = basis.conj().T @ basis - np.eye(n)
        assert fro_norm(unit) <= 1e-10 * n
        # independent oracle
        assert np.abs(vals - np.linalg.eigvalsh(h)).max() <= 1e-11 * scale


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def structured_gram(rng, n, kind):
    """Hermitian inputs on which a Jacobi round is only partly active, or
    not at all, or starts from equal diagonal entries."""
    if kind == "block_diagonal":
        # a point and its conjugate flip, as in the doubled approximant:
        # pairs across the blocks are inactive, and every eigenvalue repeats
        k = (n + 1) // 2
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        block = g @ g.conj().T
        h = np.zeros((2 * k, 2 * k), dtype=complex)
        h[:k, :k], h[k:, k:] = block, block.conj()
        return h[:n, :n]
    if kind == "diagonal":
        # no pair is ever active; values repeat and include zeros
        return np.diag(rng.integers(-2, 3, n).astype(float))
    if kind == "zero_diagonal":
        # rank-deficient PSD Gram of unit rows and zero rows, with dyadic
        # entries: the diagonal is exactly 1 or 0, so rotations see
        # d_q - d_p = 0
        m = 0.5 * rng.choice([1.0, -1.0, 1j, -1j], (n, 4))
        m[::3] = 0.0
        return m @ m.conj().T
    # repeated eigenvalues in a random basis
    u = random_unitary(rng, n)
    return (u * np.repeat([-1.0, 0.5, 2.0], n)[:n]) @ u.conj().T


KERNEL_SIZES = [*range(2, 33), 64]


@pytest.mark.parametrize("kind", ["block_diagonal", "diagonal", "zero_diagonal", "repeated"])
def test_herm_eig_and_op_norm_on_structured_inputs(kind):
    rng = np.random.default_rng(102)
    eps = float(np.finfo(float).eps)
    for n in KERNEL_SIZES:
        h = structured_gram(rng, n, kind)
        h = 0.5 * (h + h.conj().T)
        scale = 1.0 + fro_norm(h)
        ref = np.linalg.eigvalsh(h)
        vals, basis = herm_eig(h)
        recon = basis @ np.diag(vals) @ basis.conj().T - h
        assert fro_norm(recon) <= 1e-9 * scale
        unit = basis.conj().T @ basis - np.eye(n)
        assert fro_norm(unit) <= 1e-10 * n
        assert np.abs(vals - ref).max() <= 1e2 * eps * scale, (kind, n)
        # op_norm solves the Gram matrix h h*, of the same structure, without vectors
        top = np.abs(ref).max()
        assert abs(op_norm(h) - top) <= 1e2 * eps * top, (kind, n)
        if kind == "diagonal":
            assert np.array_equal(vals, np.sort(np.diagonal(h).real))


@pytest.mark.parametrize("corner", [0.0, -0.0])
def test_herm_eig_signed_zero_diagonal(corner):
    # d_q - d_p is +0 or -0: either way the rotation is by a quarter turn
    vals, basis = herm_eig(np.array([[-corner, 1.0], [1.0, corner]]))
    assert np.abs(vals - [-1.0, 1.0]).max() <= 1e-15
    assert fro_norm(basis.conj().T @ basis - np.eye(2)) <= 1e-15


def test_herm_eig_extreme_range():
    # the iteration runs at the power-of-two scale of max|h|: no square
    # overflows to inf or underflows to 0, and no warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for size in (1e200, 1e-300):
            vals = herm_eig(np.array([[0.0, size], [size, 0.0]]))[0]
            assert np.abs(vals - [-size, size]).max() <= 1e-14 * size
        p = np.array([[4.0, 0.1 + 0.1j], [0.1 - 0.1j, 3.0]])
        vals, vecs = np.linalg.eigh(p)
        ref = (vecs * np.sqrt(vals)) @ vecs.conj().T * 1e100
        root = herm_sqrt(p * 1e200)
        assert fro_norm(root - ref) <= 1e-14 * fro_norm(ref)


def test_herm_eig_in_range_up_to_the_float_maximum():
    # the asymmetry test and the average (P + P*)/2 run at the power-of-two
    # scale of max|P|, so neither sum overflows on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = herm_eig(np.diag([1e308, 1e308]))[0]
        assert np.array_equal(vals, [1e308, 1e308])
        with pytest.raises(NotHermitian):
            herm_eig(np.array([[0.0, 1e308], [-1e308, 0.0]]))


def test_norm_beyond_the_float_range_raises_typed_error():
    from opball import OperatorHK, identity_pair, left_defect, operator_dist, symmetry_residual

    big = np.full((2, 2), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: op_norm(big), lambda: gram_factor(big)):
            with pytest.raises(ShapeMismatch, match="float range"):
                call()
        # the norms fit, the Gram eigenvalues 1e320 and 4e320 do not
        t, s = OperatorHK(1e160 * np.eye(2)), OperatorHK(2e160 * np.eye(2))
        with pytest.raises(ShapeMismatch, match="float range"):
            operator_dist(t, s)
        # the factors fit, the products of the left defect do not
        t, s = OperatorHK(1e150 * np.ones((2, 3))), OperatorHK(2e150 * np.ones((2, 3)))
        for call in (lambda: left_defect(t, s), lambda: operator_dist(t, s)):
            with pytest.raises(ShapeMismatch, match="float range"):
                call()
        # finite coordinates, whose antisymmetric part is not
        m = OperatorHK([[0.0, 1.5e308], [-1.5e308, 0.0]])
        with pytest.raises(ShapeMismatch, match="float range"):
            symmetry_residual(m, identity_pair(2))


def test_no_convergence_names_sweeps_and_remaining_mass(monkeypatch):
    # side 3 runs the scalar loop, side 6 the stacked one: one text
    monkeypatch.setattr(opball.matkernel, "_MAX_SWEEPS", 1)
    rng = np.random.default_rng(31)
    for n in (3, 6):
        with pytest.raises(NoConvergence) as info:
            herm_eig(rand_herm(rng, n))
        match = re.fullmatch(
            r"Jacobi iteration did not converge in 1 sweeps: off-diagonal mass "
            r"(\S+) of the matrix norm remains", str(info.value))
        assert match is not None, n
        assert 0.0 < float(match.group(1)) < 1.0


def same_bytes(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def one_pair_herm(rng, n):
    """A Hermitian matrix whose only off-diagonal pair is (0, n - 1): one
    rotation leaves it diagonal, so it converges in exactly one sweep."""
    h = np.diag(rng.standard_normal(n)).astype(complex)
    h[0, n - 1] = complex(rng.standard_normal(), rng.standard_normal())
    h[n - 1, 0] = np.conj(h[0, n - 1])
    return h


def herm_members(rng, n):
    """Stack members of side n: dense, zero (of either sign), diagonal
    (converged at sweep 0), one active pair (converged after one sweep),
    dense at entry scales 1e-300 and 1e300, and for n > 2 block-diagonal
    with exact zero off-diagonal blocks (rounds with no active pair)."""
    members = [rand_herm(rng, n), np.zeros((n, n)), np.full((n, n), -0.0)]
    members.append(np.diag(rng.standard_normal(n)))
    if n > 1:
        members.append(one_pair_herm(rng, n))
    members += [1e-300 * rand_herm(rng, n), 1e300 * rand_herm(rng, n)]
    if n > 2:
        block = np.zeros((n, n), dtype=complex)
        block[:2, :2], block[2:, 2:] = rand_herm(rng, 2), rand_herm(rng, n - 2)
        members.append(block)
    return [m.astype(complex) for m in members]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 16])
def test_stacked_jacobi_is_the_member_loop(n):
    # at even n every index is paired in every round: the rotation of an
    # active member has no identity entry
    from opball.matkernel import _jacobi, _pow2_scaled

    rng = np.random.default_rng(32)
    scaled, _ = _pow2_scaled(np.stack(herm_members(rng, n)))
    stack = 0.5 * (scaled + scaled.conj().swapaxes(1, 2))
    for want_vectors in (True, False):
        vals, vecs = _jacobi(stack, want_vectors)
        for i in range(len(stack)):
            alone_vals, alone_vecs = _jacobi(stack[i : i + 1], want_vectors)
            assert same_bytes(vals[i], alone_vals[0]), (n, i)
            if want_vectors:
                assert same_bytes(vecs[i], alone_vecs[0]), (n, i)
            else:
                assert vecs is None and alone_vecs is None


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16])
def test_scalar_and_stacked_jacobi_agree(n):
    # the scalar loop serves sides 2 and 3, the stacked loop 4 and up; both
    # run any side.  The diagonal member never rotates, so every active
    # stacked round rotates part of the stack; the members converge after 0
    # (diagonal, zero), 1 (one pair) or several sweeps (dense, block)
    from opball.matkernel import _jacobi_scalar, _jacobi_stacked, _pow2_scaled

    eps = float(np.finfo(float).eps)
    rng = np.random.default_rng(36)
    scaled, _ = _pow2_scaled(np.stack(herm_members(rng, n)))
    stack = 0.5 * (scaled + scaled.conj().swapaxes(1, 2))
    solved = [loop(stack, True) for loop in (_jacobi_scalar, _jacobi_stacked)]
    # the eigenvalues do not depend on whether the vectors are kept
    assert same_bytes(_jacobi_stacked(stack, False)[0], solved[1][0])
    for i, member in enumerate(stack):
        bound = 8 * n * eps * np.linalg.norm(member)
        ref = np.linalg.eigvalsh(member)
        ascending = []
        for vals, bases in solved:
            basis = bases[i]
            assert np.linalg.norm(basis.conj().T @ basis - np.eye(n)) <= 8 * n * eps, (n, i)
            recon = (basis * vals[i]) @ basis.conj().T
            assert np.linalg.norm(recon - member) <= bound, (n, i)
            ascending.append(np.sort(vals[i]))
            assert np.abs(ascending[-1] - ref).max() <= bound, (n, i)
        assert np.abs(ascending[0] - ascending[1]).max() <= bound, (n, i)


def _sweeps(monkeypatch, member, want_vectors):
    """The sweeps the stacked loop takes on one member: the fewest
    ``_MAX_SWEEPS`` it converges within."""
    from opball.matkernel import _jacobi_stacked

    for limit in range(1, 43):
        monkeypatch.setattr(opball.matkernel, "_MAX_SWEEPS", limit)
        try:
            _jacobi_stacked(member[None], want_vectors)
            return limit
        except NoConvergence:
            pass
    raise AssertionError("no convergence in 42 sweeps")


def test_stacked_jacobi_sweeps_on_a_repeated_eigenvalue(monkeypatch):
    # I - c G for the Gram matrix G = M M* of a rank-k M: the eigenvalue 1 is
    # repeated n - k times, as in the defect of a rectangular ball point.
    # Zeroing the rotated (p, q) and (q, p) entries each round keeps their
    # roundoff out of the off-diagonal mass: these 288 members take 1079
    # sweeps, and 1151 on a copy of the loop without that zeroing
    rng = np.random.default_rng(60)
    total = 0
    for n in (5, 6, 7, 8):
        for k in (1, 2, 3):
            for want_vectors in (True, False):
                for _ in range(12):
                    m = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
                    g = m @ m.conj().T
                    h = np.eye(n) - (0.9 / np.abs(g).sum()) * g
                    total += _sweeps(monkeypatch, 0.5 * (h + h.conj().T), want_vectors)
    assert total <= 1110


@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (3, 5), (4, 4)])
def test_stacked_gram_factor_and_op_norm_are_the_member_loop(shape):
    rng = np.random.default_rng(34)
    draw = lambda scale: scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    rank_one = np.outer(draw(1.0)[:, 0], draw(1.0)[0])
    # gram eigenvalues of 1e300 entries leave the float range; norms do not
    factored = [
        draw(1.0), np.zeros(shape), np.full(shape, -0.0), rank_one, draw(1e-300), draw(1e150)
    ]
    normed = factored + [draw(1e300)]
    factors = gram_factor(np.stack(factored))
    assert isinstance(factors, tuple) and len(factors) == len(factored)
    for member, factor in zip(factored, factors):
        alone = gram_factor(member)
        assert not factor.mat.flags.writeable and same_bytes(factor.mat, alone.mat)
        assert factor.side == alone.side
        assert same_bytes(factor.eigenvalues, alone.eigenvalues)
        assert same_bytes(factor.basis, alone.basis)
        assert same_bytes(factor.norm, alone.norm)
        assert same_bytes(factor.norm, op_norm(member))
    for stack in (np.stack(normed), np.stack(normed).mT):
        for member, fro in zip(stack, fro_norm(stack), strict=True):
            assert same_bytes(fro, fro_norm(member))
        assert not fro_norm(stack).flags.writeable
    norms = op_norm(normed)
    assert not norms.flags.writeable
    for member, norm in zip(normed, norms):
        assert same_bytes(norm, op_norm(member))
    # a list of one matrix is a stack of one
    assert same_bytes(op_norm([normed[0]]), [op_norm(normed[0])])
    assert same_bytes(op_norm(np.zeros((3,) + shape)), np.zeros(3))


def _point_pair(shape):
    return BallPoint(np.full(shape, 0.1)), BallPoint(np.full(shape, 0.2))


def _operator_pair(shape):
    return OperatorHK(np.ones(shape)), OperatorHK(np.full(shape, 2.0))


# stacked entry point -> a call whose members differ in shape, and the shapes
MIXED_STACKS = {
    "op_norm": (lambda: op_norm([np.eye(2), np.eye(3)]), "(2, 2), (3, 3)"),
    "gram_factor": (
        lambda: gram_factor([np.eye(2), np.ones((2, 3)), np.eye(2)]), "(2, 2), (2, 3)"
    ),
    "ball_dists": (
        lambda: ball_dists([_point_pair((2, 2)), _point_pair((3, 1))]), "(2, 2), (3, 1)"
    ),
    "operator_dists": (
        lambda: operator_dists([_operator_pair((2, 2)), _operator_pair((3, 1))]), "(2, 2), (3, 1)"
    ),
    "left_defects": (
        lambda: left_defects([_operator_pair((2, 2)), _operator_pair((3, 1))]), "(2, 2), (3, 1)"
    ),
    "lifts": (lambda: lifts([_point_pair((2, 2)), _point_pair((3, 1))]), "(2, 2), (3, 1)"),
    "powers": (
        lambda: powers(gram_factor([np.eye(2), np.eye(2)]) + (gram_factor(np.ones((2, 3))),),
                       1.0, 0.5, "left"),
        "(2, 2), (2, 3)",
    ),
    "defects": (
        lambda: defects([*_point_pair((2, 2)), *_point_pair((3, 1))], 0.5, "left"),
        "(2, 2), (3, 1)",
    ),
    "inverse_bounded_transforms": (
        lambda: inverse_bounded_transforms([*_point_pair((2, 2)), *_point_pair((3, 1))]),
        "(2, 2), (3, 1)",
    ),
    "transport": (
        lambda: transport(gram_factor([np.eye(2), np.eye(2)]), [np.eye(2), np.ones((2, 3))],
                          lambda x: x, flip=False),
        "(2, 2), (2, 3)",
    ),
    "extension_blocks": (
        lambda: extension_blocks([np.eye(2), np.ones((2, 3)), np.eye(2)], identity_pair(2)),
        "(2, 2), (2, 3)",
    ),
    # two BWD_FWD frames of different shapes whose 3x3 coordinates would stack
    "symmetry_residuals": (
        lambda: symmetry_residuals([
            (OperatorHK(np.ones((5, 3))), random_pair(3, 5, 1)),
            (OperatorHK(np.ones((4, 3))), random_pair(3, 4, 2)),
        ]),
        "(5, 3), (4, 3)",
    ),
}


@pytest.mark.parametrize("entry", sorted(MIXED_STACKS))
def test_a_stack_of_mixed_shapes_names_them(entry):
    call, shapes = MIXED_STACKS[entry]
    with pytest.raises(ShapeMismatch) as info:
        call()
    assert str(info.value) == f"stack members differ in shape: {shapes}"


# stacked entry point -> a call with no members
EMPTY_STACKS = {
    "ball_dists": lambda: ball_dists([]),
    "operator_dists": lambda: operator_dists([]),
    "lifts": lambda: lifts([]),
    "left_defects": lambda: left_defects([]),
    "defects": lambda: defects([], 0.5, "left"),
    "powers": lambda: powers([], 1.0, 0.5, "left"),
    "inverse_bounded_transforms": lambda: inverse_bounded_transforms([]),
    "induced_pairs": lambda: induced_pairs([], identity_pair(2)),
    "mobius_images": lambda: mobius_images(BallPoint(np.zeros((2, 2))), []),
    "gram_factor": lambda: gram_factor([]),
    "op_norm": lambda: op_norm([]),
    "fro_norm": lambda: fro_norm([]),
    "operators": lambda: operators([]),
    "transport": lambda: transport([], [], lambda x: x, flip=False),
    "extension_blocks": lambda: extension_blocks([], identity_pair(2)),
    "symmetry_residuals": lambda: symmetry_residuals([]),
}


@pytest.mark.parametrize("entry", sorted(EMPTY_STACKS))
def test_an_empty_stack_is_refused(entry):
    with pytest.raises(ShapeMismatch) as info:
        EMPTY_STACKS[entry]()
    assert str(info.value) == "stack is empty: need at least one member"


def _one_shot(members):
    return (member for member in members)


def _two_operators():
    return [
        (OperatorHK(np.arange(6.0).reshape(3, 2)), random_pair(2, 3, 1)),
        (OperatorHK(np.ones((3, 2))), random_pair(2, 3, 2)),
    ]


# batched form -> its call on a batch of records passed through `batch`,
# `list` or `_one_shot`
ONE_SHOT_BATCHES = {
    "ball_dists": lambda batch: ball_dists(batch([_point_pair((2, 3)), _point_pair((2, 3))[::-1]])),
    "operator_dists": lambda batch: operator_dists(
        batch([_operator_pair((3, 2)), _operator_pair((3, 2))[::-1]])),
    "lifts": lambda batch: lifts(batch([_point_pair((2, 3)), _point_pair((2, 3))[::-1]])),
    "left_defects": lambda batch: left_defects(
        batch([_operator_pair((3, 2)), _operator_pair((3, 2))[::-1]])),
    "symmetry_residuals": lambda batch: symmetry_residuals(batch(_two_operators())),
    "defects": lambda batch: defects(batch(_point_pair((2, 3))), -0.5, "left"),
    "inverse_bounded_transforms": lambda batch: inverse_bounded_transforms(
        batch(_point_pair((2, 3)))),
    "induced_pairs": lambda batch: induced_pairs(batch(_point_pair((2, 2))), identity_pair(2)),
    "powers": lambda batch: powers(
        batch(gram_factor([np.eye(2), np.ones((2, 2))])), 1.0, -0.5, "right"),
    "transport": lambda batch: transport(
        batch(gram_factor([np.eye(2), np.ones((2, 2))])), [2.0 * np.eye(2), 2.0 * np.ones((2, 2))],
        lambda x: 4.0 * x, flip=False),
}


def _held(result) -> list:
    """The arrays, numbers and names a batched form's result holds, in order."""
    if isinstance(result, (list, tuple)):
        return [x for item in result for x in _held(item)]
    if isinstance(result, GramFactor):
        return [result.mat, result.side, result.eigenvalues, result.basis, result.norm]
    if isinstance(result, OperatorHK):
        return [result.mat]
    if isinstance(result, ConjugationPair):
        return [result.j_fwd, result.side.value]
    return [result]


@pytest.mark.parametrize("entry", sorted(ONE_SHOT_BATCHES))
def test_a_one_shot_batch_is_read_once(entry):
    # a zip or a generator is read once: the same bytes as the list
    once = _held(ONE_SHOT_BATCHES[entry](_one_shot))
    listed = _held(ONE_SHOT_BATCHES[entry](list))
    assert len(once) == len(listed)
    for x, y in zip(once, listed):
        assert same_bytes(x, y), entry


def test_a_malformed_stack_member_is_a_shape_mismatch():
    for stack in ([np.eye(2), "ab"], [[[1.0, "a"]], [[1.0, 2.0]]], [[1.0, 2.0], [3.0]]):
        with pytest.raises(ShapeMismatch, match="not a complex matrix or stack of matrices"):
            op_norm(stack)


MALFORMED_MATRICES = {
    "ragged-rows": [[1, 2], [3]],
    "ragged-member": [np.eye(2), [[1, 2], [3]]],
    "string-entry": [["a"]],
    "dict": {"a": 1},
    "object-entry": [[object()]],
    "stack-of-shapes": [[[1, 2]], [[1, 2], [3, 4]]],
    "integer-past-float-range": [[10**400]],
    "none": None,
    "vector": [1.0, 2.0],
    "scalar": 3.0,
    "4-d": np.zeros((1, 1, 2, 2)),
    # numpy reads no iterator as an array, so a matrix is never one
    "iterator": iter([np.eye(2)]),
}


@pytest.mark.parametrize("entry", [as_cmat, op_norm, fro_norm, BallPoint, OperatorHK])
@pytest.mark.parametrize("value", MALFORMED_MATRICES.values(), ids=MALFORMED_MATRICES)
def test_malformed_matrix_input_is_a_shape_mismatch(entry, value):
    # every entry reads a matrix through as_cmat / as_cstack, the one converter
    with pytest.raises(ShapeMismatch):
        entry(value)


def test_no_convergence_names_the_member_left(monkeypatch):
    # a Hermitian M has the Gram matrix M M* = M^2, of the same pattern:
    # diagonal, one active pair, dense; side 3 runs the scalar loop, side 4
    # the stacked one
    monkeypatch.setattr(opball.matkernel, "_MAX_SWEEPS", 1)
    rng = np.random.default_rng(35)
    for n in (3, 4):
        diagonal = np.diag([0.5, -0.25, 0.75, 0.125][:n]).astype(complex)
        one_pair = one_pair_herm(rng, n)
        dense = rand_herm(rng, n)
        messages = []
        for solve in (gram_factor, op_norm):
            solve(np.stack([diagonal, one_pair]))  # converged in 0 and 1 sweeps
            with pytest.raises(NoConvergence) as alone:
                solve(dense)
            messages.append(str(alone.value))
            for members, where in (([diagonal, one_pair, dense], 2), ([dense, diagonal], 0)):
                with pytest.raises(NoConvergence) as info:
                    solve(np.stack(members))
                member = f" (stack member {where} of {len(members)})"
                assert str(info.value) == str(alone.value) + member
        assert messages[0] == messages[1]  # one solve route, one message
        match = re.fullmatch(
            r"Jacobi iteration did not converge in 1 sweeps: off-diagonal mass "
            r"(\S+) of the matrix norm remains", str(alone.value))
        assert match is not None and 0.0 < float(match.group(1)) < 1.0, n


def test_gram_power_repeats_its_bytes_and_a_floor_hit_raises_every_time():
    factor = gram_factor(np.diag([1.0 - 1e-15, 0.5]))
    first = powers((factor,), -1.0, 0.5, "left")[0]
    assert same_bytes(powers((factor,), -1.0, 0.5, "left")[0], first)
    assert not first.flags.writeable
    # the factor is its solve and nothing else: it keeps no powers
    names = [f.name for f in dataclasses.fields(factor)]
    assert names == ["mat", "side", "eigenvalues", "basis", "norm"]
    for _ in range(2):
        with pytest.raises(EigenvalueBelowFloor):
            powers((factor,), -1.0, -0.5, "left")


def test_herm_eig_rejects_asymmetric():
    with pytest.raises(NotHermitian):
        herm_eig(np.array([[1.0, 2.0], [0.5, 1.0]]))


def test_herm_eig_shape_guard():
    with pytest.raises(ShapeMismatch):
        herm_eig(np.zeros((2, 3)))


def test_herm_eig_takes_one_matrix():
    with pytest.raises(ShapeMismatch, match="expected a 2-D matrix, got ndim=3"):
        herm_eig(np.stack([np.eye(2), np.eye(2)]))


def test_herm_fun_sqrt_examples():
    assert np.allclose(herm_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    assert np.allclose(herm_inv_sqrt(np.eye(3)), np.eye(3))
    p = np.array([[2.0, 1.0], [1.0, 2.0]])
    root = herm_sqrt(p)
    assert fro_norm(root @ root - p) <= 1e-10


def test_herm_fun_random_roundtrips():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        h = rand_herm(rng, n)
        p = h @ h.conj().T + 0.1 * np.eye(n)  # positive definite
        root = herm_sqrt(p)
        assert fro_norm(root @ root - p) <= 1e-9 * (1 + fro_norm(p))
        inv_root = herm_inv_sqrt(p)
        assert fro_norm(inv_root @ root - np.eye(n)) <= 1e-9


def test_herm_fun_floor_reports_offender():
    with pytest.raises(EigenvalueBelowFloor) as info:
        herm_inv_sqrt(np.diag([1.0, 1e-14]))
    assert info.value.eigenvalue == pytest.approx(1e-14)
    assert info.value.floor == 1e-13


def test_herm_sqrt_refuses_an_indefinite_input():
    # the floor is -n eps max|lambda|: a real negative eigenvalue raises,
    # the roundoff negative of a zero eigenvalue is clipped
    with pytest.raises(EigenvalueBelowFloor) as info:
        herm_sqrt(np.diag([-1.0, 4.0]))
    assert info.value.eigenvalue == -1.0
    assert info.value.floor == -2 * 4.0 * np.finfo(float).eps
    assert str(info.value) == "eigenvalue -1.000000e+00 below floor -1.776357e-15"
    ones = np.ones((3, 3))
    root = herm_sqrt(ones)
    assert fro_norm(root @ root - ones) <= 1e-14
    assert np.array_equal(herm_sqrt(np.zeros((2, 2))), np.zeros((2, 2)))


def test_op_norm_examples():
    assert op_norm(np.eye(4)) == pytest.approx(1.0)
    assert op_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)
    assert op_norm(np.zeros((3, 2))) == 0.0


def test_op_norm_against_svd_and_unitary_invariance():
    rng = np.random.default_rng(55)
    for _ in range(60):
        p, q = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        a = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        ref = np.linalg.svd(a, compute_uv=False)[0]
        assert op_norm(a) == pytest.approx(ref, abs=1e-12 * (1 + ref))
        assert op_norm(a.conj().T) == pytest.approx(op_norm(a), abs=1e-12 * (1 + ref))
        # unitaries from our own eigenbases
        u = herm_eig(rand_herm(rng, p))[1]
        v = herm_eig(rand_herm(rng, q))[1]
        assert abs(op_norm(u @ a @ v) - op_norm(a)) <= 1e-10 * (1 + ref)


def test_op_norm_extreme_range():
    # the Gram matrix squares the entries; scaling first keeps them in range
    assert op_norm([[1e-200]]) == 1e-200
    assert op_norm([[1e160]]) == 1e160
    rng = np.random.default_rng(56)
    a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    ref = np.linalg.svd(a, compute_uv=False)[0]
    for scale in (1e-300, 1e-200, 1e200, 1e300):
        assert op_norm(a * scale) == pytest.approx(ref * scale, rel=1e-12)


# tall, wide, square, 1 x n and n x 1; the last two have zero rows, so one
# Gram matrix is singular and the other is rank deficient
GRAM_SHAPES = [(3, 5), (5, 3), (4, 4), (1, 6), (6, 1), (5, 3, "zero rows"), (3, 5, "zero rows")]


def gram_operand(rng, shape, norm):
    rows, cols = shape[:2]
    m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    if len(shape) > 2:
        m[1:3] = 0.0
    return m * (norm / op_norm(m))


def gram_reference(m, sign, power, side):
    """The same power through herm_sqrt or herm_inv_sqrt on the explicitly
    formed I + sign G; herm_inv_sqrt checks the 1e-13 defect floor."""
    g = m @ m.conj().T if side == "left" else m.conj().T @ m
    big = np.eye(g.shape[0]) + sign * g
    return herm_sqrt(big) if power > 0 else herm_inv_sqrt(big)


@pytest.mark.parametrize("shape", GRAM_SHAPES)
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("power", [0.5, -0.5])
def test_gram_power_matches_explicit_route(shape, side, sign, power):
    rng = np.random.default_rng(57)
    eps = float(np.finfo(float).eps)
    norms = [1.0 - margin for margin in (0.5, 1e-2, 1e-6, 1e-10)]
    if sign > 0:
        norms += [10.0, 1e3]
    elif power > 0:
        norms += [1.5]  # not a contraction: floor 0.0 refuses 1 - x < 0
    for norm in norms:
        m = gram_operand(rng, shape, norm)
        if norm > 1.0 and sign < 0:
            with pytest.raises(EigenvalueBelowFloor) as hit:
                powers((gram_factor(m),), sign, power, side)
            assert hit.value.eigenvalue == pytest.approx(1.0 - norm**2)
            assert hit.value.floor == 0.0
            continue
        ref = gram_reference(m, sign, power, side)
        got = powers((gram_factor(m),), sign, power, side)[0]
        assert got.shape == ref.shape
        # forward error of the spectral function: roundoff in an eigenvalue
        # of size eps (1 + ||G||), amplified by 1 / (smallest eigenvalue)
        lowest = abs(1.0 - norm**2) if sign < 0 else 1.0
        bound = 1e2 * eps * (1.0 + norm**2) / lowest * max(1.0, op_norm(ref))
        assert op_norm(got - ref) <= bound


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e20, 1e150])
def test_gram_spectrum_is_nonnegative_where_it_is_solved(scale):
    # the zero eigenvalues of rank-deficient operands solve as roundoff of
    # either sign (ones(2x3) at 1e150 gave -3.9e267); the factor holds them
    # at 0, and its norm is still op_norm's
    rng = np.random.default_rng(60)
    u, v = rng.standard_normal((5, 1)), rng.standard_normal((1, 3))
    for m in (np.ones((2, 3)), np.ones((3, 2)), np.ones((4, 4)), u @ v, (u @ v).T):
        f = gram_factor(scale * m)
        assert (f.eigenvalues >= 0.0).all()
        assert f.norm == op_norm(scale * m)


def test_transport_needs_one_matrix_per_factor():
    f = gram_factor(np.eye(2))
    with pytest.raises(ShapeMismatch, match="2 matrices for 1 factors"):
        transport((f,), np.stack([np.eye(2)] * 2), lambda x: x, flip=False)


def floor_outcome(fn):
    try:
        fn()
    except EigenvalueBelowFloor as exc:
        return exc.eigenvalue
    return None


@pytest.mark.parametrize("shape", GRAM_SHAPES)
@pytest.mark.parametrize("side", ["left", "right"])
def test_gram_power_floor_matches_explicit_route(shape, side):
    # only the inverse square root of a defect has a floor
    rng = np.random.default_rng(58)
    for norm in (1.0 - 1e-10, 1.0 - 1e-15, 1.0, 1.5):
        m = gram_operand(rng, shape, norm)
        ref = floor_outcome(lambda: gram_reference(m, -1.0, -0.5, side))
        got = floor_outcome(lambda: powers((gram_factor(m),), -1.0, -0.5, side))
        assert (got is None) == (ref is None) == (norm == 1.0 - 1e-10)
        if ref is not None:
            assert got == pytest.approx(ref, abs=1e-14)


def test_gram_power_rejects_unsupported_arguments():
    factor = gram_factor(np.eye(2))
    point = BallPoint(0.5 * np.eye(2))
    calls = {
        "sign=1.0, power=1.0, side='left'": lambda: powers((factor,), 1.0, 1.0, "left"),
        "sign=1.0, power=0.5, side='up'": lambda: powers((factor,), 1.0, 0.5, "up"),
        "sign=-1.0, power=0.3, side='left'": lambda: point.defect(0.3, "left"),
        "sign=-1.0, power=0.5, side='up'": lambda: point.defect(0.5, "up"),
        "sign=-1.0, power=0.5, side=['left']": lambda: point.defect(0.5, ["left"]),
        # an array compares elementwise: it is refused, not read as its entries
        "sign=-1.0, power=0.5, side=array(['left'], dtype='<U4')":
            lambda: point.defect(0.5, np.array(["left"])),
        "sign=-1.0, power=0.5, side=array(['left', 'right'], dtype='<U5')":
            lambda: point.defect(0.5, np.array(["left", "right"])),
        "sign=array([ 1., -1.]), power=0.5, side='left'":
            lambda: powers((factor,), np.array([1.0, -1.0]), 0.5, "left"),
        "sign=1.0, power=array([ 0.5, -0.5]), side='left'":
            lambda: powers((factor,), 1.0, np.array([0.5, -0.5]), "left"),
        # a defect's power is checked before it is read, and a string reads
        # as a string, not as the number it spells
        "sign=-1.0, power=array([ 0.5, -0.5]), side='left'":
            lambda: point.defect(np.array([0.5, -0.5]), "left"),
        "sign=-1.0, power='-0.5', side='left'": lambda: point.defect("-0.5", "left"),
        "sign=-1.0, power=None, side='left'": lambda: point.defect(None, "left"),
        # a refused call near the sphere raises before it warns
        "sign=-1.0, power=-0.5, side='up'":
            lambda: BallPoint([[1 - 1e-10]]).defect(-0.5, "up"),
    }
    for args, call in calls.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error", NearBoundaryWarning)
            with pytest.raises(ShapeMismatch) as info:
                call()
        assert str(info.value) == f"unsupported Gram power {args}"
    # a collapsed margin still warns once, then raises Singular
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(Singular, match="margin too small"):
            BallPoint([[1 - 5e-14]]).defect(-0.5, "left")
    assert [w.category for w in caught] == [NearBoundaryWarning]


@pytest.mark.parametrize("shape", [(1, 1), (4, 2), (2, 4)])
def test_mobius_singular_exactly_where_the_explicit_defect_is(shape):
    rng = np.random.default_rng(59)
    z = BallPoint(0.1 * gram_operand(rng, shape, 1.0))
    for margin in (1e-10, 1e-15):
        a = BallPoint(gram_operand(rng, shape, 1.0 - margin))
        big = np.eye(shape[0]) - a.mat @ a.mat.conj().T
        explicit = floor_outcome(lambda: herm_inv_sqrt(big))
        for move in (mobius, mobius_inv):
            with pytest.warns(NearBoundaryWarning):
                if explicit is None:
                    move(a, z)
                else:
                    with pytest.raises(Singular):
                        move(a, z)
        assert (explicit is None) == (margin == 1e-10)


def test_inverse_examples():
    assert np.allclose(inverse(np.eye(3)), np.eye(3))
    assert np.allclose(inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))


def test_inverse_random_residual():
    rng = np.random.default_rng(9)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 2 * np.eye(n)
        res = a @ inverse(a) - np.eye(n)
        assert fro_norm(res) <= 1e-9
        assert np.allclose(inverse(a), np.linalg.inv(a), atol=1e-9)


def test_inverse_singular():
    with pytest.raises(Singular):
        inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(Singular):
        inverse(np.zeros((2, 2)))
    with pytest.raises(ShapeMismatch):
        inverse(np.zeros((2, 3)))


def test_results_are_read_only():
    vals, basis = herm_eig(np.eye(3))
    with pytest.raises(ValueError):
        vals[0] = 5.0
    with pytest.raises(ValueError):
        basis[0, 0] = 5.0
    with pytest.raises(ValueError):
        inverse(np.eye(2))[0, 0] = 3.0
