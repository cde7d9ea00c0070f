"""Conjugation pairs, symmetry residuals, extensions, induced pairs."""

import re

import numpy as np
import pytest

from opball import (
    DEFAULT,
    BadDims,
    BallPoint,
    ConjugationPair,
    NotSymmetric,
    OperatorHK,
    OutOfBall,
    ShapeMismatch,
    Side,
    Singular,
    adj,
    canonical_pair,
    conj_apply,
    double_pair,
    herm_inv_sqrt,
    identity_pair,
    induced_operator,
    induced_pair,
    inverse_bounded_transform,
    op_norm,
    pair_residual,
    random_pair,
    symmetric_extension,
    symmetric_part,
    symmetry_residual,
    swap_roles,
)
from opball.sampling import complex_gaussian, random_operator, random_symmetric_ball_point
from opball.symmetry import _orthonormal_columns, induced_pairs


def test_canonical_pair_examples():
    sq = canonical_pair(2, 2)
    assert np.array_equal(sq.j_fwd, np.eye(2))
    assert np.array_equal(sq.j_bwd, np.eye(2))
    rect = canonical_pair(2, 3)
    assert np.array_equal(rect.j_fwd, np.array([[1, 0], [0, 1], [0, 0]], dtype=complex))
    tall = canonical_pair(1, 4)
    assert np.array_equal(tall.j_fwd[:, 0], np.array([1, 0, 0, 0], dtype=complex))
    assert pair_residual(rect) <= 1e-15


def test_every_constructor_derives_j_bwd_from_j_fwd(tmp_path):
    from opball.matio import read_pair, write_pair

    rng = np.random.default_rng(40)
    tall, wide = random_pair(2, 5, rng), random_pair(5, 2, rng)
    assert (tall.side, wide.side) == (Side.BWD_FWD, Side.FWD_BWD)
    pairs = [canonical_pair(2, 4), tall, wide, double_pair(tall), double_pair(wide)]
    pairs += [swap_roles(tall), swap_roles(wide)]
    for pair in (tall, wide):
        pairs.append(induced_pair(random_symmetric_ball_point(rng, pair), pair))
    for i, pair in enumerate(list(pairs)):
        path = tmp_path / f"pair{i}.json"
        write_pair(path, pair)
        pairs.append(read_pair(path))
    for pair in pairs:
        assert np.array_equal(pair.j_bwd, pair.j_fwd.T)
        assert not pair.j_bwd.flags.writeable
        assert pair_residual(pair) <= 1e-8


def test_two_matrix_call_and_untyped_side_are_refused():
    # neither may be read silently as a pair of some side
    fwd = np.eye(3)
    with pytest.raises(TypeError):
        ConjugationPair(fwd, fwd.T, Side.BWD_FWD)
    for side in (fwd.T, "fwd_bwd", None):
        with pytest.raises(ShapeMismatch, match="side must be a Side"):
            ConjugationPair(fwd, side)
    # the gate's tolerance is DEFAULT.pair_residual, not an argument
    with pytest.raises(TypeError):
        ConjugationPair(fwd, Side.FWD_BWD, check_tol=1e-12)
    assert ConjugationPair(fwd, Side.FWD_BWD).side is Side.FWD_BWD


def test_canonical_pair_bad_dims():
    with pytest.raises(BadDims):
        canonical_pair(3, 2)
    with pytest.raises(BadDims):
        canonical_pair(0, 1)


def test_random_pair_invariants():
    rng = np.random.default_rng(41)
    for _ in range(40):
        p, q = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        pair = random_pair(p, q, rng)
        assert pair_residual(pair) <= 1e-10
        expected = Side.BWD_FWD if p <= q else Side.FWD_BWD
        assert pair.side is expected


def test_random_pair_square_is_unitary():
    pair = random_pair(4, 4, seed=3)
    u = pair.j_fwd
    assert op_norm(adj(u) @ u - np.eye(4)) <= 1e-12
    assert np.array_equal(pair.j_bwd, pair.j_fwd.T)


def test_random_pair_scalar_is_phase():
    pair = random_pair(1, 1, seed=12)
    assert abs(abs(pair.j_fwd[0, 0]) - 1.0) <= 1e-12
    assert pair_residual(pair) <= 1e-14


def test_random_pair_deterministic():
    a = random_pair(3, 5, seed=77)
    b = random_pair(3, 5, seed=77)
    assert np.array_equal(a.j_fwd, b.j_fwd)


def test_random_pair_refuses_what_it_cannot_draw():
    for dims in ((0, 3), (3, 0)):
        with pytest.raises(BadDims, match=r"^dimensions must be positive"):
            random_pair(*dims, seed=1)
    for seed in (-1, np.int64(-1)):
        with pytest.raises(BadDims, match=r"^need seed >= 0$"):
            random_pair(2, 3, seed)
    # a Generator or a SeedSequence is not an integer and is taken as is
    rng, seq = np.random.default_rng(5), np.random.SeedSequence(5)
    assert np.array_equal(random_pair(2, 3, rng).j_fwd, random_pair(2, 3, seq).j_fwd)


@pytest.mark.parametrize("seed", [1.5, "2", np.bool_(True), [1.5]])
def test_random_pair_refuses_a_seed_numpy_cannot_take(seed):
    with pytest.raises(BadDims, match=r"is not a numpy\.random seed$"):
        random_pair(2, 3, seed)


def test_random_pair_refuses_a_negative_entry_of_a_seed_sequence():
    with pytest.raises(BadDims, match=r"^need seed >= 0$"):
        random_pair(2, 3, [1, -1])


def test_a_near_dependent_draw_gives_a_frame_the_constructor_accepts():
    # the second Gram-Schmidt pass recovers a column that repeats another up
    # to roundoff, or exactly; the pair's constructor is the frame's one gate
    rng = np.random.default_rng(35)
    g = complex_gaussian(rng, 5, 3)
    for noise in (1e-14, 0.0):
        g[:, 2] = g[:, 0] + noise * complex_gaussian(rng, 5, 1)[:, 0]
        pair = ConjugationPair(_orthonormal_columns(g), Side.BWD_FWD)
        assert pair_residual(pair) <= 1e-14


def test_conj_apply():
    pair = identity_pair(2)
    out = conj_apply(pair, "fwd", np.array([1j, 1.0]))
    assert np.allclose(out, [-1j, 1.0])
    # a column is read as the vector it holds; NaN or inf entries are refused
    assert np.array_equal(conj_apply(pair, "fwd", [[1j], [1.0]]), out)
    for bad in ([np.nan, 1.0], [1.0, complex(0.0, np.inf)], [[np.nan], [1.0]]):
        with pytest.raises(ShapeMismatch, match="vector entries must be finite"):
            conj_apply(pair, "fwd", bad)
    # a matrix is not read as the vector of its entries, nor is a row, a
    # stack or a scalar
    for bad in ([[1, 2], [3, 4]], [[1j, 1.0]], np.ones((2, 1, 1)), 1.0):
        text = f"expected a vector or a column, got shape {np.shape(bad)}"
        with pytest.raises(ShapeMismatch, match=re.escape(text)):
            conj_apply(identity_pair(4), "fwd", bad)
    rect = canonical_pair(1, 2)
    assert np.allclose(conj_apply(rect, "fwd", [2.0 + 1j]), [2.0 - 1j, 0.0])
    # conjugate linearity
    rng = np.random.default_rng(5)
    pair = random_pair(3, 4, rng)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    lam = 0.7 - 0.2j
    assert np.allclose(
        conj_apply(pair, "fwd", lam * x), np.conj(lam) * conj_apply(pair, "fwd", x)
    )
    # bwd . fwd is the identity on the source for BWD_FWD pairs
    assert np.allclose(conj_apply(pair, "bwd", conj_apply(pair, "fwd", x)), x)
    # an unknown direction or a vector of the wrong length is refused
    rect = canonical_pair(2, 3)
    with pytest.raises(ShapeMismatch, match="direction must be 'fwd' or 'bwd', got 'up'"):
        conj_apply(rect, "up", [1, 2])
    # an array is not a direction, whatever strings it holds
    for direction in (np.array(["fwd"]), np.array(["bwd"]), np.array(["fwd", "bwd"])):
        with pytest.raises(ShapeMismatch, match="direction must be 'fwd' or 'bwd', got array"):
            conj_apply(rect, direction, [1, 2])
    with pytest.raises(ShapeMismatch, match="vector length 3, expected 2"):
        conj_apply(rect, "fwd", [1, 2, 3])


# vector -> the exception numpy raises reading it as a complex array
UNREADABLE_VECTORS = {
    "a string": ("ab", "complex() arg is a malformed string"),
    "a string entry": (["1", "x"], "complex() arg is a malformed string"),
    "an int past the float range": ([10**400, 1], "int too large to convert to float"),
    "ragged rows": ([[1], [2, 3]], "inhomogeneous shape"),
    "a dict": ({"a": 1}, "not dict"),
    "an object entry": ([object(), 1], "not object"),
}


@pytest.mark.parametrize("name", UNREADABLE_VECTORS)
def test_conj_apply_refuses_what_numpy_cannot_read_quoting_numpy(name):
    vec, reason = UNREADABLE_VECTORS[name]
    with pytest.raises(ShapeMismatch, match=r"^not a complex vector: ") as info:
        conj_apply(random_pair(2, 3, 0), "fwd", vec)
    assert reason in str(info.value)


def test_symmetry_residual_square_complex_symmetric():
    t = OperatorHK(np.array([[1.0, 2.0j], [2.0j, 3.0]]))
    assert symmetry_residual(t, identity_pair(2)) <= 1e-15


def test_symmetry_residual_block_examples():
    good = OperatorHK(np.array([[1.0, 2.0], [2.0, 3.0], [0.5, 0.7]]))
    assert symmetry_residual(good, canonical_pair(2, 3)) <= 1e-15
    bad_block = np.array([[1.0, 2.0], [3.0, 4.0]])
    bad = OperatorHK(np.vstack([bad_block, [[0.5, 0.7]]]))
    res = symmetry_residual(bad, canonical_pair(2, 3))
    assert res > 0.5
    assert res == pytest.approx(op_norm(bad_block - bad_block.T), abs=1e-12)


def test_block_characterization_both_directions():
    # residual <= 1e-10 iff the leading block is symmetric to 1e-9
    rng = np.random.default_rng(42)
    for trial in range(60):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 8))
        g = complex_gaussian(rng, n, m, 2.0)
        if trial % 2 == 0:
            g[:m, :m] = 0.5 * (g[:m, :m] + g[:m, :m].T)
        res = symmetry_residual(OperatorHK(g), canonical_pair(m, n))
        block_gap = op_norm(g[:m, :m] - g[:m, :m].T)
        assert (res <= 1e-10) == (block_gap <= 1e-9)
        assert abs(res - block_gap) <= 1e-10 * (1.0 + op_norm(g))


def test_symmetric_part_projects():
    rng = np.random.default_rng(43)
    pair = random_pair(3, 5, rng)
    g = complex_gaussian(rng, 5, 3, 2.0)
    sym = symmetric_part(g, pair)
    assert symmetry_residual(OperatorHK(sym), pair) <= 1e-12


def test_symmetric_part_of_entries_near_the_float_maximum(recwarn):
    sym = symmetric_part(1.5e308 * np.ones((3, 2)), canonical_pair(2, 3))
    assert np.isfinite(sym).all()
    assert np.array_equal(sym[:2], sym[:2].T)
    assert len(recwarn) == 0


def test_symmetric_extension_scalar():
    ext, big = symmetric_extension(OperatorHK(np.array([[0.5 + 0.25j]])), identity_pair(1))
    assert np.allclose(ext.mat, np.diag([0.5 + 0.25j, 0.5 + 0.25j]))
    assert symmetry_residual(ext, big) <= 1e-15


def test_symmetric_extension_zero():
    rng = np.random.default_rng(44)
    pair = random_pair(3, 2, rng)
    ext, big = symmetric_extension(OperatorHK(np.zeros((2, 3))), pair)
    assert np.array_equal(ext.mat, np.zeros((4, 6)))
    assert symmetry_residual(ext, big) <= 1e-15


def test_symmetric_extension_arbitrary_input():
    rng = np.random.default_rng(45)
    for _ in range(30):
        p, q = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        t = random_operator(rng, p, q, 10 ** rng.uniform(-1, 2))
        pair = random_pair(p, q, rng)
        ext, big = symmetric_extension(t, pair)
        assert np.array_equal(ext.mat[:q, :p], t.mat)  # leading block exact
        assert symmetry_residual(ext, big) <= 1e-10
        assert big.side is pair.side


def test_induced_pair_scalar_identity():
    for a in (0.2, 0.5, 0.9):
        out = induced_pair(BallPoint(np.array([[a]])), identity_pair(1))
        assert out.j_fwd[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert out.side is Side.FWD_BWD


def test_induced_pair_zero_swaps_roles():
    rng = np.random.default_rng(46)
    pair = random_pair(2, 5, rng)  # K -> H with identity composition on K
    out = induced_pair(BallPoint(np.zeros((5, 2))), pair)
    assert np.allclose(out.j_fwd, pair.j_bwd)
    assert np.allclose(out.j_bwd, pair.j_fwd)
    assert out.side is Side.FWD_BWD


def test_induced_pair_random_ensemble():
    rng = np.random.default_rng(47)
    for _ in range(30):
        p, q = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        q = min(q, p)
        pair = random_pair(q, p, rng)
        a = random_symmetric_ball_point(rng, pair, margin_min=0.2)
        out = induced_pair(a, pair)
        assert pair_residual(out) <= 1e-8
        # isometry lives on the identity-composition side (K): the backward
        # map is isometric, the forward one contractive (strictly when q < p)
        for _ in range(5):
            x = rng.standard_normal(p) + 1j * rng.standard_normal(p)
            fx = conj_apply(out, "fwd", x)
            assert np.linalg.norm(fx) <= np.linalg.norm(x) + 1e-9
            y = rng.standard_normal(q) + 1j * rng.standard_normal(q)
            by = conj_apply(out, "bwd", y)
            assert abs(np.linalg.norm(by) - np.linalg.norm(y)) <= 1e-9 * np.linalg.norm(y)


def test_induced_pair_mirrored_branch():
    # reversed orientation: identity composition on H
    rng = np.random.default_rng(48)
    for _ in range(20):
        p = int(rng.integers(1, 5))
        q = int(rng.integers(p, 7))  # source K at least as large as H
        pair = random_pair(q, p, rng)
        assert pair.side is Side.FWD_BWD or p == q
        if pair.side is not Side.FWD_BWD:
            pair = ConjugationPair(pair.j_fwd, Side.FWD_BWD)
        a = random_symmetric_ball_point(rng, pair, margin_min=0.2)
        out = induced_pair(a, pair)
        assert out.side is Side.BWD_FWD
        assert pair_residual(out) <= 1e-8
        t, out2 = induced_operator(a, pair)
        assert symmetry_residual(t, out2) <= 1e-8


@pytest.mark.parametrize("side", [Side.BWD_FWD, Side.FWD_BWD])
def test_induced_pairs_store_what_the_constructor_stores(side):
    # the stacked isometry gate builds no pair through the constructor: each
    # j_fwd must still be the read-only C-ordered array it would store
    rng = np.random.default_rng(53)
    for _ in range(10):
        p = int(rng.integers(1, 5))
        q = int(rng.integers(p, 7))
        pair = random_pair(p, q, rng) if side is Side.BWD_FWD else random_pair(q, p, rng)
        if pair.side is not side:
            pair = ConjugationPair(pair.j_fwd, side)
        points = [random_symmetric_ball_point(rng, pair, margin_min=0.2) for _ in range(3)]
        points.append(BallPoint(np.zeros((pair.dim_dst, pair.dim_src))))
        for out in induced_pairs(points, pair):
            assert type(out) is ConjugationPair and out.side is not side
            assert not out.j_fwd.flags.writeable and out.j_fwd.flags.c_contiguous
            ref = ConjugationPair(out.j_fwd, out.side)
            assert out.j_fwd.dtype == ref.j_fwd.dtype
            assert out.j_fwd.tobytes() == ref.j_fwd.tobytes()
            assert pair_residual(out) <= DEFAULT.induced_pair_residual


def _random_side_pairs(rng, count):
    """(p, q, pair) for random pairs from C^q to C^p on both sides: the
    identity composition sits on the smaller space, either one when square."""
    for _ in range(count):
        p, q = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        pair = random_pair(q, p, rng)
        if p == q and rng.uniform() < 0.5:
            pair = ConjugationPair(pair.j_fwd, Side.FWD_BWD)
        yield p, q, pair


def test_symmetry_residual_is_role_swap_invariant():
    # T is (C1, C2)-symmetric exactly when T* is (C2, C1)-symmetric; both
    # residuals evaluate B - transpose(B) on the same frame and the same B
    rng = np.random.default_rng(53)
    sides = set()
    for p, q, pair in _random_side_pairs(rng, 60):
        sides.add(pair.side)
        m = complex_gaussian(rng, p, q, 2.0)
        sym = symmetric_part(m, pair)
        for mat in (m, sym):
            direct = symmetry_residual(OperatorHK(mat), pair)
            swapped = symmetry_residual(OperatorHK(adj(mat)), swap_roles(pair))
            assert direct == swapped
    assert sides == {Side.BWD_FWD, Side.FWD_BWD}


def test_induced_pair_is_role_swap_covariant():
    # the mirrored orientation is the primary construction on the exchanged
    # spaces: induced_pair(A, pair) = swap(induced_pair(A*, swap(pair)))
    rng = np.random.default_rng(54)
    sides = set()
    for _, _, pair in _random_side_pairs(rng, 60):
        sides.add(pair.side)
        a = random_symmetric_ball_point(rng, pair, margin_min=0.05)
        out = induced_pair(a, pair)
        mirrored = swap_roles(induced_pair(BallPoint(adj(a.mat)), swap_roles(pair)))
        assert out.side is mirrored.side is not pair.side
        assert op_norm(out.j_fwd - mirrored.j_fwd) <= 1e-12
        assert op_norm(out.j_bwd - mirrored.j_bwd) <= 1e-12
    assert sides == {Side.BWD_FWD, Side.FWD_BWD}


def test_induced_pair_refuses_asymmetric():
    rng = np.random.default_rng(49)
    pair = random_pair(2, 5, rng)
    g = complex_gaussian(rng, 5, 2, 1.0)
    a = BallPoint(0.5 * g / op_norm(g))
    with pytest.raises(NotSymmetric):
        induced_pair(a, pair)


def test_induced_pair_coordinates_outside_the_ball_are_singular():
    # a frame inside the pair gate (isometry gap 8e-11) stretches a point
    # of norm 1 - 1e-11 to coordinates of norm 1 + 3e-11
    frame = np.zeros((3, 2))
    frame[0, 0], frame[1, 1] = 1.0 + 4e-11, 1.0
    pair = ConjugationPair(frame, Side.BWD_FWD)
    n = np.zeros((3, 2))
    n[0, 0] = 1.0 - 1e-11
    with pytest.raises(Singular, match="left the ball: operator norm 1.000000000030") as info:
        induced_pair(BallPoint(n), pair)
    assert isinstance(info.value.__cause__, OutOfBall)


def test_induced_pair_rejects_mis_shaped_pair():
    rng = np.random.default_rng(50)
    a = random_symmetric_ball_point(rng, random_pair(2, 5, rng))
    for pair in (random_pair(5, 2, rng), identity_pair(5), canonical_pair(2, 6)):
        with pytest.raises(ShapeMismatch):
            induced_pair(a, pair)


def test_induced_operator_scalar():
    t, out = induced_operator(BallPoint(np.array([[0.6]])), identity_pair(1))
    assert t.mat[0, 0] == pytest.approx(0.75, abs=1e-12)
    assert symmetry_residual(t, out) <= 1e-12


def test_induced_operator_zero():
    rng = np.random.default_rng(50)
    pair = random_pair(2, 4, rng)
    t, out = induced_operator(BallPoint(np.zeros((4, 2))), pair)
    assert np.array_equal(t.mat, np.zeros((2, 4)))
    assert symmetry_residual(t, out) == 0.0


def test_induced_operator_symmetry_and_graph_identity():
    rng = np.random.default_rng(51)
    for _ in range(20):
        p, q = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        q = min(q, p)
        pair = random_pair(q, p, rng)
        a = random_symmetric_ball_point(rng, pair, margin_min=0.2)
        t, out = induced_operator(a, pair)
        assert symmetry_residual(t, out) <= 1e-8
        assert op_norm(t.mat - inverse_bounded_transform(a).mat) == 0.0
        lift = herm_inv_sqrt(np.eye(p) - a.mat @ adj(a.mat))
        for _ in range(5):
            x = rng.standard_normal(p) + 1j * rng.standard_normal(p)
            lhs = np.linalg.norm(t.mat @ x) ** 2 + np.linalg.norm(x) ** 2
            rhs = np.linalg.norm(lift @ x) ** 2
            assert abs(lhs - rhs) <= 1e-8 * rhs


def test_defect_commutation():
    rng = np.random.default_rng(52)
    for _ in range(20):
        p, q = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        q = min(q, p)
        pair = random_pair(q, p, rng)
        a = random_symmetric_ball_point(rng, pair, margin_min=0.1).mat
        left = herm_inv_sqrt(np.eye(q) - adj(a) @ a) @ adj(a)
        right = adj(a) @ herm_inv_sqrt(np.eye(p) - a @ adj(a))
        assert op_norm(left - right) <= 1e-9 * (1.0 + op_norm(a))
