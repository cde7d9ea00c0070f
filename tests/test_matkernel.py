"""Kernel tests: eigendecomposition, spectral functions, norm, inversion.

numpy.linalg serves as the independent oracle throughout; the library itself
never calls it.
"""

import ast
import pathlib
import re
import warnings

import numpy as np
import pytest

import opball
from opball import (
    BallPoint,
    EigenvalueBelowFloor,
    NearBoundaryWarning,
    NoConvergence,
    NotHermitian,
    ShapeMismatch,
    Singular,
    as_cmat,
    fro_norm,
    gram_factor,
    herm_eig,
    herm_inv_sqrt,
    herm_sqrt,
    inverse,
    mobius,
    mobius_inv,
    op_norm,
)


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
    spectrum = herm_eig(np.diag([1.0, 4.0]))
    assert np.allclose(spectrum.eigenvalues, [1.0, 4.0])
    assert np.allclose(np.abs(spectrum.basis), np.eye(2))


def test_herm_eig_swap_matrix():
    # characteristic polynomial x^2 - 1 by hand
    spectrum = herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(spectrum.eigenvalues, [-1.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_herm_eig_identity(n):
    spectrum = herm_eig(np.eye(n))
    assert np.allclose(spectrum.eigenvalues, 1.0)


def test_herm_eig_random_invariants():
    # 200 seeded Hermitian draws, sizes 1..8
    rng = np.random.default_rng(101)
    for trial in range(200):
        n = 1 + trial % 8
        h = rand_herm(rng, n, scale=10.0 ** rng.uniform(-2, 2))
        spectrum = herm_eig(h)
        assert list(spectrum.eigenvalues) == sorted(spectrum.eigenvalues)
        scale = 1.0 + fro_norm(h)
        recon = spectrum.basis @ np.diag(spectrum.eigenvalues) @ spectrum.basis.conj().T - h
        assert fro_norm(recon) <= 1e-9 * scale
        unit = spectrum.basis.conj().T @ spectrum.basis - np.eye(n)
        assert fro_norm(unit) <= 1e-10 * n
        # independent oracle
        assert np.abs(spectrum.eigenvalues - np.linalg.eigvalsh(h)).max() <= 1e-11 * scale


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
        spectrum = herm_eig(h)
        recon = spectrum.basis @ np.diag(spectrum.eigenvalues) @ spectrum.basis.conj().T - h
        assert fro_norm(recon) <= 1e-9 * scale
        unit = spectrum.basis.conj().T @ spectrum.basis - np.eye(n)
        assert fro_norm(unit) <= 1e-10 * n
        assert np.abs(spectrum.eigenvalues - ref).max() <= 1e2 * eps * scale, (kind, n)
        # op_norm solves the Gram matrix h h*, of the same structure, without vectors
        top = np.abs(ref).max()
        assert abs(op_norm(h) - top) <= 1e2 * eps * top, (kind, n)
        if kind == "diagonal":
            assert np.array_equal(spectrum.eigenvalues, np.sort(np.diagonal(h).real))


@pytest.mark.parametrize("corner", [0.0, -0.0])
def test_herm_eig_signed_zero_diagonal(corner):
    # d_q - d_p is +0 or -0: either way the rotation is by a quarter turn
    spectrum = herm_eig(np.array([[-corner, 1.0], [1.0, corner]]))
    assert np.abs(spectrum.eigenvalues - [-1.0, 1.0]).max() <= 1e-15
    assert fro_norm(spectrum.basis.conj().T @ spectrum.basis - np.eye(2)) <= 1e-15


def test_herm_eig_extreme_range():
    # the iteration runs at the power-of-two scale of max|h|: no square
    # overflows to inf or underflows to 0, and no warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for size in (1e200, 1e-300):
            vals = herm_eig(np.array([[0.0, size], [size, 0.0]])).eigenvalues
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
        vals = herm_eig(np.diag([1e308, 1e308])).eigenvalues
        assert np.array_equal(vals, [1e308, 1e308])
        with pytest.raises(NotHermitian):
            herm_eig(np.array([[0.0, 1e308], [-1e308, 0.0]]))


def test_norm_beyond_the_float_range_raises_typed_error():
    from opball import OperatorHK, operator_dist

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


def test_no_convergence_names_sweeps_and_remaining_mass(monkeypatch):
    monkeypatch.setattr(opball.matkernel, "_MAX_SWEEPS", 1)
    h = rand_herm(np.random.default_rng(31), 6)
    with pytest.raises(NoConvergence) as info:
        herm_eig(h)
    match = re.fullmatch(
        r"Jacobi iteration did not converge in 1 sweeps: off-diagonal mass "
        r"(\S+) of the matrix norm remains", str(info.value))
    assert match is not None
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
    and dense at entry scales 1e-300 and 1e300."""
    members = [rand_herm(rng, n), np.zeros((n, n)), np.full((n, n), -0.0)]
    members.append(np.diag(rng.standard_normal(n)))
    if n > 1:
        members.append(one_pair_herm(rng, n))
    members += [1e-300 * rand_herm(rng, n), 1e300 * rand_herm(rng, n)]
    return [m.astype(complex) for m in members]


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_stacked_jacobi_is_the_member_loop(n):
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
    norms = op_norm(normed)
    assert not norms.flags.writeable
    for member, norm in zip(normed, norms):
        assert same_bytes(norm, op_norm(member))
    # a list of one matrix is a stack of one
    assert same_bytes(op_norm([normed[0]]), [op_norm(normed[0])])
    assert same_bytes(op_norm(np.zeros((3,) + shape)), np.zeros(3))


def test_no_convergence_names_the_member_left(monkeypatch):
    # a Hermitian M has the Gram matrix M M* = M^2, of the same pattern:
    # diagonal, one active pair, dense
    monkeypatch.setattr(opball.matkernel, "_MAX_SWEEPS", 1)
    rng = np.random.default_rng(35)
    diagonal = np.diag([0.5, -0.25, 0.75, 0.125]).astype(complex)
    one_pair = one_pair_herm(rng, 4)
    dense = rand_herm(rng, 4)
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
    assert match is not None and 0.0 < float(match.group(1)) < 1.0


def test_gram_power_is_kept_but_a_floor_hit_raises_every_time():
    factor = gram_factor(np.diag([1.0 - 1e-15, 0.5]))
    assert factor.power(-1.0, 0.5, "left") is factor.power(-1.0, 0.5, "left")
    for _ in range(2):
        with pytest.raises(EigenvalueBelowFloor):
            factor.power(-1.0, -0.5, "left")


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
        u = herm_eig(rand_herm(rng, p)).basis
        v = herm_eig(rand_herm(rng, q)).basis
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
        norms += [1.5]  # no floor: 1 - x < 0 is clipped to 0
    for norm in norms:
        m = gram_operand(rng, shape, norm)
        ref = gram_reference(m, sign, power, side)
        got = gram_factor(m).power(sign, power, side)
        assert got.shape == ref.shape
        # forward error of the spectral function: roundoff in an eigenvalue
        # of size eps (1 + ||G||), amplified by 1 / (smallest eigenvalue)
        lowest = abs(1.0 - norm**2) if sign < 0 else 1.0
        bound = 1e2 * eps * (1.0 + norm**2) / lowest * max(1.0, op_norm(ref))
        assert op_norm(got - ref) <= bound


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
        got = floor_outcome(lambda: gram_factor(m).power(-1.0, -0.5, side))
        assert (got is None) == (ref is None) == (norm == 1.0 - 1e-10)
        if ref is not None:
            assert got == pytest.approx(ref, abs=1e-14)


def test_gram_power_rejects_unsupported_arguments():
    factor = gram_factor(np.eye(2))
    with pytest.raises(ValueError):
        factor.power(1.0, 1.0, "left")
    with pytest.raises(ValueError):
        factor.power(1.0, 0.5, "up")


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
    spectrum = herm_eig(np.eye(3))
    with pytest.raises(ValueError):
        spectrum.basis[0, 0] = 5.0
    with pytest.raises(ValueError):
        inverse(np.eye(2))[0, 0] = 3.0


def test_library_never_uses_numpy_linalg():
    # numpy.linalg is the tests' independent oracle, so no module may use it
    for path in sorted(pathlib.Path(opball.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            assert not any("linalg" in name for name in names), (path.name, node.lineno)
