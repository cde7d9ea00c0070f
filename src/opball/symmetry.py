"""Conjugation pairs and complex symmetric operators between two spaces.

A conjugate-linear map C is represented by its linear part J through the
action x -> J conj(x).  Compositions of two conjugate-linear maps then become
ordinary matrix products with one conjugation, e.g. the linear map C1 C2 has
matrix J1 conj(J2).  The translation table used throughout:

    C1: src -> dst      x -> j_fwd conj(x)
    C2: dst -> src      y -> j_bwd conj(y)
    C2 C1 = id_src  <=>  j_bwd conj(j_fwd) = I        (side BWD_FWD)
    C1 C2 = id_dst  <=>  j_fwd conj(j_bwd) = I        (side FWD_BWD)

The pairing axiom <C1 x, y> = <C2 y, x> (inner products linear in the first
argument, conjugate-linear in the second) is equivalent to
j_fwd = transpose(j_bwd); that equivalence is the basis of the pair
invariant.  The convention has to be fixed for the matrix model to be
testable at all, and this is the one used everywhere in this package.

Each side-dependent formula is written once, in two roles: ``first`` is the
linear part of the map applied first in the identity composition (the
isometry) and ``second`` its partner, (j_fwd, j_bwd) for BWD_FWD and
(j_bwd, j_fwd) for FWD_BWD, so second conj(first) = I on either side.  A
FWD_BWD pair is a BWD_FWD pair between the exchanged spaces, and T is
(C1, C2)-symmetric exactly when T* is (C2, C1)-symmetric, so the formulas
act on the oriented matrix N: M for BWD_FWD, M* for FWD_BWD.  An operator T
(matrix M of shape dst x src) is (C1, C2)-symmetric when

    second conj(N) = N* first     (BWD_FWD: C2 T = T* C1; FWD_BWD: T C2 = C1 T*)

and ``symmetry_residual`` returns the spectral norm of the mismatch.  With
the canonical pair this is exactly ||B - transpose(B)|| for the leading
square block B, which is the classical "contains a symmetric block" test.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from enum import Enum

import numpy as np

from .ball import BallPoint
from .errors import BadDims, NotSymmetric, ShapeMismatch
from .matkernel import adj, as_cmat, fro_norm, herm_inv_sqrt, op_norm
from .tolerances import DEFAULT
from .transform import OperatorHK, inverse_bounded_transform


class Side(Enum):
    """Which composition of the pair is the identity."""

    BWD_FWD = "bwd_fwd"  # C2 C1 = id on the source space
    FWD_BWD = "fwd_bwd"  # C1 C2 = id on the destination space


def _other_side(side: Side) -> Side:
    return Side.FWD_BWD if side is Side.BWD_FWD else Side.BWD_FWD


@dataclass(frozen=True)
class ConjugationPair:
    """A conjugate-linear pair (C1: src -> dst, C2: dst -> src).

    Invariants checked at construction: j_fwd = transpose(j_bwd), the
    composition recorded in ``side`` is the identity, and the map applied
    first in that composition is an isometry (its linear part has
    orthonormal columns); the partner is then automatically contractive.
    """

    j_fwd: np.ndarray
    j_bwd: np.ndarray
    side: Side
    check_tol: InitVar[float | None] = None

    def __post_init__(self, check_tol):
        fwd = as_cmat(self.j_fwd)
        bwd = as_cmat(self.j_bwd)
        object.__setattr__(self, "j_fwd", fwd)
        object.__setattr__(self, "j_bwd", bwd)
        if fwd.shape != bwd.T.shape:
            raise ShapeMismatch(
                f"j_fwd {fwd.shape} and j_bwd {bwd.shape} are not transposes in shape"
            )
        tol = DEFAULT.pair_residual if check_tol is None else check_tol
        if not all(_norm_within(gap, tol) for gap in _pair_gaps(self).values()):
            raise ShapeMismatch(
                f"conjugation pair invariants violated: {pair_residuals(self)} "
                f"exceed {tol:.1e}"
            )

    @property
    def dim_src(self) -> int:
        return self.j_fwd.shape[1]

    @property
    def dim_dst(self) -> int:
        return self.j_fwd.shape[0]


def _norm_within(gap: np.ndarray, tol: float) -> bool:
    """||gap|| <= tol in the spectral norm.  Since ||X|| <= ||X||_F, a
    Frobenius norm within ``tol`` decides it without an eigen-solve."""
    return fro_norm(gap) <= tol or op_norm(gap) <= tol


def _roles(pair: ConjugationPair) -> tuple[np.ndarray, np.ndarray]:
    """(first, second): the linear parts of the map applied first in the
    identity composition (the isometry) and of its partner."""
    if pair.side is Side.BWD_FWD:
        return pair.j_fwd, pair.j_bwd
    return pair.j_bwd, pair.j_fwd


def _pair_gaps(pair: ConjugationPair) -> dict[str, np.ndarray]:
    """The matrices whose norms are the three pair invariants, by name."""
    first, second = _roles(pair)
    eye = np.eye(first.shape[1])
    return {
        "pairing": pair.j_fwd - pair.j_bwd.T,
        "composition": second @ np.conj(first) - eye,
        "isometry": adj(first) @ first - eye,
    }


def pair_residuals(pair: ConjugationPair) -> dict[str, float]:
    """Numeric residuals (spectral norms) of the three pair invariants, by name."""
    return {name: op_norm(gap) for name, gap in _pair_gaps(pair).items()}


def canonical_pair(m: int, n: int) -> ConjugationPair:
    """The coordinate pair from C^m to C^n (n >= m).

    Forward: conjugate the m coordinates and pad with zeros; backward:
    conjugate and keep the first m coordinates.  An n x m matrix is
    symmetric for this pair exactly when its top m x m block is symmetric.
    """
    if m < 1 or n < m:
        raise BadDims(f"need n >= m >= 1, got (m={m}, n={n})")
    fwd = np.zeros((n, m), dtype=np.complex128)
    fwd[:m, :m] = np.eye(m)
    return ConjugationPair(fwd, fwd.T.copy(), Side.BWD_FWD)


def identity_pair(n: int) -> ConjugationPair:
    """Plain coordinatewise conjugation on C^n, both ways."""
    return canonical_pair(n, n)


def _orthonormal_columns(g: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass."""
    q = g.astype(np.complex128).copy()
    cols = q.shape[1]
    for _ in range(2):
        for j in range(cols):
            for i in range(j):
                q[:, j] -= (adj(q[:, i : i + 1]) @ q[:, j : j + 1])[0, 0] * q[:, i]
            norm = np.sqrt((np.abs(q[:, j]) ** 2).sum())
            if norm < 1e-12:
                raise BadDims("random draw produced a rank-deficient frame")
            q[:, j] /= norm
    return q


def random_pair(dim_src: int, dim_dst: int, seed) -> ConjugationPair:
    """A seeded random conjugation pair between C^dim_src and C^dim_dst.

    A complex Gaussian frame is orthonormalized and its transpose becomes the
    partner; the identity composition is placed on the smaller space.
    Deterministic for a fixed seed (any ``numpy.random.default_rng`` seed).
    """
    if min(dim_src, dim_dst) < 1:
        raise BadDims(f"dimensions must be positive, got ({dim_src}, {dim_dst})")
    rng = np.random.default_rng(seed)
    small, big = sorted((dim_src, dim_dst))
    g = rng.standard_normal((big, small)) + 1j * rng.standard_normal((big, small))
    q = _orthonormal_columns(g)
    if dim_src <= dim_dst:
        return ConjugationPair(q, q.T.copy(), Side.BWD_FWD)
    return ConjugationPair(q.T.copy(), q, Side.FWD_BWD)


def conj_apply(pair: ConjugationPair, direction: str, x) -> np.ndarray:
    """Apply C1 (``direction='fwd'``) or C2 (``'bwd'``) to a vector."""
    vec = np.asarray(x, dtype=np.complex128).reshape(-1)
    if direction == "fwd":
        j, need = pair.j_fwd, pair.dim_src
    elif direction == "bwd":
        j, need = pair.j_bwd, pair.dim_dst
    else:
        raise ShapeMismatch(f"direction must be 'fwd' or 'bwd', got {direction!r}")
    if vec.shape[0] != need:
        raise ShapeMismatch(f"vector length {vec.shape[0]}, expected {need}")
    return j @ np.conj(vec)


def _require_pair_shape(mat: np.ndarray, pair: ConjugationPair) -> None:
    """A src -> dst pair acts on dst x src matrices."""
    if mat.shape != (pair.dim_dst, pair.dim_src):
        raise ShapeMismatch(
            f"matrix shape {mat.shape} does not match pair ({pair.dim_dst}, {pair.dim_src})"
        )


def _flipped(mat: np.ndarray, pair: ConjugationPair) -> np.ndarray:
    """C1 M* C1 as a linear matrix: j_fwd transpose(M) conj(j_fwd)."""
    return pair.j_fwd @ mat.T @ np.conj(pair.j_fwd)


def _oriented(mat: np.ndarray, pair: ConjugationPair) -> np.ndarray:
    """M as seen from the primary orientation: M itself for ``BWD_FWD``,
    M* for ``FWD_BWD``, whose roles run between the exchanged spaces."""
    return mat if pair.side is Side.BWD_FWD else adj(mat)


def _symmetry_gap(mat: np.ndarray, pair: ConjugationPair) -> np.ndarray:
    """Symmetry mismatch of a dst x src matrix against a src -> dst pair:
    second conj(N) - N* first, with N the oriented matrix."""
    _require_pair_shape(mat, pair)
    first, second = _roles(pair)
    n = _oriented(mat, pair)
    return second @ np.conj(n) - adj(n) @ first


def symmetry_residual(t: OperatorHK, pair: ConjugationPair) -> float:
    """How far T is from being (C1, C2)-symmetric; zero iff symmetric."""
    return op_norm(_symmetry_gap(t.mat, pair))


def symmetric_part(mat, pair: ConjugationPair) -> np.ndarray:
    """Project a dst x src matrix onto the pair-symmetric operators.

    Averages X with C1 X* C1 (as linear matrices); the result has symmetry
    residual zero up to roundoff, which makes it the standard way to
    manufacture admissible inputs for the induced-pair construction.
    """
    m = as_cmat(mat)
    _require_pair_shape(m, pair)
    return 0.5 * (m + _flipped(m, pair))


def swap_roles(pair: ConjugationPair) -> ConjugationPair:
    """The same two conjugate-linear maps viewed as a pair in the opposite
    direction; the identity composition stays on the same space, so the side
    flag flips."""
    return ConjugationPair(pair.j_bwd, pair.j_fwd, _other_side(pair.side))


def double_pair(pair: ConjugationPair) -> ConjugationPair:
    """The swap-doubled pair on src + src -> dst + dst.

    Forward sends (x1, x2) to (C1 x2, C1 x1); backward mirrors it.  The
    identity composition stays on the same side as the input pair.
    """
    s, d = pair.dim_src, pair.dim_dst
    fwd = np.zeros((2 * d, 2 * s), dtype=np.complex128)
    fwd[:d, s:] = pair.j_fwd
    fwd[d:, :s] = pair.j_fwd
    bwd = np.zeros((2 * s, 2 * d), dtype=np.complex128)
    bwd[:s, d:] = pair.j_bwd
    bwd[s:, :d] = pair.j_bwd
    return ConjugationPair(fwd, bwd, pair.side)


def extension_blocks(mat: np.ndarray, pair: ConjugationPair) -> np.ndarray:
    """diag(M, C1 M* C1) as one doubled matrix; the linear matrix of the
    conjugated adjoint block is j_fwd transpose(M) conj(j_fwd)."""
    m = as_cmat(mat)
    _require_pair_shape(m, pair)
    s, d = pair.dim_src, pair.dim_dst
    out = np.zeros((2 * d, 2 * s), dtype=np.complex128)
    out[:d, :s] = m
    out[d:, s:] = _flipped(m, pair)
    return out


def symmetric_extension(
    t: OperatorHK, pair: ConjugationPair
) -> tuple[OperatorHK, ConjugationPair]:
    """Complex symmetric extension of an arbitrary operator.

    Returns (diag(T, C1 T* C1), doubled pair); the extension is symmetric for
    the doubled pair no matter whether T itself was, and its leading block
    equals T exactly.
    """
    return OperatorHK(extension_blocks(t.mat, pair)), double_pair(pair)


def induced_pair(a: BallPoint, pair: ConjugationPair) -> ConjugationPair:
    """Conjugation pair under which the inverse transform of ``a`` is symmetric.

    ``a`` is a strict contraction from K to H (matrix dimH x dimK) that must
    already be symmetric for ``pair`` (a pair between K and H); the returned
    pair lives between H and K with its identity composition on the same
    space as the input's.  Non-symmetric inputs are refused with
    :class:`NotSymmetric` because the construction presumes symmetry.

    With (first, second) the roles of the pair and N the oriented
    contraction, G = I - N* (first conj(second)) N and D = (I - N N*)^(1/2),
    the result has the parts X = G^(-1/2) second conj(D) and
    Y = D first conj(G^(-1/2)).  For ``BWD_FWD`` these are (fwd, bwd); for
    ``FWD_BWD``, whose roles and N are those of the exchanged spaces, the
    same construction yields (bwd, fwd).
    """
    m = a.mat
    gap = _symmetry_gap(m, pair)
    if not _norm_within(gap, DEFAULT.symmetry_pre):
        raise NotSymmetric(
            f"contraction has symmetry residual {op_norm(gap):.3e} for the given pair"
        )
    primary = pair.side is Side.BWD_FWD
    first, second = _roles(pair)
    n = _oriented(m, pair)
    link = first @ np.conj(second)
    gram = np.eye(n.shape[1]) - adj(n) @ link @ n
    gram_inv_sqrt = herm_inv_sqrt(gram, DEFAULT.psd_floor)
    # (I - N N*)^(1/2): the left defect of M for BWD_FWD, the right for FWD_BWD
    defect_sqrt = a.defect(0.5, "left" if primary else "right")
    x = gram_inv_sqrt @ second @ np.conj(defect_sqrt)
    y = defect_sqrt @ first @ np.conj(gram_inv_sqrt)
    fwd, bwd = (x, y) if primary else (y, x)
    return ConjugationPair(
        fwd, bwd, _other_side(pair.side), check_tol=DEFAULT.induced_pair_residual
    )


def induced_operator(
    a: BallPoint, pair: ConjugationPair
) -> tuple[OperatorHK, ConjugationPair]:
    """Closed symmetric operator realized by a symmetric strict contraction.

    Returns ((I - A*A)^(-1/2) A*, induced_pair(a, pair)); the operator is
    complex symmetric for the returned pair and satisfies the graph identity
    ||T x||^2 + ||x||^2 = ||(I - A A*)^(-1/2) x||^2.
    """
    out_pair = induced_pair(a, pair)
    return inverse_bounded_transform(a), out_pair
