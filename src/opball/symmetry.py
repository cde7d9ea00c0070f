"""Conjugation pairs and complex symmetric operators between two spaces.

A conjugate-linear map C is represented by its linear part J through the
action x -> J conj(x), so C1 C2 has matrix J1 conj(J2).  The pairing axiom
<C1 x, y> = <C2 y, x> (inner products linear in the first argument) of a
pair (C1: src -> dst, C2: dst -> src) says j_bwd = transpose(j_fwd) in this
model, so a pair stores one matrix, ``j_fwd``, and a side:

    C1: x -> j_fwd conj(x)          C2: y -> transpose(j_fwd) conj(y)
    BWD_FWD: C2 C1 = id_src,        first = j_fwd
    FWD_BWD: C1 C2 = id_dst,        first = transpose(j_fwd)

``first``, the linear part of the map applied first in the identity
composition, is the pair's one frame.  That composition, transpose(first)
conj(first) = I, is the conjugate of first* first = I, so the one invariant
is that ``first`` has orthonormal columns.

A FWD_BWD pair is a BWD_FWD pair between the exchanged spaces, and T is
(C1, C2)-symmetric exactly when T* is (C2, C1)-symmetric, so each formula
reads the oriented matrix N (M for BWD_FWD, M* for FWD_BWD; M is dst x src)
through its coordinates B = first* N in the frame.  T is symmetric exactly
when B = transpose(B), its matrix in the conjugation's frame being symmetric
(Garcia & Putinar, Trans. AMS 358, 2006); ``symmetry_residual`` returns
||B - transpose(B)||.  For the canonical pair B is the leading square block.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, InitVar, dataclass
from enum import Enum

import numpy as np

from .ball import BallPoint
from .errors import BadDims, NotSymmetric, OutOfBall, ShapeMismatch, Singular
from .matkernel import GramFactor, adj, as_cmat, fro_norm, gram_factor, op_norm, require_shape
from .tolerances import DEFAULT
from .transform import OperatorHK, inverse_bounded_transform


class Side(Enum):
    """Which composition of the pair is the identity."""

    BWD_FWD = "bwd_fwd"  # C2 C1 = id on the source space
    FWD_BWD = "fwd_bwd"  # C1 C2 = id on the destination space


def _other_side(side: Side) -> Side:
    return Side.FWD_BWD if side is Side.BWD_FWD else Side.BWD_FWD


@dataclass(frozen=True, eq=False)
class ConjugationPair:
    """A conjugate-linear pair (C1: src -> dst, C2: dst -> src).

    Only ``j_fwd`` is stored; ``j_bwd`` is its transpose, so the pairing
    axiom holds by construction.  Construction checks the one invariant,
    first* first = I, against ``check_tol`` (keyword only; default
    ``DEFAULT.pair_residual``); the partner is then contractive.
    """

    j_fwd: np.ndarray
    side: Side
    _: KW_ONLY
    check_tol: InitVar[float | None] = None

    def __post_init__(self, check_tol):
        if not isinstance(self.side, Side):
            raise ShapeMismatch(f"side must be a Side, got {type(self.side).__name__}")
        object.__setattr__(self, "j_fwd", as_cmat(self.j_fwd))
        tol = DEFAULT.pair_residual if check_tol is None else check_tol
        gap = _isometry_gap(self)
        if not _norm_within(gap, tol):
            raise ShapeMismatch(
                f"conjugation pair isometry gap {op_norm(gap):.3e} exceeds {tol:.1e}"
            )

    @property
    def j_bwd(self) -> np.ndarray:
        return self.j_fwd.T

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


def _first(pair: ConjugationPair) -> np.ndarray:
    """The linear part of the map applied first in the identity composition
    (the isometry): j_fwd for ``BWD_FWD``, transpose(j_fwd) for ``FWD_BWD``."""
    return pair.j_fwd if pair.side is Side.BWD_FWD else pair.j_fwd.T


def _isometry_gap(pair: ConjugationPair) -> np.ndarray:
    first = _first(pair)
    return adj(first) @ first - np.eye(first.shape[1])


def pair_residual(pair: ConjugationPair) -> float:
    """Spectral norm of the pair's one invariant gap, first* first - I (the
    identity composition's gap is its conjugate)."""
    return op_norm(_isometry_gap(pair))


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
    return ConjugationPair(fwd, Side.BWD_FWD)


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

    A complex Gaussian frame is orthonormalized and becomes the isometry
    ``first``; the identity composition is placed on the smaller space.
    Deterministic for a fixed seed (any ``numpy.random.default_rng`` seed).
    """
    if min(dim_src, dim_dst) < 1:
        raise BadDims(f"dimensions must be positive, got ({dim_src}, {dim_dst})")
    rng = np.random.default_rng(seed)
    small, big = sorted((dim_src, dim_dst))
    g = rng.standard_normal((big, small)) + 1j * rng.standard_normal((big, small))
    q = _orthonormal_columns(g)
    if dim_src <= dim_dst:
        return ConjugationPair(q, Side.BWD_FWD)
    return ConjugationPair(q.T, Side.FWD_BWD)


def conj_apply(pair: ConjugationPair, direction: str, x) -> np.ndarray:
    """Apply C1 (``direction='fwd'``) or C2 (``'bwd'``) to a vector."""
    vec = np.asarray(x, dtype=np.complex128).reshape(-1)
    if direction not in ("fwd", "bwd"):
        raise ShapeMismatch(f"direction must be 'fwd' or 'bwd', got {direction!r}")
    j = pair.j_fwd if direction == "fwd" else pair.j_bwd
    if vec.shape[0] != j.shape[1]:
        raise ShapeMismatch(f"vector length {vec.shape[0]}, expected {j.shape[1]}")
    return j @ np.conj(vec)


def _flipped(mat: np.ndarray, pair: ConjugationPair) -> np.ndarray:
    """C1 M* C1 as a linear matrix, for a dst x src matrix M:
    j_fwd transpose(M) conj(j_fwd)."""
    require_shape(mat, (pair.dim_dst, pair.dim_src), "matrix for the pair")
    return pair.j_fwd @ mat.T @ np.conj(pair.j_fwd)


def _coordinates(mat: np.ndarray, pair: ConjugationPair) -> tuple[np.ndarray, np.ndarray]:
    """(B, B - transpose(B)) for B = first* N, the oriented matrix (N = M for
    ``BWD_FWD``, M* for ``FWD_BWD``) of a dst x src matrix M in the pair's
    frame: square on the identity-composition side, and symmetric iff M is
    pair-symmetric."""
    require_shape(mat, (pair.dim_dst, pair.dim_src), "matrix for the pair")
    b = adj(_first(pair)) @ (mat if pair.side is Side.BWD_FWD else adj(mat))
    return b, b - b.T


def symmetry_residual(t: OperatorHK, pair: ConjugationPair) -> float:
    """How far T is from being (C1, C2)-symmetric, ||B - transpose(B)||;
    zero iff symmetric.

    Half of it is the spectral distance from T to the pair-symmetric
    operators, and it is attained: the operator with coordinates
    (B + transpose(B))/2 and T's part orthogonal to the frame is symmetric
    and lies at distance ||B - transpose(B)||/2 from T.  No symmetric S is
    closer, since transposition preserves the norm and B_S is symmetric:
    ||B - B^T|| <= ||B - B_S|| + ||B_S^T - B^T|| <= 2 ||T - S||."""
    return symmetry_residuals([t], [pair])[0]


def symmetry_residuals(ts, pairs) -> list[float]:
    """:func:`symmetry_residual` of each operator of ``ts`` for the pair at
    the same place in ``pairs``, the norms solved as one stack (the
    operators are of one shape)."""
    return op_norm([_coordinates(t.mat, pair)[1] for t, pair in zip(ts, pairs)]).tolist()


def symmetric_part(mat, pair: ConjugationPair) -> np.ndarray:
    """Project a dst x src matrix onto the pair-symmetric operators.

    Averages X with C1 X* C1 (as linear matrices); the result has symmetry
    residual zero up to roundoff, an admissible input of ``induced_pair``.
    """
    m = as_cmat(mat)
    return 0.5 * (m + _flipped(m, pair))


def swap_roles(pair: ConjugationPair) -> ConjugationPair:
    """The same two conjugate-linear maps viewed as a pair in the opposite
    direction; the identity composition stays on the same space, so the side
    flag flips."""
    return ConjugationPair(pair.j_bwd, _other_side(pair.side))


def double_pair(pair: ConjugationPair) -> ConjugationPair:
    """The swap-doubled pair on src + src -> dst + dst.

    Forward sends (x1, x2) to (C1 x2, C1 x1); backward mirrors it.  The
    identity composition stays on the same side as the input pair.
    """
    s, d = pair.dim_src, pair.dim_dst
    fwd = np.zeros((2 * d, 2 * s), dtype=np.complex128)
    fwd[:d, s:] = pair.j_fwd
    fwd[d:, :s] = pair.j_fwd
    return ConjugationPair(fwd, pair.side)


def extension_blocks(mat: np.ndarray, pair: ConjugationPair) -> np.ndarray:
    """diag(M, C1 M* C1) as one doubled matrix; the linear matrix of the
    conjugated adjoint block is j_fwd transpose(M) conj(j_fwd)."""
    m = as_cmat(mat)
    flipped = _flipped(m, pair)
    s, d = pair.dim_src, pair.dim_dst
    out = np.zeros((2 * d, 2 * s), dtype=np.complex128)
    out[:d, :s] = m
    out[d:, s:] = flipped
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

    With B = first* N the coordinates of the oriented contraction and
    D = (I - N N*)^(1/2), the Gram matrix I - N* first first* N of the
    construction is I - B* B, the left defect of the ball point B*.  The
    result's one free part is X = (I - B* B)^(-1/2) transpose(first) conj(D):
    j_fwd = X for ``BWD_FWD``, and transpose(X) for ``FWD_BWD``, whose first
    map and N are those of the exchanged spaces.  A margin collapsed below
    the defect floor raises :class:`Singular`, as every inverse defect does.
    """
    return _induced_from(a, pair, gram_factor(_pair_coordinates(a, pair)))


def _pair_coordinates(a: BallPoint, pair: ConjugationPair) -> np.ndarray:
    """adj(B) for the coordinates B of the contraction ``a``: the matrix of
    the ball point B* that :func:`induced_pair` factors.  A contraction that
    is not symmetric for ``pair`` raises :class:`NotSymmetric`."""
    b, gap = _coordinates(a.mat, pair)
    if not _norm_within(gap, DEFAULT.symmetry_pre):
        raise NotSymmetric(
            f"contraction has symmetry residual {op_norm(gap):.3e} for the given pair"
        )
    return adj(b)


def _induced_from(a: BallPoint, pair: ConjugationPair, coords: GramFactor) -> ConjugationPair:
    """:func:`induced_pair` of ``a``, given ``coords``, the factor of its
    :func:`_pair_coordinates` (solved alone or in a stack)."""
    try:
        point = BallPoint(coords.mat, held=coords)
    except OutOfBall as exc:
        raise Singular(f"pair coordinates of the contraction left the ball: {exc}") from exc
    primary = pair.side is Side.BWD_FWD
    # (I - N N*)^(1/2): the left defect of M for BWD_FWD, the right for FWD_BWD
    defect_sqrt = a.defect(0.5, "left" if primary else "right")
    x = point.defect(-0.5, "left") @ _first(pair).T @ np.conj(defect_sqrt)
    return ConjugationPair(
        x if primary else x.T, _other_side(pair.side), check_tol=DEFAULT.induced_pair_residual
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
