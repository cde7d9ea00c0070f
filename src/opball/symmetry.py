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

A pair is gated where its frame is received (the constructor, hence
``read_pair``) or computed (``random_pair`` through the constructor, and
``induced_pairs`` at 1e-8); an exact or derived frame is built without a
second gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ball import BallPoint, defects
from .errors import BadDims, NotSymmetric, OutOfBall, ShapeMismatch, Singular
from .matkernel import (
    adj,
    as_cmat,
    as_cstack,
    as_integers,
    complex_array,
    fro_norm,
    gram_factor,
    in_float_range,
    op_norm,
    require_positive,
    require_shape,
    stacked,
)
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
    first* first = I, against ``DEFAULT.pair_residual``; the partner is then
    contractive.  A pair is gated where its frame is received (this
    constructor, hence ``read_pair``) or computed (``random_pair`` through
    this constructor, and :func:`induced_pairs` at
    ``DEFAULT.induced_pair_residual``); an exact or derived frame
    (:func:`canonical_pair`, :func:`swap_roles`, :func:`double_pair`) is
    built by :func:`_built` without a second gate.
    """

    j_fwd: np.ndarray
    side: Side

    def __post_init__(self):
        if not isinstance(self.side, Side):
            raise ShapeMismatch(f"side must be a Side, got {type(self.side).__name__}")
        object.__setattr__(self, "j_fwd", as_cmat(self.j_fwd))
        _gate_isometry(_first(self.j_fwd, self.side)[None], DEFAULT.pair_residual)

    @property
    def j_bwd(self) -> np.ndarray:
        return self.j_fwd.T

    @property
    def dim_src(self) -> int:
        return self.j_fwd.shape[1]

    @property
    def dim_dst(self) -> int:
        return self.j_fwd.shape[0]


def _first_beyond(gaps: np.ndarray, tol: float) -> float | None:
    """The spectral norm of the first member of a stack of gaps beyond
    ``tol``, or None.  Since ||X|| <= ||X||_F, a Frobenius norm within
    ``tol`` decides a member without an eigen-solve; the members it leaves
    open are solved as one stack."""
    unsure = [i for i, fro in enumerate(fro_norm(gaps).tolist()) if not fro <= tol]
    if unsure:
        for norm in op_norm(gaps[unsure]).tolist():
            if not norm <= tol:
                return norm
    return None


def _first(j_fwd: np.ndarray, side: Side) -> np.ndarray:
    """The linear part of the map applied first in the identity composition
    (the isometry) of the pair (j_fwd, side), or of each pair of a stack of
    ``j_fwd``: j_fwd for ``BWD_FWD``, transpose(j_fwd) for ``FWD_BWD``."""
    return j_fwd if side is Side.BWD_FWD else j_fwd.mT


@in_float_range
def _isometry_gaps(first: np.ndarray) -> np.ndarray:
    """first* first - I for a frame, or for each member of a stack."""
    return adj(first) @ first - np.eye(first.shape[-1])


def _gate_isometry(firsts: np.ndarray, tol: float) -> None:
    """Raise :class:`ShapeMismatch` for the first member of a stack of
    frames whose isometry gap has a spectral norm beyond ``tol``."""
    beyond = _first_beyond(_isometry_gaps(firsts), tol)
    if beyond is not None:
        raise ShapeMismatch(f"conjugation pair isometry gap {beyond:.3e} exceeds {tol:.1e}")


def _built(j_fwd: np.ndarray, side: Side) -> ConjugationPair:
    """The pair (j_fwd, side), storing what the constructor stores, a
    read-only C-ordered complex128 ``j_fwd``, without its isometry gate: the
    one place a pair is made without its constructor, for a frame gated as
    a stack, built exactly, or derived from a gated pair."""
    j_fwd = np.ascontiguousarray(j_fwd, dtype=np.complex128)
    j_fwd.setflags(write=False)
    pair = object.__new__(ConjugationPair)
    object.__setattr__(pair, "j_fwd", j_fwd)
    object.__setattr__(pair, "side", side)
    return pair


def pair_residual(pair: ConjugationPair) -> float:
    """Spectral norm of the pair's one invariant gap, first* first - I (the
    identity composition's gap is its conjugate)."""
    return op_norm(_isometry_gaps(_first(pair.j_fwd, pair.side)))


def canonical_pair(m: int, n: int) -> ConjugationPair:
    """The coordinate pair from C^m to C^n (n >= m).

    Forward: conjugate the m coordinates and pad with zeros; backward:
    conjugate and keep the first m coordinates.  An n x m matrix is
    symmetric for this pair exactly when its top m x m block is symmetric.
    """
    m, n = as_integers(m=m, n=n)
    if m < 1 or n < m:
        raise BadDims(f"need n >= m >= 1, got (m={m}, n={n})")
    require_positive((n, m))
    fwd = np.zeros((n, m), dtype=np.complex128)
    fwd[:m, :m] = np.eye(m)
    return _built(fwd, Side.BWD_FWD)


def identity_pair(n: int) -> ConjugationPair:
    """Plain coordinatewise conjugation on C^n, both ways."""
    return canonical_pair(n, n)


def _orthonormal_columns(g: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass.  It holds
    no tolerance: the pair's constructor is the frame's one gate."""
    q = g.astype(np.complex128).copy()
    cols = q.shape[1]
    for _ in range(2):
        for j in range(cols):
            for i in range(j):
                q[:, j] -= (adj(q[:, i : i + 1]) @ q[:, j : j + 1])[0, 0] * q[:, i]
            q[:, j] /= np.sqrt((np.abs(q[:, j]) ** 2).sum())
    return q


def random_pair(dim_src: int, dim_dst: int, seed) -> ConjugationPair:
    """A seeded random conjugation pair between C^dim_src and C^dim_dst.

    A complex Gaussian frame is orthonormalized and becomes the isometry
    ``first``; the identity composition is placed on the smaller space.
    Deterministic for a fixed seed, which is any ``numpy.random.default_rng``
    seed.  A seed it refuses raises :class:`BadDims` (a negative integer as
    ``need seed >= 0``), as does a dimension that is not an integer.
    """
    dim_src, dim_dst = as_integers(dim_src=dim_src, dim_dst=dim_dst)
    if min(dim_src, dim_dst) < 1:
        raise BadDims(f"dimensions must be positive, got ({dim_src}, {dim_dst})")
    try:
        rng = np.random.default_rng(seed)
    except ValueError:  # numpy's "expected non-negative integer"
        raise BadDims("need seed >= 0") from None
    except TypeError:
        raise BadDims(f"seed {seed!r} is not a numpy.random seed") from None
    small, big = sorted((dim_src, dim_dst))
    require_positive((big, small))
    g = rng.standard_normal((big, small)) + 1j * rng.standard_normal((big, small))
    q = _orthonormal_columns(g)
    if dim_src <= dim_dst:
        return ConjugationPair(q, Side.BWD_FWD)
    return ConjugationPair(q.T, Side.FWD_BWD)


@in_float_range
def conj_apply(pair: ConjugationPair, direction: str, x) -> np.ndarray:
    """Apply C1 (``direction='fwd'``) or C2 (``'bwd'``) to a vector, given
    as a 1-D array or as an n x 1 column; any other shape, an entry that is
    not finite or one numpy cannot read as a complex number, a direction
    that is not one of those two strings, or an image past the float range
    raises :class:`ShapeMismatch`."""
    vec = complex_array(x, "a complex vector")
    if vec.ndim not in (1, 2) or vec.shape[1:] not in ((), (1,)):
        raise ShapeMismatch(f"expected a vector or a column, got shape {vec.shape}")
    vec = vec.reshape(-1)
    if not np.isfinite(vec).all():
        raise ShapeMismatch("vector entries must be finite")
    if not (isinstance(direction, str) and direction in ("fwd", "bwd")):
        raise ShapeMismatch(f"direction must be 'fwd' or 'bwd', got {direction!r}")
    j = pair.j_fwd if direction == "fwd" else pair.j_bwd
    if vec.shape[0] != j.shape[1]:
        raise ShapeMismatch(f"vector length {vec.shape[0]}, expected {j.shape[1]}")
    return j @ np.conj(vec)


@in_float_range
def _flipped(mats: np.ndarray, pair: ConjugationPair) -> np.ndarray:
    """C1 M* C1 as a linear matrix, for each dst x src matrix M of a stack:
    j_fwd transpose(M) conj(j_fwd)."""
    require_shape(mats[0], (pair.dim_dst, pair.dim_src), "matrix for the pair")
    return pair.j_fwd @ mats.mT @ np.conj(pair.j_fwd)


def _oriented(mats: np.ndarray, side: Side) -> np.ndarray:
    """N = M for ``BWD_FWD``, M* for ``FWD_BWD`` (of each M of a stack)."""
    return mats if side is Side.BWD_FWD else adj(mats)


@in_float_range
def _coordinates(first: np.ndarray, oriented: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, B - transpose(B)) for the coordinates B = first* N of the
    oriented matrix N of M in the pair's frame ``first``, or of each member
    of a stack in the frame at the same place (or the one frame): square on
    the identity-composition side, and symmetric iff M is pair-symmetric."""
    b = adj(first) @ oriented
    return b, b - b.mT


def symmetry_residual(t: OperatorHK, pair: ConjugationPair) -> float:
    """How far T is from being (C1, C2)-symmetric, ||B - transpose(B)||;
    zero iff symmetric.

    Half of it is the spectral distance from T to the pair-symmetric
    operators, and it is attained: the operator with coordinates
    (B + transpose(B))/2 and T's part orthogonal to the frame is symmetric
    and lies at distance ||B - transpose(B)||/2 from T.  No symmetric S is
    closer, since transposition preserves the norm and B_S is symmetric:
    ||B - B^T|| <= ||B - B_S|| + ||B_S^T - B^T|| <= 2 ||T - S||."""
    return symmetry_residuals([(t, pair)])[0]


def symmetry_residuals(items) -> list[float]:
    """:func:`symmetry_residual` of each (operator, pair) of ``items``:
    frames, oriented matrices, coordinates and norms each one stack.  Each
    operator is checked against its own pair, since one batch may mix pairs
    of opposite sides; a shape that does not match raises ShapeMismatch."""
    items = list(items)
    for t, pair in items:
        require_shape(t.mat, (pair.dim_dst, pair.dim_src), "matrix for the pair")
    firsts = stacked([_first(pair.j_fwd, pair.side) for _, pair in items])
    oriented = stacked([_oriented(t.mat, pair.side) for t, pair in items])
    return op_norm(_coordinates(firsts, oriented)[1]).tolist()


def symmetric_part(mat, pair: ConjugationPair) -> np.ndarray:
    """Project a dst x src matrix onto the pair-symmetric operators.

    Averages X with C1 X* C1 (as linear matrices); the result has symmetry
    residual zero up to roundoff, an admissible input of ``induced_pair``.
    """
    m = as_cmat(mat)
    # halved first: two entries near the float maximum overflow when added
    return 0.5 * m + 0.5 * _flipped(m[None], pair)[0]


def swap_roles(pair: ConjugationPair) -> ConjugationPair:
    """The same two conjugate-linear maps viewed as a pair in the opposite
    direction; the identity composition stays on the same space, so the side
    flag flips."""
    return _built(pair.j_bwd, _other_side(pair.side))


def double_pair(pair: ConjugationPair) -> ConjugationPair:
    """The swap-doubled pair on src + src -> dst + dst.

    Forward sends (x1, x2) to (C1 x2, C1 x1); backward mirrors it.  The
    identity composition stays on the same side as the input pair.
    """
    s, d = pair.dim_src, pair.dim_dst
    fwd = np.zeros((2 * d, 2 * s), dtype=np.complex128)
    fwd[:d, s:] = pair.j_fwd
    fwd[d:, :s] = pair.j_fwd
    return _built(fwd, pair.side)


def extension_blocks(mat, pair: ConjugationPair) -> np.ndarray:
    """diag(M, C1 M* C1) as one doubled matrix; the linear matrix of the
    conjugated adjoint block is j_fwd transpose(M) conj(j_fwd).  A stack of
    matrices gives the stack of their doubled matrices, formed at once."""
    m, single = as_cstack(mat)
    flipped = _flipped(m, pair)
    s, d = pair.dim_src, pair.dim_dst
    out = np.zeros((len(m), 2 * d, 2 * s), dtype=np.complex128)
    out[:, :d, :s] = m
    out[:, d:, s:] = flipped
    return out[0] if single else out


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
    result's one free part is X = (I - B* B)^(-1/2) transpose(first) conj(D),
    and its frame is transpose(X) for either side: a ``BWD_FWD`` input gives
    j_fwd = X on side ``FWD_BWD``, a ``FWD_BWD`` input, whose first map and
    N are those of the exchanged spaces, j_fwd = transpose(X) on side
    ``BWD_FWD``.  A margin collapsed below the defect floor raises
    :class:`Singular`, as every inverse defect does.
    """
    return induced_pairs([a], pair)[0]


def induced_pairs(points, pair: ConjugationPair) -> list[ConjugationPair]:
    """:func:`induced_pair` of each contraction of ``points`` for the one
    ``pair``, after every point's symmetry is checked: the coordinates, the
    symmetry gates, the factors of the coordinates B*, the defects, the free
    parts and the isometry gates of the new pairs each formed or solved as
    one stack.  A new pair whose frame transpose(X) has an isometry gap
    beyond ``DEFAULT.induced_pair_residual`` raises, for the first such
    point, the :class:`ShapeMismatch` of the constructor's gate at that
    tolerance."""
    points = list(points)
    mats = stacked([a.mat for a in points])
    require_shape(mats[0], (pair.dim_dst, pair.dim_src), "matrix for the pair")
    first = _first(pair.j_fwd, pair.side)
    b, gaps = _coordinates(first, _oriented(mats, pair.side))
    beyond = _first_beyond(gaps, DEFAULT.symmetry_pre)
    if beyond is not None:
        raise NotSymmetric(f"contraction has symmetry residual {beyond:.3e} for the given pair")
    coords = []
    for f in gram_factor(adj(b)):
        try:
            coords.append(BallPoint(f))
        except OutOfBall as exc:
            raise Singular(f"pair coordinates of the contraction left the ball: {exc}") from exc
    primary = pair.side is Side.BWD_FWD
    # (I - N N*)^(1/2): the left defect of M for BWD_FWD, the right for FWD_BWD
    defect_sqrt = defects(points, 0.5, "left" if primary else "right")
    x = defects(coords, -0.5, "left") @ first.T @ np.conj(defect_sqrt)
    _gate_isometry(x.mT, DEFAULT.induced_pair_residual)
    side = _other_side(pair.side)
    return [_built(j_fwd, side) for j_fwd in _first(x.mT, side)]


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
