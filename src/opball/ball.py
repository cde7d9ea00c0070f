"""Geometry of the open unit ball of bounded operators.

Points are matrices of spectral norm strictly below one.  The central object
is the Moebius transformation

    mobius(A, Z) = (I - A A*)^(-1/2) (Z + A) (I + A* Z)^(-1) (I - A* A)^(1/2),

a bi-holomorphic automorphism of the ball.  Distances use the closed form

    ball_dist(X, Y) = atanh || mobius_to_origin(X, Y) ||,

which is adopted as definitional here: the chain-infimum description of the
invariant (Kobayashi) pseudo-metric reduces to this expression on the ball,
so chains are never constructed (they are documentation only).

Boundary policy: constructors demand a strictly positive margin, and every
defect (I - A A*)^(+-1/2) or (I - A* A)^(+-1/2) comes from
:meth:`BallPoint.defect`, which fails with :class:`Singular` when an inverse
square root meets a defect eigenvalue below ``DEFAULT.defect_floor``, rather
than returning digits that are mostly noise.  atanh operands are checked
first and raise :class:`OutOfDisc` instead of returning infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EigenvalueBelowFloor, OutOfBall, OutOfDisc, ShapeMismatch, Singular
from .matkernel import GramFactor, adj, gram_factor, inverse


@dataclass(frozen=True)
class BallPoint:
    """A strict contraction from K to H, stored as a dimH x dimK matrix.

    ``factor`` is the point's one Gram factorization; its norm gives the
    margin and :meth:`defect` gives every defect of the point.
    """

    mat: np.ndarray
    margin: float = field(init=False)
    factor: GramFactor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        factor = gram_factor(self.mat)
        if factor.norm >= 1.0:
            raise OutOfBall(f"operator norm {factor.norm:.12f} is not strictly below 1")
        object.__setattr__(self, "mat", factor.mat)
        object.__setattr__(self, "margin", 1.0 - factor.norm)
        object.__setattr__(self, "factor", factor)

    @property
    def dim_h(self) -> int:
        return self.mat.shape[0]

    @property
    def dim_k(self) -> int:
        return self.mat.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.mat.shape

    def defect(self, power: float, side: str) -> np.ndarray:
        """(I - A A*)^power (side "left") or (I - A* A)^power (side "right")
        for power +1/2 or -1/2.

        Power -1/2 raises :class:`Singular` when a defect eigenvalue lies
        below ``DEFAULT.defect_floor``: the margin has collapsed.
        """
        try:
            return self.factor.power(-1.0, power, side)
        except EigenvalueBelowFloor as exc:
            raise Singular(f"defect eigenvalue {exc.eigenvalue:.3e}: margin too small") from exc


def zero_point(dim_h: int, dim_k: int) -> BallPoint:
    """The base point 0 of the ball."""
    return BallPoint(np.zeros((dim_h, dim_k), dtype=np.complex128))


def _require_same_shape(a: BallPoint, z: BallPoint) -> None:
    if a.shape != z.shape:
        raise ShapeMismatch(f"ball points have shapes {a.shape} and {z.shape}")


def _mobius_mat(a: BallPoint, z: np.ndarray, sign: float) -> np.ndarray:
    """Shared core of the Moebius map (sign=+1) and its inverse (sign=-1)."""
    m = a.mat
    eye_k = np.eye(m.shape[1])
    middle = z + sign * m
    bracket = eye_k + sign * adj(m) @ z
    try:
        bracket_inv = inverse(bracket)
    except Singular as exc:
        raise Singular("Moebius bracket is singular: margin too small") from exc
    return a.defect(-0.5, "left") @ middle @ bracket_inv @ a.defect(0.5, "right")


def mobius(a: BallPoint, z: BallPoint) -> BallPoint:
    """Moebius transformation of the ball with center ``a`` applied to ``z``.

    The operator analogue of the disc automorphism w -> (w + a)/(1 + conj(a) w);
    it maps the ball bi-holomorphically onto itself and sends 0 to ``a``.
    """
    _require_same_shape(a, z)
    return BallPoint(_mobius_mat(a, z.mat, +1.0))


def mobius_inv(a: BallPoint, z: BallPoint) -> BallPoint:
    """Inverse of :func:`mobius` with the same center: sends ``a`` to 0."""
    _require_same_shape(a, z)
    return BallPoint(_mobius_mat(a, z.mat, -1.0))


def mobius_to_origin(center: BallPoint, point: BallPoint) -> BallPoint:
    """The automorphism that moves ``center`` to the origin, at ``point``.

    This is :func:`mobius` with center ``-center``, which is exactly
    :func:`mobius_inv` with center ``center`` (IEEE negation is exact), so it
    reuses the center's factorization.  It satisfies
    mobius_to_origin(X, X) = 0 and mobius_to_origin(X, 0) = -X.
    """
    return mobius_inv(center, point)


def _atanh_checked(x: float) -> float:
    if x >= 1.0:
        raise OutOfDisc(f"atanh operand {x!r} is not strictly below 1")
    return math.atanh(x)


def poincare_dist(a: complex, b: complex) -> float:
    """Hyperbolic distance on the unit disc: atanh(|a - b| / |1 - conj(a) b|)."""
    if abs(a) >= 1.0 or abs(b) >= 1.0:
        raise OutOfDisc(f"disc points required, got |a|={abs(a)}, |b|={abs(b)}")
    num = abs(a - b)
    if num == 0.0:
        return 0.0
    return _atanh_checked(num / abs(1.0 - np.conj(a) * b))


def ball_dist(x: BallPoint, y: BallPoint) -> float:
    """Invariant distance between two ball points.

    Closed form atanh || mobius_to_origin(x, y) ||; reduces to
    :func:`poincare_dist` for 1 x 1 points and to atanh ||y|| at the origin.
    """
    _require_same_shape(x, y)
    return _atanh_checked(mobius_to_origin(x, y).factor.norm)
