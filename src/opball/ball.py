"""Geometry of the open unit ball of bounded operators.

Points are matrices of spectral norm strictly below one.  The central object
is the Moebius transformation

    mobius(A, Z) = (I - A A*)^(-1/2) (Z + A) (I + A* Z)^(-1) (I - A* A)^(1/2),

a bi-holomorphic automorphism of the ball.  Distances use the closed form

    ball_dist(X, Y) = asinh || (I - X X*)^(-1/2) (Y - X) (I - Y* Y)^(-1/2) ||,

the off-diagonal block of g_X^(-1) g_Y for the lift g_X of X to U(p, q), of
singular values sinh(r_i); it equals atanh ||mobius_to_origin(X, Y)|| without
forming that image, and is definitional here: the chain-infimum (Kobayashi)
pseudo-metric reduces to it on the ball, so chains are never constructed.

Boundary policy: constructors demand a strictly positive margin, and every
defect (I - A A*)^(+-1/2) or (I - A* A)^(+-1/2) comes from
:meth:`BallPoint.defect`, which warns for an inverse square root near the
sphere and raises :class:`Singular` rather than return digits that are noise.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import KW_ONLY, InitVar, dataclass, field

import numpy as np

from .errors import (
    EigenvalueBelowFloor,
    NearBoundaryWarning,
    OutOfBall,
    OutOfDisc,
    Singular,
)
from .matkernel import GramFactor, adj, gram_factor, inverse, op_norm, require_shape
from .tolerances import DEFAULT


@dataclass(frozen=True, eq=False)
class BallPoint:
    """A strict contraction from K to H, stored as a dimH x dimK matrix.

    ``factor`` is the point's one Gram factorization; its norm gives the
    margin and :meth:`defect` gives every defect of the point.  It is solved
    on construction, or handed in as ``held``, a factor whose ``mat`` is
    ``mat`` itself (as :meth:`GramFactor.transport` builds one).
    """

    mat: np.ndarray
    margin: float = field(init=False)
    factor: GramFactor = field(init=False, repr=False)
    _: KW_ONLY
    held: InitVar[GramFactor | None] = None

    def __post_init__(self, held):
        factor = gram_factor(self.mat) if held is None else _held_factor(held, self.mat)
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

        Power -1/2 amplifies roundoff by about 1/margin: it warns with
        :class:`NearBoundaryWarning` below ``DEFAULT.near_boundary`` and
        raises :class:`Singular` when a defect eigenvalue lies below
        ``DEFAULT.defect_floor``: the margin has collapsed.
        """
        if power < 0 and self.margin < DEFAULT.near_boundary:
            # name the nearest caller outside the package, however deep the call
            frame, level = sys._getframe(1), 2
            while frame is not None and frame.f_globals.get("__package__") == __package__:
                frame, level = frame.f_back, level + 1
            message = (f"ball margin {self.margin:.3e} below {DEFAULT.near_boundary:.0e}; "
                       "inverse defect loses accuracy")
            warnings.warn(message, NearBoundaryWarning, stacklevel=level)
        try:
            return self.factor.power(-1.0, power, side)
        except EigenvalueBelowFloor as exc:
            raise Singular(f"defect eigenvalue {exc.eigenvalue:.3e}: margin too small") from exc


def _held_factor(held: GramFactor, mat) -> GramFactor:
    """``held``, after checking that it factors ``mat`` (the very array)."""
    if held.mat is not mat:
        raise ValueError("a held factor must be of the matrix it is handed with")
    return held


def zero_point(dim_h: int, dim_k: int) -> BallPoint:
    """The base point 0 of the ball."""
    return BallPoint(np.zeros((dim_h, dim_k), dtype=np.complex128))


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
    require_shape(z.mat, a.shape, "ball point")
    return BallPoint(_mobius_mat(a, z.mat, +1.0))


def mobius_inv(a: BallPoint, z: BallPoint) -> BallPoint:
    """Inverse of :func:`mobius` with the same center: sends ``a`` to 0."""
    require_shape(z.mat, a.shape, "ball point")
    return BallPoint(_mobius_mat(a, z.mat, -1.0))


def mobius_to_origin(center: BallPoint, point: BallPoint) -> BallPoint:
    """The automorphism that moves ``center`` to the origin, at ``point``.

    This is :func:`mobius` with center ``-center``, which is exactly
    :func:`mobius_inv` with center ``center`` (IEEE negation is exact), so it
    reuses the center's factorization.  It satisfies
    mobius_to_origin(X, X) = 0 and mobius_to_origin(X, 0) = -X.
    """
    return mobius_inv(center, point)


def poincare_dist(a: complex, b: complex) -> float:
    """Hyperbolic distance on the unit disc, the 1 x 1 case of :func:`ball_dist`:
    asinh(|b - a| / sqrt((1 - |a|^2)(1 - |b|^2))) = atanh(|a - b| / |1 - conj(a) b|).
    """
    if abs(a) >= 1.0 or abs(b) >= 1.0:
        raise OutOfDisc(f"disc points required, got |a|={abs(a)}, |b|={abs(b)}")
    return math.asinh(abs(b - a) / math.sqrt((1.0 - abs(a) ** 2) * (1.0 - abs(b) ** 2)))


def ball_dist(x: BallPoint, y: BallPoint) -> float:
    """Invariant distance between two ball points.

    asinh || (I - X X*)^(-1/2) (Y - X) (I - Y* Y)^(-1/2) ||, which equals
    atanh || mobius_to_origin(x, y) ||; reduces to :func:`poincare_dist` for
    1 x 1 points and to atanh ||y|| at the origin.
    """
    return ball_dists([(x, y)])[0]


def ball_dists(pairs) -> list[float]:
    """:func:`ball_dist` of each (x, y) of ``pairs``, all of one shape, the
    norms of the lifts solved as one stack."""
    lifts = []
    for x, y in pairs:
        require_shape(y.mat, x.shape, "ball point")
        lifts.append(x.defect(-0.5, "left") @ (y.mat - x.mat) @ y.defect(-0.5, "right"))
    return [math.asinh(d) for d in op_norm(lifts).tolist()]
