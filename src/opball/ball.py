"""Geometry of the open unit ball of bounded operators.

Points are matrices of spectral norm strictly below one.  The central object
is the Moebius transformation

    mobius(A, Z) = (I - A A*)^(-1/2) (Z + A) (I + A* Z)^(-1) (I - A* A)^(1/2),

a bi-holomorphic automorphism of the ball.  Distances use the closed form

    ball_dist(X, Y) = asinh || (I - X X*)^(-1/2) (Y - X) (I - Y* Y)^(-1/2) ||,

the off-diagonal block of g_X^(-1) g_Y for the lift g_X of X to U(p, q), of
singular values sinh(r_i); it equals atanh ||mobius_inv(X, Y)|| without
forming that image, and is definitional here: the chain-infimum (Kobayashi)
pseudo-metric reduces to it on the ball, so chains are never constructed.

Boundary policy: constructors demand a strictly positive margin, and every
defect (I - A A*)^(+-1/2) or (I - A* A)^(+-1/2) comes from :func:`defects`,
which warns for an inverse square root near the sphere and raises
:class:`Singular` rather than return digits that are noise.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EigenvalueBelowFloor,
    NearBoundaryWarning,
    OutOfBall,
    ShapeMismatch,
    Singular,
)
from .matkernel import (
    GramFactor,
    adj,
    as_cmat,
    as_integers,
    gram_factor,
    inverse,
    op_norm,
    powers,
    require_positive,
    require_shape,
    stacked,
)
from .tolerances import DEFAULT


@dataclass(frozen=True, eq=False)
class BallPoint:
    """A strict contraction from K to H, stored as a dimH x dimK matrix.

    ``factor`` is the point's one Gram factorization; its norm gives the
    margin and :meth:`defect` gives every defect of the point.  It is solved
    on construction, unless the point is built from a :class:`GramFactor`
    in place of its matrix: ``BallPoint(f)`` keeps ``f`` and takes ``mat``
    from ``f.mat``.  A matrix is checked by :func:`~opball.matkernel.as_cmat`,
    so a stack raises ``ShapeMismatch`` as a malformed matrix does.
    """

    mat: np.ndarray
    margin: float = field(init=False)
    factor: GramFactor = field(init=False, repr=False)

    def __post_init__(self):
        mat = self.mat
        factor = mat if isinstance(mat, GramFactor) else gram_factor(as_cmat(mat))
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
        for power +1/2 or -1/2; another power or side raises
        :class:`ShapeMismatch`.

        Power -1/2 amplifies roundoff by about 1/margin: it warns with
        :class:`NearBoundaryWarning` below ``DEFAULT.near_boundary`` and
        raises :class:`Singular` when a defect eigenvalue lies below
        ``DEFAULT.defect_floor``: the margin has collapsed.  This is the
        one-item case of :func:`defects`.
        """
        return defects((self,), power, side)[0]


def defects(points, power: float, side: str) -> np.ndarray:
    """:meth:`BallPoint.defect` of each point of ``points``, all of one
    shape, as one read-only stack (:func:`~opball.matkernel.powers`).  Each
    point near the sphere warns; a collapsed margin in any point raises
    :class:`Singular` for the first such point.  A power or side that
    :func:`~opball.matkernel.powers` refuses raises before any warning."""
    points = list(points)
    below_floor = None
    try:
        stack = powers([point.factor for point in points], -1.0, power, side)
    except EigenvalueBelowFloor as exc:
        below_floor = exc
    if power < 0:
        for point in points:
            if point.margin < DEFAULT.near_boundary:
                _warn_near_boundary(point.margin)
    if below_floor is not None:
        raise Singular(
            f"defect eigenvalue {below_floor.eigenvalue:.3e}: margin too small"
        ) from below_floor
    return stack


def _warn_near_boundary(margin: float) -> None:
    # name the nearest caller outside the package, however deep the call
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    message = (f"ball margin {margin:.3e} below {DEFAULT.near_boundary:.0e}; "
               "inverse defect loses accuracy")
    warnings.warn(message, NearBoundaryWarning, stacklevel=level)


def zero_point(dim_h: int, dim_k: int) -> BallPoint:
    """The base point 0 of the ball, dim_h x dim_k.  A size that is not an
    integer raises :class:`BadDims`, one below 1 :class:`ShapeMismatch`."""
    shape = as_integers(dim_h=dim_h, dim_k=dim_k)
    require_positive(shape)
    return BallPoint(np.zeros(shape, dtype=np.complex128))


def _mobius_images(a: BallPoint, points, sign: float) -> list[BallPoint]:
    """Shared core of the Moebius map (sign=+1) and its inverse (sign=-1) at
    each of ``points``, the images factored as one stack."""
    m = a.mat
    z = stacked([point.mat for point in points])
    require_shape(z[0], a.shape, "ball point")
    middle = z + sign * m
    bracket = np.eye(m.shape[1]) + sign * adj(m) @ z
    try:
        bracket_inv = stacked([inverse(b) for b in bracket])
    except Singular as exc:
        raise Singular("Moebius bracket is singular: margin too small") from exc
    images = a.defect(-0.5, "left") @ middle @ bracket_inv @ a.defect(0.5, "right")
    return [BallPoint(f) for f in gram_factor(images)]


def mobius_images(a: BallPoint, zs) -> list[BallPoint]:
    """:func:`mobius` with center ``a`` at each point of ``zs``, the images
    factored as one stack."""
    return _mobius_images(a, zs, +1.0)


def mobius(a: BallPoint, z: BallPoint) -> BallPoint:
    """Moebius transformation of the ball with center ``a`` applied to ``z``.

    The operator analogue of the disc automorphism w -> (w + a)/(1 + conj(a) w);
    it maps the ball bi-holomorphically onto itself and sends 0 to ``a``.
    This is the one-item case of :func:`mobius_images`.
    """
    return mobius_images(a, (z,))[0]


def mobius_inv(a: BallPoint, z: BallPoint) -> BallPoint:
    """Inverse of :func:`mobius` with the same center: the automorphism that
    moves ``a`` to the origin, at ``z``.

    This is :func:`mobius` with center ``-a`` exactly (IEEE negation is
    exact), reusing the factorization of ``a``; it satisfies
    mobius_inv(X, X) = 0 and mobius_inv(X, 0) = -X.
    """
    return _mobius_images(a, (z,), -1.0)[0]


mobius_to_origin = mobius_inv


def poincare_dist(a: complex, b: complex) -> float:
    """Hyperbolic distance on the unit disc, the 1 x 1 case of :func:`ball_dist`:
    asinh(|b - a| / sqrt((1 - |a|^2)(1 - |b|^2))) = atanh(|a - b| / |1 - conj(a) b|).
    A scalar outside the disc raises :class:`OutOfBall`, as a 1 x 1 point does,
    and anything but a real or complex scalar :class:`ShapeMismatch`.
    """
    for z in (a, b):
        if not isinstance(z, numbers.Complex):
            raise ShapeMismatch(f"disc points must be real or complex scalars, got {z!r}")
    if not (abs(a) < 1.0 and abs(b) < 1.0):
        raise OutOfBall(f"disc points required, got |a|={abs(a)}, |b|={abs(b)}")
    return math.asinh(abs(b - a) / math.sqrt((1.0 - abs(a) ** 2) * (1.0 - abs(b) ** 2)))


def ball_dist(x: BallPoint, y: BallPoint) -> float:
    """Invariant distance between two ball points.

    asinh || (I - X X*)^(-1/2) (Y - X) (I - Y* Y)^(-1/2) ||, which equals
    atanh || mobius_inv(x, y) ||; reduces to :func:`poincare_dist` for
    1 x 1 points and to atanh ||y|| at the origin.
    """
    return ball_dists([(x, y)])[0]


def ball_dists(pairs) -> list[float]:
    """:func:`ball_dist` of each (x, y) of ``pairs``, all of one shape, the
    norms of the lifts solved as one stack."""
    return [math.asinh(d) for d in op_norm(lifts(pairs)).tolist()]


def lifts(pairs) -> np.ndarray:
    """The lift (I - X X*)^(-1/2) (Y - X) (I - Y* Y)^(-1/2) of each (x, y)
    of ``pairs``, all of one shape, as one stack: the off-diagonal block of
    g_X^(-1) g_Y, whose norm is sinh of :func:`ball_dist`."""
    pairs = list(pairs)
    xs, ys = stacked([x.mat for x, _ in pairs]), stacked([y.mat for _, y in pairs])
    require_shape(ys[0], xs[0].shape, "ball point")
    left = defects([x for x, _ in pairs], -0.5, "left")
    return left @ (ys - xs) @ defects([y for _, y in pairs], -0.5, "right")
