"""Bounded transform between operators H -> K and the unit ball of B(K, H).

An operator T from H to K (matrix of shape dimK x dimH) maps to the strict
contraction

    bounded_transform(T) = (I + T*T)^(-1/2) T*,

whose norm satisfies ||T-hat||^2 = ||T T*|| / (1 + ||T T*||) < 1.  The map is
inverted in closed form by (I - A*A)^(-1/2) A*.  The distance

    operator_dist(T, S) = asinh || left_defect(T, S) ||

is a metric on operators and coincides with the invariant ball distance
between the transforms: left_defect(T, S) is the off-diagonal block of
g_T^(-1) g_S for the lift g_T = [[(I+T*T)^(1/2), T*], [T, (I+TT*)^(1/2)]] of T
to U(p, q), whose singular values are sinh(r_i).  This route is canonical for
output, while the ball route serves as an independent cross-check.

Desk-scale model: H and K are finite dimensional, so every finite matrix is
admitted as a "closed densely-defined" operator; unboundedness is emulated by
ensembles with very large norms.  This is a documented model limitation, not
a hidden assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ball import BallPoint, defects
from .matkernel import (
    GramFactor,
    adj,
    as_cmat,
    as_integers,
    gram_factor,
    in_float_range,
    inverse,
    op_norm,
    powers,
    require_positive,
    require_shape,
    stacked,
    transport,
)


@dataclass(frozen=True, eq=False)
class OperatorHK:
    """An operator from H to K, stored as its dimK x dimH matrix.

    Built from a :class:`GramFactor` in place of its matrix, as
    ``OperatorHK(f)``, it keeps ``f`` as ``factor`` and takes ``mat`` from
    ``f.mat``, as :class:`~opball.ball.BallPoint` does; otherwise ``factor``
    is solved on first use.
    """

    mat: np.ndarray
    dim_h: int = field(init=False)
    dim_k: int = field(init=False)

    def __post_init__(self):
        if isinstance(self.mat, GramFactor):
            m = self.mat.mat
            # the instance entry is where cached_property keeps its value
            self.__dict__["factor"] = self.mat
        else:
            m = as_cmat(self.mat)
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dim_k", m.shape[0])
        object.__setattr__(self, "dim_h", m.shape[1])

    @cached_property
    def factor(self) -> GramFactor:
        """The operator's one Gram factorization, computed on first use."""
        return gram_factor(self.mat)


def zero_operator(dim_h: int, dim_k: int) -> OperatorHK:
    """The zero operator H -> K, a dim_k x dim_h matrix.  A size that is not
    an integer raises :class:`BadDims`, one below 1 :class:`ShapeMismatch`
    quoting the matrix shape."""
    dim_h, dim_k = as_integers(dim_h=dim_h, dim_k=dim_k)
    require_positive((dim_k, dim_h))
    return OperatorHK(np.zeros((dim_k, dim_h), dtype=np.complex128))


def bounded_transform(t: OperatorHK) -> BallPoint:
    """(I + T*T)^(-1/2) T*, a strict contraction of shape dimH x dimK.

    The function is taken on the Gram side ``t``'s factor holds, as
    T* (I + T T*)^(-1/2) or (I + T*T)^(-1/2) T*, since its pushed form
    cancels where it is small.  The Gram matrices of the result are those of
    T under x / (1 + x), sides exchanged, so its factor is transported from
    ``t``'s.

    The result has margin 1 - sqrt(x / (1 + x)), x = ||T||^2, with an
    absolute error of about eps, so the margin of a large operator carries
    few digits.  x / (1 + x) rounds to 1 once x passes 2^53: an operator of
    norm above about 2^26.5 = 9.49e7 maps onto the sphere and raises
    :class:`OutOfBall` (||T|| = 9.4e7 gives margin 1.1e-16, 9.5e7 raises).
    """
    f = t.factor
    g = powers((f,), 1.0, -0.5, f.side)[0]
    mat = adj(t.mat) @ g if f.side == "left" else g @ adj(t.mat)
    return BallPoint(transport((f,), mat, lambda x: x / (1.0 + x), flip=True)[0])


def inverse_bounded_transform(a: BallPoint) -> OperatorHK:
    """Closed-form inverse of :func:`bounded_transform`: (I - A*A)^(-1/2) A*.

    Near the sphere it warns, and at a collapsed margin raises
    :class:`Singular`, through :meth:`~opball.ball.BallPoint.defect`.  The
    result's factor is ``a``'s transported by x / (1 - x), sides exchanged.
    This is the one-item case of :func:`inverse_bounded_transforms`.
    """
    return inverse_bounded_transforms((a,))[0]


def inverse_bounded_transforms(points) -> list[OperatorHK]:
    """:func:`inverse_bounded_transform` of each ball point of ``points``,
    all of one shape: the defects, products and transported factors each
    formed as one stack."""
    points = list(points)
    mats = adj(stacked([a.mat for a in points]))
    mats = defects(points, -0.5, "right") @ mats
    factors = transport([a.factor for a in points], mats, lambda x: x / (1.0 - x), flip=True)
    return [OperatorHK(f) for f in factors]


def left_defect(t: OperatorHK, x: OperatorHK) -> np.ndarray:
    """(I + T*T)^(1/2) X* - T* (I + X X*)^(1/2), of shape dimH x dimK.  This
    is the one-item case of :func:`left_defects`."""
    return left_defects([(t, x)])[0]


@in_float_range
def left_defects(pairs) -> np.ndarray:
    """:func:`left_defect` of each (t, x) of ``pairs``, all of one shape, as
    one stack, each power taken for all pairs at once
    (:func:`~opball.matkernel.powers`)."""
    pairs = list(pairs)
    ts, xs = stacked([t.mat for t, _ in pairs]), stacked([x.mat for _, x in pairs])
    require_shape(xs[0], ts[0].shape, "operator")
    left = powers([t.factor for t, _ in pairs], 1.0, 0.5, "right")
    right = powers([x.factor for _, x in pairs], 1.0, 0.5, "left")
    return left @ adj(xs) - adj(ts) @ right


def right_defect(t: OperatorHK, x: OperatorHK) -> np.ndarray:
    """(I + X X*)^(1/2) (I + T T*)^(1/2) - X T*, of shape dimK x dimK."""
    require_shape(x.mat, t.mat.shape, "operator")
    left, right = powers([x.factor, t.factor], 1.0, 0.5, "left")
    return left @ right - x.mat @ adj(t.mat)


def right_defect_inv(s: OperatorHK, t: OperatorHK) -> np.ndarray:
    """Closed-form inverse of ``right_defect(s, t)``.

    (I+SS*)^(-1/2) [I - T (I+T*T)^(-1/2) (I+S*S)^(-1/2) S*]^(-1) (I+TT*)^(-1/2);
    the bracket is invertible in exact arithmetic, but for aligned operands
    of large norm it rounds to singular and raises :class:`Singular` (the
    pair 1e150 and 2e150 times ones((2, 3)) does; at 1e20 it is finite).  Pushing
    T and S* through the inner factors turns the bracket into
    I - (I+TT*)^(-1/2) T S* (I+SS*)^(-1/2), so the two outer factors are all
    that is solved.
    """
    require_shape(t.mat, s.mat.shape, "operator")
    outer_left, outer_right = powers([s.factor, t.factor], 1.0, -0.5, "left")
    bracket = np.eye(t.dim_k) - outer_right @ t.mat @ adj(s.mat) @ outer_left
    return outer_left @ inverse(bracket) @ outer_right


def operators(mats) -> list[OperatorHK]:
    """Operators of the matrices ``mats``, all of one shape, each holding
    its factor from one stacked solve."""
    return [OperatorHK(f) for f in gram_factor(mats)]


def operator_dist(t: OperatorHK, s: OperatorHK) -> float:
    """Metric on operators from H to K: asinh || left_defect(t, s) ||, which
    equals the invariant ball distance between the two bounded transforms.
    """
    return operator_dists([(t, s)])[0]


def operator_dists(pairs) -> list[float]:
    """:func:`operator_dist` of each (t, s) of ``pairs``, all of one shape,
    the left defects formed and their norms solved as one stack."""
    return [math.asinh(d) for d in op_norm(left_defects(pairs)).tolist()]
