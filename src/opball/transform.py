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
from dataclasses import KW_ONLY, InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .ball import BallPoint, _held_factor
from .matkernel import GramFactor, adj, as_cmat, gram_factor, inverse, op_norm, require_shape


@dataclass(frozen=True, eq=False)
class OperatorHK:
    """An operator from H to K, stored as its dimK x dimH matrix.

    ``held`` hands in the operator's factor, as for
    :class:`~opball.ball.BallPoint`; without it, ``factor`` is solved on
    first use.
    """

    mat: np.ndarray
    dim_h: int = field(init=False)
    dim_k: int = field(init=False)
    _: KW_ONLY
    held: InitVar[GramFactor | None] = None

    def __post_init__(self, held):
        if held is None:
            m = as_cmat(self.mat)
        else:
            m = _held_factor(held, self.mat).mat
            # the instance entry is where cached_property keeps its value
            self.__dict__["factor"] = held
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dim_k", m.shape[0])
        object.__setattr__(self, "dim_h", m.shape[1])

    @cached_property
    def factor(self) -> GramFactor:
        """The operator's one Gram factorization, computed on first use."""
        return gram_factor(self.mat)


def zero_operator(dim_h: int, dim_k: int) -> OperatorHK:
    return OperatorHK(np.zeros((dim_k, dim_h), dtype=np.complex128))


def bounded_transform(t: OperatorHK) -> BallPoint:
    """(I + T*T)^(-1/2) T*, a strict contraction of shape dimH x dimK.

    The function is taken on the Gram side ``t``'s factor holds, as
    T* (I + T T*)^(-1/2) or (I + T*T)^(-1/2) T*, since its pushed form
    cancels where it is small.  The Gram matrices of the result are those of
    T under x / (1 + x), sides exchanged, so its factor is transported from
    ``t``'s.
    """
    f = t.factor
    g = f.power(1.0, -0.5, f.side)
    mat = adj(t.mat) @ g if f.side == "left" else g @ adj(t.mat)
    f = f.transport(mat, lambda x: x / (1.0 + x), flip=True)
    return BallPoint(f.mat, held=f)


def inverse_bounded_transform(a: BallPoint) -> OperatorHK:
    """Closed-form inverse of :func:`bounded_transform`: (I - A*A)^(-1/2) A*.

    Near the sphere it warns, and at a collapsed margin raises
    :class:`Singular`, through :meth:`~opball.ball.BallPoint.defect`.  The
    result's factor is ``a``'s transported by x / (1 - x), sides exchanged.
    """
    mat = a.defect(-0.5, "right") @ adj(a.mat)
    f = a.factor.transport(mat, lambda x: x / (1.0 - x), flip=True)
    return OperatorHK(f.mat, held=f)


def left_defect(t: OperatorHK, x: OperatorHK) -> np.ndarray:
    """(I + T*T)^(1/2) X* - T* (I + X X*)^(1/2), of shape dimH x dimK."""
    require_shape(x.mat, t.mat.shape, "operator")
    left = t.factor.power(1.0, 0.5, "right")
    right = x.factor.power(1.0, 0.5, "left")
    return left @ adj(x.mat) - adj(t.mat) @ right


def right_defect(t: OperatorHK, x: OperatorHK) -> np.ndarray:
    """(I + X X*)^(1/2) (I + T T*)^(1/2) - X T*, of shape dimK x dimK."""
    require_shape(x.mat, t.mat.shape, "operator")
    left = x.factor.power(1.0, 0.5, "left")
    right = t.factor.power(1.0, 0.5, "left")
    return left @ right - x.mat @ adj(t.mat)


def right_defect_inv(s: OperatorHK, t: OperatorHK) -> np.ndarray:
    """Closed-form inverse of ``right_defect(s, t)``.

    (I+SS*)^(-1/2) [I - T (I+T*T)^(-1/2) (I+S*S)^(-1/2) S*]^(-1) (I+TT*)^(-1/2);
    the bracket is a strict perturbation of the identity, so a Singular error
    here signals a transcription bug rather than admissible input.  Pushing
    T and S* through the inner factors turns the bracket into
    I - (I+TT*)^(-1/2) T S* (I+SS*)^(-1/2), so the two outer factors are all
    that is solved.
    """
    require_shape(t.mat, s.mat.shape, "operator")
    outer_left = s.factor.power(1.0, -0.5, "left")
    outer_right = t.factor.power(1.0, -0.5, "left")
    bracket = np.eye(t.dim_k) - outer_right @ t.mat @ adj(s.mat) @ outer_left
    return outer_left @ inverse(bracket) @ outer_right


def operators(mats) -> list[OperatorHK]:
    """Operators of the matrices ``mats``, all of one shape, each holding
    its factor from one stacked solve."""
    return [OperatorHK(f.mat, held=f) for f in gram_factor(mats)]


def operator_dist(t: OperatorHK, s: OperatorHK) -> float:
    """Metric on operators from H to K: asinh || left_defect(t, s) ||, which
    equals the invariant ball distance between the two bounded transforms.
    """
    return operator_dists([(t, s)])[0]


def operator_dists(pairs) -> list[float]:
    """:func:`operator_dist` of each (t, s) of ``pairs``, all of one shape,
    the norms solved as one stack."""
    return [math.asinh(d) for d in op_norm([left_defect(t, s) for t, s in pairs]).tolist()]
