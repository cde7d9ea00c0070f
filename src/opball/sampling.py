"""Seeded random inputs shared by experiments, identity suites, and tests.

All draws go through ``numpy.random.Generator`` so that a fixed seed gives a
fixed ensemble; nothing here keeps global state.
"""

from __future__ import annotations

import numpy as np

from .ball import BallPoint
from .matkernel import gram_factor
from .symmetry import ConjugationPair, symmetric_part
from .transform import OperatorHK


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int, scale: float = 1.0) -> np.ndarray:
    """Complex Gaussian matrix with entry standard deviation ``scale``."""
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return (scale / np.sqrt(2.0)) * g


def _at_random_margin(
    rng: np.random.Generator, g: np.ndarray, margin_min: float, margin_max: float
) -> BallPoint:
    """``g`` rescaled to a margin drawn uniformly from [margin_min, margin_max]
    (left as is when it is zero).  ``g`` is solved once; the rescaled
    point's factor is its factor transported by c^2 x."""
    f = gram_factor(g)
    if f.norm != 0.0:
        c = (1.0 - rng.uniform(margin_min, margin_max)) / f.norm
        f = f.transport(f.mat * c, lambda x: c * c * x, flip=False)
    return BallPoint(f.mat, held=f)


def random_ball_point(
    rng: np.random.Generator, dim_h: int, dim_k: int, margin_min: float = 0.05
) -> BallPoint:
    """A uniformly-directed contraction with margin in [margin_min, 0.95]."""
    return _at_random_margin(rng, complex_gaussian(rng, dim_h, dim_k), margin_min, 0.95)


def random_operator(
    rng: np.random.Generator, dim_h: int, dim_k: int, scale: float = 1.0
) -> OperatorHK:
    """An operator H -> K with complex Gaussian entries of deviation ``scale``."""
    return OperatorHK(complex_gaussian(rng, dim_k, dim_h, scale))


def random_symmetric_ball_point(
    rng: np.random.Generator, pair: ConjugationPair, margin_min: float = 0.1
) -> BallPoint:
    """A contraction symmetric for ``pair`` (projection of a Gaussian draw).

    The pair runs src -> dst; the matrix produced is dst x src with a margin
    in [margin_min, 0.9], and its symmetry residual is at roundoff level.
    """
    g = complex_gaussian(rng, pair.dim_dst, pair.dim_src)
    return _at_random_margin(rng, symmetric_part(g, pair), margin_min, 0.9)


def random_dims(
    rng: np.random.Generator, max_h: int, max_k: int
) -> tuple[int, int]:
    """Random space dimensions with dim_k <= dim_h."""
    dim_h = int(rng.integers(1, max_h + 1))
    dim_k = int(rng.integers(1, min(max_k, dim_h) + 1))
    return dim_h, dim_k
