"""Seeded random inputs shared by experiments, identity suites, and tests.

All draws go through ``numpy.random.Generator`` so that a fixed seed gives a
fixed ensemble; nothing here keeps global state.

Sizes and counts are the caller's parsed Python ints: the module is not
exported, and its callers (``identities``, ``density``, the tests) pass ints
that an entry has already parsed through ``matkernel.as_integers`` or drawn
itself, so no function here checks them again.
"""

from __future__ import annotations

import numpy as np

from .ball import BallPoint
from .matkernel import gram_factor, transport
from .symmetry import ConjugationPair, symmetric_part
from .transform import OperatorHK


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int, scale: float = 1.0) -> np.ndarray:
    """Complex Gaussian matrix with entry standard deviation ``scale``."""
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return (scale / np.sqrt(2.0)) * g


def _at_random_margins(
    rng: np.random.Generator, draw, count: int, margin_min: float, margin_max: float
) -> list[BallPoint]:
    """``count`` matrices from ``draw()``, each followed by the draw of its
    margin, uniform in [margin_min, margin_max], and rescaled by c = (1 -
    margin) / norm to it.  The draws are solved as one stack and rescaled as
    one: each point's factor is its draw's factor transported by c^2 x."""
    draws, margins = [], []
    for _ in range(count):
        draws.append(draw())
        margins.append(rng.uniform(margin_min, margin_max))
    factors = gram_factor(draws)
    c = (1.0 - np.array(margins)) / np.array([f.norm for f in factors])
    rescaled = transport(
        factors, np.array(draws) * c[:, None, None], lambda x: (c * c)[:, None] * x, flip=False
    )
    return [BallPoint(f) for f in rescaled]


def random_ball_points(
    rng: np.random.Generator, dim_h: int, dim_k: int, count: int, margin_min: float = 0.05
) -> list[BallPoint]:
    """``count`` uniformly-directed contractions with margins in
    [margin_min, 0.95], drawn in the order of ``count`` calls of
    :func:`random_ball_point` (each matrix, then its margin) and solved as
    one stack."""
    return _at_random_margins(
        rng, lambda: complex_gaussian(rng, dim_h, dim_k), count, margin_min, 0.95
    )


def random_ball_point(
    rng: np.random.Generator, dim_h: int, dim_k: int, margin_min: float = 0.05
) -> BallPoint:
    """A uniformly-directed contraction with margin in [margin_min, 0.95]."""
    return random_ball_points(rng, dim_h, dim_k, 1, margin_min)[0]


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
    def draw():
        return symmetric_part(complex_gaussian(rng, pair.dim_dst, pair.dim_src), pair)

    return _at_random_margins(rng, draw, 1, margin_min, 0.9)[0]


def random_dims(
    rng: np.random.Generator, max_h: int, max_k: int
) -> tuple[int, int]:
    """Random space dimensions with dim_k <= dim_h."""
    dim_h = int(rng.integers(1, max_h + 1))
    dim_k = int(rng.integers(1, min(max_k, dim_h) + 1))
    return dim_h, dim_k
