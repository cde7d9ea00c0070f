"""Finite-dimensional certificates: exact facts that check the symmetry layer
without sharing a formula with it.

(a) Every matrix is symmetric for some pair.  For dst >= src and the thin
    SVD M = U S V*, the pair with frame first = U V^T has coordinates
    B = first* M = conj(V) S V*, which is symmetric (the two-space analogue
    of the Takagi factorization).  For dst < src the same holds for M* with
    a FWD_BWD pair.
(b) symmetry_residual/2 is the spectral distance from M to the operators
    symmetric for the pair: replacing B by (B + B^T)/2 and keeping the part
    orthogonal to the frame moves M by exactly ||B - B^T||/2, and no
    symmetric operator is closer.
(c) The profile distance has a closed form on the undoubled space:
    operator_dist(approx_n, approx_full) = ball_dist(T^_n, T^), where
    T^ = bounded_transform(t) and T^_n is T^ with the rows past n zeroed.
    The doubled points are block diagonal, so the distance is the larger of
    the two block distances, and the flipped block sees only a compression
    of the point, which does not increase the distance.  The ball route
    shares no stacked solve, no doubling and no induced pair with the
    profile.

numpy.linalg.svd is the oracle here; the library never calls numpy.linalg.
"""

import numpy as np
import pytest

from opball import (
    BallPoint,
    ConjugationPair,
    OperatorHK,
    Side,
    adj,
    approximation_profile,
    ball_dist,
    bounded_transform,
    op_norm,
    random_pair,
    symmetric_part,
    symmetry_residual,
)
from opball.sampling import random_operator


def complex_draw(rng, rows, cols, scale=1.0):
    return scale * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))


def svd_pair(m: np.ndarray) -> ConjugationPair:
    """The pair for which ``m`` (dst x src) is symmetric, from its thin SVD."""
    dst, src = m.shape
    if dst >= src:
        u, _, vh = np.linalg.svd(m, full_matrices=False)
        return ConjugationPair(u @ vh.conj(), Side.BWD_FWD)  # first = U V^T
    u, _, vh = np.linalg.svd(adj(m), full_matrices=False)
    return ConjugationPair((u @ vh.conj()).T, Side.FWD_BWD)  # first = transpose(j_fwd)


def _draws(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rows, cols = (int(v) for v in rng.integers(1, 9, size=2))
        yield rng, rows, cols, 10 ** rng.uniform(-3, 8)


def test_every_matrix_is_symmetric_for_its_svd_pair():
    worst = 0.0
    for rng, rows, cols, scale in _draws(41, 120):
        m = complex_draw(rng, rows, cols, scale)
        pair = svd_pair(m)
        assert (pair.dim_dst, pair.dim_src) == m.shape
        worst = max(worst, symmetry_residual(OperatorHK(m), pair) / op_norm(m))
    assert worst <= 1e-13


def _frame(pair: ConjugationPair) -> np.ndarray:
    return pair.j_fwd if pair.side is Side.BWD_FWD else pair.j_fwd.T


@pytest.mark.parametrize("seed", range(6))
def test_half_the_residual_is_the_distance_to_the_symmetric_operators(seed):
    for rng, dst, src, scale in _draws(seed, 10):
        pair = random_pair(src, dst, rng)
        m = complex_draw(rng, dst, src, scale)
        residual, size = symmetry_residual(OperatorHK(m), pair), op_norm(m)
        first = _frame(pair)
        primary = pair.side is Side.BWD_FWD
        n = m if primary else adj(m)
        b = adj(first) @ n
        # coordinates (B + B^T)/2, the part orthogonal to the frame unchanged
        nearest_n = n - first @ (0.5 * (b - b.T))
        nearest = nearest_n if primary else adj(nearest_n)
        assert symmetry_residual(OperatorHK(nearest), pair) <= 1e-13 * size
        assert abs(op_norm(nearest - m) - 0.5 * residual) <= 1e-13 * size
        # no symmetric operator is closer
        for _ in range(3):
            other = symmetric_part(complex_draw(rng, dst, src, scale), pair)
            assert op_norm(other - m) >= 0.5 * residual * (1.0 - 1e-12)


def test_profile_distance_is_the_ball_distance_of_the_truncations():
    worst = 0.0
    for seed in range(40):
        rng = np.random.default_rng([43, seed])
        dim_h = int(rng.integers(1, 9))
        dim_k = int(rng.integers(1, dim_h + 1))
        t = random_operator(rng, dim_h, dim_k, rng.uniform(0.5, 10.0))
        profile = approximation_profile(t, random_pair(dim_k, dim_h, rng))
        that = bounded_transform(t)
        for row in profile.rows[:-1]:
            cut = np.where(np.arange(dim_h)[:, None] < row.n, that.mat, 0.0)
            ref = ball_dist(BallPoint(cut), that)
            worst = max(worst, abs(row.dist - ref) / ref)
        # at full depth both sides are the distance of a point to itself
        assert ball_dist(that, that) == 0.0
        assert abs(profile.rows[-1].dist) <= 1e-8
    assert worst <= 1e-11
