"""Truncation pipeline, approximation profiles, ensemble experiments."""

import math
import re

import numpy as np
import pytest

from opball import (
    ApproxProfile,
    BadDims,
    BallPoint,
    OperatorHK,
    ProfileRow,
    ShapeMismatch,
    bounded_transform,
    inverse_bounded_transform,
    mobius_to_origin,
    op_norm,
    operator_dist,
    random_pair,
    symmetry_residual,
    zero_operator,
)
from opball.density import (
    EnsembleReport,
    approximation_profile,
    ensemble_experiment,
    profile_csv,
    report_json,
    symmetric_approximant,
)
from opball.sampling import random_ball_point, random_operator
from opball.symmetry import extension_blocks, swap_roles


def test_approximant_cut_column_example():
    # the doubled point's leading block is the depth-n cut of the transform
    col = BallPoint(np.array([[0.3], [0.4], [0.2]]))
    t = inverse_bounded_transform(col)
    pair = random_pair(1, 3, seed=0)
    _, _, doubled = symmetric_approximant(t, pair, 2)
    assert np.allclose(doubled.mat[:3, :1], [[0.3], [0.4], [0.0]])
    _, _, doubled = symmetric_approximant(t, pair, 3)
    assert np.array_equal(doubled.mat[:3, :1], bounded_transform(t).mat)


def test_approximant_cut_norm_monotone():
    rng = np.random.default_rng(61)
    for i in range(30):
        point = random_ball_point(rng, int(rng.integers(2, 9)), int(rng.integers(1, 4)))
        depth = int(rng.integers(1, point.dim_h + 1))
        t = inverse_bounded_transform(point)
        pair = random_pair(point.dim_k, point.dim_h, seed=i)
        _, _, doubled = symmetric_approximant(t, pair, depth)
        cut = doubled.mat[: point.dim_h, : point.dim_k]
        assert op_norm(cut) <= op_norm(bounded_transform(t).mat) + 1e-14


def test_approximant_bad_depth():
    pair = random_pair(1, 3, seed=0)
    for depth in (0, 4, 1.5):
        with pytest.raises(BadDims):
            symmetric_approximant(zero_operator(3, 1), pair, depth)
    # a numpy integer is a depth like any other
    t = inverse_bounded_transform(BallPoint(np.array([[0.3], [0.4], [0.2]])))
    _, _, by_numpy = symmetric_approximant(t, pair, np.int64(2))
    _, _, by_int = symmetric_approximant(t, pair, 2)
    assert np.array_equal(by_numpy.mat, by_int.mat)


def test_approximant_full_depth_recovers_input():
    rng = np.random.default_rng(62)
    for _ in range(5):
        t = random_operator(rng, 6, 2, rng.uniform(0.5, 8.0))
        pair = random_pair(2, 6, rng)
        full, out_pair, doubled = symmetric_approximant(t, pair, 6)
        assert op_norm(full.mat[:2, :6] - t.mat) <= 1e-8
        assert symmetry_residual(full, out_pair) <= 1e-8
        assert doubled.margin > 0.0


def test_approximant_zero_operator():
    pair = random_pair(2, 5, seed=1)
    for depth in (1, 3, 5):
        approx, out_pair, _ = symmetric_approximant(zero_operator(5, 2), pair, depth)
        assert np.array_equal(approx.mat, np.zeros((4, 10)))
        assert symmetry_residual(approx, out_pair) == 0.0


def test_approximant_truncation_fixed_point():
    # transform supported on the first coordinate: constant in depth
    rng = np.random.default_rng(63)
    ball = np.zeros((5, 1), dtype=complex)
    ball[0, 0] = 0.6
    t = OperatorHK((np.eye(1) * (1 / math.sqrt(1 - 0.36)) @ ball.conj().T))
    pair = random_pair(1, 5, rng)
    mats = []
    for depth in range(1, 6):
        approx, _, _ = symmetric_approximant(t, pair, depth)
        mats.append(approx.mat)
    for m in mats[1:]:
        assert op_norm(m - mats[0]) <= 1e-12


def test_approximant_norm_equals_truncation_norm():
    rng = np.random.default_rng(64)
    t = random_operator(rng, 6, 2, 3.0)
    pair = random_pair(2, 6, rng)
    that = bounded_transform(t)
    for depth in (1, 3, 6):
        _, _, doubled = symmetric_approximant(t, pair, depth)
        expected = op_norm(np.where(np.arange(that.dim_h)[:, None] < depth, that.mat, 0.0))
        assert doubled.factor.norm == pytest.approx(expected, abs=1e-12)


def test_approximant_dim_guard():
    # a pair that does not run from K to H is a misfit operand, not a bad size
    t = zero_operator(4, 2)
    message = "operator for the pair has shape (2, 4), expected (4, 2)"
    with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
        symmetric_approximant(t, random_pair(4, 2, seed=0), 2)


def test_profile_invariants_random():
    rng = np.random.default_rng(65)
    t = random_operator(rng, 8, 2, rng.uniform(0.5, 10.0))
    pair = random_pair(2, 8, rng)
    prof = approximation_profile(t, pair)
    assert prof.violations() == []
    assert [r.n for r in prof.rows] == list(range(1, 9))
    assert prof.rows[-1].dist <= 1e-8
    assert all(r.sym_residual <= 1e-8 for r in prof.rows)
    assert prof.min_depth() == 8


def test_profile_violations_name_each_breach():
    healthy = ProfileRow(n=1, dist=0.0, sym_residual=1e-12, margin=0.5)
    assert ApproxProfile((healthy,), 0.0).violations() == []
    rows = (
        ProfileRow(n=2, dist=0.5, sym_residual=3e-8, margin=0.5),
        ProfileRow(n=1, dist=2e-8, sym_residual=0.0, margin=0.5),
    )
    assert ApproxProfile(rows, 5e-8).violations() == [
        "depths not 1..p: [2, 1]",
        "final distance 2.000e-08 above 1e-08",
        "recovery residual 5.000e-08 above 1e-08",
        "symmetry residual 3.000e-08 at depth 2",
    ]


def test_profile_zero_operator():
    prof = approximation_profile(zero_operator(4, 1), random_pair(1, 4, seed=2))
    assert all(r.dist == 0.0 for r in prof.rows)


def test_profile_distance_equals_ball_route():
    # the distance of each iterate to the full-depth one agrees with the
    # invariant-ball route through the transforms of both
    rng = np.random.default_rng(66)
    t = random_operator(rng, 6, 2, 2.5)
    pair = random_pair(2, 6, rng)
    full, _, _ = symmetric_approximant(t, pair, 6)
    full_hat = bounded_transform(full)
    prof = approximation_profile(t, pair)
    for depth, row in zip(range(1, 7), prof.rows):
        approx, _, _ = symmetric_approximant(t, pair, depth)
        via_ball = math.atanh(
            op_norm(mobius_to_origin(full_hat, bounded_transform(approx)).mat)
        )
        assert abs(row.dist - via_ball) <= 1e-8


def test_extension_reference_differs_from_full_depth():
    # the full-depth approximant and the symmetric extension both extend t
    # exactly, but they are distinct operators: the bounded transform does
    # not commute with the doubled extension
    rng = np.random.default_rng(67)
    t = random_operator(rng, 5, 2, 2.0)
    pair = random_pair(2, 5, rng)
    full, _, _ = symmetric_approximant(t, pair, 5)
    ext = OperatorHK(extension_blocks(t.mat, swap_roles(pair)))
    assert op_norm(full.mat[:2, :5] - t.mat) <= 1e-9
    assert np.array_equal(ext.mat[:2, :5], t.mat)
    assert operator_dist(full, ext) > 1e-3


def test_ensemble_report_and_determinism():
    rep1 = ensemble_experiment(6, 2, 5, seed=11)
    rep2 = ensemble_experiment(6, 2, 5, seed=11)
    assert report_json(rep1) == report_json(rep2)
    assert rep1.all_valid()
    assert rep1.max_sym_residual() <= 1e-8
    med = rep1.median_dist()
    assert len(med) == 6
    assert all(med[i + 1] <= med[i] + 1e-12 for i in range(len(med) - 1))
    different = ensemble_experiment(6, 2, 5, seed=12)
    assert report_json(different) != report_json(rep1)
    assert EnsembleReport(6, 2, 0, 11, ()).median_dist() == []


def test_ensemble_jobs_do_not_change_results():
    serial = ensemble_experiment(5, 2, 6, seed=3, jobs=1)
    threaded = ensemble_experiment(5, 2, 6, seed=3, jobs=4)
    assert report_json(serial) == report_json(threaded)


def test_ensemble_single_trial_matches_profile():
    rep = ensemble_experiment(5, 2, 1, seed=9)
    assert len(rep.results) == 1
    # reproduce the trial draw from the same spawned seed
    child = np.random.SeedSequence(9).spawn(1)[0]
    rng = np.random.default_rng(child)
    scale = rng.uniform(0.5, 10.0)
    from opball.sampling import complex_gaussian

    t = OperatorHK(complex_gaussian(rng, 2, 5, scale))
    pair = random_pair(2, 5, rng)
    prof = approximation_profile(t, pair)
    assert prof == rep.results[0]


def test_ensemble_flag_guards():
    with pytest.raises(BadDims):
        ensemble_experiment(2, 3, 1, seed=0)
    with pytest.raises(BadDims):
        ensemble_experiment(4, 2, 0, seed=0)
    with pytest.raises(BadDims, match=r"^need seed >= 0$"):
        ensemble_experiment(4, 2, 1, seed=-1)
    for jobs in (0, -3):
        with pytest.raises(BadDims, match=rf"^need jobs >= 1, got {jobs}$"):
            ensemble_experiment(3, 1, 1, seed=0, jobs=jobs)


def test_profile_csv_format():
    rep = ensemble_experiment(4, 1, 1, seed=4)
    text = profile_csv(rep.results[0])
    lines = text.strip().split("\n")
    assert lines[0] == "n,dist,sym_residual,margin"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) >= 0.0
