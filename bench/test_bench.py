"""Tests of the benchmark itself: ``python -m pytest bench/test_bench.py``."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, shared_frame_pair  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


@pytest.mark.parametrize("t, s", [(0.01, 0.3), (0.7, 0.7), (1.5, 0.2), (5.0, 9.0), (0.0, 2.0)])
def test_shared_frame_oracle_matches_disc_distance_of_transforms(t, s):
    from opball import OperatorHK, bounded_transform, poincare_dist

    rng = np.random.default_rng(3)
    mat_t, mat_s, dist = shared_frame_pair(rng, 1, 1, [t], [s])
    a = complex(bounded_transform(OperatorHK(mat_t)).mat[0, 0])
    b = complex(bounded_transform(OperatorHK(mat_s)).mat[0, 0])
    assert dist == pytest.approx(poincare_dist(a, b), rel=1e-12, abs=1e-15)


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def leaf():
        raise ValueError("leaf fails")

    leaf = tracer.wrap("leaf", leaf)

    def inner(fail):
        if fail:
            with pytest.raises(ValueError):
                leaf()

    inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda: (inner(False), inner(True)))
    outer()
    # outer [0, 10] holds inner [1, 3] and inner [4, 8], which holds leaf [5, 6]
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("outer", -1, False), ("inner", 0, False), ("inner", 0, False), ("leaf", 2, True),
    ]
    assert tracer.self_times() == [4.0, 2.0, 3.0, 1.0]
