"""Benchmark of the opball CLI: one workload, one seed, one run.

    python3 bench/run.py --workload approx_8x2 --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/`` and nothing is installed.  With ``--trace 0`` the set-up is timed in
fresh processes and the items in one more fresh process with tracing off,
and the end-to-end metrics are printed.  With ``--trace 1`` the per-layer
metrics of a traced run are printed instead.  Every line before the last
names one metric with its value and unit, or the environment; the last line
is the JSON result.  BLAS runs on one thread in every process.  The workloads
and metrics are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import at_probe_speed, probe
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / ".runs"
# fresh processes timed per run for setup_s; the median is reported
SETUP_PROBES = 15
# every process this run starts has ended, or is killed, by then
DEADLINE_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def worker(args, mode: str, workdir: Path, out: Path | None) -> None:
    """Run one worker process to its end."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", str(workdir)]
    if out is not None:
        cmd += ["--out", str(out)]
    try:
        # a pipe, so the wait ends at the child's exit rather than at a poll
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              timeout=max(1.0, args.deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker still running after {DEADLINE_S} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {done.returncode}")


def setup_seconds(args, workdir: Path) -> tuple[float, float]:
    """Median time of a fresh process that imports opball, runs one warm-up
    item and exits: at probe speed, and as wall-clock time.

    The probes run here, between the processes: a probe inside a fresh
    process is cold and would measure that instead of the machine.
    """
    for _ in range(10):
        probe()
    times, probes = [], [probe()]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        worker(args, "setup", workdir, None)
        times.append(time.perf_counter() - start)
        probes.append(probe())
    return statistics.median(at_probe_speed(times, probes)), statistics.median(times)


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timings(times: list[float]) -> dict[str, float]:
    return {
        "items_per_s": len(times) / sum(times),
        "item_ms_p50": 1000.0 * percentile(times, 0.5),
        "item_ms_p90": 1000.0 * percentile(times, 0.9),
    }


def end_to_end(result: dict, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        **timings(result["scaled_s"]),
        "ok_frac": result["counts"]["ok"] / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    args.deadline = time.perf_counter() + DEADLINE_S
    # SIGTERM unwinds like an exception, so subprocess.run kills its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "opball" / "cli.py").is_file():
        print(f"run.py: no opball sources under {SRC}", file=sys.stderr)
        return 2

    RUNS.mkdir(exist_ok=True)
    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    workdir = Path(tempfile.mkdtemp(dir=RUNS))
    try:
        if args.trace:
            worker(args, "traced", workdir, out)
            result = json.loads(out.read_text())
            units = result["layer_units"]
            metrics = result["layers"]
        else:
            setup_s, setup_wall_s = setup_seconds(args, workdir)
            worker(args, "timed", workdir, out)
            result = json.loads(out.read_text())
            result["wall_clock"] = {"setup_s": setup_wall_s, **timings(result["times_s"])}
            units = END_TO_END_UNITS
            metrics = end_to_end(result, setup_s)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counts = result["counts"]
    # Items of the known boundary defects are not counted here: they are
    # measured by ok_frac, and the per-layer split of raised and wrong.
    failed = result["must_pass_failures"]
    correct = result["deterministic"] and not result["must_pass_failed"]
    for reason in result["must_pass_failed"]:
        print(f"must-pass item failed: {reason}", file=sys.stderr)
    if not result["deterministic"]:
        print("a re-run item did not repeat its output byte for byte", file=sys.stderr)
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"items {result['attempted']} ok {counts['ok']} wrong {counts['wrong']} "
          f"error {counts['error']}, of which must-pass {failed}")
    if not args.trace:
        print("wall clock, not corrected for machine speed: "
              + ", ".join(f"{name} {value:.4g}" for name, value in result["wall_clock"].items())
              + f", probe_ms_p50 {1000.0 * result['probe_s']:.4g}")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]!r} {units[name]}")
    result["metrics"] = metrics
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
