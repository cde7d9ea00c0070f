"""One fresh benchmark process: import opball, run one warm-up item, then the
items of one mode, and write the outcome as JSON.

Modes:
  setup   stop after the warm-up item (the parent times the whole process);
  timed   items in a closed loop for --seconds with tracing off, a speed
          probe between items, then item 1 again to check that its output
          repeats byte for byte;
  traced  a fixed number of items (set by --seconds) once untraced and once
          traced; the two passes must give identical outputs.

Run by ``bench/run.py``; usable by hand as
``PYTHONPATH=src python3 bench/worker.py --workload approx_8x2 --seed 1
--seconds 2 --mode timed --workdir /tmp/w --out /tmp/w/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from speed import at_probe_speed, probe
from workloads import WORKLOADS

CHECK_ERRORS = (ValueError, KeyError, IndexError, TypeError, OSError)
SRC = Path(__file__).resolve().parent.parent / "src"


def run_item(main, workload, item):
    """Run one item; returns (seconds, status, reason, output bytes).

    status is 'ok', 'wrong' (exit code 0, output fails the check) or 'error'
    (an exception escaped the CLI, or a nonzero exit code).
    """
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(item.argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    except Exception as exc:  # the CLI would die with a traceback
        elapsed = time.perf_counter() - start
        reason = f"{type(exc).__name__}: {exc}"
        return elapsed, "error", reason, reason.encode()
    elapsed = time.perf_counter() - start
    stdout = buf.getvalue()
    if rc != 0:
        return elapsed, "error", f"exit code {rc}", f"exit {rc}\n{stdout}".encode()
    try:
        return (elapsed, *workload.check(item, stdout))
    except CHECK_ERRORS as exc:
        return elapsed, "wrong", f"unreadable output: {exc!r}", stdout.encode()


class Tally:
    """Outcome counts of the items of one pass."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.counts = {"ok": 0, "wrong": 0, "error": 0}
        self.must_pass_failures = 0
        self.must_pass_failed: list[str] = []

    def add(self, item, status, reason):
        self.attempted += 1
        self.counts[status] += 1
        if status != "ok" and self.workload.must_pass(item):
            self.must_pass_failures += 1
            self.must_pass_failed.append(f"{item.argv}: {reason}")


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def run_pass(main, workload, indices, deadline=None):
    """Run items ``indices`` in order, with a probe before each and after the
    last, until ``deadline`` passes; returns (tally, times, probes, outputs)."""
    tally = Tally(workload)
    times, probes, outputs = [], [probe()], []
    for i in indices:
        item = workload.prepare(i)
        elapsed, status, reason, output = run_item(main, workload, item)
        probes.append(probe())
        times.append(elapsed)
        outputs.append(output)
        tally.add(item, status, reason)
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return tally, times, probes, outputs


def timed(main, workload, seconds):
    deadline = time.perf_counter() + seconds
    tally, times, probes, outputs = run_pass(main, workload, itertools.count(1), deadline)
    _, _, _, again = run_item(main, workload, workload.prepare(1))
    return {"times_s": times, "scaled_s": at_probe_speed(times, probes),
            "probe_s": statistics.median(probes), "deterministic": again == outputs[0]}, tally


def traced(main, workload, seconds, spans_path):
    from tracer import LAYER_UNITS, Tracer, instrument, layer_metrics

    indices = range(1, max(1, round(seconds * workload.trace_rate)) + 1)
    _, times, probes, plain = run_pass(main, workload, indices)
    tracer = Tracer()
    tally, traced_times, traced_probes, outputs = run_pass(instrument(tracer), workload, indices)
    tracer.write(spans_path)
    layers = layer_metrics(
        tracer, traced_times, at_probe_speed(traced_times, traced_probes),
        untraced=at_probe_speed(times, probes),
        wrong=tally.counts["wrong"] if workload.name == "metric_32x8" else 0,
    )
    return {"layers": layers, "layer_units": LAYER_UNITS, "deterministic": outputs == plain}, tally


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out")
    args = ap.parse_args()

    from opball.cli import main as cli_main

    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    run_item(cli_main, workload, workload.prepare(0))
    if args.mode == "setup":
        return
    if args.mode == "timed":
        result, tally = timed(cli_main, workload, args.seconds)
    else:
        result, tally = traced(cli_main, workload, args.seconds, Path(args.out).with_suffix(".spans.json"))
    result.update(
        attempted=tally.attempted,
        counts=tally.counts,
        must_pass_failures=tally.must_pass_failures,
        must_pass_failed=tally.must_pass_failed[:10],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
