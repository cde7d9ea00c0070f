"""Outside-in tracing of the opball modules, and the per-layer metrics.

The tracer wraps public functions of ``src/opball/`` from the outside: each
wrapped call records one span (name, start, end, parent, raised, input key)
in memory, and nothing in the library changes.  ``from .matkernel import
op_norm`` binds a separate name in every caller, so :func:`instrument`
replaces the function in every ``opball.*`` namespace that holds it.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import pathlib
import sys
import time
from collections import defaultdict

import numpy as np

from workloads import IDENTITY_CHECKS

# module -> public functions that get a span of their own
FUNCTIONS = {
    "matkernel": ("herm_eig", "op_norm", "inverse"),
    "ball": ("mobius", "mobius_inv", "mobius_to_origin", "ball_dist"),
    "transform": ("bounded_transform", "inverse_bounded_transform", "operator_dist"),
    "symmetry": ("induced_pair", "symmetry_residual"),
    "density": ("symmetric_approximant", "profile_csv", "report_json"),
    "matio": ("read_matrix",),
    "cli": ("main",),
}
# module -> classes whose construction (``__post_init__``) gets a span
CLASSES = {"ball": ("BallPoint",), "symmetry": ("ConjugationPair",)}
# a solve is one Jacobi eigen-iteration, reached through either entry point
SOLVES = ("matkernel.herm_eig", "matkernel.op_norm")

# per-layer metric -> spans whose self time it sums, in ms per item
SELF_MS = {
    "matkernel.herm_eig.ms": ("matkernel.herm_eig",),
    "matkernel.op_norm.ms": ("matkernel.op_norm",),
    "matkernel.inverse.ms": ("matkernel.inverse",),
    "ball.mobius.ms": ("ball.mobius", "ball.mobius_inv", "ball.mobius_to_origin"),
    "ball.ball_dist.ms": ("ball.ball_dist",),
    "transform.bounded_transform.ms": ("transform.bounded_transform",),
    "transform.inverse_bounded_transform.ms": ("transform.inverse_bounded_transform",),
    "transform.operator_dist.ms": ("transform.operator_dist",),
    "symmetry.induced_pair.ms": ("symmetry.induced_pair",),
    "symmetry.symmetry_residual.ms": ("symmetry.symmetry_residual",),
    "density.symmetric_approximant.ms": ("density.symmetric_approximant",),
    "density.output.ms": ("density.profile_csv", "density.report_json", "density.write"),
    **{f"identities.{name}.ms": (f"identities.{name}",) for name in IDENTITY_CHECKS},
    "matio.read_matrix.ms": ("matio.read_matrix",),
    "cli.self.ms": ("cli.main",),
}
# per-layer metric -> span whose calls it counts, per item
CALLS = {
    "matkernel.inverse.calls": "matkernel.inverse",
    "ball.BallPoint.calls": "ball.BallPoint",
    "transform.operator_dist.calls": "transform.operator_dist",
    "symmetry.ConjugationPair.calls": "symmetry.ConjugationPair",
}

LAYER_UNITS = {
    "matkernel.solves_per_item": "count",
    "matkernel.repeat_solve_frac": "ratio",
    "matkernel.share": "ratio",
    "transform.operator_dist.raised": "count",
    "cli.metric.wrong_frac": "ratio",
    "trace.overhead_frac": "ratio",
    **{name: "ms" for name in SELF_MS},
    **{name: "count" for name in CALLS},
}


class Tracer:
    """In-memory span recorder for one thread.

    ``clock`` is injectable so the self-time arithmetic can be tested with a
    scripted clock.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # each span: [name, start, end, parent index or -1, raised, input key]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, key=None):
        """``fn`` with a span named ``name`` around every call.

        ``key(*args)`` identifies the call's input; it is computed before the
        clock starts, so its cost lands in the caller's self time.
        """

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, False,
                    key(*args) if key else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = self.clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = self.clock()
                self._stack.pop()

        return functools.update_wrapper(traced, fn)

    def self_times(self) -> list[float]:
        """Per span, its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        """Write the spans as JSON: one [name, start, end, parent, raised] each."""
        rows = [span[:5] for span in self.spans]
        pathlib.Path(path).write_text(json.dumps({"spans": rows}) + "\n")


def _matrix_key(a, *_):
    m = np.ascontiguousarray(a, dtype=np.complex128)
    return m.shape, hashlib.blake2b(m.tobytes(), digest_size=16).digest()


def instrument(tracer: Tracer):
    """Route opball's public functions through ``tracer`` for this process.

    Returns the traced ``opball.cli.main``; a reference taken before this
    call keeps calling the untraced one.
    """
    cli = importlib.import_module("opball.cli")
    identities = importlib.import_module("opball.identities")
    wrapped = {}  # id of the original (kept alive by its wrapper) -> wrapper
    for mod, names in FUNCTIONS.items():
        module = importlib.import_module(f"opball.{mod}")
        for name in names:
            fn = getattr(module, name)
            key = _matrix_key if f"{mod}.{name}" in SOLVES else None
            wrapped[id(fn)] = tracer.wrap(f"{mod}.{name}", fn, key)
    for name, fn in identities.CHECKS.items():
        wrapped[id(fn)] = identities.CHECKS[name] = tracer.wrap(f"identities.{name}", fn)
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "opball" or mod_name.startswith("opball."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])
    for mod, names in CLASSES.items():
        module = importlib.import_module(f"opball.{mod}")
        for name in names:
            cls = getattr(module, name)
            cls.__post_init__ = tracer.wrap(f"{mod}.{name}", cls.__post_init__)

    base = type(pathlib.Path())

    class TracedPath(base):
        write_text = tracer.wrap("density.write", base.write_text)

    cli.Path = TracedPath
    return cli.main


def layer_metrics(tracer: Tracer, times: list[float], scaled: list[float],
                  untraced: list[float], wrong: int) -> dict[str, float]:
    """Per-layer metrics of the traced items, each a value per item.

    ``times`` are the traced items' wall times and ``scaled`` the same at
    probe speed; every span of item ``k`` is scaled like the item.
    ``untraced`` are the probe-speed times of the same items without
    tracing.  ``wrong`` counts metric items whose printed distance missed
    the oracle.
    """
    items = len(times)
    factors = [s / t for s, t in zip(scaled, times)]
    own = tracer.self_times()
    self_s = defaultdict(float)
    calls = defaultdict(int)
    raised = defaultdict(int)
    solves = repeats = 0
    item = -1
    seen: set = set()
    for span, t in zip(tracer.spans, own):
        name, parent, did_raise, key = span[0], span[3], span[4], span[5]
        if parent < 0:  # each item is one root span
            item += 1
            seen = set()
        self_s[name] += t * factors[item]
        calls[name] += 1
        raised[name] += did_raise
        if name in SOLVES:
            solves += 1
            repeats += key in seen
            seen.add(key)
    kernel_s = sum(t for name, t in self_s.items() if name.startswith("matkernel."))
    out = {
        "matkernel.solves_per_item": solves / items,
        "matkernel.repeat_solve_frac": repeats / solves if solves else 0.0,
        "matkernel.share": kernel_s / sum(scaled),
        "transform.operator_dist.raised": raised["transform.operator_dist"] / items,
        "cli.metric.wrong_frac": wrong / items,
        "trace.overhead_frac": sum(scaled) / sum(untraced) - 1.0,
    }
    for metric, names in SELF_MS.items():
        out[metric] = 1000.0 * sum(self_s[n] for n in names) / items
    for metric, name in CALLS.items():
        out[metric] = calls[name] / items
    return out
