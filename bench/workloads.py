"""The benchmark's workloads: item inputs made from the seed, and the check
of every item's output against what the program must produce.

Each item is one call of ``opball.cli.main`` with the argument list that
:meth:`Workload.prepare` returns.  Item ``i`` of a run depends only on the
workload seed and ``i``, so no two items of a run share an operand unless the
workload itself repeats it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDENTITY_CHECKS = (
    "mobius_round_trip",
    "mobius_commutation",
    "ball_membership",
    "mobius_invariance",
    "origin_distance",
    "scalar_reduction",
    "transform_norm_identity",
    "transform_round_trip",
    "metric_two_routes",
    "metric_symmetry",
    "metric_triangle",
    "closed_right_inverse",
    "pair_invariants",
    "block_characterization",
    "extension_symmetry",
    "induced_pair_invariants",
    "graph_identity",
    "defect_commutation",
)

# relative tolerance on the 12 digits `opball metric` prints
METRIC_REL_TOL = 1e-10
# threshold of the profile invariants (opball.tolerances.DEFAULT.profile)
PROFILE_TOL = 1e-8
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def item_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


@dataclass(frozen=True)
class Item:
    argv: list[str]
    expect: float = 0.0  # oracle value, metric items only
    scale: float = 0.0   # operand scale, metric items only


class Workload:
    name = ""
    # items of the traced run per second of --seconds (both passes fit in it)
    trace_rate = 1.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)

    def prepare(self, i: int) -> Item:
        raise NotImplementedError

    def check(self, item: Item, stdout: str) -> tuple[str, str, bytes]:
        """Verdict on an item that returned exit code 0: 'ok' or 'wrong', the
        reason, and the output bytes that must repeat when it runs again."""
        raise NotImplementedError

    def must_pass(self, item: Item) -> bool:
        """Whether a failure of this item makes the run incorrect, rather
        than only counting against ``ok_frac``."""
        return True


class Approx(Workload):
    """One-trial `opball approx` at 8x2: operands are reused heavily inside
    an item (the same t is re-transformed at every depth, t_ref re-factored
    in every distance), so caching or one factorization per operand shows."""

    name = "approx_8x2"
    trace_rate = 1.5

    def prepare(self, i):
        return Item(["approx", "--dim-h", "8", "--dim-k", "2", "--trials", "1",
                     "--jobs", "1", "--seed", str(item_seed(self.seed, i)),
                     "--out", str(self.workdir / "approx")])

    def check(self, item, stdout):
        csv_text = (self.workdir / "approx_trial000.csv").read_text()
        json_text = (self.workdir / "approx_ensemble.json").read_text()
        return (*self._verdict(csv_text, json_text), (csv_text + "\0" + json_text).encode())

    @staticmethod
    def _verdict(csv_text, json_text):
        lines = csv_text.splitlines()
        if lines[0] != "n,dist,sym_residual,margin":
            return "wrong", f"csv header {lines[0]!r}"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        if [r[0] for r in rows] != list(range(1, 9)):
            return "wrong", "depths are not 1..8"
        for n, dist, sym, margin in rows:
            if not (math.isfinite(dist) and dist >= 0.0 and 0.0 < margin <= 1.0):
                return "wrong", f"row {n}: dist {dist!r}, margin {margin!r}"
            if sym > PROFILE_TOL:
                return "wrong", f"row {n}: symmetry residual {sym!r}"
        if rows[-1][1] > PROFILE_TOL:
            return "wrong", f"final distance {rows[-1][1]!r}"
        report = json.loads(json_text)
        profile = [[r["n"], r["dist"], r["sym_residual"], r["margin"]]
                   for r in report["profiles"][0]["rows"]]
        if not report["all_valid"] or profile != rows:
            return "wrong", "ensemble JSON disagrees with the CSV"
        return "ok", ""


class Identities(Workload):
    """One-trial `opball identities` at the default 8x3: every operand is
    fresh and small, so caching gains nothing and per-call overhead
    (mobius, inverse, pair validation) dominates."""

    name = "identities_8x3"
    trace_rate = 5.0

    def prepare(self, i):
        return Item(["identities", "--trials", "1", "--seed", str(item_seed(self.seed, i))])

    def check(self, item, stdout):
        report = json.loads(stdout)
        names = tuple(r["name"] for r in report["identities"])
        failed = [r["name"] for r in report["identities"] if not r["passed"]]
        if names != IDENTITY_CHECKS:
            return "wrong", f"identity names {names}", stdout.encode()
        if failed:
            return "wrong", f"failed {failed}", stdout.encode()
        return "ok", "", stdout.encode()


def _frame(rng, rows: int, cols: int) -> np.ndarray:
    """Random matrix with orthonormal columns."""
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _write_matrix(path: Path, mat: np.ndarray) -> None:
    data = [[float(v.real), float(v.imag)] for v in mat.reshape(-1)]
    path.write_text(json.dumps({"rows": mat.shape[0], "cols": mat.shape[1], "data": data}))


def shared_frame_pair(rng, rows: int, cols: int, t, s) -> tuple[np.ndarray, np.ndarray, float]:
    """T = U diag(t) V*, S = U diag(s) V* and their exact distance.

    Both bounded transforms are diagonal in the same frames with entries
    tanh(asinh t_i) and tanh(asinh s_i), so the invariant distance is
    max_i |asinh t_i - asinh s_i|.
    """
    k = len(t)
    u, v = _frame(rng, rows, k), _frame(rng, cols, k)
    dist = max(abs(math.asinh(a) - math.asinh(b)) for a, b in zip(t, s))
    return (u * np.asarray(t)) @ v.conj().T, (u * np.asarray(s)) @ v.conj().T, dist


class Metric(Workload):
    """`opball metric` on 8x32 operands read from files, through the matio
    read path and the Jacobi cost at n=32.  Operand scales sweep 1e-2..1e8
    evenly in log10, so the boundary defects lower ok_frac in proportion
    to the share of the range they cover."""

    name = "metric_32x8"
    trace_rate = 4.0

    def prepare(self, i):
        rng = np.random.default_rng(item_seed(self.seed, i))
        offset = np.random.default_rng(self.seed).uniform()
        scale = 10.0 ** (-2.0 + 10.0 * ((offset + i * GOLDEN) % 1.0))
        t, s = (scale * np.exp(rng.uniform(math.log(0.5), math.log(2.0), 8)) for _ in range(2))
        mat_t, mat_s, dist = shared_frame_pair(rng, 8, 32, t, s)
        _write_matrix(self.workdir / "T.json", mat_t)
        _write_matrix(self.workdir / "S.json", mat_s)
        return Item(["metric", str(self.workdir / "T.json"), str(self.workdir / "S.json")],
                    expect=dist, scale=scale)

    def check(self, item, stdout):
        err = abs(float(stdout) - item.expect) / item.expect
        if err > METRIC_REL_TOL:
            return "wrong", f"scale {item.scale:.3e}: relative error {err:.2e}", stdout.encode()
        return "ok", "", stdout.encode()

    def must_pass(self, item):
        # Large operands hit the known boundary defects (wrong digits from
        # about 1e2, OutOfDisc near 1e7); those count against ok_frac.  Unit
        # scale and below is well inside the accuracy the library claims.
        return item.scale <= 1.0


WORKLOADS = {w.name: w for w in (Approx, Identities, Metric)}
