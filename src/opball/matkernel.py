"""Dense complex linear-algebra substrate.

Everything else in the library reduces to the primitives implemented here:
Hermitian eigendecomposition, Hermitian square roots and inverse square
roots, the defect powers (I +- G)^(+-1/2) of a Gram matrix G, the spectral
norm, and general inversion.

Each operand is factored once: :func:`gram_factor` eigen-solves the smaller
of its two Gram matrices M*M and MM* (MM* when M is square), and the
resulting :class:`GramFactor` serves the spectral norm and every defect
power.  Both Gram matrices share their nonzero spectrum, and the one not
held follows from the push-through identity f(AB) A = A f(BA) (Higham,
*Functions of Matrices*, SIAM 2008, ch. 1); for a square M that is the
M*M side.  Ball points and operators keep their factor, so a defect never
costs a second solve of the same operand.  The eigenvalue floor of a power
is not a parameter: only the inverse square root of a defect, (I - G)^(-1/2),
is checked against ``DEFAULT.defect_floor``, and ``BallPoint.defect`` is the
one place that asks for defect powers.

The eigensolver is a cyclic two-sided complex Jacobi iteration, run on the
input scaled by a power of two (exact, and no square overflows or
underflows).  Each round rotates its active pairs at once by the
overflow-free hypot angle, from one cached plan per size.  At desk sizes
(side <= 64) it converges in a handful of sweeps and keeps the eigenbasis
unitary and the reconstruction residual at roundoff level.  Inversion is
Gaussian elimination with partial pivoting and an explicit pivot floor, so
near-singular systems fail loudly instead of returning garbage.

All functions are pure: inputs are never mutated and returned arrays are
read-only, so values are freely shareable across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EigenvalueBelowFloor,
    NoConvergence,
    NotHermitian,
    ShapeMismatch,
    Singular,
)
from .tolerances import DEFAULT

_MAX_SWEEPS = 42


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_cmat(a) -> np.ndarray:
    """Validate and normalize a dense complex matrix.

    Accepts anything ``np.asarray`` does, requires a 2-D shape with positive
    dimensions and finite entries, and returns a read-only complex128 copy.
    """
    m = np.array(a, dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeMismatch(f"matrix dimensions must be positive, got {m.shape}")
    if not np.isfinite(m).all():
        raise ShapeMismatch("matrix entries must be finite")
    return _freeze(m)


def require_shape(m: np.ndarray, shape: tuple[int, int], what: str) -> None:
    """Raise :class:`ShapeMismatch` unless ``m`` has the expected ``shape``."""
    if m.shape != shape:
        raise ShapeMismatch(f"{what} has shape {m.shape}, expected {shape}")


def adj(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose.  Adjoints are always computed, never stored."""
    return a.conj().T


def fro_norm(a: np.ndarray) -> float:
    """Frobenius norm (cheap upper bound for the spectral norm), summed at the
    power-of-two scale of max|a| so that no square overflows or underflows."""
    s = np.abs(a)
    _, exp = math.frexp(float(s.max(initial=0.0)))
    return float(np.ldexp(np.sqrt((np.ldexp(s, -exp) ** 2).sum()), exp))


@dataclass(frozen=True, eq=False)
class HermSpectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``basis`` is unitary with the
    matching eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray


_PLANS: dict[int, tuple] = {}


def _plan(n: int) -> tuple:
    """Per-size Jacobi constants: the tournament schedule (each sweep visits
    every index pair once, in rounds of mutually disjoint pairs), the
    off-diagonal mask, the identity and the diagonal index."""
    cached = _PLANS.get(n)
    if cached is not None:
        return cached
    players = list(range(n)) + ([-1] if n % 2 else [])
    m = len(players)
    rounds = []
    for _ in range(m - 1):
        ps, qs = [], []
        for i in range(m // 2):
            x, y = players[i], players[m - 1 - i]
            if x >= 0 and y >= 0:
                ps.append(min(x, y))
                qs.append(max(x, y))
        rounds.append((np.array(ps), np.array(qs)))
        players = [players[0], players[-1], *players[1:-1]]
    plan = rounds, ~np.eye(n, dtype=bool), np.eye(n, dtype=np.complex128), np.arange(n)
    _PLANS[n] = plan
    return plan


def _pow2_scaled(m: np.ndarray) -> tuple[np.ndarray, int]:
    """(M 2^-e, e) with 2^-e max|M| in [1/2, 1): exact in the normal range."""
    _, exp = math.frexp(float(np.abs(m).max()))
    return np.ldexp(m.view(np.float64), -exp).view(np.complex128), exp


def _unscaled(x, exp: int):
    """x 2^exp, raising :class:`ShapeMismatch` where it leaves the float range."""
    if exp > 0 and math.frexp(float(np.abs(x).max()))[1] + exp > 1024:
        raise ShapeMismatch(f"result exceeds the float range (max {np.finfo(float).max:.3e})")
    return np.ldexp(x, exp)


def _jacobi(h: np.ndarray, want_vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Cyclic complex Jacobi iteration on a Hermitian matrix.

    H comes at the power-of-two scale of :func:`_pow2_scaled` (or is a Gram
    matrix formed there), so no square overflows or underflows.  In each
    round-robin round the active pairs (|a_pq| > ``skip``) rotate together as
    one unitary by the overflow-free angle tan = sign(d) 2|a_pq| / (|d| +
    hypot(d, 2|a_pq|)), d = a_qq - a_pp (Golub & Van Loan, *Matrix
    Computations*, 4th ed., sec. 8.5).  Returns (eigenvalues, accumulated
    unitary or None); the caller sorts.  After ``_MAX_SWEEPS`` sweeps it
    raises :class:`NoConvergence`, naming the sweeps and the off-diagonal
    Frobenius mass left, relative to that of the whole matrix.
    """
    n = h.shape[0]
    rounds, off, ident, diag = _plan(n)
    v = ident.copy() if want_vectors else None
    if n == 1:
        return h.real.diagonal().copy(), v
    a = h
    scale = math.sqrt(np.vdot(a, a).real)
    if scale == 0.0:
        return np.zeros(n), v
    eps = float(np.finfo(float).eps)
    stop = 0.5 * n * (n - 1) * (eps * scale) ** 2
    # entries this small cannot lift the off-diagonal mass above `stop`
    skip = eps * scale / (4.0 * n)

    sweeps = 0
    while True:
        m = a[off]
        mass = np.vdot(m, m).real
        if mass <= stop:
            return a.real.diagonal().copy(), v
        if sweeps == _MAX_SWEEPS:
            raise NoConvergence(
                f"Jacobi iteration did not converge in {sweeps} sweeps: off-diagonal "
                f"mass {math.sqrt(mass) / scale:.3e} of the matrix norm remains"
            )
        sweeps += 1
        for p, q in rounds:
            apq = a[p, q]
            r = np.abs(apq)
            act = r > skip
            if not act.any():
                continue
            p, q, apq, r = p[act], q[act], apq[act], r[act]
            d = a.real.diagonal()
            delta, r2 = d[q] - d[p], 2.0 * r
            t = np.copysign(r2, delta) / (np.abs(delta) + np.hypot(delta, r2))
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            phase = apq / r
            u = ident.copy()
            u[p, p] = c * phase
            u[p, q] = s * phase
            u[q, p] = -s
            u[q, q] = c
            a = adj(u) @ a @ u
            a[p, q] = 0.0
            a[q, p] = 0.0
            a.imag[diag, diag] = 0.0
            if v is not None:
                v = v @ u


def herm_eig(p) -> HermSpectrum:
    """Eigendecomposition of a (near-)Hermitian matrix.

    The input is symmetrized to (P + P*)/2 before decomposition; asymmetry
    beyond ``DEFAULT.herm_asym`` relative to max(1, ||P||) raises
    :class:`NotHermitian` instead of being repaired silently.  Both run at
    :func:`_pow2_scaled`'s scale; eigenvalues past the float range raise.
    """
    m = as_cmat(p)
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"eigendecomposition needs a square matrix, got {m.shape}")
    a, exp = _pow2_scaled(m)
    # 1 at this scale; capped where 2^-exp overflows, far above any asymmetry
    unit = math.ldexp(1.0, min(-exp, 1023))
    asym = fro_norm(a - adj(a))
    if asym > DEFAULT.herm_asym * unit and asym > DEFAULT.herm_asym * fro_norm(a):
        relative = asym / max(unit, fro_norm(a))
        raise NotHermitian(f"relative asymmetry {relative:.3e} above {DEFAULT.herm_asym:.1e}")
    vals, basis = _jacobi(0.5 * (a + adj(a)))
    order = np.argsort(vals, kind="stable")
    return HermSpectrum(_freeze(_unscaled(vals[order], exp)), _freeze(basis[:, order].copy()))


def _spectral(basis: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """basis diag(vals) basis*, re-symmetrized so it is Hermitian to roundoff."""
    out = (basis * vals) @ adj(basis)
    return _freeze(0.5 * (out + adj(out)))


def herm_sqrt(p) -> np.ndarray:
    """Spectral square root; tiny negative eigenvalues are clipped to zero."""
    spectrum = herm_eig(p)
    return _spectral(spectrum.basis, np.sqrt(np.maximum(spectrum.eigenvalues, 0.0)))


def herm_inv_sqrt(p) -> np.ndarray:
    """Spectral inverse square root; an eigenvalue below
    ``DEFAULT.defect_floor`` raises :class:`EigenvalueBelowFloor`."""
    spectrum = herm_eig(p)
    lo = float(spectrum.eigenvalues[0])
    if lo < DEFAULT.defect_floor:
        raise EigenvalueBelowFloor(lo, DEFAULT.defect_floor)
    return _spectral(spectrum.basis, 1.0 / np.sqrt(spectrum.eigenvalues))


def _scaled_gram(m: np.ndarray) -> tuple[np.ndarray, int, str]:
    """(G 4^-e, e, side): G the smaller Gram matrix of M, MM* for side "left"
    and M*M for "right", formed from M at the scale of :func:`_pow2_scaled`."""
    m, exp = _pow2_scaled(m)
    if m.shape[0] <= m.shape[1]:
        return m @ adj(m), exp, "left"
    return adj(m) @ m, exp, "right"


@dataclass(frozen=True, eq=False)
class GramFactor:
    """One eigen-solve of the smaller Gram matrix of M, serving every power.

    ``side`` names the Gram matrix held, "left" for MM* and "right" for M*M;
    ``eigenvalues`` (ascending) and ``basis`` are its spectrum.  A solved
    factor (:func:`gram_factor`) holds the smaller Gram matrix, MM* when M is
    square, and its ``norm``, the spectral norm of M, equals :func:`op_norm`
    bit for bit.  A factor built by :meth:`transport` may hold "right" for a
    square M, and its ``norm`` agrees with :func:`op_norm` to roundoff only.
    """

    mat: np.ndarray
    side: str
    eigenvalues: np.ndarray
    basis: np.ndarray
    norm: float

    def power(self, sign: float, power: float, side: str) -> np.ndarray:
        """(I + sign G)^power for G = M*M (``side="right"``) or MM* (``"left"``).

        ``sign`` is +1 or -1 and ``power`` is +1/2 or -1/2.  When ``side``
        names the Gram matrix not held, the push-through identity gives

            (I + sign N*N)^power = I + N* h(NN*) N,   h(x) = (g(x) - 1) / x,

        with N = M for the right side and M* for the left, g(x) =
        (1 + sign x)^power and r = sqrt(1 + sign x), in the
        cancellation-free forms h = sign / (1 + r) for power 1/2 and
        h = -sign / (r (1 + r)) for power -1/2.

        The floor follows from sign and power.  Only the inverse square root
        of a defect (sign -1, power -1/2) is singular at the boundary: an
        eigenvalue of I - G below ``DEFAULT.defect_floor`` raises
        :class:`EigenvalueBelowFloor`, checked on the held spectrum and on
        1, the eigenvalue that only the pushed side has.  The square root of
        a defect stays well conditioned there, so its roundoff negatives are
        clipped to 0 as in :func:`herm_sqrt`; for sign +1, 1 + x >= 1.

        In the pushed form, an entry of size one cancels where g is small,
        leaving an absolute error of order eps there.  A product g(M*M) M*
        is therefore best written M* g(MM*) when MM* is the held matrix.
        """
        if side not in ("left", "right") or sign not in (1, -1) or power not in (0.5, -0.5):
            raise ValueError(f"unsupported Gram power sign={sign}, power={power}, side={side!r}")
        push = side != self.side
        x = self.eigenvalues
        d = 1.0 + sign * x
        if sign < 0 and power < 0:
            lo = min(float(d.min()), 1.0) if push else float(d.min())
            if lo < DEFAULT.defect_floor:
                raise EigenvalueBelowFloor(lo, DEFAULT.defect_floor)
        r = np.sqrt(np.maximum(d, 0.0))
        basis = self.basis
        if not push:
            return _spectral(basis, r if power > 0 else 1.0 / r)
        if power > 0:
            # where 1 + sign x was clipped, g = 0 and h = -1 / x with x >= 1
            h = np.where(d > 0.0, sign / (1.0 + r), -1.0 / np.maximum(x, 1.0))
        else:
            h = -sign / (r * (1.0 + r))
        n = self.mat if side == "right" else adj(self.mat)
        out = np.eye(n.shape[1]) + adj(n) @ (basis * h) @ adj(basis) @ n
        return _freeze(0.5 * (out + adj(out)))

    def transport(self, mat, eigen_map, flip: bool) -> GramFactor:
        """The factor of ``mat``, a matrix whose Gram matrix on the held side
        (swapped when ``flip``) is eigen_map(G) for this factor's G: the same
        basis and the mapped eigenvalues, with no solve.

        ``eigen_map`` is monotone increasing on the spectrum.  Singular-value
        functions of M are of this kind: the bounded transform and its
        inverse (x / (1 + x), x / (1 - x)) exchange the Gram sides, and a
        scalar multiple c M (c^2 x) keeps them.  Rounding in the map may
        reorder equal neighbours, so the mapped spectrum is re-sorted.
        """
        m = as_cmat(mat)
        side = {"left": "right", "right": "left"}[self.side] if flip else self.side
        require_shape(self.basis, (m.shape[0 if side == "left" else 1],) * 2, "held basis")
        vals = np.asarray(eigen_map(self.eigenvalues), dtype=np.float64)
        order = np.argsort(vals, kind="stable")
        top = float(vals[order[-1]])
        norm = math.sqrt(top) if top > 0.0 else 0.0
        return GramFactor(m, side, _freeze(vals[order]), _freeze(self.basis[:, order]), norm)


def gram_factor(m) -> GramFactor:
    """Factor M once: one :func:`herm_eig` of its smaller Gram matrix."""
    m = as_cmat(m)
    gram, exp, side = _scaled_gram(m)
    spectrum = herm_eig(gram)
    top = float(spectrum.eigenvalues[-1])
    norm = float(_unscaled(math.sqrt(top), exp)) if top > 0.0 else 0.0
    vals = _freeze(_unscaled(spectrum.eigenvalues, 2 * exp))
    return GramFactor(m, side, vals, spectrum.basis, norm)


def op_norm(a) -> float:
    """Spectral norm: largest singular value, via the smaller Gram matrix
    scaled as in :func:`gram_factor` (whose ``norm`` it equals)."""
    m = as_cmat(a)
    if not m.any():
        return 0.0
    gram, exp, _ = _scaled_gram(m)
    vals, _ = _jacobi(0.5 * (gram + adj(gram)), want_vectors=False)
    top = float(vals.max())
    return float(_unscaled(math.sqrt(top), exp)) if top > 0.0 else 0.0


def inverse(a) -> np.ndarray:
    """Matrix inverse by Gaussian elimination with partial pivoting.

    Raises :class:`Singular` when a pivot falls below
    ``pivot_floor * max|A|``, rather than dividing through by noise.
    """
    m = as_cmat(a)
    n = m.shape[0]
    if n != m.shape[1]:
        raise ShapeMismatch(f"inverse needs a square matrix, got {m.shape}")
    scale = float(np.abs(m).max())
    threshold = DEFAULT.pivot_floor * scale
    work = m.copy()
    out = np.eye(n, dtype=np.complex128)
    for k in range(n):
        pivot_row = k + int(np.argmax(np.abs(work[k:, k])))
        pivot = work[pivot_row, k]
        if abs(pivot) <= threshold:
            raise Singular(f"pivot {abs(pivot):.3e} at column {k} below threshold")
        if pivot_row != k:
            work[[k, pivot_row]] = work[[pivot_row, k]]
            out[[k, pivot_row]] = out[[pivot_row, k]]
        inv_piv = 1.0 / pivot
        work[k] *= inv_piv
        out[k] *= inv_piv
        factors = work[:, k].copy()
        factors[k] = 0.0
        work -= np.outer(factors, work[k])
        out -= np.outer(factors, out[k])
    return _freeze(out)
