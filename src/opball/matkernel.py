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

The eigensolver is a cyclic two-sided complex Jacobi iteration over a stack
of matrices of one size, run on the input scaled by a power of two per
member (exact, and no square overflows or underflows).  There is one route
to the spectrum of a Gram matrix: :func:`gram_factor` and :func:`op_norm`
both form the scaled, symmetrized Gram matrix (:func:`_scaled_gram`),
iterate on it and take the norm from its top eigenvalue (:func:`_norms`),
so a factor's norm is :func:`op_norm` by construction.  Those two take a
matrix or a stack, a single matrix being a stack of one, and a stack costs
one iteration, each member giving the bytes it gives on its own.
:func:`herm_eig` takes one general Hermitian matrix and gates its
asymmetry before the same iteration.  Each round rotates the active pairs
of every member at once by the overflow-free hypot angle, from one cached
plan per stack length and size; a member that has converged stops rotating.
At desk sizes (side <= 64) it converges in a handful of sweeps and keeps the
eigenbasis unitary and the reconstruction residual at roundoff level.
Solves are counted in matrices, the stack length, not in calls.  Inversion
is Gaussian elimination with partial pivoting and an explicit pivot floor,
so near-singular systems fail loudly instead of returning garbage.

All functions are pure: inputs are never mutated and returned arrays are
read-only, so values are freely shareable across threads.  A factor's
powers are memoized in the factor; two threads that ask for the same power
at once both compute it, and either result is the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
_EPS = float(np.finfo(float).eps)
_OUT_OF_RANGE = f"result exceeds the float range (max {np.finfo(float).max:.3e})"


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_cmat(a) -> np.ndarray:
    """Validate and normalize a dense complex matrix.

    Accepts anything ``np.asarray`` does, requires a 2-D shape with positive
    dimensions and finite entries, and returns a read-only complex128 copy.
    """
    return _checked(np.array(a, dtype=np.complex128, order="C"), 2)


def _as_stack(a) -> tuple[np.ndarray, bool]:
    """(S, single): a matrix, or a stack (sequence or 3-D array) of matrices
    of one shape, as a read-only complex128 stack S of shape (b, rows, cols),
    checked as :func:`as_cmat` checks a matrix.  ``single`` when ``a`` is
    one matrix, which is a stack of one."""
    m = np.array(a, dtype=np.complex128, order="C")
    single = m.ndim == 2
    return _checked(m[None] if single else m, 3), single


def _checked(m: np.ndarray, ndim: int) -> np.ndarray:
    """``m``, read-only, after the checks of :func:`as_cmat` for ``ndim``
    dimensions."""
    if m.ndim != ndim:
        what = "a 2-D matrix" if ndim == 2 else "a matrix or a stack of matrices"
        raise ShapeMismatch(f"expected {what}, got ndim={m.ndim}")
    if 0 in m.shape:
        raise ShapeMismatch(f"matrix dimensions must be positive, got {m.shape}")
    if not np.isfinite(m).all():
        raise ShapeMismatch("matrix entries must be finite")
    return _freeze(m)


def require_shape(m: np.ndarray, shape: tuple[int, int], what: str) -> None:
    """Raise :class:`ShapeMismatch` unless ``m`` has the expected ``shape``."""
    if m.shape != shape:
        raise ShapeMismatch(f"{what} has shape {m.shape}, expected {shape}")


def adj(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each member of a stack).  Adjoints are always
    computed, never stored."""
    return a.conj().mT


def fro_norm(a: np.ndarray) -> float:
    """Frobenius norm of a matrix (cheap upper bound for the spectral norm),
    summed at the power-of-two scale of max|a| so that no square overflows
    or underflows."""
    s = np.abs(a)
    _, exp = np.frexp(s.max(initial=0.0))
    return float(np.ldexp(np.sqrt((np.ldexp(s, -exp) ** 2).sum()), exp))


@dataclass(frozen=True, eq=False)
class HermSpectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``basis`` is unitary with the
    matching eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray


_PLANS: dict[tuple[int, int], tuple] = {}


def _plan(b: int, n: int) -> tuple:
    """Jacobi constants for a stack of ``b`` matrices of side ``n``, as flat
    indices into the stack: per round of the tournament schedule (each sweep
    visits every index pair once, in rounds of mutually disjoint pairs) the
    entries (p, q), (q, p), (p, p) and (q, q) of each of its pairs in every
    member; the identity stack; the diagonal entries; the off-diagonal entries
    per member; and the offsets that sort each member's eigenpairs."""
    cached = _PLANS.get((b, n))
    if cached is not None:
        return cached
    players = list(range(n)) + ([-1] if n % 2 else [])
    m = len(players)
    start = np.arange(b)[:, None] * (n * n)
    rounds = []
    for _ in range(m - 1):
        ps, qs = [], []
        for i in range(m // 2):
            x, y = players[i], players[m - 1 - i]
            if x >= 0 and y >= 0:
                ps.append(min(x, y))
                qs.append(max(x, y))
        p, q = np.array(ps), np.array(qs)
        rounds.append(tuple(
            (start + entry).ravel() for entry in (p * n + q, q * n + p, p * (n + 1), q * (n + 1))
        ))
        players = [players[0], players[-1], *players[1:-1]]
    diag = (start + np.arange(n) * (n + 1)).ravel()
    ident = np.zeros((b, n, n), dtype=np.complex128)
    ident.reshape(-1)[diag] = 1.0
    off = start + np.flatnonzero(~np.eye(n, dtype=bool))
    sort = (start[:, :, None] + np.arange(n)[:, None] * n, np.arange(b)[:, None] * n)
    plan = rounds, _freeze(ident), diag, off, sort
    _PLANS[(b, n)] = plan
    return plan


def _pow2_scaled(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M 2^-e, e) for each member M of a stack, with 2^-e max|M| in
    [1/2, 1): exact in the normal range."""
    _, exp = np.frexp(np.abs(m).max(axis=(1, 2)))
    return np.ldexp(m.view(np.float64), -exp[:, None, None]).view(np.complex128), exp


def _unscaled(x: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """x 2^exp for each member's entries in a stack of arrays, raising
    :class:`ShapeMismatch` where one leaves the float range."""
    shift = exp.reshape((-1,) + (1,) * (x.ndim - 1))
    if max(exp.tolist()) > 0 and (np.frexp(x)[1] + shift).max() > 1024:
        raise ShapeMismatch(_OUT_OF_RANGE)
    return np.ldexp(x, shift)


def _norms(vals: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """sqrt(max vals) 2^exp for each member of a stack: its spectral norm
    from the eigenvalues (b, n) of its Gram matrix formed at 4^-exp."""
    return _unscaled(np.sqrt(np.maximum(vals.max(axis=1), 0.0)), exp)


def _sorted_eig(vals: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_jacobi`'s stacked result with each member's eigenvalues
    ascending and its basis columns (read-only) in the same order."""
    order = np.argsort(vals, axis=1, kind="stable")
    cols_at, vals_at = _plan(*vals.shape)[4]
    basis = basis.reshape(-1)[order[:, None, :] + cols_at]
    return vals.reshape(-1)[order + vals_at], _freeze(basis)


def _jacobi(h: np.ndarray, want_vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Cyclic complex Jacobi iteration on a stack of Hermitian matrices.

    ``h`` has shape (b, n, n), each member at the power-of-two scale of
    :func:`_pow2_scaled` (or a Gram matrix formed there), so no square
    overflows or underflows.  In each round-robin round the active pairs
    (|a_pq| > ``skip`` of their member) of all members rotate together as
    one unitary per member by the overflow-free angle tan = sign(d) 2|a_pq|
    / (|d| + hypot(d, 2|a_pq|)), d = a_qq - a_pp (Golub & Van Loan, *Matrix
    Computations*, 4th ed., sec. 8.5); a round with no active pair is
    skipped.  A member whose off-diagonal mass has fallen below its ``stop``
    keeps its result and takes no further rotation, so each member gives
    the bytes it gives as a stack of one.  Returns (eigenvalues (b, n),
    accumulated unitaries (b, n, n) or None); the caller sorts.  After
    ``_MAX_SWEEPS`` sweeps it raises :class:`NoConvergence`, naming the
    first member left, the sweeps and the off-diagonal Frobenius mass left,
    relative to that of the whole member.
    """
    b, n, _ = h.shape
    rounds, ident, diag, off, _ = _plan(b, n)
    if n == 1:
        return h.real.reshape(b, 1), ident if want_vectors else None
    a = h.reshape(-1)
    flat = a.reshape(b, -1)
    scale = np.sqrt(np.vecdot(flat, flat).real)
    v = ident.copy() if want_vectors else None
    tiny = _EPS * scale
    stop = 0.5 * n * (n - 1) * tiny**2
    # entries this small cannot lift the off-diagonal mass above `stop`
    skip = tiny / (4.0 * n)
    pairs = len(rounds[0][0]) // b
    skip_at = np.repeat(skip, pairs)
    # members converged while others still rotate; a zero member from the start
    held = scale == 0.0
    settled = np.count_nonzero(held)
    vals, vecs = np.zeros((b, n)), v

    sweeps = 0
    while True:
        m = a[off]
        mass = np.vecdot(m, m).real
        done = mass <= stop
        count = np.count_nonzero(done)
        if count == b:
            out = a.real[diag].reshape(b, n)
            if settled:
                out[held] = vals[held]
                if v is not None:
                    v[held] = vecs[held]
            return out, v
        if count > settled:
            fresh = done & ~held
            vals[fresh] = a.real[diag].reshape(b, n)[fresh]
            if v is not None:
                vecs[fresh] = v[fresh]  # vecs is the first v, never rebound
            held |= fresh
            settled = count
            skip_at = np.repeat(np.where(held, np.inf, skip), pairs)
        if sweeps == _MAX_SWEEPS:
            i = int(np.flatnonzero(~done)[0])
            raise NoConvergence(
                f"Jacobi iteration did not converge in {sweeps} sweeps: off-diagonal "
                f"mass {math.sqrt(mass[i]) / scale[i]:.3e} of the matrix norm remains"
                + (f" (stack member {i} of {b})" if b > 1 else "")
            )
        sweeps += 1
        for pq, qp, pp, qq in rounds:
            apq = a[pq]
            r = np.abs(apq)
            act = r > skip_at
            count = np.count_nonzero(act)
            if not count:
                continue
            if count < act.size:
                pq, qp, pp, qq, apq, r = pq[act], qp[act], pp[act], qq[act], apq[act], r[act]
            d = a.real
            delta, r2 = d[qq] - d[pp], 2.0 * r
            t = np.copysign(r2, delta) / (np.abs(delta) + np.hypot(delta, r2))
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            phase = apq / r
            u = ident.copy()
            flat_u = u.reshape(-1)
            flat_u[pp] = c * phase
            flat_u[pq] = s * phase
            flat_u[qp] = -s
            flat_u[qq] = c
            a = (adj(u) @ a.reshape(b, n, n) @ u).reshape(-1)
            a[pq] = 0.0
            a[qp] = 0.0
            a.imag[diag] = 0.0
            if v is not None:
                v = v @ u


def herm_eig(p) -> HermSpectrum:
    """Eigendecomposition of a (near-)Hermitian matrix.

    The input is symmetrized to (P + P*)/2 before decomposition; asymmetry
    beyond ``DEFAULT.herm_asym`` relative to max(1, ||P||) raises
    :class:`NotHermitian` instead of being repaired silently.  Both run at
    :func:`_pow2_scaled`'s scale; eigenvalues past the float range raise.
    Gram matrices do not come here: :func:`gram_factor` and :func:`op_norm`
    form them Hermitian and solve them directly.
    """
    m = as_cmat(p)
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"eigendecomposition needs a square matrix, got {m.shape}")
    a, exp = _pow2_scaled(m[None])
    asym = fro_norm(a[0] - adj(a[0]))
    # 1 at this scale; capped where 2^-e overflows, far above any asymmetry
    unit = math.ldexp(1.0, min(-int(exp[0]), 1023))
    if asym > DEFAULT.herm_asym * unit and asym > DEFAULT.herm_asym * fro_norm(a[0]):
        relative = asym / max(unit, fro_norm(a[0]))
        raise NotHermitian(f"relative asymmetry {relative:.3e} above {DEFAULT.herm_asym:.1e}")
    vals, basis = _sorted_eig(*_jacobi(0.5 * (a + adj(a))))
    return HermSpectrum(_freeze(_unscaled(vals, exp)[0]), basis[0])


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


def _scaled_gram(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, str]:
    """(G 4^-e, e, side) for each member M of a stack: G the smaller Gram
    matrix of M, MM* for side "left" and M*M for "right", formed from M at
    the scale of :func:`_pow2_scaled` and symmetrized to (G + G*)/2."""
    m, exp = _pow2_scaled(m)
    side = "left" if m.shape[1] <= m.shape[2] else "right"
    gram = m @ adj(m) if side == "left" else adj(m) @ m
    return 0.5 * (gram + adj(gram)), exp, side


@dataclass(frozen=True, eq=False)
class GramFactor:
    """One eigen-solve of the smaller Gram matrix of M, serving every power.

    ``side`` names the Gram matrix held, "left" for MM* and "right" for M*M;
    ``eigenvalues`` (ascending) and ``basis`` are its spectrum.  A solved
    factor (:func:`gram_factor`) holds the smaller Gram matrix, MM* when M is
    square, and its ``norm``, the spectral norm of M, is :func:`op_norm`'s by
    construction: both take it from the same solve.  A factor built by
    :meth:`transport` may hold "right" for a square M, and its ``norm``
    agrees with :func:`op_norm` to roundoff only.
    """

    mat: np.ndarray
    side: str
    eigenvalues: np.ndarray
    basis: np.ndarray
    norm: float
    _powers: dict = field(default_factory=dict, init=False, repr=False)

    def power(self, sign: float, power: float, side: str) -> np.ndarray:
        """(I + sign G)^power for G = M*M (``side="right"``) or MM* (``"left"``),
        computed once per (sign, power, side) and kept in the factor.

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
        A power that raises is not kept, so it raises on every call.
        """
        key = (sign, power, side)
        out = self._powers.get(key)
        if out is None:
            out = self._powers[key] = self._power(sign, power, side)
        return out

    def _power(self, sign: float, power: float, side: str) -> np.ndarray:
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


def gram_factor(m):
    """Factor M once: one Jacobi solve of its smaller Gram matrix, the steps
    of :func:`op_norm` with the eigenvectors kept and sorted.  A stack of
    matrices gives the tuple of their factors from one stacked solve, each
    factor's ``mat`` a read-only view into the stack."""
    stack, single = _as_stack(m)
    gram, exp, side = _scaled_gram(stack)
    vals, basis = _jacobi(gram)
    norms = _norms(vals, exp).tolist()
    vals, basis = _sorted_eig(vals, basis)
    vals = _freeze(_unscaled(vals, 2 * exp))
    factors = tuple(
        GramFactor(stack[i], side, vals[i], basis[i], norms[i]) for i in range(len(stack))
    )
    return factors[0] if single else factors


def op_norm(a):
    """Spectral norm: largest singular value, from the same solve of the
    smaller Gram matrix as :func:`gram_factor` (whose ``norm`` it is), without
    the eigenvectors.  A float for a matrix; for a stack, the read-only array
    of its members' norms from one stacked iteration.  An all-zero input
    takes no iteration."""
    stack, single = _as_stack(a)
    if not np.count_nonzero(stack):
        norms = np.zeros(len(stack))
    else:
        gram, exp, _ = _scaled_gram(stack)
        norms = _norms(_jacobi(gram, want_vectors=False)[0], exp)
    return float(norms[0]) if single else _freeze(norms)


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
