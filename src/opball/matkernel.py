"""Dense complex linear-algebra substrate.

Everything else in the library reduces to the primitives implemented here:
Hermitian eigendecomposition, Hermitian square roots and inverse square
roots, the defect powers (I +- G)^(+-1/2) of a Gram matrix G, the spectral
norm, and general inversion.

Each operand is factored once: :func:`gram_factor` eigen-solves the smaller
of its two Gram matrices M*M and MM* (MM* when M is square) into a
:class:`GramFactor`, a record of the spectral norm and the spectrum that
:func:`powers` takes every defect power from.  Both Gram matrices share
their nonzero spectrum, and the one not held follows from the push-through
identity f(AB) A = A f(BA) (Higham, *Functions of Matrices*, SIAM 2008,
ch. 1); for a square M that is the M*M side.  Ball points and operators
keep their factor, so a defect never costs a second solve of the same
operand.  A held spectrum is nonnegative: :func:`gram_factor` clips the
roundoff negatives of zero eigenvalues to 0 where it solves them, and no
consumer clips or patches again.  The eigenvalue floor of a power is not a
parameter: a defect (I - G)^(+-1/2) needs a contraction, so its square root
refuses an eigenvalue of I - G below 0 and its inverse square root one
below ``DEFAULT.defect_floor``; ``ball.defects`` (with ``BallPoint.defect``
its one-item case) is the one place that asks for defect powers.

Powers and transports are formed for a stack of factors at once, as the
solves are, and a single factor is a stack of one, on ``[None]`` views of
its arrays: :func:`powers` computes the powers of factors of one shape and
one held side as one batched expression, and :func:`transport` maps the
stacked spectra of several factors at once.  Each member of a stack gives
exactly the bytes it gives alone: a stacked matmul multiplies each member
as the matrix product does, on operands laid out as a stack of one lays
them out.

The eigensolver is a cyclic two-sided complex Jacobi iteration over a stack
of matrices of one size, run on the input scaled by a power of two per
member (exact, and no square overflows or underflows).  There is one route
to the spectrum of a Gram matrix: :func:`gram_factor` and :func:`op_norm`
both form the scaled, symmetrized Gram matrix (:func:`_scaled_gram`),
iterate on it and take the norm from its top eigenvalue (:func:`_norms`),
so a factor's norm is :func:`op_norm` by construction.  Those two take a
matrix or a stack, a single matrix being a stack of one, and a stack costs
one call.  :func:`herm_eig` takes one general Hermitian matrix and gates
its asymmetry before the same iteration.  Every sweep visits the pairs of
one round-robin schedule and rotates each pair above the skip threshold by
the overflow-free hypot angle, and a member stops once its off-diagonal
mass is below the stop threshold, in one of two loops picked by the side
alone, never by the stack length.  Side 4 and up runs the stacked loop:
each round rotates the active pairs of every member at once, from indices
cached per stack length, size and workspace, a converged member is masked
out of later rounds, and a member with no active pair takes an identity
rotation, which can flip the sign of a zero but changes no nonzero entry.
Each member's matrix and its accumulated vectors share one workspace, so a
round is two complex products, one for the columns of both and one for the
rows of the matrix, among about 25 numpy calls (about 18 us a round at side
8).  Sides 2 and 3, where a round holds one pair, run the scalar loop, one
member at a time on Python complex numbers: a stacked round costs those
calls however little it rotates, so the scalar loop wins there until a
stack holds about 7 (side 2) or 14 (side 3) members, more than the package
stacks but in ``approx --dim-k 1`` (dim_h members of side 2).  Every zero is
returned as +0.0, so either way each member's eigenvalues and vectors are
exactly the bytes it gives alone.
At desk sizes (side <= 64) it converges in a handful of sweeps and keeps the
eigenbasis unitary and the reconstruction residual at roundoff level.
Solves are counted in matrices, the stack length, not in calls.  Inversion
is Gauss-Jordan elimination with partial pivoting on [A | I] and an
explicit pivot floor, so near-singular systems fail loudly instead of
returning garbage.

The float range is decided here and nowhere else.  Every routine that
scales, the eigensolver, :func:`fro_norm` and :func:`inverse`, scales by
:func:`_pow2_scaled` (the largest real or imaginary part, never a modulus,
which can overflow where the parts do not) and unscales by
:func:`_unscaled`, which raises :class:`ShapeMismatch` for a result past
the range.  A product formed from a caller's operands elsewhere in the
package is declared :func:`in_float_range`, the one guard that silences
numpy's warnings and raises the same error.

All functions are pure: inputs are never mutated and returned arrays are
read-only, so values are freely shareable across threads.  A factor is
immutable and keeps no powers: each call computes the powers it returns.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDims,
    EigenvalueBelowFloor,
    NoConvergence,
    NotHermitian,
    ShapeMismatch,
    Singular,
)
from .tolerances import DEFAULT

_MAX_SWEEPS = 42
# sides up to this rotate one member at a time on Python complex numbers: at
# side 2 or 3 every round rotates one pair per member, and a stacked round
# costs about 25 numpy calls, two of them products (about 18 us at side 8),
# however little it rotates
_SCALAR_SIDE = 3

_EPS = float(np.finfo(float).eps)
_EMPTY = "stack is empty: need at least one member"
_OUT_OF_RANGE = f"result exceeds the float range (max {np.finfo(float).max:.3e})"
_MAX_BYTES = int(np.iinfo(np.intp).max)
# the scalar types a Gram power's sign and power may have
_REAL = (int, float, np.integer, np.floating)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_cmat(a) -> np.ndarray:
    """Validate and normalize a dense complex matrix.

    Accepts anything ``np.asarray`` does, requires a 2-D shape with positive
    dimensions and finite entries, and returns a read-only complex128 copy.
    """
    return _checked(complex_array(a), 2)


def as_cstack(a) -> tuple[np.ndarray, bool]:
    """(S, single): a matrix, or a stack (sequence or 3-D array) of matrices
    of one shape, as a read-only complex128 stack S of shape (b, rows, cols),
    checked as :func:`as_cmat` checks a matrix, in the shape passed (a
    matrix gains its stack axis after).  ``single`` when ``a`` is one
    matrix, which is a stack of one.  Mixed shapes, no matrix or a
    malformed member raise :class:`ShapeMismatch`."""
    m = complex_array(a)
    if m.ndim != 2 and m.shape[:1] == (0,):
        raise ShapeMismatch(_EMPTY)
    single = m.ndim == 2
    m = _checked(m, 2 if single else 3)
    return (m[None] if single else m), single


def complex_array(a, what: str = "a complex matrix or stack of matrices") -> np.ndarray:
    """``a`` as a C-ordered complex128 copy, of any shape.  What numpy
    cannot read as a regular complex array raises :class:`ShapeMismatch`:
    matrices of different shapes naming their shapes, anything else saying
    it is not ``what`` and quoting numpy."""
    try:
        return np.array(a, dtype=np.complex128, order="C")
    except (ValueError, TypeError, OverflowError) as exc:
        try:
            shapes = [np.shape(x) for x in a]
        except (ValueError, TypeError):
            shapes = []
        if len(set(shapes)) > 1 and all(len(s) == 2 for s in shapes):
            raise _shapes_differ(shapes) from None
        raise ShapeMismatch(f"not {what}: {exc}") from None


def _shapes_differ(shapes) -> ShapeMismatch:
    named = ", ".join(map(str, dict.fromkeys(shapes)))
    return ShapeMismatch(f"stack members differ in shape: {named}")


def require_one_shape(shapes) -> None:
    """Raise :class:`ShapeMismatch` naming the distinct ``shapes``, in order
    of appearance, unless there is only one; an empty stack raises too."""
    if not shapes:
        raise ShapeMismatch(_EMPTY)
    if len(set(shapes)) > 1:
        raise _shapes_differ(shapes)


def in_float_range(func):
    """``func``, run with numpy's overflow and invalid-value warnings off; a result
    entry that is not finite (in an array or a tuple of them) raises ShapeMismatch."""
    @functools.wraps(func)
    def guarded(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            out = func(*args, **kwargs)
        if not np.isfinite(out).all():
            raise ShapeMismatch(_OUT_OF_RANGE)
        return out
    return guarded


def stacked(arrays) -> np.ndarray:
    """Arrays of one shape (matrices, or rows of eigenvalues) as one array
    with a leading stack axis: a ``[None]`` view of a single array, a
    C-ordered copy of several.  Arrays of different shapes, or none, raise
    :class:`ShapeMismatch`."""
    if len(arrays) == 1:
        return arrays[0][None]
    require_one_shape([a.shape for a in arrays])
    return np.array(arrays)


def _checked(m: np.ndarray, ndim: int) -> np.ndarray:
    """``m``, read-only, after the checks of :func:`as_cmat` for ``ndim``
    dimensions."""
    if m.ndim != ndim:
        what = "a 2-D matrix" if ndim == 2 else "a matrix or a stack of matrices"
        raise ShapeMismatch(f"expected {what}, got ndim={m.ndim}")
    require_positive(m.shape)
    if not np.isfinite(m).all():
        raise ShapeMismatch("matrix entries must be finite")
    return _freeze(m)


def require_shape(m: np.ndarray, shape: tuple[int, int], what: str) -> None:
    """Raise :class:`ShapeMismatch` unless ``m`` has the expected ``shape``."""
    if m.shape != shape:
        raise ShapeMismatch(f"{what} has shape {m.shape}, expected {shape}")


def require_positive(shape: tuple[int, ...]) -> None:
    """Raise :class:`ShapeMismatch` quoting the matrix ``shape`` unless each
    of its dimensions is at least 1 and numpy can index its complex128
    array."""
    if min(shape) < 1:
        raise ShapeMismatch(f"matrix dimensions must be positive, got {shape}")
    if math.prod(shape) * 16 > _MAX_BYTES:
        raise ShapeMismatch(f"matrix of shape {shape} exceeds numpy's index range")


def as_integers(**values) -> tuple[int, ...]:
    """The ``values`` as Python ints, in keyword order, as
    :func:`operator.index` parses them; raise :class:`BadDims` naming the
    first that is not an integer.  Callers compute with the returned ints
    only."""
    ints = []
    for name, value in values.items():
        try:
            ints.append(operator.index(value))
        except TypeError:
            raise BadDims(f"{name} {value!r} is not an integer") from None
    return tuple(ints)


def adj(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each member of a stack).  Adjoints are always
    computed, never stored."""
    return a.conj().mT


def fro_norm(a):
    """Frobenius norm of a matrix (cheap upper bound for the spectral norm),
    summed at :func:`_pow2_scaled`'s scale so that no square overflows.  The
    input is read through :func:`as_cstack`, as :func:`op_norm` reads it, and
    a norm past the float range raises :class:`ShapeMismatch`.  A float for
    a matrix; for a stack (b, rows, cols), the read-only array of its
    members' norms, each the bytes it gives alone."""
    m, single = as_cstack(a)
    s, exp = _pow2_scaled(m)
    norms = _unscaled(np.sqrt((np.abs(s) ** 2).sum(axis=(1, 2))), exp)
    return float(norms[0]) if single else _freeze(norms)


@functools.cache
def _schedule(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The round-robin tournament schedule of side ``n``: rounds of mutually
    disjoint index pairs (p, q), p < q, that visit every pair once per sweep
    (with a bye at odd ``n``)."""
    players = list(range(n)) + ([-1] if n % 2 else [])
    m = len(players)
    rounds = []
    for _ in range(m - 1):
        pairs = []
        for i in range(m // 2):
            x, y = players[i], players[m - 1 - i]
            if x >= 0 and y >= 0:
                pairs.append((min(x, y), max(x, y)))
        rounds.append(tuple(pairs))
        players = [players[0], players[-1], *players[1:-1]]
    return tuple(rounds)


@functools.cache
def _pair_plan(n: int) -> tuple:
    """For :func:`_jacobi_scalar` at side ``n``: the pairs of
    :func:`_schedule` in sweep order, for each pair the other indices, and
    the rows of the identity."""
    pairs = tuple(pq for rnd in _schedule(n) for pq in rnd)
    others = tuple(tuple(k for k in range(n) if k != p and k != q) for p, q in pairs)
    return pairs, others, tuple(tuple(complex(j == k) for k in range(n)) for j in range(n))


@functools.cache
def _plan(b: int, n: int) -> tuple:
    """Constants for a stack of ``b`` matrices of side ``n``: the identity
    stack, and the offsets that sort each member's eigenpairs."""
    ident = np.zeros((b, n, n), dtype=np.complex128)
    ident.reshape(b, -1)[:, :: n + 1] = 1.0
    sort = (np.arange(b)[:, None, None] * (n * n) + np.arange(n)[:, None] * n, np.arange(b)[:, None] * n)
    return _freeze(ident), sort


@functools.cache
def _rounds(b: int, n: int, rows: int) -> tuple:
    """Flat indices of the stacked Jacobi loop into a workspace of ``b``
    members of shape (rows, n), each member's matrix in its first ``n``
    rows.  Per round of :func:`_schedule`, for its pairs (p, q) in every
    member: the entries (p, q); the diagonal entries (p, p) and (q, q), two
    rows; the entries (p, q) and (q, p), two rows; and the entries (p, p),
    (p, q), (q, p) and (q, q) of the rotation, four rows into a stack of
    (n, n).  Then the diagonal entries, and the off-diagonal entries per
    member."""
    start = np.arange(b)[:, None] * (rows * n)
    at = np.arange(b)[:, None] * (n * n)
    rounds = []
    for pairs in _schedule(n):
        p, q = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        pq, qp, pp, qq = p * n + q, q * n + p, p * (n + 1), q * (n + 1)
        rounds.append((
            (start + pq).ravel(),
            np.stack([(start + e).ravel() for e in (pp, qq)]),
            np.stack([(start + e).ravel() for e in (pq, qp)]),
            np.stack([(at + e).ravel() for e in (pp, pq, qp, qq)]),
        ))
    diag = (start + np.arange(n) * (n + 1)).ravel()
    off = start + np.flatnonzero(~np.eye(n, dtype=bool))
    return rounds, diag, off


def _pow2_scaled(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M 2^-e, e) for each member M of a stack, 2^-e times its largest real or
    imaginary part in [1/2, 1) (a modulus can overflow where they do not), so
    every modulus is below sqrt(2): exact in the normal range."""
    parts = m.view(np.float64)
    _, exp = np.frexp(np.abs(parts).max(axis=(1, 2), initial=0.0))
    return np.ldexp(parts, -exp[:, None, None]).view(np.complex128), exp


def _unscaled(x: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """x 2^exp for each member's entries in a stack of arrays, raising
    :class:`ShapeMismatch` where one leaves the float range."""
    shift = exp.reshape((-1,) + (1,) * (x.ndim - 1))
    if max(exp.tolist(), default=0) > 0 and (np.frexp(x)[1] + shift).max() > 1024:
        raise ShapeMismatch(_OUT_OF_RANGE)
    return np.ldexp(x, shift)


def _norms(vals: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """sqrt(max vals) 2^exp for each member of a stack: its spectral norm
    from the eigenvalues (b, n) of its Gram matrix formed at 4^-exp."""
    return _unscaled(np.sqrt(vals.max(axis=1)), exp)


def _sorted_eig(vals: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stack of eigenvalue rows (b, n) and bases (b, n, n), :func:`_jacobi`'s
    result or a transported spectrum, with each member's eigenvalues
    ascending (stable) and its basis columns (read-only) in the same order."""
    order = np.argsort(vals, axis=1, kind="stable")
    cols_at, vals_at = _plan(*vals.shape)[1]
    basis = basis.reshape(-1)[order[:, None, :] + cols_at]
    return vals.reshape(-1)[order + vals_at], _freeze(basis)


def _jacobi(h: np.ndarray, want_vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Cyclic complex Jacobi iteration on a stack of Hermitian matrices.

    ``h`` has shape (b, n, n), each member at the power-of-two scale of
    :func:`_pow2_scaled` (or a Gram matrix formed there), so no square
    overflows or underflows.  Each sweep visits the pairs of
    :func:`_schedule` in order and rotates every active pair (|a_pq| >
    ``skip`` of its member) by the overflow-free angle tan = sign(d) 2|a_pq|
    / (|d| + hypot(d, 2|a_pq|)), d = a_qq - a_pp (Golub & Van Loan, *Matrix
    Computations*, 4th ed., sec. 8.5).  A member whose off-diagonal mass
    has fallen below its ``stop`` takes no further rotation.

    The side alone picks the loop, never the stack length: a side up to
    ``_SCALAR_SIDE`` (where every round holds one pair) goes to
    :func:`_jacobi_scalar`, a larger one to :func:`_jacobi_stacked`, and a
    1x1 member is its own eigenvalue.  Either way each member's eigenvalues
    and vectors are exactly the bytes it gives as a stack of one, and every
    zero is returned as +0.0.  Returns (eigenvalues (b, n), accumulated
    unitaries (b, n, n) or None); the caller sorts.  After ``_MAX_SWEEPS``
    sweeps it raises :class:`NoConvergence`, naming the first member left,
    the sweeps and the off-diagonal Frobenius mass left, relative to that of
    the whole member.
    """
    b, n, _ = h.shape
    if n == 1:
        return h.real.reshape(b, 1) + 0.0, _plan(b, 1)[0] if want_vectors else None
    loop = _jacobi_scalar if n <= _SCALAR_SIDE else _jacobi_stacked
    return loop(h, want_vectors)


def _thresholds(scale, n: int) -> tuple:
    """(skip, stop) for members of side ``n`` and Frobenius norm ``scale``
    (a float or an array of them): the entry size below which a pair is not
    rotated, and the off-diagonal mass at which a member has converged."""
    tiny = _EPS * scale
    # entries below `skip` cannot lift the off-diagonal mass above `stop`
    return tiny / (4.0 * n), 0.5 * n * (n - 1) * tiny**2


def _no_convergence(sweeps: int, mass: float, scale: float, i: int, b: int) -> NoConvergence:
    """The error of either loop for member ``i`` of ``b`` left with
    off-diagonal ``mass`` after ``sweeps`` sweeps, relative to ``scale``."""
    return NoConvergence(
        f"Jacobi iteration did not converge in {sweeps} sweeps: off-diagonal "
        f"mass {math.sqrt(mass) / scale:.3e} of the matrix norm remains"
        + (f" (stack member {i} of {b})" if b > 1 else "")
    )


def _jacobi_stacked(h: np.ndarray, want_vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`_jacobi` on numpy stacks, for sides above ``_SCALAR_SIDE``.

    Each member's matrix A sits in one workspace W, with its accumulated
    vectors V below it when they are wanted.  In each round the active
    pairs of all members rotate together, as one unitary U per member from
    the cached :func:`_rounds`: W U rotates the columns of A and of V in one
    product, and U* (A U) the rows of A in a second.  U is built by one
    scatter, the rotated (p, q) and (q, p) entries are zeroed by one, and
    both diagonals are read by one gather, about 25 numpy calls a round in
    all.  The angle is taken as t = 2|a_pq| / (d + copysign(hypot(d,
    2|a_pq|), d)), the bits of the form in :func:`_jacobi` with one call
    fewer.  A round with no active pair is skipped, and a
    converged member is masked out of every later round.  A member with no
    active pair in a round is multiplied by an identity block, which can
    flip the sign of a zero and changes nothing else, so the returns add
    +0.0.
    """
    b, n, _ = h.shape
    ident, _ = _plan(b, n)
    rounds, diag, off = _rounds(b, n, 2 * n if want_vectors else n)
    flat = h.reshape(b, -1)
    scale = np.sqrt(np.vecdot(flat, flat).real)
    skip, stop = _thresholds(scale, n)
    w = np.concatenate((h, ident), axis=1) if want_vectors else h
    a = w.reshape(-1)
    pairs = len(rounds[0][0]) // b
    skip_at = np.repeat(skip, pairs)
    # how many members have converged; skip_at masks them out
    settled = 0

    sweeps = 0
    while True:
        m = a[off]
        mass = np.vecdot(m, m).real
        done = mass <= stop
        count = np.count_nonzero(done)
        if count == b:
            return a.real[diag].reshape(b, n) + 0.0, w[:, n:] + 0.0 if want_vectors else None
        if count > settled:
            settled = count
            skip_at = np.repeat(np.where(done, np.inf, skip), pairs)
        if sweeps == _MAX_SWEEPS:
            i = int(np.flatnonzero(~done)[0])
            raise _no_convergence(sweeps, mass[i], scale[i], i, b)
        sweeps += 1
        for pq, pp_qq, pq_qp, at in rounds:
            apq = a[pq]
            r = np.abs(apq)
            act = r > skip_at
            count = np.count_nonzero(act)
            if not count:
                continue
            if count < act.size:
                apq, r, pp_qq, pq_qp, at = apq[act], r[act], pp_qq[:, act], pq_qp[:, act], at[:, act]
            d = a.real[pp_qq]
            delta, r2 = d[1] - d[0], r + r
            t = r2 / (delta + np.copysign(np.hypot(delta, r2), delta))
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            phase = apq / r
            u = ident.copy()
            u.reshape(-1)[at] = np.concatenate((c * phase, s * phase, -s, c)).reshape(4, -1)
            w = w @ u
            if want_vectors:
                w[:, :n] = adj(u) @ w[:, :n]
            else:
                w = adj(u) @ w
            a = w.reshape(-1)
            # the roundoff a rotation leaves at (p, q) and (q, p) would count
            # in the off-diagonal mass: without this zeroing, defects with a
            # repeated eigenvalue take about 6% more sweeps
            a[pq_qp] = 0.0
            a.imag[diag] = 0.0


def _jacobi_scalar(h: np.ndarray, want_vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`_jacobi` on Python complex numbers, one member at a time, for
    sides up to ``_SCALAR_SIDE``.

    The same sweeps as :func:`_jacobi_stacked`, one pair at a time: with the
    rotation u (u_pp = c e^(i phi), u_pq = s e^(i phi), u_qp = -s, u_qq = c,
    e^(i phi) = a_pq / |a_pq|), u* A u has diagonal a_pp - t|a_pq| and
    a_qq + t|a_pq| and a zero (p, q) entry (Golub & Van Loan, sec. 8.5), and
    its rows and columns off the pair are A u's, kept Hermitian.
    """
    b, n, _ = h.shape
    pairs, others, eye = _pair_plan(n)
    vals, vecs = [], []
    for i, a in enumerate(h.tolist()):
        d = [a[k][k].real for k in range(n)]
        v = [list(row) for row in eye] if want_vectors else None
        scale = math.sqrt(sum(x.real * x.real + x.imag * x.imag for row in a for x in row))
        skip, stop = _thresholds(scale, n)
        sweeps = 0
        while True:
            # the upper triangle's, doubled: A is kept Hermitian
            mass = 0.0
            for p, q in pairs:
                apq = a[p][q]
                mass += apq.real * apq.real + apq.imag * apq.imag
            mass *= 2.0
            if mass <= stop:
                break
            if sweeps == _MAX_SWEEPS:
                raise _no_convergence(sweeps, mass, scale, i, b)
            sweeps += 1
            for (p, q), ks in zip(pairs, others):
                apq = a[p][q]
                r = abs(apq)
                if not r > skip:
                    continue
                delta, r2 = d[q] - d[p], 2.0 * r
                t = math.copysign(r2, delta) / (abs(delta) + math.hypot(delta, r2))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                phase = apq / r
                cp, sp = c * phase, s * phase
                d[p] -= t * r
                d[q] += t * r
                a[p][q] = a[q][p] = 0j
                for k in ks:
                    row = a[k]
                    akp, akq = row[p], row[q]
                    row[p] = x = akp * cp - akq * s
                    row[q] = y = akp * sp + akq * c
                    a[p][k], a[q][k] = x.conjugate(), y.conjugate()
                if v is not None:
                    for row in v:
                        vp, vq = row[p], row[q]
                        row[p] = vp * cp - vq * s
                        row[q] = vp * sp + vq * c
        vals.append(d)
        vecs.append(v)
    # every zero comes out as +0.0, as from the stacked loop
    vecs = np.array(vecs, dtype=np.complex128) + 0.0 if want_vectors else None
    return np.array(vals) + 0.0, vecs


def herm_eig(p) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (eigenvalues, basis) of a (near-)Hermitian matrix,
    two read-only arrays: the eigenvalues real and ascending, the basis
    unitary with the matching eigenvectors as columns.

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
    asym, size = fro_norm(np.concatenate((a - adj(a), a))).tolist()
    # 1 at this scale; capped where 2^-e overflows, far above any asymmetry
    bound = max(math.ldexp(1.0, min(-int(exp[0]), 1023)), size)
    if asym > DEFAULT.herm_asym * bound:
        relative = asym / bound
        raise NotHermitian(f"relative asymmetry {relative:.3e} above {DEFAULT.herm_asym:.1e}")
    vals, basis = _sorted_eig(*_jacobi(0.5 * (a + adj(a))))
    return _freeze(_unscaled(vals, exp)[0]), basis[0]


def _spectral(basis: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """basis diag(vals) basis* (of each member of a stack of bases and
    eigenvalue rows), re-symmetrized so it is Hermitian to roundoff."""
    out = (basis * vals[..., None, :]) @ adj(basis)
    return _freeze(0.5 * (out + adj(out)))


def herm_sqrt(p) -> np.ndarray:
    """Spectral square root of a positive semidefinite matrix.

    An eigenvalue below the roundoff floor -n eps max|lambda| raises
    :class:`EigenvalueBelowFloor`: the input is indefinite and has no
    Hermitian root.  The roundoff negatives above that floor, as a zero
    eigenvalue solves, are clipped to zero.
    """
    vals, basis = herm_eig(p)
    lo = float(vals[0])
    floor = -len(vals) * _EPS * max(-lo, float(vals[-1]))
    if lo < floor:
        raise EigenvalueBelowFloor(lo, floor)
    return _spectral(basis, np.sqrt(np.maximum(vals, 0.0)))


def herm_inv_sqrt(p) -> np.ndarray:
    """Spectral inverse square root; an eigenvalue below
    ``DEFAULT.defect_floor`` raises :class:`EigenvalueBelowFloor`."""
    vals, basis = herm_eig(p)
    lo = float(vals[0])
    if lo < DEFAULT.defect_floor:
        raise EigenvalueBelowFloor(lo, DEFAULT.defect_floor)
    return _spectral(basis, 1.0 / np.sqrt(vals))


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
    """One eigen-solve of the smaller Gram matrix of M, a plain record that
    :func:`powers` and :func:`transport` take.

    ``side`` names the Gram matrix held, "left" for MM* and "right" for M*M;
    ``eigenvalues`` (ascending and nonnegative) and ``basis`` are its
    spectrum.  A solved factor (:func:`gram_factor`) holds the smaller Gram
    matrix, MM* when M is square, and its ``norm``, the spectral norm of M,
    is :func:`op_norm`'s by construction: both take it from the same solve.
    A factor built by :func:`transport` may hold "right" for a square M, and
    its ``norm`` agrees with :func:`op_norm` to roundoff only.
    """

    mat: np.ndarray
    side: str
    eigenvalues: np.ndarray
    basis: np.ndarray
    norm: float


_OTHER_SIDE = {"left": "right", "right": "left"}


def powers(factors, sign: float, power: float, side: str) -> np.ndarray:
    """(I + sign G)^power for G = M*M (``side="right"``) or MM* (``"left"``)
    of the matrix M of each factor of ``factors``, matrices of one shape, as
    one read-only stack; one factor is a stack of one.

    ``sign`` is +1 or -1 and ``power`` +1/2 or -1/2, each a real number,
    and ``side`` is the string "left" or "right"; any other raises
    :class:`ShapeMismatch`.  When ``side``
    names the Gram matrix not held, the push-through identity gives

        (I + sign N*N)^power = I + N* h(NN*) N,   h(x) = (g(x) - 1) / x,

    with N = M for the right side and M* for the left, g(x) =
    (1 + sign x)^power and r = sqrt(1 + sign x), in the
    cancellation-free forms h = sign / (1 + r) for power 1/2 and
    h = -sign / (r (1 + r)) for power -1/2.

    The floor follows from sign and power.  A defect (sign -1) needs a
    contraction: an eigenvalue of I - G below the floor raises
    :class:`EigenvalueBelowFloor`, checked on the held spectrum and on 1,
    the eigenvalue that only the pushed side has.  The floor is 0.0 for the
    square root, and ``DEFAULT.defect_floor`` for the inverse square root,
    which is singular at the boundary.  The held spectrum is nonnegative,
    so for sign +1, 1 + x >= 1, and no power needs a clip.

    In the pushed form, an entry of size one cancels where g is small,
    leaving an absolute error of order eps there.  A product g(M*M) M*
    is therefore best written M* g(MM*) when MM* is the held matrix.

    The powers of factors that hold one side are computed as one stack, in
    which a factor listed twice is computed twice; a list that mixes held
    sides (square matrices only) is computed member by member.  The floor
    is checked on every member before any power is computed: a hit raises
    :class:`EigenvalueBelowFloor` for the first such member of ``factors``.
    Members of different shapes raise :class:`ShapeMismatch` naming them.
    Each member's power is the bytes it gives alone.
    """
    factors = list(factors)
    if not (isinstance(side, str) and side in ("left", "right")
            and isinstance(sign, _REAL) and sign in (1, -1)
            and isinstance(power, _REAL) and power in (0.5, -0.5)):
        raise ShapeMismatch(f"unsupported Gram power sign={sign!r}, power={power!r}, side={side!r}")
    require_one_shape([f.mat.shape for f in factors])
    if sign < 0:
        floor = DEFAULT.defect_floor if power < 0 else 0.0
        for f in factors:
            # min(1 - x) over the ascending spectrum; the pushed side's 1 passes
            lo = 1.0 - float(f.eigenvalues[-1])
            if lo < floor:
                raise EigenvalueBelowFloor(lo, floor)
    if all(f.side == factors[0].side for f in factors):
        return _power_stack(factors, sign, power, side)
    return _freeze(np.concatenate([_power_stack((f,), sign, power, side) for f in factors]))


def _power_stack(factors, sign: float, power: float, side: str) -> np.ndarray:
    """The power of :func:`powers` of each factor of ``factors``, which
    hold one side of matrices of one shape and pass the floor, as one
    read-only stack."""
    x = stacked([f.eigenvalues for f in factors])
    basis = stacked([f.basis for f in factors])
    r = np.sqrt(1.0 + sign * x)
    if side == factors[0].side:
        return _spectral(basis, r if power > 0 else 1.0 / r)
    h = sign / (1.0 + r) if power > 0 else -sign / (r * (1.0 + r))
    mats = stacked([f.mat for f in factors])
    n = mats if side == "right" else adj(mats)
    out = np.eye(n.shape[2]) + adj(n) @ (basis * h[:, None, :]) @ adj(basis) @ n
    return _freeze(0.5 * (out + adj(out)))


def transport(factors, mats, eigen_map, flip: bool) -> tuple[GramFactor, ...]:
    """The factor of each matrix of ``mats`` (a matrix or a stack of one
    shape) from the factor of ``factors`` at the same place, with no solve:
    that matrix's Gram matrix on the held side (swapped when ``flip``) is
    eigen_map(G) for the factor's G, so the basis is kept and the
    eigenvalues are mapped, for the stacked spectra at once.

    ``eigen_map`` is monotone increasing on the spectrum and keeps it
    nonnegative.  Singular-value
    functions of M are of this kind: the bounded transform and its inverse
    (x / (1 + x), x / (1 - x)) exchange the Gram sides, and a scalar
    multiple c M (c^2 x) keeps them.  Rounding in the map may reorder equal
    neighbours, so the stack is re-sorted (stably, columns with their
    eigenvalues) only if some member's spectrum is out of order.  Each
    factor's ``mat`` is a read-only view into one checked copy of ``mats``.
    """
    factors = list(factors)
    stack, _ = as_cstack(mats)
    b, rows, cols = stack.shape
    if b != len(factors):
        raise ShapeMismatch(f"{b} matrices for {len(factors)} factors")
    sides = []
    for f in factors:
        side = _OTHER_SIDE[f.side] if flip else f.side
        require_shape(f.basis, ((rows if side == "left" else cols),) * 2, "held basis")
        sides.append(side)
    vals = np.asarray(eigen_map(stacked([f.eigenvalues for f in factors])), dtype=np.float64)
    bases = stacked([f.basis for f in factors])
    if (vals[:, 1:] < vals[:, :-1]).any():
        vals, bases = _sorted_eig(vals, bases)
    _freeze(vals)
    _freeze(bases)
    out = []
    for i, top in enumerate(vals[:, -1].tolist()):
        out.append(GramFactor(stack[i], sides[i], vals[i], bases[i], math.sqrt(top)))
    return tuple(out)


def gram_factor(m):
    """Factor M once: one Jacobi solve of its smaller Gram matrix, the steps
    of :func:`op_norm` with the eigenvectors kept and sorted.  A stack of
    matrices gives the tuple of their factors from one stacked solve, each
    factor's ``mat`` a read-only view into the stack."""
    stack, single = as_cstack(m)
    gram, exp, side = _scaled_gram(stack)
    vals, basis = _jacobi(gram)
    norms = _norms(vals, exp).tolist()
    vals, basis = _sorted_eig(vals, basis)
    # a Gram spectrum is nonnegative: roundoff negatives are clipped here, once
    vals = _freeze(np.maximum(_unscaled(vals, 2 * exp), 0.0))
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
    stack, single = as_cstack(a)
    if not np.count_nonzero(stack):
        norms = np.zeros(len(stack))
    else:
        gram, exp, _ = _scaled_gram(stack)
        norms = _norms(_jacobi(gram, want_vectors=False)[0], exp)
    return float(norms[0]) if single else _freeze(norms)


def inverse(a) -> np.ndarray:
    """Matrix inverse by Gauss-Jordan elimination with partial pivoting on
    the augmented matrix [A | I], whose right half ends as the inverse.

    Raises :class:`Singular` when a pivot falls below
    ``pivot_floor * max|A|``, rather than dividing through by noise.  It runs
    at :func:`_pow2_scaled`'s scale; an inverse past the float range raises.
    """
    m = as_cmat(a)
    n = m.shape[0]
    if n != m.shape[1]:
        raise ShapeMismatch(f"inverse needs a square matrix, got {m.shape}")
    s, exp = _pow2_scaled(m[None])
    threshold = DEFAULT.pivot_floor * float(np.abs(s).max())
    work = np.concatenate((s[0], np.eye(n, dtype=np.complex128)), axis=1)
    for k in range(n):
        pivot_row = k + int(np.argmax(np.abs(work[k:, k])))
        pivot = work[pivot_row, k]
        if abs(pivot) <= threshold:
            unscaled = np.ldexp(abs(pivot), exp[0])
            raise Singular(f"pivot {unscaled:.3e} at column {k} below threshold")
        if pivot_row != k:
            work[[k, pivot_row]] = work[[pivot_row, k]]
        work[k] *= 1.0 / pivot
        factors = work[:, k].copy()
        factors[k] = 0.0
        work -= np.outer(factors, work[k])
    # the right half, (M 2^-e)^-1 = 2^e M^-1, unscaled in its real and imaginary parts
    return _freeze(_unscaled(work.view(np.float64)[None, :, 2 * n :], -exp).view(np.complex128)[0])
