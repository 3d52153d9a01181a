"""Two-precision GMRES and LU-preconditioned iterative refinement.

Both solvers run their Krylov cycles in binary32 (LOW_DTYPE) on the shared
Arnoldi cycle of solvers._arnoldi_cycles and keep residuals and solution
updates in binary64.  That two-precision rule holds by construction: the
restart driver and the refinement loop compute both in binary64 only.

Low-format products keep CSR input sparse (``low_operator``), and so does
GMRES-IR's binary32 LU factorization (``lu_low``): it stores a CSR band
matrix straight into band storage by rows, O(n b) entries for bandwidth b,
as LAPACK's gbtrf stores a band LU, and factors it at band shape, O(n b^2)
work (Golub & Van Loan, 4.3); an ndarray gets one n x n array and its full
shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .linalg import CsrMatrix, SingularMatrixError, _check_entries, as_matvec
from .solvers import (GmresOptions, _arnoldi_cycles, _check_count, _finite_vector,
                      _matvec_for, _options, _restart_driver, _restarted_options, _Run)

__all__ = [
    "LowLU",
    "lu_low",
    "gmres_ir",
    "gmres_two_precision",
    "low_operator",
]

LOW_DTYPE = np.float32
LU_BYTES_LIMIT = 2000 ** 2 * 4  # lu_low's storage: n x n binary32 up to n = 2000
_BLOCK = 64  # column block width of lu_low and LowLU.solve


def _stored_low(A, dtype):
    """(F, kd): the square A in dtype, stored as _view reads it.  A CSR
    matrix of lower and upper bandwidths kl and ku in its stored pattern
    gets rows of W = 2 _BLOCK - 1 + 2 kl + ku entries, kd = _BLOCK - 1 + kl:
    under partial pivoting a panel's rows reach at most kl past its last
    column, and its U block row's fill kl + ku.  An ndarray, and a band no
    narrower than the matrix, get the n x n array (kd None).  A ValueError
    unless the storage's bytes are within LU_BYTES_LIMIT, before it is
    made.  CSR values are cast first and written straight into it."""
    n = W = A.shape[0]
    kd = None
    if isinstance(A, CsrMatrix):
        rows = A._nnz_rows()
        offsets = rows - A.col_idx
        kl, ku = int(offsets.max(initial=0)), int((-offsets).max(initial=0))
        if 2 * _BLOCK - 1 + 2 * kl + ku < n:
            kd, W = _BLOCK - 1 + kl, 2 * _BLOCK - 1 + 2 * kl + ku
    if n * W * np.dtype(dtype).itemsize > LU_BYTES_LIMIT:
        raise ValueError(f"LU storage of {n} x {W} entries is past the cap of "
                         f"{LU_BYTES_LIMIT} bytes")
    if not isinstance(A, CsrMatrix):
        return np.asarray(A, dtype=np.float64).astype(dtype), kd
    F = np.zeros((n, W), dtype=dtype)
    F[rows, A.col_idx if kd is None else A.col_idx - rows + kd] = A.values.astype(dtype)
    return F, kd


def _view(F, kd, r0, r1, c0, c1):
    """Rows r0 to r1 - 1 and columns c0 to c1 - 1 of the matrix stored in F,
    as a view.  F is the n x n array when kd is None; else F[p] holds the
    columns p - kd to p - kd + W - 1 of row p (LAPACK's band storage, by
    rows), so column c of row p is entry p (W - 1) + c + kd of F, and a
    rectangle inside the band of each of its rows is one strided view."""
    if kd is None:
        return F[r0:r1, c0:c1]
    if r1 <= r0 or c1 <= c0:
        return np.empty((max(r1 - r0, 0), max(c1 - c0, 0)), dtype=F.dtype)
    size, stride = F.itemsize, F.shape[1] - 1
    return np.ndarray((r1 - r0, c1 - c0), F.dtype, F, (r0 * stride + c0 + kd) * size,
                      (stride * size, size))


def _limits(n, W, kd, k0):
    """(top, bottom, right, lead) of the panel whose first column is k0 in
    the storage _view reads: rows top to bottom - 1 store all its columns,
    its U block row stores the columns up to right - 1, and every row from
    k0 to bottom - 1 stores the columns from lead (a multiple of _BLOCK) to
    right - 1.  (0, n, n, 0) in the n x n array."""
    if kd is None:
        return 0, n, n, 0
    bottom = min(n, k0 + kd + 1)
    return (max(0, k0 + _BLOCK + kd - W), bottom, min(n, k0 - kd + W),
            -(-max(0, bottom - 1 - kd) // _BLOCK) * _BLOCK)


def low_operator(A, dtype, n=None):
    """Matvec of A carried out genuinely in the low format.

    CSR input stays sparse: its values are cast once and every row sum
    accumulates in the low format.  Dense arrays are cast once, so the BLAS
    product accumulates in the low format; callables are cast through.
    """
    dtype = np.dtype(dtype)
    if isinstance(A, CsrMatrix):
        values = A.values.astype(dtype)
        nonempty = np.flatnonzero(np.diff(A.row_ptr))
        # reduceat over the starts of the nonempty rows only: an empty row
        # would otherwise receive the entry at its repeated start index; its
        # sums are the product when no row is empty
        starts = A.row_ptr[nonempty]

        def sparse_matvec(v):
            products = np.take(np.asarray(v, dtype=dtype), A.col_idx)
            sums = np.add.reduceat(np.multiply(values, products, out=products), starts)
            if len(sums) == A.nrows:
                return sums
            out = np.zeros(A.nrows, dtype=dtype)
            out[nonempty] = sums
            return out

        return sparse_matvec
    if isinstance(A, np.ndarray):
        dense = np.asarray(A, dtype=np.float64).astype(dtype)
        return lambda v: dense @ np.asarray(v, dtype=dtype)
    matvec, _ = as_matvec(A, n=n)
    return lambda v: np.asarray(matvec(np.asarray(v, dtype=np.float64)), dtype=dtype)


@dataclass
class LowLU:
    """Partial-pivoting LU factors in the low format with A[perm] = L U,
    packed as LAPACK's getrf packs them: U on and above the diagonal, the
    multipliers of the unit lower triangular L below it.  LU holds them as
    lu_low stores them (_view, kd): the n x n array, or band storage, past
    whose band U is +0.0 and L +0.0 / pivot.  swaps holds each panel's row
    moves, (destination rows, source rows); a panel moves the columns from
    its lead on (_limits), so in band storage the multipliers left of it
    stay where it found them, as in LAPACK's gbtrf, and solve and L apply
    the moves their columns lack.

    The L and U properties build fresh full-size arrays on each access;
    writing into them leaves the factors unchanged.
    """

    LU: np.ndarray
    perm: np.ndarray
    growth: float
    kd: int | None
    swaps: list

    def __post_init__(self):
        n = len(self.perm)
        self._view = partial(_view, self.LU, self.kd)
        self._limits = partial(_limits, n, self.LU.shape[1], self.kd)
        # per block column: the row moves a vector needs before it, to be
        # in the order of the multipliers stored in it; per diagonal block
        # and substitution step: the step's column of the block as a
        # contiguous row of the transposed block (and U's pivot); per block
        # column, its stored GEMV blocks below and above the diagonal block
        self._moves = [[] for _ in range(0, n, _BLOCK)]
        for k0, move in zip(range(0, n, _BLOCK), self.swaps):
            if len(move[0]):
                self._moves[self._limits(k0)[3] // _BLOCK].append(move)
        self._lower, self._upper, self._gemvs = [], [], []
        for k0 in range(0, n, _BLOCK):
            k1 = min(k0 + _BLOCK, n)
            top, bottom, _, _ = self._limits(k0)
            Dt = self._view(k0, k1, k0, k1).T.copy()
            self._lower.append([Dt[j, j + 1:] for j in range(len(Dt) - 1)])
            self._upper.append([(Dt[j, j], Dt[j, :j]) for j in range(len(Dt))])
            self._gemvs.append((self._view(k1, bottom, k0, k1), self._view(top, k0, k0, k1)))
        # per diagonal block width and step (lower, upper): views of the
        # entries it updates in a shared copy of the block's entries and of
        # its products in a second buffer (so solve is not thread-safe)
        yb, t = np.empty((2, _BLOCK), dtype=self.LU.dtype)
        self._yb, self._steps = yb, {w: ([(yb[i:w], t[:w - i]) for i in range(1, w)],
                                         [(yb[:i], t[:i]) for i in range(w)])
                                     for w in {min(_BLOCK, n - k0) for k0 in range(0, n, _BLOCK)}}

    @property
    def L(self):
        n = len(self.perm)
        L = np.empty((n, n), dtype=self.LU.dtype)
        for k0 in range(0, n, _BLOCK):
            k1, bottom = min(k0 + _BLOCK, n), self._limits(k0)[1]
            # past the stored rows, what the n x n array's scaling writes
            L[:, k0:k1] = np.zeros(1, dtype=L.dtype) / self._view(k0, k1, k0, k1).diagonal()
            L[k0:bottom, k0:k1] = self._view(k0, bottom, k0, k1)
        for j, moves in enumerate(self._moves):
            for dst, src in moves:
                L[dst, :j * _BLOCK] = L[src, :j * _BLOCK]
        L = np.tril(L, -1)
        np.fill_diagonal(L, 1)
        return L

    @property
    def U(self):
        n = len(self.perm)
        U = np.zeros((n, n), dtype=self.LU.dtype)
        for k0 in range(0, n, _BLOCK):
            right = self._limits(k0)[2]
            U[k0:k0 + _BLOCK, k0:right] = self._view(k0, min(k0 + _BLOCK, n), k0, right)
        return np.triu(U)

    def solve(self, rhs):
        """Triangular solves in the factors' own format, by blocks: substitution
        inside each diagonal block, one GEMV over the stored rows for the rest
        of the vector.

        Before each block column the vector gets the row moves of its stored
        multipliers (all of perm's before the first, in the n x n array).
        The substitution reads each diagonal block's columns as contiguous
        rows of its transposed copy, and runs on a copy of the block's
        entries in a preallocated buffer, its products going to a second
        one, all through views built once with the factors; each entry still
        gets the operations of ``y[k+1:k1] -= L[k+1:k1, k] * y[k]`` (and of
        U's steps) in the same order.  A ValueError names rhs unless it is
        1-D of length n.
        """
        n = len(self.perm)
        y = np.array(rhs, dtype=self.LU.dtype)
        if y.shape != (n,):
            raise ValueError(f"rhs must be a 1-D vector of length {n}, got shape {y.shape}")
        mul, sub, yb = np.multiply, np.subtract, self._yb
        starts = range(0, n, _BLOCK)
        for k0, moves, cols, (below, _) in zip(starts, self._moves, self._lower, self._gemvs):
            k1 = min(k0 + _BLOCK, n)
            for dst, src in moves:
                y[dst] = y[src]
            yb[:k1 - k0] = y[k0:k1]
            for i, (col, (rest, t)) in enumerate(zip(cols, self._steps[k1 - k0][0])):
                sub(rest, mul(col, yb[i], t), rest)
            y[k0:k1] = yb[:k1 - k0]
            y[k1:k1 + len(below)] -= below @ y[k0:k1]
        for k0, steps, (_, above) in zip(reversed(starts), reversed(self._upper),
                                         reversed(self._gemvs)):
            k1 = min(k0 + _BLOCK, n)
            yb[:k1 - k0] = y[k0:k1]
            for i, (pivot, col), (rest, t) in zip(range(k1 - k0 - 1, -1, -1), reversed(steps),
                                                  reversed(self._steps[k1 - k0][1])):
                yb[i] = yk = yb[i] / pivot
                sub(rest, mul(col, yk, t), rest)
            y[k0:k1] = yb[:k1 - k0]
            y[k0 - len(above):k0] -= above @ y[k0:k1]
        return y


def _factor_panel(panel, k0, buf):
    """(P, rows): the panel, whose first column is column k0 of the matrix,
    factored in a contiguous transposed copy P (one row per column: pivot
    search, scaling and rank-1 updates); rows[i] is the panel row that moves
    to i.  SingularMatrixError when a pivot vanishes."""
    P = panel.T.copy()  # P[j, i] = panel[i, j]
    w, m = P.shape
    rows = np.arange(m)
    mag = np.empty(m, dtype=P.dtype)  # |col|, for the pivot search
    for j in range(w):
        col = P[j, j:]
        p = int(np.abs(col, out=mag[j:]).argmax())
        if col[p] == 0:
            raise SingularMatrixError(k0 + j, "matrix is singular in the low format")
        if p:
            P[:, [j, j + p]] = P[:, [j + p, j]]
            rows[j], rows[j + p] = rows[j + p], rows[j]
        col[1:] /= col[0]
        trail = P[j + 1:, j + 1:]
        t = np.multiply.outer(P[j + 1:, j], col[1:],
                              out=buf[:trail.size].reshape(trail.shape))
        np.subtract(trail, t, out=trail)
    return P, rows


def lu_low(A, dtype=LOW_DTYPE):
    """LU factorization with partial pivoting carried out in the low format.

    A CSR band matrix is stored straight into band storage, an ndarray into
    one n x n array (_stored_low; the cap is on that storage's bytes).
    Right-looking and blocked: each panel of _BLOCK columns is factored in
    a contiguous transposed copy (one row per column: pivot search, scaling
    and rank-1 updates), written back, and its row swaps applied as one
    permutation to the columns from its lead on (_limits: whole rows in the
    n x n array, as getrf swaps them; in band storage the multipliers left
    of the lead stay, as gbtrf leaves them).  Then its block row of U is
    formed by forward substitution (one GEMV per row) and the trailing
    matrix is updated by one GEMM.  Each step runs at the storage's shape:
    the panel over its stored rows and the U block row out to its stored
    columns (_limits), so band storage gives band shapes and the n x n
    array its full shapes.
    Reports the growth factor max|U| / max|A| as a quality diagnostic and
    raises SingularMatrixError when a pivot vanishes in the low format.
    """
    if not isinstance(A, (CsrMatrix, np.ndarray)):
        raise TypeError("mixed-precision routines need an explicit matrix "
                        "(CsrMatrix or ndarray) at desk scale")
    _check_entries(A)
    n = A.shape[0] if A.shape else 0
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    F, kd = _stored_low(A, dtype)  # L's multipliers below the diagonal, U on and above
    view, W = partial(_view, F, kd), F.shape[1]
    amax = float(np.max([0.0, *(np.abs(F[k0:k0 + _BLOCK]).max() for k0 in range(0, n, _BLOCK))]))
    perm = np.arange(n)
    swaps, umax = [], [0.0]
    buf = np.empty(_BLOCK * W, dtype=F.dtype)  # the rank-1 products, contiguous
    for k0 in range(0, n, _BLOCK):
        k1 = min(k0 + _BLOCK, n)
        w = k1 - k0
        _, bottom, right, lead = _limits(n, W, kd, k0)
        P, rows = _factor_panel(view(k0, bottom, k0, k1), k0, buf)
        stored = view(k0, bottom, lead, right)  # the columns rows k0:bottom all store
        moved = np.flatnonzero(rows != np.arange(bottom - k0))
        stored[moved] = stored[rows[moved]]
        perm[k0 + moved] = perm[k0 + rows[moved]]
        swaps.append((k0 + moved, k0 + rows[moved]))
        stored[:, k0 - lead:k1 - lead] = P.T
        B = stored[:w, k0 - lead:]
        for k in range(1, w):
            B[k, w:] -= B[k, :k] @ B[:k, w:]
        stored[w:, k1 - lead:] -= stored[w:, k0 - lead:k1 - lead] @ B[:, w:]
        umax += [np.abs(np.triu(B[:, :w])).max(), np.abs(B[:, w:]).max(initial=0)]
    growth = float(np.max(umax)) / amax if amax else 0.0
    return LowLU(F, perm, growth, kd, swaps)


def _low_gmres(matvec, b, dtype, rtol, restart, max_iter):
    """Restarted MGS-GMRES running entirely in the given dtype: every cycle
    is the shared Arnoldi cycle at that dtype, restarted from the residual
    recomputed in it; the first starts from x = 0, whose residual is b.

    Inner solver for refinement; returns (x, iterations, matvecs).  Its
    reductions go to a private counter and are not reported.
    """
    dtype = np.dtype(dtype)
    b = np.asarray(b, dtype=dtype)
    x = np.zeros(len(b), dtype=dtype)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, 0, 0
    run = _Run(matvec, GmresOptions(rtol=rtol))
    run.dtype = dtype
    run.tol_abs = rtol * bnorm
    cycle = _arnoldi_cycles(run)
    while run.iterations < max_iter:
        # x is 0 until a cycle has taken a step
        r = b - np.asarray(run.op(x), dtype=dtype) if run.iterations else b
        if float(np.linalg.norm(r)) <= run.tol_abs:
            break
        update, _, status = cycle(r, min(restart, max_iter - run.iterations))
        # exact: the update is a product in dtype, cast to binary64
        x = x + update.astype(dtype)
        if status == "converged":
            break
    return x, run.iterations, run.counter.matvecs


def gmres_ir(A, b, inner_opts=None, *, rtol=1e-13, max_refinements=40):
    """Iterative refinement with a low-precision LU preconditioner.

    Outer residuals and solution updates run in binary64; the inner GMRES
    solves M^{-1} A d = M^{-1} r entirely in binary32 with M = LU.
    Terminates on the binary64 relative residual, the refinement budget, or
    a stagnation abort after two refinements in a row that fail to halve
    the residual; stagnation takes precedence over convergence.  A zero b
    returns x = 0 before the LU, so its report has no diagnostics.  The LU
    of a CSR band matrix takes band storage, O(n b) bytes (lu_low); the cap
    is on those bytes, LU_BYTES_LIMIT, 2000 x 2000 binary32 entries.
    matvecs counts the binary64 residual products and the inner binary32
    ones, none for the inner solve's zero starting iterate, whose residual
    is its right-hand side; the inner reductions are not counted.
    """
    if not 0 < rtol < math.inf:
        raise ValueError("rtol must be positive and finite")
    _check_count("max_refinements", max_refinements, 0)
    # the inner solve is binary32 MGS-GMRES on the LU-preconditioned operator
    inner_opts = _options("gmres-ir", inner_opts if inner_opts is not None else
                          GmresOptions(rtol=1e-4, restart=50, max_iter=200), "inner_opts")
    b = _finite_vector("b", b)
    N = len(b)
    run = _Run(_matvec_for(A, N), GmresOptions(rtol=rtol))  # before the factorization
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return run.report(np.zeros(N), [0.0], "converged")
    lu = lu_low(A)
    low_matvec = run.counter.counted(low_operator(A, LOW_DTYPE, n=N))

    def inner_matvec(v):
        return lu.solve(low_matvec(v))

    x = lu.solve(np.asarray(b, dtype=LOW_DTYPE)).astype(np.float64)
    r = b - run.op(x)
    history = [float(np.linalg.norm(r))]
    inner_iters = []
    no_progress = 0  # consecutive refinements that did not halve the residual
    # "not <=": a NaN residual keeps refining until the budget runs out
    while len(inner_iters) < max_refinements and no_progress < 2 \
            and not history[-1] <= rtol * bnorm:
        rhs = lu.solve(np.asarray(r, dtype=LOW_DTYPE))
        d, iters, _ = _low_gmres(inner_matvec, rhs, LOW_DTYPE,
                                 inner_opts.rtol, inner_opts.restart or 50,
                                 200 if inner_opts.max_iter is None else inner_opts.max_iter)
        inner_iters.append(iters)
        x = x + d.astype(np.float64)
        r = b - run.op(x)
        history.append(float(np.linalg.norm(r)))
        no_progress = no_progress + 1 if history[-1] >= 0.5 * history[-2] else 0
    if no_progress >= 2:
        termination = "stagnation"
    elif history[-1] <= rtol * bnorm:
        termination = "converged"
    else:
        termination = "maxiter"
    run.diagnostics.update(growth_factor=lu.growth, inner_iterations=inner_iters)
    checkpoints = [(len(history) - 1, history[-1])]
    return run.report(x, history, termination, checkpoints=checkpoints,
                      est_checkpoints=checkpoints)


def gmres_two_precision(A, b, x0=None, opts=None):
    """Restarted GMRES with inner cycles in binary32.

    The cycles' products, basis and Hessenberg run in binary32; the restart
    driver keeps the system itself, restart residuals and iterate updates in
    binary64; the Householder scheme, binary64 only, is refused.
    """
    opts = _restarted_options(_options("two-precision", opts), 50)
    return _restart_driver(A, b, x0, opts, _arnoldi_cycles, dtype=LOW_DTYPE)
