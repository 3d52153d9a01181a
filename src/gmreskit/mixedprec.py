"""Two-precision GMRES and LU-preconditioned iterative refinement.

Both solvers run their Krylov cycles in binary32 (LOW_DTYPE) on the shared
Arnoldi cycle of solvers._arnoldi_cycles and keep residuals and solution
updates in binary64.  That two-precision rule holds by construction: the
restart driver and the refinement loop compute both in binary64 only.

Low-format products keep CSR input sparse (``low_operator``); only the LU
factorization of GMRES-IR densifies, once and straight into binary32, into a
blocked right-looking factorization.  Each panel of _BLOCK columns is
factored in a contiguous transposed copy, its block row of U comes from one
GEMV per row and the trailing update is one binary32 GEMM.  The factors stay
packed in that one n x n array, as LAPACK's getrf leaves them; the
triangular solves substitute inside transposed copies of its diagonal
blocks and read the off-diagonal blocks from it.  The operation order and
the GEMV and GEMM shapes are pinned: they give the bits of the column-wise
factorization, and binary32 bits may not move while GMRES-IR's refinement
count on the benchmark still rests on them (ROADMAP item 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import CsrMatrix, SingularMatrixError, as_matvec
from .ortho import OrthoScheme
from .solvers import (GmresOptions, SolveReport, _arnoldi_cycles, _finite_vector,
                      _matvec_for, _restart_driver, _Run, _Tally, _zero_rhs_report)

__all__ = [
    "LowLU",
    "lu_low",
    "gmres_ir",
    "gmres_two_precision",
    "low_operator",
]

LOW_DTYPE = np.float32
DESK_SCALE_LIMIT = 2000
_BLOCK = 64  # column block width of lu_low and LowLU.solve


def _dense_shape(A):
    """A's shape, or a TypeError unless A is an explicit matrix."""
    if isinstance(A, (CsrMatrix, np.ndarray)):
        return A.shape
    raise TypeError("mixed-precision routines need an explicit matrix "
                    "(CsrMatrix or ndarray) at desk scale")


def _dense_low(A, dtype):
    """A as a dense array in dtype.  CSR values are cast first, so no binary64
    copy of the matrix is made; an ndarray is read as binary64, then cast."""
    if isinstance(A, CsrMatrix):
        return replace(A, values=A.values.astype(dtype)).to_dense()
    return np.asarray(A, dtype=np.float64).astype(dtype)


def _abs_max(F, upper=False):
    """float(np.abs(F).max()), of np.triu(F) when upper, or 0.0 for an empty F;
    taken a block row at a time, so no n x n temporary is made."""
    maxima = [np.abs(np.triu(F[k0:k0 + _BLOCK, k0:]) if upper else F[k0:k0 + _BLOCK]).max()
              for k0 in range(0, len(F), _BLOCK)]
    return float(np.max(maxima)) if maxima else 0.0


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
        # would otherwise receive the entry at its repeated start index
        starts = A.row_ptr[nonempty]

        def sparse_matvec(v):
            out = np.zeros(A.nrows, dtype=dtype)
            if len(starts):
                products = values * np.asarray(v, dtype=dtype)[A.col_idx]
                out[nonempty] = np.add.reduceat(products, starts)
            return out

        return sparse_matvec
    if isinstance(A, np.ndarray):
        dense = _dense_low(A, dtype)
        return lambda v: dense @ np.asarray(v, dtype=dtype)
    matvec, _ = as_matvec(A, n=n)
    return lambda v: np.asarray(matvec(np.asarray(v, dtype=np.float64)), dtype=dtype)


@dataclass
class LowLU:
    """Partial-pivoting LU factors in the low format with A[perm] = L U, packed
    in one n x n array as LAPACK's getrf stores them: U on and above the
    diagonal of LU, the multipliers of the unit lower triangular L below it.

    The L and U properties build fresh full-size arrays on each access (two
    n x n allocations); writing into them leaves the factors unchanged.
    """

    LU: np.ndarray
    perm: np.ndarray
    growth: float

    def __post_init__(self):
        # per diagonal block and substitution step: the step's column of the
        # block as a contiguous row of the transposed block, and the slice of
        # a shared buffer its products go to (so solve is not thread-safe)
        self._buf = np.empty(_BLOCK, dtype=self.LU.dtype)
        self._lower, self._upper = [], []
        for k0 in range(0, len(self.perm), _BLOCK):
            Dt = self.LU[k0:k0 + _BLOCK, k0:k0 + _BLOCK].T.copy()
            w = len(Dt)
            self._lower.append([(Dt[j, j + 1:], self._buf[:w - j - 1]) for j in range(w - 1)])
            self._upper.append([(Dt[j, j], Dt[j, :j], self._buf[:j]) for j in range(w)])

    @property
    def L(self):
        L = np.tril(self.LU, -1)
        np.fill_diagonal(L, 1)
        return L

    @property
    def U(self):
        return np.triu(self.LU)

    def solve(self, rhs):
        """Triangular solves in the factors' own format, by blocks: substitution
        inside each diagonal block, one GEMV for the rest of the vector.

        The substitution reads each diagonal block's columns as contiguous
        rows of its transposed copy, built once with the factors, and writes
        the products into a preallocated buffer; each entry still gets the
        operations of ``y[k+1:k1] -= L[k+1:k1, k] * y[k]`` (and of U's
        steps) in the same order.  The GEMVs read the packed array's blocks
        below and above the diagonal, which hold exactly L's and U's entries,
        and keep their shapes.  Binary32 results may not move until GMRES-IR's
        refinement count no longer rests on their last bits.  A ValueError
        names rhs unless it is 1-D of length n.
        """
        F, n = self.LU, len(self.perm)
        y = np.asarray(rhs, dtype=F.dtype)
        if y.shape != (n,):
            raise ValueError(f"rhs must be a 1-D vector of length {n}, got shape {y.shape}")
        y = y[self.perm]
        mul, sub = np.multiply, np.subtract
        starts = range(0, n, _BLOCK)
        for k0, steps in zip(starts, self._lower):
            k1 = min(k0 + _BLOCK, n)
            for k, (col, t) in enumerate(steps, k0):
                below = y[k + 1:k1]
                sub(below, mul(col, y[k], t), below)
            y[k1:] -= F[k1:, k0:k1] @ y[k0:k1]
        for k0, steps in zip(reversed(starts), reversed(self._upper)):
            k1 = min(k0 + _BLOCK, n)
            for k in range(k1 - 1, k0 - 1, -1):
                pivot, col, t = steps[k - k0]
                y[k] = yk = y[k] / pivot
                above = y[k0:k]
                sub(above, mul(col, yk, t), above)
            y[:k0] -= F[:k0, k0:k1] @ y[k0:k1]
        return y


def lu_low(A, dtype=LOW_DTYPE):
    """LU factorization with partial pivoting carried out in the low format.

    Right-looking and blocked: each panel of _BLOCK columns is factored in a
    contiguous transposed copy (one row per column: pivot search, scaling
    and rank-1 updates), written back, and its row swaps applied to whole
    rows as one permutation; then its block row of U is formed by forward
    substitution (one GEMV per row) and the trailing matrix is updated by
    one GEMM.  Every entry sees the same exactly rounded operations in the
    same order as a column-by-column right-looking factorization, and the
    GEMV and GEMM shapes are fixed: binary32 results may not move until
    GMRES-IR's refinement count no longer rests on their last bits.
    The factors stay packed in the array A was densified into (LowLU).
    Reports the growth factor max|U| / max|A| as a quality diagnostic and
    raises SingularMatrixError when a pivot vanishes in the low format.
    The shape is checked before anything is densified.
    """
    shape = _dense_shape(A)
    n = shape[0] if shape else 0
    if shape != (n, n):
        raise ValueError("matrix must be square")
    if n > DESK_SCALE_LIMIT:
        raise ValueError(f"dense factorization capped at n <= {DESK_SCALE_LIMIT}")
    F = _dense_low(A, dtype)  # L's multipliers below the diagonal, U on and above
    amax = _abs_max(F)
    perm = np.arange(n)
    buf = np.empty(_BLOCK * n, dtype=F.dtype)  # the rank-1 products, contiguous
    for k0 in range(0, n, _BLOCK):
        k1 = min(k0 + _BLOCK, n)
        # P[j, i] = F[k0 + i, k0 + j]; rows[i] is the panel row that moves to i
        P = F[k0:, k0:k1].T.copy()
        rows = np.arange(n - k0)
        for j in range(k1 - k0):
            col = P[j, j:]
            p = int(np.argmax(np.abs(col)))
            if col[p] == 0:
                raise SingularMatrixError(k0 + j, "matrix is singular in the low format")
            if p:
                P[:, [j, j + p]] = P[:, [j + p, j]]
                rows[[j, j + p]] = rows[[j + p, j]]
            col[1:] /= col[0]
            rest = (k1 - k0 - j - 1, n - k0 - j - 1)
            t = np.multiply.outer(P[j + 1:, j], P[j, j + 1:],
                                  out=buf[:rest[0] * rest[1]].reshape(rest))
            np.subtract(P[j + 1:, j + 1:], t, out=P[j + 1:, j + 1:])
        moved = np.flatnonzero(rows != np.arange(n - k0))
        F[k0 + moved] = F[k0 + rows[moved]]
        perm[k0 + moved] = perm[k0 + rows[moved]]
        F[k0:, k0:k1] = P.T
        for k in range(k0 + 1, k1):
            F[k, k1:] -= F[k, k0:k] @ F[k0:k, k1:]
        F[k1:, k1:] -= F[k1:, k0:k1] @ F[k0:k1, k1:]
    growth = _abs_max(F, upper=True) / amax if amax else 0.0
    return LowLU(F, perm, growth)


def _low_gmres(matvec, b, dtype, rtol, restart, max_iter):
    """Restarted MGS-GMRES running entirely in the given dtype: every cycle
    is the shared Arnoldi cycle at that dtype, restarted from the residual
    recomputed in it.

    Inner solver for refinement; returns (x, iterations, matvecs).  Its
    reductions go to a private counter and are not reported.
    """
    dtype = np.dtype(dtype)
    b = np.asarray(b, dtype=dtype)
    x = np.zeros(len(b), dtype=dtype)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, 0, 0
    run = _Run(_Tally(matvec), GmresOptions(rtol=rtol))
    run.dtype = dtype
    run.tol_abs = rtol * bnorm
    cycle = _arnoldi_cycles(run)
    while run.iterations < max_iter:
        r = b - np.asarray(run.op(x), dtype=dtype)
        if float(np.linalg.norm(r)) <= run.tol_abs:
            break
        update, _, status = cycle(r, min(restart, max_iter - run.iterations))
        # exact: the update is a product in dtype, cast to binary64
        x = x + update.astype(dtype)
        if status == "converged":
            break
    return x, run.iterations, run.op.matvecs


def gmres_ir(A, b, inner_opts=None, *, rtol=1e-13, max_refinements=40):
    """Iterative refinement with a low-precision LU preconditioner.

    Outer residuals and solution updates run in binary64; the inner GMRES
    solves M^{-1} A d = M^{-1} r entirely in binary32 with M = LU.
    Terminates on the binary64 relative residual, the refinement budget, or
    a stagnation abort after two refinements in a row that fail to halve
    the residual; stagnation takes precedence over convergence.  A zero b
    returns x = 0 before the LU, so its report has no diagnostics.
    """
    if not 0 < rtol < math.inf:
        raise ValueError("rtol must be positive and finite")
    if not max_refinements >= 0:
        raise ValueError("max_refinements must be at least 0")
    inner_opts = inner_opts if inner_opts is not None else \
        GmresOptions(rtol=1e-4, restart=50, max_iter=200)
    # the inner solve is binary32 MGS-GMRES on the LU-preconditioned
    # operator; it reads only rtol, restart and max_iter
    for field, unused in (("scheme", inner_opts.scheme != OrthoScheme.MGS),
                          ("precond_side", inner_opts.precond_side != "none"),
                          ("preconditioner", inner_opts.preconditioner is not None),
                          ("weight", inner_opts.weight is not None),
                          ("iteration_callback", inner_opts.iteration_callback is not None)):
        if unused:
            raise ValueError(f"gmres_ir does not support inner_opts.{field}")
    b = _finite_vector("b", b)
    N = len(b)
    matvec = _matvec_for(A, N)  # before the factorization
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return _zero_rhs_report(N, {})
    lu = lu_low(A)
    low_matvec = low_operator(A, LOW_DTYPE, n=N)

    def inner_matvec(v):
        return lu.solve(low_matvec(v))

    x = lu.solve(np.asarray(b, dtype=LOW_DTYPE)).astype(np.float64)
    r = b - matvec(x)
    matvecs = 1
    history = [float(np.linalg.norm(r))]
    inner_iters = []
    no_progress = 0  # consecutive refinements that did not halve the residual
    # "not <=": a NaN residual keeps refining until the budget runs out
    while len(inner_iters) < max_refinements and no_progress < 2 \
            and not history[-1] <= rtol * bnorm:
        rhs = lu.solve(np.asarray(r, dtype=LOW_DTYPE))
        d, iters, mv = _low_gmres(inner_matvec, rhs, LOW_DTYPE,
                                  inner_opts.rtol, inner_opts.restart or 50,
                                  200 if inner_opts.max_iter is None else inner_opts.max_iter)
        matvecs += mv
        inner_iters.append(iters)
        x = x + d.astype(np.float64)
        r = b - matvec(x)
        matvecs += 1
        history.append(float(np.linalg.norm(r)))
        no_progress = no_progress + 1 if history[-1] >= 0.5 * history[-2] else 0
    if no_progress >= 2:
        termination = "stagnation"
    elif history[-1] <= rtol * bnorm:
        termination = "converged"
    else:
        termination = "maxiter"

    return SolveReport(
        x=x,
        residual_history=history,
        iterations=len(history) - 1,
        termination=termination,
        matvecs=matvecs,
        true_residual_checkpoints=[(len(history) - 1, history[-1])],
        estimated_norm_checkpoints=[(len(history) - 1, history[-1])],
        diagnostics={"growth_factor": lu.growth, "inner_iterations": inner_iters},
    )


def gmres_two_precision(A, b, x0=None, opts=None):
    """Restarted GMRES with inner cycles in binary32.

    The cycles' products, basis and Hessenberg run in binary32; the restart
    driver keeps the system itself, restart residuals and iterate updates in
    binary64.
    """
    opts = opts if opts is not None else GmresOptions()
    if opts.restart is None:
        opts = replace(opts, restart=50)
    return _restart_driver(A, b, x0, opts, _arnoldi_cycles, dtype=LOW_DTYPE)
