"""Two-precision GMRES rules and LU-preconditioned iterative refinement.

The two floating formats are an abstraction pair (Low, High) instantiated as
binary32/binary64; policies say which of the working, residual, factorization
and solution-update computations run in which format.  Whenever the working
format is Low, residuals and solution updates must stay High: the policy
constructor enforces that rule, so invalid combinations are unrepresentable.

Low-format products keep CSR input sparse (``low_operator``); only the LU
factorization of GMRES-IR densifies, once, into a blocked right-looking
factorization whose trailing updates are binary32 GEMMs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .linalg import CsrMatrix, HessenbergLsState, SingularMatrixError, as_matvec
from .ortho import ReductionCounter, basis, mgs_pass
from .solvers import (GmresOptions, SolveReport, _arnoldi_cycles, _finite_vector,
                      _givens_cycle, _restart_driver, _zero_rhs_report)

__all__ = [
    "Precision",
    "PrecisionPolicy",
    "LowLU",
    "lu_low",
    "gmres_ir",
    "gmres_two_precision",
    "low_operator",
]

LOW_DTYPE = np.float32
HIGH_DTYPE = np.float64
DESK_SCALE_LIMIT = 2000
_BLOCK = 64  # column block width of lu_low and LowLU.solve


class Precision(str, Enum):
    HIGH = "high"
    LOW = "low"


@dataclass(frozen=True)
class PrecisionPolicy:
    working: Precision = Precision.HIGH
    residual: Precision = Precision.HIGH
    factorization: Precision = Precision.HIGH
    solution_update: Precision = Precision.HIGH

    def __post_init__(self):
        for name in ("working", "residual", "factorization", "solution_update"):
            object.__setattr__(self, name, Precision(getattr(self, name)))
        if self.working is Precision.LOW:
            if self.residual is not Precision.HIGH:
                raise ValueError("residual computation must stay High when working is Low")
            if self.solution_update is not Precision.HIGH:
                raise ValueError("solution updates must stay High when working is Low")

    def is_low(self, name):
        return getattr(self, name) is Precision.LOW

    def dtype_of(self, name):
        return LOW_DTYPE if self.is_low(name) else HIGH_DTYPE

    @classmethod
    def all_high(cls):
        return cls()

    @classmethod
    def two_precision(cls):
        """Low working format with High residuals and solution updates."""
        return cls(working=Precision.LOW, residual=Precision.HIGH,
                   factorization=Precision.HIGH, solution_update=Precision.HIGH)

    @classmethod
    def refinement(cls):
        """GMRES-IR: Low factorization and inner solves, High outer loop."""
        return cls(working=Precision.LOW, residual=Precision.HIGH,
                   factorization=Precision.LOW, solution_update=Precision.HIGH)


def _densify(A, n=None):
    if isinstance(A, CsrMatrix):
        return A.to_dense()
    if isinstance(A, np.ndarray):
        return np.asarray(A, dtype=np.float64)
    raise TypeError("mixed-precision routines need an explicit matrix "
                    "(CsrMatrix or ndarray) at desk scale")


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
        dense = _densify(A).astype(dtype)
        return lambda v: dense @ np.asarray(v, dtype=dtype)
    matvec, _ = as_matvec(A, n=n)
    return lambda v: np.asarray(matvec(np.asarray(v, dtype=np.float64)), dtype=dtype)


@dataclass
class LowLU:
    """Partial-pivoting LU factors stored in the low format: L is unit lower
    triangular, U upper triangular, and A[perm] = L U."""

    L: np.ndarray
    U: np.ndarray
    perm: np.ndarray
    growth: float

    def solve(self, rhs):
        """Triangular solves in the factors' own format, by blocks: substitution
        inside each diagonal block, one GEMV for the rest of the vector."""
        L, U = self.L, self.U
        y = np.asarray(rhs, dtype=L.dtype)[self.perm]
        n = len(y)
        starts = range(0, n, _BLOCK)
        for k0 in starts:
            k1 = min(k0 + _BLOCK, n)
            for k in range(k0, k1 - 1):
                y[k + 1:k1] -= L[k + 1:k1, k] * y[k]
            y[k1:] -= L[k1:, k0:k1] @ y[k0:k1]
        for k0 in reversed(starts):
            k1 = min(k0 + _BLOCK, n)
            for k in range(k1 - 1, k0 - 1, -1):
                y[k] = y[k] / U[k, k]
                y[k0:k] -= U[k0:k, k] * y[k]
            y[:k0] -= U[:k0, k0:k1] @ y[k0:k1]
        return y


def lu_low(A, dtype=LOW_DTYPE):
    """LU factorization with partial pivoting carried out in the low format.

    Right-looking and blocked: each panel of _BLOCK columns is factored with
    row swaps applied to whole rows, then its block row of U is formed by
    forward substitution and the trailing matrix is updated by one GEMM.
    Reports the growth factor max|U| / max|A| as a quality diagnostic and
    raises SingularMatrixError when a pivot vanishes in the low format.
    """
    F = _densify(A).astype(dtype)  # L's multipliers below the diagonal, U on and above
    n = F.shape[0]
    if F.shape != (n, n):
        raise ValueError("matrix must be square")
    if n > DESK_SCALE_LIMIT:
        raise ValueError(f"dense factorization capped at n <= {DESK_SCALE_LIMIT}")
    amax = float(np.abs(F).max()) if n else 0.0
    perm = np.arange(n)
    for k0 in range(0, n, _BLOCK):
        k1 = min(k0 + _BLOCK, n)
        for k in range(k0, k1):
            p = k + int(np.argmax(np.abs(F[k:, k])))
            if F[p, k] == 0:
                raise SingularMatrixError(k, "matrix is singular in the low format")
            if p != k:
                F[[k, p]] = F[[p, k]]
                perm[[k, p]] = perm[[p, k]]
            F[k + 1:, k] /= F[k, k]
            F[k + 1:, k + 1:k1] -= np.outer(F[k + 1:, k], F[k, k + 1:k1])
        for k in range(k0 + 1, k1):
            F[k, k1:] -= F[k, k0:k] @ F[k0:k, k1:]
        F[k1:, k1:] -= F[k1:, k0:k1] @ F[k0:k1, k1:]
    L = np.tril(F, -1)
    np.fill_diagonal(L, 1)
    U = np.triu(F)
    growth = float(np.abs(U).max()) / amax if amax else 0.0
    return LowLU(L=L, U=U, perm=perm, growth=growth)


def _low_gmres(matvec, b, dtype, rtol, restart, max_iter):
    """Compact restarted MGS-GMRES running entirely in the given dtype.

    Inner solver for refinement; returns (x, iterations, matvecs).  Its
    reductions go to a private counter and are not reported.
    """
    dtype = np.dtype(dtype)
    b = np.asarray(b, dtype=dtype)
    N = len(b)
    x = np.zeros(N, dtype=dtype)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, 0, 0
    tol = rtol * bnorm
    total = 0
    matvecs = 0
    counter = ReductionCounter()

    def steps(V, m):
        nonlocal matvecs
        H = np.zeros((m + 1, m), dtype=dtype)
        for j in range(m):
            w = np.asarray(matvec(V[:, j]), dtype=dtype)
            matvecs += 1
            H[: j + 1, j], w, h_sub = mgs_pass(V, j + 1, w, counter)
            H[j + 1, j] = h_sub
            # binary32 breakdown: a subdiagonal below 1e-7 of its column's largest entry
            yield H, j + 1, h_sub <= 1e-7 * max(abs(H[: j + 2, j]).max(), 1e-30)
            V[:, j + 1] = w / h_sub

    while total < max_iter:
        r = b - np.asarray(matvec(x), dtype=dtype)
        matvecs += 1
        beta = float(np.linalg.norm(r))
        if beta <= tol:
            break
        m = min(restart, max_iter - total)
        V = basis(N, m + 1, dtype)
        V[:, 0] = r / beta
        ls = HessenbergLsState(m, beta, dtype=dtype)
        _givens_cycle(lambda rho: rho <= tol, ls, steps(V, m))
        n = ls.ncols
        x = x + V[:, :n] @ ls.solve(n)
        total += n
        if ls.rho <= tol:
            break
    return x, total, matvecs


def gmres_ir(A, b, policy=None, inner_opts=None, *, rtol=1e-13,
             max_refinements=40):
    """Iterative refinement with a low-precision LU preconditioner.

    Outer residuals and solution updates run High; the inner GMRES solves
    M^{-1} A d = M^{-1} r entirely in the low format with M = LU.  Terminates
    on the High-precision relative residual, the refinement budget, or a
    stagnation abort when the residual stops contracting.
    """
    policy = policy if policy is not None else PrecisionPolicy.refinement()
    inner_opts = inner_opts if inner_opts is not None else \
        GmresOptions(rtol=1e-4, restart=50, max_iter=200)
    b = _finite_vector("b", b)
    N = len(b)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return _zero_rhs_report(N)
    low_dtype = policy.dtype_of("factorization")
    lu = lu_low(A, low_dtype)
    matvec, _ = as_matvec(A, n=N)
    low_matvec = low_operator(A, low_dtype, n=N)

    x = lu.solve(np.asarray(b, dtype=low_dtype)).astype(np.float64)
    r = b - matvec(x)
    matvecs = 1
    history = [float(np.linalg.norm(r))]
    inner_iters = []
    termination = "maxiter"
    no_progress = 0

    def inner_matvec(v):
        return lu.solve(low_matvec(v))

    for _ in range(max_refinements):
        if history[-1] <= rtol * bnorm:
            termination = "converged"
            break
        rhs = lu.solve(np.asarray(r, dtype=low_dtype))
        d, iters, mv = _low_gmres(inner_matvec, rhs, low_dtype,
                                  inner_opts.rtol, inner_opts.restart or 50,
                                  200 if inner_opts.max_iter is None else inner_opts.max_iter)
        matvecs += mv
        inner_iters.append(iters)
        x = x + d.astype(np.float64)
        r = b - matvec(x)
        matvecs += 1
        history.append(float(np.linalg.norm(r)))
        if history[-1] >= 0.5 * history[-2]:
            no_progress += 1
            if no_progress >= 2:
                termination = "stagnation"
                break
        else:
            no_progress = 0
    else:
        if history[-1] <= rtol * bnorm:
            termination = "converged"

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


def gmres_two_precision(A, b, x0=None, opts=None, policy=None):
    """Restarted GMRES with inner cycles in the low format.

    Per the two-precision rules the system itself, restart residuals, and
    iterate updates stay in the high format.  With an all-High policy this is
    the plain restarted algorithm, bit for bit.
    """
    policy = policy if policy is not None else PrecisionPolicy.two_precision()
    opts = opts if opts is not None else GmresOptions()
    if opts.restart is None:
        opts = replace(opts, restart=50)
    return _restart_driver(A, b, x0, opts, _arnoldi_cycles,
                           dtype=policy.dtype_of("working"))
