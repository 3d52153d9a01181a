"""Dense and sparse primitives shared by every solver.

Vectors and dense matrices are plain ``numpy.ndarray`` objects in binary64
unless a caller passes another dtype explicitly; the sparse operator is a
small CSR container with validated structure.  Everything here is
immutable-after-construction except where noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CsrMatrix",
    "GivensRotation",
    "HessenbergLsState",
    "MatrixMarketError",
    "SingularMatrixError",
    "EigenConvergenceError",
    "make_givens",
    "back_substitute",
    "forward_substitute_unit",
    "mm_read",
    "mm_write",
    "dense_eig_symmetric",
    "dense_eig_general",
    "as_matvec",
    "operator_norm_estimate",
]


class MatrixMarketError(ValueError):
    """Malformed or unsupported Matrix Market input."""


class SingularMatrixError(ValueError):
    """A triangular solve hit a (near-)zero diagonal entry."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"zero diagonal entry at index {index}")


class EigenConvergenceError(RuntimeError):
    """A LAPACK eigenvalue iteration failed to converge."""


@dataclass(frozen=True)
class CsrMatrix:
    """Compressed sparse row matrix with strictly increasing column indices per row."""

    nrows: int
    ncols: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        row_ptr = np.asarray(self.row_ptr, dtype=np.int64)
        col_idx = np.asarray(self.col_idx, dtype=np.int64)
        values = np.asarray(self.values)
        object.__setattr__(self, "row_ptr", row_ptr)
        object.__setattr__(self, "col_idx", col_idx)
        object.__setattr__(self, "values", values)
        if row_ptr.shape != (self.nrows + 1,):
            raise ValueError("row_ptr must have length nrows+1")
        if row_ptr[0] != 0 or row_ptr[-1] != len(values):
            raise ValueError("row_ptr must start at 0 and end at nnz")
        if np.any(np.diff(row_ptr) < 0):
            raise ValueError("row_ptr must be nondecreasing")
        if len(col_idx) != len(values):
            raise ValueError("col_idx and values must have equal length")
        if len(col_idx) and (col_idx.min() < 0 or col_idx.max() >= self.ncols):
            raise ValueError("column index out of range")
        for i in range(self.nrows):
            cols = col_idx[row_ptr[i]:row_ptr[i + 1]]
            if len(cols) > 1 and np.any(np.diff(cols) <= 0):
                raise ValueError(f"column indices not strictly increasing in row {i}")

    @property
    def nnz(self):
        return len(self.values)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @classmethod
    def from_dense(cls, dense, drop_tol=0.0):
        dense = np.asarray(dense)
        nrows, ncols = dense.shape
        row_ptr = [0]
        col_idx = []
        values = []
        for i in range(nrows):
            for j in range(ncols):
                if abs(dense[i, j]) > drop_tol:
                    col_idx.append(j)
                    values.append(dense[i, j])
            row_ptr.append(len(values))
        return cls(nrows, ncols, np.array(row_ptr), np.array(col_idx, dtype=np.int64),
                   np.array(values, dtype=dense.dtype))

    def to_dense(self):
        out = np.zeros((self.nrows, self.ncols), dtype=self.values.dtype)
        for i in range(self.nrows):
            sl = slice(self.row_ptr[i], self.row_ptr[i + 1])
            out[i, self.col_idx[sl]] = self.values[sl]
        return out

    def _nnz_rows(self):
        # cached row index of every stored entry, for the bincount matvec
        rows = getattr(self, "_row_cache", None)
        if rows is None:
            rows = np.repeat(np.arange(self.nrows), np.diff(self.row_ptr))
            object.__setattr__(self, "_row_cache", rows)
        return rows

    def matvec(self, v):
        v = np.asarray(v)
        if v.shape != (self.ncols,):
            raise ValueError(f"dimension mismatch: matrix is {self.nrows}x{self.ncols}, "
                             f"vector has length {v.shape}")
        prod = self.values * v[self.col_idx]
        # bincount accumulates sequentially in storage order, i.e. the same
        # order as a per-row left-to-right sum over the stored entries
        return np.bincount(self._nnz_rows(), weights=prod, minlength=self.nrows)

    def frobenius_norm(self):
        return float(np.linalg.norm(self.values))

    def astype(self, dtype):
        return CsrMatrix(self.nrows, self.ncols, self.row_ptr, self.col_idx,
                         self.values.astype(dtype))


@dataclass(frozen=True)
class GivensRotation:
    """Plane rotation (c, s) with c**2 + s**2 == 1."""

    c: float
    s: float

    def apply(self, a, b):
        return self.c * a + self.s * b, -self.s * a + self.c * b


def make_givens(a, b):
    """Rotation annihilating b against a.

    Returns ``(rot, r)`` with ``rot.c*a + rot.s*b == r``, ``-rot.s*a + rot.c*b == 0``
    and ``r == hypot(a, b) >= 0``.  ``(0, 0)`` maps to the identity rotation with r=0.
    Scaling by max(|a|, |b|) keeps the intermediate squares from overflowing.
    """
    a = float(a)
    b = float(b)
    if a == 0.0 and b == 0.0:
        return GivensRotation(1.0, 0.0), 0.0
    scale = max(abs(a), abs(b))
    ar = a / scale
    br = b / scale
    r = scale * math.sqrt(ar * ar + br * br)
    return GivensRotation(a / r, b / r), r


class HessenbergLsState:
    """Running QR of an upper Hessenberg matrix via Givens rotations.

    Tracks the triangular factor R (stored over the Hessenberg columns), the
    rotated right-hand side g = Q^T (beta e1), and the free residual-norm
    estimate rho = |g[j+1]| after j columns.  Confined to one owning solver.
    """

    def __init__(self, max_cols, beta, dtype=np.float64):
        self.R = np.zeros((max_cols + 1, max_cols), dtype=dtype)
        self.g = np.zeros(max_cols + 1, dtype=dtype)
        self.g[0] = beta
        self.rotations = []
        self.rho = abs(float(beta))
        self.ncols = 0

    def push_column(self, col):
        """Absorb the next Hessenberg column (length ncols+2) and update rho."""
        j = self.ncols
        col = np.asarray(col, dtype=self.R.dtype).copy()
        if col.shape != (j + 2,):
            raise ValueError(f"column {j} must have {j + 2} leading entries")
        for i, rot in enumerate(self.rotations):
            col[i], col[i + 1] = rot.apply(col[i], col[i + 1])
        rot, r = make_givens(col[j], col[j + 1])
        col[j] = r
        col[j + 1] = 0.0
        gj, gj1 = rot.apply(self.g[j], self.g[j + 1])
        self.g[j] = gj
        self.g[j + 1] = gj1
        self.rotations.append(rot)
        self.R[: j + 2, j] = col
        self.ncols = j + 1
        self.rho = abs(float(gj1))
        return self.rho

    def diag(self, j):
        return float(self.R[j, j])

    def solve(self, n=None):
        """Solve R[:n,:n] y = g[:n] for the least-squares coefficient vector."""
        if n is None:
            n = self.ncols
        return back_substitute(self.R[:n, :n], self.g[:n])


def back_substitute(R, g):
    """Solve the upper triangular system R y = g.

    Raises SingularMatrixError naming the first (scanning from the bottom)
    zero diagonal entry.
    """
    R = np.asarray(R)
    g = np.asarray(g)
    n = len(g)
    if R.shape[0] < n or R.shape[1] < n:
        raise ValueError("triangular factor smaller than right-hand side")
    y = np.zeros(n, dtype=np.result_type(R.dtype, g.dtype))
    for i in range(n - 1, -1, -1):
        d = R[i, i]
        if d == 0.0:
            raise SingularMatrixError(i)
        y[i] = (g[i] - R[i, i + 1:n] @ y[i + 1:n]) / d
    return y


def forward_substitute_unit(L, rhs):
    """Solve (I + L) x = rhs with L strictly lower triangular."""
    rhs = np.asarray(rhs)
    n = len(rhs)
    x = np.array(rhs, dtype=np.result_type(L.dtype, rhs.dtype), copy=True)
    for i in range(1, n):
        x[i] = rhs[i] - L[i, :i] @ x[:i]
    return x


# ---------------------------------------------------------------------------
# Matrix Market I/O (coordinate real, general or symmetric)

def mm_read(path) -> CsrMatrix:
    """Read a Matrix Market coordinate file into CSR form.

    Symmetric storage (lower triangle on disk) is expanded to full.
    Duplicate entries are rejected rather than summed so that corpus errors
    surface instead of silently changing the operator.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise MatrixMarketError("missing %%MatrixMarket header")
        parts = header.strip().split()
        if len(parts) != 5:
            raise MatrixMarketError(f"malformed header: {header.strip()!r}")
        _, obj, fmt, fieldtype, symmetry = (p.lower() for p in parts)
        if obj != "matrix" or fmt != "coordinate":
            raise MatrixMarketError(f"unsupported object/format: {obj} {fmt}")
        if fieldtype != "real":
            raise MatrixMarketError(f"unsupported field type: {fieldtype}")
        if symmetry not in ("general", "symmetric"):
            raise MatrixMarketError(f"unsupported symmetry: {symmetry}")
        line = fh.readline()
        while line.strip().startswith("%") or line.strip() == "":
            line = fh.readline()
            if line == "":
                raise MatrixMarketError("missing size line")
        try:
            nrows, ncols, nnz = (int(t) for t in line.split())
        except ValueError as exc:
            raise MatrixMarketError(f"malformed size line: {line.strip()!r}") from exc
        entries = {}
        count = 0
        for raw in fh:
            raw = raw.strip()
            if raw == "" or raw.startswith("%"):
                continue
            toks = raw.split()
            if len(toks) != 3:
                raise MatrixMarketError(f"malformed entry line: {raw!r}")
            i, j = int(toks[0]) - 1, int(toks[1]) - 1
            v = float(toks[2])
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise MatrixMarketError(f"entry ({i + 1},{j + 1}) out of range")
            if symmetry == "symmetric" and j > i:
                raise MatrixMarketError(
                    f"entry ({i + 1},{j + 1}) above the diagonal in a symmetric file")
            if (i, j) in entries:
                raise MatrixMarketError(f"duplicate entry at ({i + 1},{j + 1})")
            entries[(i, j)] = v
            count += 1
        if count != nnz:
            raise MatrixMarketError(f"expected {nnz} entries, found {count}")
    if symmetry == "symmetric":
        expanded = dict(entries)
        for (i, j), v in entries.items():
            if i != j:
                expanded[(j, i)] = v
        entries = expanded
    keys = sorted(entries)
    row_ptr = np.zeros(nrows + 1, dtype=np.int64)
    col_idx = np.empty(len(keys), dtype=np.int64)
    values = np.empty(len(keys), dtype=np.float64)
    for k, (i, j) in enumerate(keys):
        row_ptr[i + 1] += 1
        col_idx[k] = j
        values[k] = entries[(i, j)]
    row_ptr = np.cumsum(row_ptr)
    return CsrMatrix(nrows, ncols, row_ptr, col_idx, values)


def mm_write(path, A: CsrMatrix):
    """Write CSR content as a general coordinate Matrix Market file."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{A.nrows} {A.ncols} {A.nnz}\n")
        for i in range(A.nrows):
            for k in range(A.row_ptr[i], A.row_ptr[i + 1]):
                fh.write(f"{i + 1} {A.col_idx[k] + 1} {float(A.values[k])!r}\n")


# ---------------------------------------------------------------------------
# Desk-scale eigensolvers

def dense_eig_symmetric(S, vectors=False):
    """Eigenvalues (ascending) of a real symmetric or complex Hermitian matrix.

    Backed by LAPACK's symmetric/Hermitian driver through numpy; input that
    is not Hermitian to 1e-12 relative accuracy raises ValueError, and
    iteration failure surfaces as EigenConvergenceError.
    """
    S = np.asarray(S, dtype=np.result_type(S, np.float64))
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("matrix must be square")
    if np.linalg.norm(S - S.conj().T) > 1e-12 * max(np.linalg.norm(S), 1e-300):
        raise ValueError("matrix is not symmetric (Hermitian) to working accuracy")
    try:
        return np.linalg.eigh(S) if vectors else np.linalg.eigvalsh(S)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigenvalues did not converge: {exc}") from exc


def dense_eig_general(M, vectors=False):
    """Complex eigenvalues (and optionally eigenvectors) of a square real matrix.

    Backed by LAPACK's Hessenberg-reduction + shifted-QR driver through
    numpy; iteration failure surfaces as EigenConvergenceError.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    try:
        if vectors:
            vals, vecs = np.linalg.eig(M)
        else:
            vals = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"QR iteration did not converge: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    if vectors:
        return vals, vecs[:, order]
    return vals


# ---------------------------------------------------------------------------
# Operator coercion helpers

def as_matvec(A, n=None):
    """Coerce A (CsrMatrix, 2-D array, or callable) to ``(matvec, dimension)``."""
    if isinstance(A, CsrMatrix):
        if A.nrows != A.ncols:
            raise ValueError("operator must be square")
        return A.matvec, A.nrows
    if isinstance(A, np.ndarray):
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("operator must be a square 2-D array")
        return (lambda v: A @ v), A.shape[0]
    if callable(A):
        dim = n if n is not None else getattr(A, "n", None)
        if dim is None:
            raise ValueError("callable operators need an explicit dimension")
        return A, dim
    raise TypeError(f"cannot interpret {type(A).__name__} as a linear operator")


def operator_norm_estimate(A, matvec=None, probe=None):
    """Cheap scale estimate of ||A|| for breakdown guards and perturbation sizing."""
    if isinstance(A, CsrMatrix):
        return A.frobenius_norm()
    if isinstance(A, np.ndarray):
        return float(np.linalg.norm(A))
    if probe is not None and matvec is not None:
        pn = np.linalg.norm(probe)
        if pn > 0:
            return float(np.linalg.norm(matvec(probe)) / pn)
    return 1.0
