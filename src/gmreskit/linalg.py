"""Dense and sparse primitives shared by every solver.

Vectors and dense matrices are plain ``numpy.ndarray`` objects in binary64
unless a caller passes another dtype explicitly; the sparse operator is a
small CSR container with validated structure.  Everything here is
immutable-after-construction except where noted.
"""

from __future__ import annotations

import io
import math
import os
import re
import warnings
from dataclasses import dataclass
from typing import NamedTuple

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


class _Layout(NamedTuple):
    """``CsrMatrix._slots``: the band, and the entries of every other row."""

    band: np.ndarray
    spans: tuple
    padded: np.ndarray
    zero_cols: np.ndarray
    gather: np.ndarray
    entry_rows: np.ndarray
    entry_cols: np.ndarray
    entry_vals: np.ndarray


@dataclass(frozen=True)
class CsrMatrix:
    """Compressed sparse row matrix with strictly increasing column indices per row.

    ``matvec`` runs on a layout of the entries (``_slots``), built on the
    first product and cached on the instance.  Each row is in one class: a
    row whose entries all sit at offsets most rows hold is summed a
    diagonal at a time from contiguous slices of the vector, when at least
    half the rows are such; every other row by one ``np.bincount`` over its
    stored entries.  Its result has the bits of a per-row left-to-right
    binary64 sum over the stored entries.
    """

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
        rows = self._nnz_rows()
        bad = (np.diff(col_idx) <= 0) & (rows[1:] == rows[:-1])
        if bad.any():
            i = rows[int(np.argmax(bad))]
            raise ValueError(f"column indices not strictly increasing in row {i}")

    @property
    def nnz(self):
        return len(self.values)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @classmethod
    def from_coo(cls, nrows, ncols, rows, cols, values):
        """CSR from entries in any order; a repeated position fails validation.

        The entries go into row-major order by one stable sort (TimSort) of
        the int64 key row * ncols + column (``_row_major``), linear in time
        on entries already in that order or made of a few such runs.  A
        shape with nrows * ncols >= 2**63, whose key could overflow, is
        sorted by ``np.lexsort`` instead, which gives the same permutation.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape:  # the key would broadcast one against the other
            raise ValueError(f"rows and cols differ in shape: {rows.shape}, {cols.shape}")
        order = _row_major(nrows, ncols, rows, cols)
        row_ptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=nrows))))
        return cls(nrows, ncols, row_ptr, cols[order], np.asarray(values)[order])

    @classmethod
    def from_dense(cls, dense, drop_tol=0.0):
        dense = np.asarray(dense)
        rows, cols = np.nonzero(np.abs(dense) > drop_tol)
        return cls.from_coo(*dense.shape, rows, cols, dense[rows, cols])

    def to_dense(self):
        out = np.zeros((self.nrows, self.ncols), dtype=self.values.dtype)
        out[self._nnz_rows(), self.col_idx] = self.values
        return out

    def _nnz_rows(self):
        """Row index of every stored entry, in storage order."""
        return np.repeat(np.arange(self.nrows), np.diff(self.row_ptr))

    def _slots(self):
        """Product layout of the entries, built on first use.

        The band D is the set of offsets (column - row) that at least half of
        the rows hold, and a row is *banded* if every entry it stores sits at
        an offset in D.  When D is nonempty and at least half of the rows are
        banded, those rows go into ``band``: one length-nrows array per offset
        in ascending order, 0 where a row lacks that offset; ``spans`` gives,
        per offset d, the rows lo..hi whose column i + d is in range, with that
        slice of the band.  Every other row gathers: ``entry_rows``,
        ``entry_cols`` and ``entry_vals`` hold the gather rows' stored entries
        in storage order, each row named by its place in ``gather``.  A banded
        row that lacks an offset whose column is in range reads that column
        through a zero and is *padded*.  ``zero_cols`` holds the columns that
        a band zero multiplies: the band's reach from padded and gather rows.
        """
        cache = getattr(self, "_slot_cache", None)
        if cache is not None:
            return cache
        n = self.nrows
        lengths = np.diff(self.row_ptr)
        rows = np.repeat(np.arange(n), lengths)
        key = self.col_idx - rows
        key += n - 1  # the offset, counted from 1 - n
        held = np.bincount(key, minlength=n + self.ncols - 1)
        D = np.flatnonzero(held >= (max(n, 1) + 1) // 2)  # half the rows or more
        # each entry's place in the flattened band, or nD if it is off the band
        nD = len(D) * n
        place = np.full(len(held), nD)
        place[D] = np.arange(len(D)) * n
        flat = place[key] + rows
        off = np.flatnonzero(flat >= nD)
        flat[off] = nD
        # a row is banded if none of its entries is off the band
        banded = np.bincount(rows[off], minlength=n) == 0
        if not len(D) or 2 * np.count_nonzero(banded) < n:
            D, nD, flat[:], banded[:] = D[:0], 0, 0, False
        gather = np.flatnonzero(~banded)
        # the entries off the band all land in one spare element
        band = np.zeros(nD + 1, dtype=self.values.dtype)
        band[flat] = self.values
        band = band[:nD].reshape(len(D), n)
        band[:, gather] = 0
        # rows i with 0 <= i + d < ncols, per offset d; a banded row with
        # fewer entries than such offsets is padded
        d = D - (n - 1)
        lo, hi = np.maximum(-d, 0), np.minimum(self.ncols - d, n)
        need = np.cumsum(np.bincount(lo, minlength=n + 1)
                         - np.bincount(hi, minlength=n + 1))[:n]
        padded = np.flatnonzero(banded & (lengths < need))
        # a band zero meets v in the columns of padded and gather rows
        i = np.concatenate((padded, gather))
        reach = np.minimum(np.maximum(i[:, None] + d, 0), self.ncols - 1)
        zero_cols = reach[band[:, i].T == 0]
        spans = tuple((vals[a:b], dk, a, b) for vals, dk, a, b
                      in zip(band, d.tolist(), lo.tolist(), hi.tolist()))
        mine = ~banded[rows]
        cache = _Layout(band, spans, padded, zero_cols, gather,
                        np.repeat(np.arange(len(gather)), lengths[gather]),
                        self.col_idx[mine], self.values[mine])
        object.__setattr__(self, "_slot_cache", cache)
        return cache

    def matvec(self, v):
        v = np.asarray(v)
        if v.shape != (self.ncols,):
            raise ValueError(f"dimension mismatch: matrix is {self.nrows}x{self.ncols}, "
                             f"vector has length {v.shape}")
        L = self._slots()
        dtype = np.result_type(v, self.values)
        if dtype.kind not in "biuf":
            raise TypeError(f"cannot sum {dtype} products in binary64")
        # each row sums its products left to right in binary64 from +0.0: a
        # banded row a diagonal at a time, every other row along its stored
        # entries through np.bincount.  A padded entry adds an exact zero for
        # finite v, so the bits are those of a per-row sequential sum over
        # the stored entries in storage order.  A band zero times inf or NaN
        # is an invalid operation, so such a v takes bincount for every row
        z = L.zero_cols
        if len(z) and np.count_nonzero(np.isfinite(v[z])) < len(z):
            return np.bincount(self._nnz_rows(), weights=self.values * v[self.col_idx],
                               minlength=self.nrows)
        out, prod = np.zeros(self.nrows), np.empty(self.nrows, dtype)
        for vals, d, lo, hi in L.spans:
            p, o = prod[lo:hi], out[lo:hi]
            np.multiply(vals, v[lo + d:hi + d], out=p)
            np.add(o, p, out=o)
        if len(L.gather):
            # written into out, which is binary64 also when nnz = 0
            out[L.gather] = np.bincount(L.entry_rows, weights=L.entry_vals * v[L.entry_cols],
                                        minlength=len(L.gather))
        return out

    def diagonal(self):
        """Main diagonal, 0 where the diagonal entry is not stored."""
        d = np.zeros(min(self.shape), dtype=self.values.dtype)
        on = self._nnz_rows() == self.col_idx
        d[self.col_idx[on]] = self.values[on]
        return d

    def frobenius_norm(self):
        return float(np.linalg.norm(self.values))


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
        """Absorb the next Hessenberg column (length ncols+2) and update rho.

        The rotations run on scalars: Python floats in binary64, which take
        the same IEEE operations as numpy's, and the dtype's own scalars
        otherwise, which round each operation to it as an array would.
        """
        j = self.ncols
        col = np.asarray(col, dtype=self.R.dtype)
        if col.shape != (j + 2,):
            raise ValueError(f"column {j} must have {j + 2} leading entries")
        col = col.tolist() if col.dtype == np.float64 else list(col)
        a = col[0]  # rotation i takes entry i as rotated so far and entry i + 1
        for i, rot in enumerate(self.rotations):
            c, s, b = rot.c, rot.s, col[i + 1]
            col[i], a = c * a + s * b, -s * a + c * b
        rot, col[j] = make_givens(a, col[j + 1])
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


def _row_major(nrows, ncols, rows, cols):
    """The stable permutation that puts int64 (row, column) pairs in row-major
    order, as ``CsrMatrix.from_coo`` describes; the key is distinct for
    in-range pairs, but an out-of-range pair may share another's."""
    if max(int(nrows), 1) * max(int(ncols), 1) >= 2**63:
        return np.lexsort((cols, rows))
    key = rows * ncols
    key += cols
    return np.argsort(key, kind="stable")


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

_ENTRY_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])
_COMMENT_LINE = re.compile(r"^[ \t]*%.*$", re.M)
_FLOAT = r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan)"
# the first line that is neither blank nor "row col value"
_BAD_ENTRY_LINE = re.compile(
    rf"^(?![ \t]*(?:[+-]?\d+[ \t]+[+-]?\d+[ \t]+{_FLOAT}[ \t]*)?$).+", re.M | re.I)


def mm_read(path) -> CsrMatrix:
    """Read a Matrix Market coordinate file into CSR form.

    Symmetric storage (lower triangle on disk) is expanded to full, and a
    symmetric file whose size line is not square is refused.  Duplicate
    entries are rejected rather than summed so that corpus errors surface
    instead of silently changing the operator.  The first offending entry in
    file order is named (out of range, above the diagonal, repeated).

    ``np.loadtxt`` reads the entries from the path itself, past the lines
    the header and size line used, so numpy parses the body in chunks.  When
    it refuses the body (a whole-line comment, a malformed line, a count of
    entries other than the size line's, or no entries declared), the rest of
    the open file is read again, its whole-line comments removed, and parsed
    from memory (``_parse_body``), which gives the same entries or names the
    fault.  The duplicate check orders the entries as ``CsrMatrix.from_coo``
    does, by one stable sort of the row-major key (``_row_major``).
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
        line, skip = fh.readline(), 2
        while line.strip().startswith("%") or line.strip() == "":
            line, skip = fh.readline(), skip + 1
            if line == "":
                raise MatrixMarketError("missing size line")
        try:
            nrows, ncols, nnz = (int(t) for t in line.split())
        except ValueError as exc:
            raise MatrixMarketError(f"malformed size line: {line.strip()!r}") from exc
        if min(nrows, ncols, nnz) < 0:
            raise MatrixMarketError(f"malformed size line: {line.strip()!r}")
        if symmetry == "symmetric" and nrows != ncols:
            raise MatrixMarketError(f"symmetric matrix must be square: {line.strip()!r}")
        entries = _loadtxt_path(path, skip, nnz)
        if entries is None:
            entries = _parse_body(fh.read())
    i, j, v = entries["i"] - 1, entries["j"] - 1, entries["v"]
    out_of_range = (i < 0) | (i >= nrows) | (j < 0) | (j >= ncols)
    upper = (j > i) & (symmetry == "symmetric")
    # stable, so the first of equal positions is the earliest; a position
    # whose key it shares with another lies out of range, and is named first
    order = _row_major(nrows, ncols, i, j)
    repeated = np.zeros(len(i), dtype=bool)
    repeated[order[1:]] = (np.diff(i[order]) == 0) & (np.diff(j[order]) == 0)
    bad = out_of_range | upper | repeated
    if bad.any():
        k = int(np.argmax(bad))
        where = f"({i[k] + 1},{j[k] + 1})"
        if out_of_range[k]:
            raise MatrixMarketError(f"entry {where} out of range")
        if upper[k]:
            raise MatrixMarketError(f"entry {where} above the diagonal in a symmetric file")
        raise MatrixMarketError(f"duplicate entry at {where}")
    if len(v) != nnz:
        raise MatrixMarketError(f"expected {nnz} entries, found {len(v)}")
    if symmetry == "symmetric":
        off = i != j
        i, j, v = (np.concatenate((i, j[off])), np.concatenate((j, i[off])),
                   np.concatenate((v, v[off])))
    return CsrMatrix.from_coo(nrows, ncols, i, j, v)


def _loadtxt_path(path, skip, nnz):
    """The entries ``np.loadtxt`` parses from the file at path past its first
    skip lines, or None unless it parses exactly nnz of them.  numpy opens a
    name with a compressed suffix through a decompressor and reads only a
    str path in chunks, so such paths are left to the caller's second read."""
    path = os.fspath(path)
    if not isinstance(path, str) or path.endswith((".gz", ".bz2", ".xz", ".lzma")):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # a body without entries warns
            entries = np.loadtxt(path, dtype=_ENTRY_DTYPE, comments=None, skiprows=skip,
                                 encoding="ascii", ndmin=1)
    except (ValueError, UserWarning):  # a malformed line or a non-ASCII byte among them
        return None
    return entries if len(entries) == nnz else None


def _parse_body(body):
    """The entries of a body held in memory, its whole-line comments removed;
    a MatrixMarketError names the first malformed line."""
    if "%" in body:
        # whole comment lines only: an inline % leaves too many fields
        body = _COMMENT_LINE.sub("", body)
    if not body.strip():
        return np.empty(0, dtype=_ENTRY_DTYPE)
    try:
        return np.loadtxt(io.StringIO(body), dtype=_ENTRY_DTYPE, comments=None, ndmin=1)
    except ValueError as exc:
        line = _BAD_ENTRY_LINE.search(body)
        raise MatrixMarketError("malformed entry line: "
                                + (repr(line.group().strip()) if line else str(exc))) from exc


def mm_write(path, A: CsrMatrix):
    """Write CSR content as a general coordinate Matrix Market file."""
    # numpy hands out Python ints and floats, so %r writes repr(float)
    entries = np.array((A._nnz_rows() + 1, A.col_idx + 1, A.values), dtype=object).T
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{A.nrows} {A.ncols} {A.nnz}\n")
        fh.write("%d %d %r\n" * A.nnz % tuple(entries.ravel()))


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

def _check_entries(A):
    """A ValueError unless the explicit matrix A (CsrMatrix or ndarray) has a
    real dtype and finite entries; a complex one is refused even with a zero
    imaginary part."""
    values = A.values if isinstance(A, CsrMatrix) else A
    if np.iscomplexobj(values):
        raise ValueError("operator must be real")
    if not np.isfinite(values).all():
        raise ValueError("operator must be finite")


def as_matvec(A, n=None):
    """Coerce A (CsrMatrix, 2-D array, or callable) to ``(matvec, dimension)``;
    a complex CsrMatrix or array, or one holding an inf or NaN, is refused."""
    if isinstance(A, CsrMatrix):
        if A.nrows != A.ncols:
            raise ValueError("operator must be square")
        _check_entries(A)
        return A.matvec, A.nrows
    if isinstance(A, np.ndarray):
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("operator must be a square 2-D array")
        _check_entries(A)
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
