"""Reference computations for the benchmark's checks, written with numpy alone.

Nothing here imports gmreskit.  Operators are assembled from their
definition, residuals go through a CSR product that shares no code with the
program's, and the forward error and the bound ingredients come from
numpy.linalg, so a fault in the program cannot hide inside its own check.
"""

from __future__ import annotations

import math

import numpy as np


class RefCsr:
    """CSR arrays with a segment-sum product (``np.add.reduceat``).

    The program multiplies with ``np.bincount`` over a row-index array; this
    product sums each row's segment instead, so the two agree only when both
    are right.
    """

    def __init__(self, n, indptr, indices, data):
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        self._nonempty = np.diff(self.indptr) > 0

    def _segment_sums(self, prod):
        out = np.zeros(self.n)
        # reduceat would copy the entry at a repeated start into an empty row
        out[self._nonempty] = np.add.reduceat(prod, self.indptr[:-1][self._nonempty])
        return out

    def matvec(self, x):
        return self._segment_sums(self.data * x[self.indices])

    def abs_matvec(self, x):
        """|A| |x|, the scale of the rounding error in a computed product."""
        return self._segment_sums(np.abs(self.data) * np.abs(x[self.indices]))

    def dense(self):
        out = np.zeros((self.n, self.n))
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        out[rows, self.indices] = self.data
        return out


def convdiff(nx, ny, peclet):
    """Five-point upwind convection-diffusion operator on an nx-by-ny grid.

    Unknown (ix, iy) is row iy*nx + ix.  Its stencil is centre 4 + |pe|,
    north and south -1, and west -1 - max(pe, 0), east -1 - max(-pe, 0):
    the diffusion stencil plus a first-order upwind difference along x.
    Neighbours outside the grid are Dirichlet values and drop out.
    """
    n = nx * ny
    pe = float(peclet)
    iy, ix = np.divmod(np.arange(n), nx)
    stencil = (
        (-nx, iy > 0, -1.0),
        (-1, ix > 0, -1.0 - max(pe, 0.0)),
        (0, np.ones(n, dtype=bool), 4.0 + abs(pe)),
        (1, ix < nx - 1, -1.0 - max(-pe, 0.0)),
        (nx, iy < ny - 1, -1.0),
    )
    rows, cols, vals = [], [], []
    for offset, inside, weight in stencil:
        r = np.nonzero(inside)[0]
        rows.append(r)
        cols.append(r + offset)
        vals.append(np.full(len(r), weight))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    order = np.lexsort((cols, rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return RefCsr(n, indptr, cols[order], vals[order])


def same_csr(A, ref):
    """Differences between a program CsrMatrix and a reference, entry by entry."""
    problems = []
    if (A.nrows, A.ncols) != (ref.n, ref.n):
        return [f"shape {A.nrows}x{A.ncols}, expected {ref.n}x{ref.n}"]
    if not np.array_equal(np.asarray(A.row_ptr), ref.indptr):
        problems.append("row pointers differ from the stencil's")
    elif not np.array_equal(np.asarray(A.col_idx), ref.indices):
        problems.append("column indices differ from the stencil's")
    elif not np.array_equal(np.asarray(A.values, dtype=np.float64), ref.data):
        bad = int(np.count_nonzero(np.asarray(A.values) != ref.data))
        problems.append(f"{bad} stored values differ from the stencil's")
    return problems


def csr_of(A):
    """Reference view of a program CsrMatrix whose entries were checked apart."""
    return RefCsr(A.nrows, A.row_ptr, A.col_idx, A.values)


def residual(ref, x, b):
    """(||b - A x||, rounding scale ||(|A||x| + |b|)||) with the reference product."""
    x = np.asarray(x, dtype=np.float64)
    r = b - ref.matvec(x)
    scale = float(np.linalg.norm(ref.abs_matvec(x) + np.abs(b)))
    return float(np.linalg.norm(r)), scale


def forward_error(ref, x, b):
    """||x - x*|| / ||x*|| with x* from numpy.linalg.solve on the dense operator."""
    x_star = np.linalg.solve(ref.dense(), b)
    return float(np.linalg.norm(np.asarray(x) - x_star) / np.linalg.norm(x_star))


def elman_base(dense):
    """1 - lambda_min(M)^2 / lambda_max(A^T A), M the symmetric part; None if
    M is not positive definite."""
    lam_min = np.linalg.eigvalsh(0.5 * (dense + dense.T))[0]
    if lam_min <= 0:
        return None
    lam_max = np.linalg.eigvalsh(dense.T @ dense)[-1]
    return max(0.0, 1.0 - lam_min * lam_min / lam_max)


def fov_distance(dense, grid_count):
    """Largest sampled support value of the field of values, or 0 if none
    separates the origin.

    Samples the angles 2 pi k / grid_count for k = 0 .. grid_count/2 and takes
    the smallest eigenvalue of the Hermitian cos(t) S + i sin(t) K, whose
    spectrum equals that of its real 2n-by-2n embedding; the other half of
    the circle mirrors these for a real operator.
    """
    S = 0.5 * (dense + dense.T)
    K = 0.5 * (dense - dense.T)
    best = -math.inf
    for k in range(grid_count // 2 + 1):
        t = 2.0 * math.pi * k / grid_count
        lam = np.linalg.eigvalsh(math.cos(t) * S + 1j * math.sin(t) * K)[0]
        best = max(best, float(lam))
    return best if best > 0.0 else 0.0


def fov_base(dense, grid_count):
    """1 - mu(A) mu(A^-1) from the sampled field-of-values distances; None
    when either field of values holds the origin."""
    mu_a = fov_distance(dense, grid_count)
    mu_inv = fov_distance(np.linalg.inv(dense), grid_count)
    if mu_a == 0.0 or mu_inv == 0.0:
        return None
    return max(0.0, 1.0 - mu_a * mu_inv)
