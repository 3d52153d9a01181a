"""Convergence-bound evaluation against measured residual histories.

Three a-priori bounds are computed per iteration: the eigenvalue bound
kappa(X) max_i |p(lambda_i)| with a supplied residual polynomial (any fixed
p upper-bounds the minimum over all polynomials of that degree), the
positive-definite-symmetric-part contraction bound, and the field-of-values
bound.  Inapplicable cases are flagged, never silently skipped.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .deflation import ResidualPolynomial, harmonic_ritz, leja_order
from .linalg import CsrMatrix, as_matvec, dense_eig_general, dense_eig_symmetric
from .solvers import GmresOptions, gmres

__all__ = [
    "DESK_SCALE_LIMIT",
    "BoundReport",
    "eigen_bound",
    "elman_bound",
    "fov_distance",
    "fov_bound",
    "residual_poly_check",
    "spectrum_and_conditioning",
    "bound_report",
]


# bound_report densifies A and solves a nonsymmetric eigenproblem with
# vectors in O(n^3), so it is capped at desk scale (the binary32 LU's cap
# is on its storage's bytes instead, mixedprec.LU_BYTES_LIMIT)
DESK_SCALE_LIMIT = 2000


def _dense(A):
    if isinstance(A, CsrMatrix):
        A = A.to_dense()
    return np.asarray(A, dtype=np.float64)


def eigen_bound(eigs, kappaX, poly: ResidualPolynomial):
    """kappa(X) * max_i |p(lambda_i)| for a diagonalizable operator.

    Valid upper bound for the minimal-residual ratio because the true
    minimum over degree-n polynomials can only be smaller than the value of
    the supplied p.
    """
    return float(kappaX) * max(abs(poly.eval_scalar(lam)) for lam in eigs)


def spectrum_and_conditioning(A):
    """Eigenvalues of A and the conditioning of its eigenvector matrix.

    A numerically normal A (||A^T A - A A^T|| <= 1e-12 ||A||_F^2) gets
    kappa(X) = 1 exactly; a nearly defective eigenvector matrix triggers a
    warning since the bound then carries little information.
    """
    dense = _dense(A)
    vals, vecs = dense_eig_general(dense, vectors=True)
    comm = dense.T @ dense - dense @ dense.T
    scale = np.linalg.norm(dense) ** 2
    if scale == 0 or np.linalg.norm(comm) <= 1e-12 * scale:
        return vals, 1.0
    kappa = float(np.linalg.cond(vecs))
    if kappa > 1e12:
        warnings.warn("eigenvector matrix nearly defective; the eigenvalue "
                      "bound is unreliable", stacklevel=2)
    return vals, kappa


def elman_bound(A, n):
    """(1 - lambda_min(M)^2 / lambda_max(A^T A))^(n/2) with M the symmetric part.

    Returns None when M is not positive definite (bound inapplicable).
    """
    return _power(_elman_base(*_symmetric_part(A)), n)


def _power(q, n):
    """The bound q^(n/2) after n steps; None for an inapplicable base q."""
    return None if q is None else q ** (n / 2.0)


def _symmetric_part(A):
    """A in binary64, and the ascending eigenvalues of its symmetric part."""
    dense = _dense(A)
    return dense, dense_eig_symmetric(0.5 * (dense + dense.T))


def _elman_base(dense, lam):
    if lam[0] <= 0:
        return None
    lam_max = np.linalg.norm(dense, 2) ** 2
    return max(0.0, 1.0 - lam[0] * lam[0] / lam_max)


def fov_distance(A, grid_count=256):
    """Distance from the origin to the field of values F(A).

    Each direction t gives the smallest eigenvalue of Johnson's rotated
    Hermitian part cos(t) S + i sin(t) K, a support value of F(A); the
    distance is their maximum over t when that is positive.  The operator is
    real (it is cast to binary64), so F(A) is convex and symmetric about the
    real axis: its point nearest an outside origin is real, and the maximum
    sits at t = 0 or pi, i.e. at lambda_min(S) or -lambda_max(S) of the
    symmetric part S.  Returns (distance, origin_inside); the distance is 0
    when the origin lies in F(A).  grid_count (at least 8) is kept for
    callers and no longer changes the result.
    """
    return _fov_distance(_symmetric_part(A)[1], grid_count)


def _fov_distance(lam, grid_count):
    if grid_count < 8:
        raise ValueError("need at least 8 grid directions")
    mu = max(0.0, float(max(lam[0], -lam[-1])))
    return mu, mu == 0.0


def fov_bound(A, n, grid_count=256):
    """(1 - mu_F(A) mu_F(A^{-1}))^(n/2), requiring the origin outside both
    fields of values; None when inapplicable."""
    return _power(_fov_base(*_symmetric_part(A), grid_count), n)


def _fov_base(dense, lam, grid_count):
    mu_a, inside_a = _fov_distance(lam, grid_count)
    if inside_a:
        return None
    mu_inv, inside_inv = fov_distance(np.linalg.inv(dense), grid_count)
    if inside_inv:
        return None
    return max(0.0, 1.0 - mu_a * mu_inv)


def residual_polynomial_from_run(report, n=None):
    """Degree-n residual polynomial of a recorded run (harmonic Ritz roots)
    from the (n+1) x n Hessenberg factor in diagnostics["arnoldi"]."""
    Hbar = report.diagnostics.get("arnoldi")
    if Hbar is None:
        raise ValueError("run did not record the Hessenberg factor of its last "
                         "Arnoldi cycle")
    steps = Hbar.shape[1]
    n = n if n is not None else steps
    if n > steps:
        raise ValueError(f"run holds only {steps} steps")
    H = Hbar[:n, :n]
    h_next = Hbar[n, n - 1] if n < Hbar.shape[0] else 0.0
    hr = harmonic_ritz(H, h_next)
    roots = [r for r in hr.values if abs(r) > 0]
    return ResidualPolynomial(leja_order(roots))


def residual_poly_check(A, r0, n):
    """Deviation ||p(A) r0 - r_n|| / ||r0|| of the residual-polynomial identity.

    Runs n minimal-residual steps from r0, builds the degree-n polynomial
    from the harmonic Ritz roots, and applies it explicitly.
    """
    r0 = np.asarray(r0, dtype=np.float64)
    matvec, _ = as_matvec(A, n=len(r0))
    report = gmres(A, r0, opts=GmresOptions(rtol=1e-300, max_iter=n))
    poly = residual_polynomial_from_run(report)
    r_n = r0 - matvec(report.x)
    dev = np.linalg.norm(poly.apply(A, r0) - r_n) / np.linalg.norm(r0)
    return float(dev)


@dataclass
class BoundReport:
    """Per-iteration measured ratios next to the three bound values.

    None entries mark inapplicable bounds; the flags record why.
    """

    iterations: list
    measured: list
    eigen: list
    elman: list
    fov: list
    flags: dict = field(default_factory=dict)

    def rows(self):
        for i, n in enumerate(self.iterations):
            yield n, self.measured[i], self.eigen[i], self.elman[i], self.fov[i]


def bound_report(A, report, grid_count=256, max_eigen_degree=30):
    """Evaluate all applicable bounds against one solve's residual history.

    Raises ValueError, before any dense work, for an A of more than
    DESK_SCALE_LIMIT rows.
    """
    n = A.nrows if isinstance(A, CsrMatrix) else np.shape(A)[0]
    if n > DESK_SCALE_LIMIT:
        raise ValueError(f"A has {n} rows: bound_report is capped at "
                         f"n <= {DESK_SCALE_LIMIT}")
    history = report.residual_history
    r0 = history[0]
    measured = [h / r0 for h in history]
    iterations = list(range(len(history)))
    dense, lam = _symmetric_part(A)
    eigs, kappa_x = spectrum_and_conditioning(dense)
    elman_base = _elman_base(dense, lam)
    fov_base = _fov_base(dense, lam, grid_count)
    Hbar = report.diagnostics.get("arnoldi")

    eigen_col = [1.0 * kappa_x if n == 0 else None for n in iterations]
    for n in iterations[1:]:
        if Hbar is None or n > Hbar.shape[1] or n > max_eigen_degree:
            continue
        try:
            eigen_col[n] = eigen_bound(eigs, kappa_x, residual_polynomial_from_run(report, n))
        except (ValueError, np.linalg.LinAlgError):
            eigen_col[n] = None
    elman_col = [_power(elman_base, n) for n in iterations]
    fov_col = [_power(fov_base, n) for n in iterations]
    flags = {
        "kappa_x": kappa_x,
        "normal": kappa_x == 1.0,
        "pd_symmetric_part": elman_base is not None,
        "origin_outside_fov": fov_base is not None,
    }
    return BoundReport(iterations=iterations, measured=measured,
                       eigen=eigen_col, elman=elman_col, fov=fov_col,
                       flags=flags)
