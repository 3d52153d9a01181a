"""Convergence-bound evaluation against measured residual histories.

Three a-priori bounds are computed per iteration: the eigenvalue bound
kappa(X) max_i |p(lambda_i)| with a supplied residual polynomial (any fixed
p upper-bounds the minimum over all polynomials of that degree), the
positive-definite-symmetric-part contraction bound, and the field-of-values
bound.  Inapplicable cases are flagged, never silently skipped.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .deflation import ResidualPolynomial, harmonic_ritz, leja_order
from .linalg import CsrMatrix, as_matvec, dense_eig_general, dense_eig_symmetric
from .solvers import GmresOptions, gmres

__all__ = [
    "BoundReport",
    "eigen_bound",
    "elman_bound",
    "fov_distance",
    "fov_bound",
    "residual_poly_check",
    "spectrum_and_conditioning",
    "bound_report",
]


def _dense(A):
    if isinstance(A, CsrMatrix):
        return A.to_dense()
    return np.asarray(A, dtype=np.float64)


def eigen_bound(eigs, kappaX, poly: ResidualPolynomial):
    """kappa(X) * max_i |p(lambda_i)| for a diagonalizable operator.

    Valid upper bound for the minimal-residual ratio because the true
    minimum over degree-n polynomials can only be smaller than the value of
    the supplied p.
    """
    return float(kappaX) * max(abs(poly.eval_scalar(lam)) for lam in eigs)


def spectrum_and_conditioning(A, normal_tol=1e-12):
    """Eigenvalues of A and the conditioning of its eigenvector matrix.

    A numerically normal A gets kappa(X) = 1 exactly; a nearly defective
    eigenvector matrix triggers a warning since the bound then carries
    little information.
    """
    dense = _dense(A)
    vals, vecs = dense_eig_general(dense, vectors=True)
    comm = dense.T @ dense - dense @ dense.T
    scale = np.linalg.norm(dense) ** 2
    if scale == 0 or np.linalg.norm(comm) <= normal_tol * scale:
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
    q = _elman_base(A)
    if q is None:
        return None
    return q ** (n / 2.0)


def _elman_base(A):
    dense = _dense(A)
    M = 0.5 * (dense + dense.T)
    lam_min = dense_eig_symmetric(M)[0]
    if lam_min <= 0:
        return None
    lam_max = np.linalg.norm(dense, 2) ** 2
    return max(0.0, 1.0 - lam_min * lam_min / lam_max)


def fov_distance(A, grid_count=256):
    """Distance from the origin to the field of values, from below.

    Sweeps grid_count rotation angles; each direction's smallest eigenvalue
    of the rotated Hermitian part supports a half plane containing the field
    of values, so the running maximum is a certified lower bound of the
    distance for the sampled directions.  Returns (estimate, origin_inside);
    the estimate is 0 when no sampled direction separates the origin.
    """
    if grid_count < 8:
        raise ValueError("need at least 8 grid directions")
    dense = _dense(A)
    S = 0.5 * (dense + dense.T)
    K = 0.5 * (dense - dense.T)
    # Johnson's rotated Hermitian part cos(t) S + i sin(t) K; for a real
    # operator the angles t and -t share their spectrum, so [0, pi] suffices
    lams = []
    for k in range(grid_count // 2 + 1):
        theta = 2.0 * math.pi * k / grid_count
        lams.append(dense_eig_symmetric(math.cos(theta) * S + 1j * math.sin(theta) * K)[0])
    best = float(max(lams))
    if best > 0.0:
        return best, False
    return 0.0, True


def fov_bound(A, n, grid_count=256):
    """(1 - mu_F(A) mu_F(A^{-1}))^(n/2), requiring the origin outside both
    fields of values; None when inapplicable."""
    q = _fov_base(A, grid_count)
    if q is None:
        return None
    return q ** (n / 2.0)


def _fov_base(A, grid_count=256):
    dense = _dense(A)
    mu_a, inside_a = fov_distance(dense, grid_count)
    if inside_a:
        return None
    mu_inv, inside_inv = fov_distance(np.linalg.inv(dense), grid_count)
    if inside_inv:
        return None
    return max(0.0, 1.0 - mu_a * mu_inv)


def residual_polynomial_from_run(report, n=None):
    """Degree-n residual polynomial of a recorded run (harmonic Ritz roots)."""
    dec = report.diagnostics.get("arnoldi")
    if dec is None:
        raise ValueError("run did not record its Arnoldi factorization")
    n = n if n is not None else dec.n
    if n > dec.n:
        raise ValueError(f"run holds only {dec.n} steps")
    H = dec.Hbar[:n, :n]
    h_next = dec.Hbar[n, n - 1] if n < dec.Hbar.shape[0] else 0.0
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
    """Evaluate all applicable bounds against one solve's residual history."""
    history = report.residual_history
    r0 = history[0]
    measured = [h / r0 for h in history]
    iterations = list(range(len(history)))
    eigs, kappa_x = spectrum_and_conditioning(A)
    elman_base = _elman_base(A)
    fov_base = _fov_base(A, grid_count)
    dec = report.diagnostics.get("arnoldi")

    eigen_col = [1.0 * kappa_x if n == 0 else None for n in iterations]
    for n in iterations[1:]:
        if dec is None or n > dec.n or n > max_eigen_degree:
            continue
        try:
            H = dec.Hbar[:n, :n]
            h_next = dec.Hbar[n, n - 1] if n < dec.Hbar.shape[0] else 0.0
            hr = harmonic_ritz(H, h_next)
            roots = [r for r in hr.values if abs(r) > 0]
            poly = ResidualPolynomial(leja_order(roots))
            eigen_col[n] = eigen_bound(eigs, kappa_x, poly)
        except (ValueError, np.linalg.LinAlgError):
            eigen_col[n] = None
    elman_col = [None if elman_base is None else elman_base ** (n / 2.0)
                 for n in iterations]
    fov_col = [None if fov_base is None else fov_base ** (n / 2.0)
               for n in iterations]
    flags = {
        "kappa_x": kappa_x,
        "normal": kappa_x == 1.0,
        "pd_symmetric_part": elman_base is not None,
        "origin_outside_fov": fov_base is not None,
    }
    return BoundReport(iterations=iterations, measured=measured,
                       eigen=eigen_col, elman=elman_col, fov=fov_col,
                       flags=flags)
