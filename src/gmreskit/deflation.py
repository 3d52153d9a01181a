"""Harmonic Ritz extraction, augmented restarting, and polynomial preconditioning.

The harmonic Ritz values of a GMRES cycle are the roots of its residual
polynomial; ordered well (modified Leja) they yield a stable low-degree
polynomial preconditioner, and their vectors are the deflation directions of
the augmented restart.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import as_matvec, dense_eig_general
from .ortho import OrthoScheme, arnoldi
from .solvers import (
    FunctionPreconditioner,
    _augmented_options,
    _flexible_cycle,
    _restart_driver,
)

__all__ = [
    "HarmonicRitzSet",
    "ResidualPolynomial",
    "harmonic_ritz",
    "leja_order",
    "build_poly_preconditioner",
    "polynomial_preconditioner",
    "gmres_e",
    "MAX_POLY_DEGREE",
]

MAX_POLY_DEGREE = 20


@dataclass
class HarmonicRitzSet:
    """Eigenpairs of H_m + h^2 H_m^{-T} e_m e_m^T, sorted by |theta| ascending.

    vectors holds the coordinate eigenvectors in the Krylov basis (columns);
    residual_norms the direct-substitution residuals of each pair.
    """

    values: np.ndarray
    vectors: np.ndarray
    residual_norms: np.ndarray
    grade_deficient: bool = False


def harmonic_ritz(H_m, h_next):
    """Harmonic Ritz pairs from the square Hessenberg block and the next
    subdiagonal entry.

    A singular H_m falls back to the generalized eigenproblem
    (Hbar^T Hbar) y = theta H_m^T y with a grade-deficient diagnostic; a
    rank-deficient Hbar raises ValueError.
    """
    H = np.asarray(H_m, dtype=np.float64)
    m = H.shape[0]
    if H.shape != (m, m):
        raise ValueError("H_m must be square")
    h2 = float(h_next) ** 2
    grade_deficient = False
    try:
        z = np.linalg.solve(H.T, np.eye(m)[:, -1])
        F = H.copy()
        F[:, -1] += h2 * z
        values, vectors = dense_eig_general(F, vectors=True)
    except np.linalg.LinAlgError:
        grade_deficient = True
        Hbar = np.vstack([H, np.zeros((1, m))])
        Hbar[m, m - 1] = math.sqrt(h2)
        try:
            K = np.linalg.solve(Hbar.T @ Hbar, H.T)
        except np.linalg.LinAlgError:
            raise ValueError("H_m with h_next gives a rank-deficient Hbar, "
                             "which has no harmonic Ritz values") from None
        mu, vectors = dense_eig_general(K, vectors=True)
        with np.errstate(divide="ignore"):
            values = np.where(mu == 0, np.inf, 1.0 / mu)
        finite = np.isfinite(values)
        values, vectors = values[finite], vectors[:, finite]
        F = None
    order = np.argsort(np.abs(values), kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    if F is not None:
        res = np.array([np.linalg.norm(F @ vectors[:, i] - values[i] * vectors[:, i])
                        for i in range(len(values))])
    else:
        res = np.full(len(values), np.nan)
    return HarmonicRitzSet(values=values, vectors=vectors, residual_norms=res,
                           grade_deficient=grade_deficient)


def _check_conjugate_pairs(points, what):
    """Raise ValueError unless each complex point is followed by its
    conjugate (to 1e-10 relative), so products over the points stay real."""
    i = 0
    while i < len(points):
        z = points[i]
        if z.imag != 0.0:
            if i + 1 >= len(points) or \
                    abs(points[i + 1] - z.conjugate()) > 1e-10 * max(1.0, abs(z)):
                raise ValueError(f"complex {what} must come in adjacent conjugate pairs")
            i += 2
        else:
            i += 1


def leja_order(points):
    """Modified Leja ordering of a conjugate-closed point set.

    Greedy: start from the largest modulus, then repeatedly pick the point
    maximizing the product of distances to the chosen prefix (accumulated in
    log magnitude); a chosen complex point drags its conjugate along so pairs
    stay adjacent.  Each candidate keeps a running sum of its log distances,
    to which every chosen point adds its term in choice order, so the sums
    are those of a fresh pass over the prefix, in O(n^2) work in all.
    """
    pts = [complex(p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    remaining = list(range(len(pts)))
    order = []
    logs = [0.0] * len(pts)  # per candidate: log of its distance product to order

    def take(i):
        order.append(i)
        remaining.remove(i)
        for k in remaining:
            d = abs(pts[k] - pts[i])
            logs[k] += math.log(d) if d > 0 else -math.inf

    def take_with_conjugate(i):
        take(i)
        if pts[i].imag != 0.0:
            conj = pts[i].conjugate()
            partner = None
            for j in remaining:
                if pts[j] == conj:
                    partner = j
                    break
            if partner is None:
                best = None
                for j in remaining:
                    d = abs(pts[j] - conj)
                    if d <= 1e-12 * max(1.0, abs(conj)) and (best is None or d < best[1]):
                        best = (j, d)
                if best is None:
                    raise ValueError("points are not closed under conjugation")
                partner = best[0]
            take(partner)

    first = max(remaining, key=lambda i: (abs(pts[i]), -i))
    take_with_conjugate(first)
    while remaining:
        take_with_conjugate(max(remaining, key=lambda i: (logs[i], -i)))
    return [pts[i] for i in order]


@dataclass
class ResidualPolynomial:
    """p(z) = prod_i (1 - z / theta_i), normalized so p(0) = 1.

    Complex roots must appear in adjacent conjugate pairs so the operator
    walks stay in real arithmetic via the quadratic factor
    z^2 - 2 Re(theta) z + |theta|^2.
    """

    roots: list

    def __post_init__(self):
        roots = [complex(r) for r in self.roots]
        if 0 in roots:
            raise ValueError("residual polynomial cannot have a root at 0")
        _check_conjugate_pairs(roots, "roots")
        self.roots = roots

    @property
    def degree(self):
        return len(self.roots)

    def eval_scalar(self, z):
        out = complex(1.0)
        for r in self.roots:
            out *= 1.0 - z / r
        return out

    def _walk(self, matvec, v):
        """Yields (contribution-to-s(A)v, updated u) factor by factor, where
        u tracks (product of factors so far)(A) v in real arithmetic."""
        u = np.asarray(v, dtype=np.float64).copy()
        i = 0
        while i < len(self.roots):
            r = self.roots[i]
            if r.imag == 0.0:
                au = matvec(u)
                contrib = u / r.real
                u = u - au / r.real
                i += 1
            else:
                a = r.real
                m2 = abs(r) ** 2
                au = matvec(u)
                a2u = matvec(au)
                # (1 - z/t)(1 - z/conj(t)) = 1 - (2a z - z^2)/|t|^2
                contrib = (2.0 * a * u - au) / m2
                u = u - (2.0 * a * au - a2u) / m2
                i += 2
            yield contrib, u

    def apply(self, A, v):
        """p(A) v in real arithmetic."""
        matvec, _ = as_matvec(A, n=len(v))
        u = np.asarray(v, dtype=np.float64).copy()
        for _, u in self._walk(matvec, v):
            pass
        return u

    def apply_s(self, A, v):
        """s(A) v where p(z) = 1 - z s(z), i.e. the preconditioner action."""
        matvec, _ = as_matvec(A, n=len(v))
        out = np.zeros(len(v))
        for contrib, _ in self._walk(matvec, v):
            out += contrib
        return out


def build_poly_preconditioner(A, b, degree):
    """Residual polynomial of a short GMRES run, for use as a preconditioner.

    Runs ``degree`` MGS Arnoldi steps from b, takes the harmonic Ritz values
    as the polynomial roots, and orders them modified-Leja.  Near-zero roots
    are dropped (p(0)=1 would be impossible) with a warning.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if degree > MAX_POLY_DEGREE:
        warnings.warn(f"polynomial degree {degree} above the stability cap "
                      f"{MAX_POLY_DEGREE}; expect trouble", stacklevel=2)
    dec = arnoldi(A, np.asarray(b, dtype=np.float64), degree, OrthoScheme.MGS)
    m = dec.n
    H = dec.Hbar[:m, :m]
    h_next = dec.Hbar[m, m - 1] if dec.breakdown_at is None else 0.0
    hr = harmonic_ritz(H, h_next)
    roots = list(hr.values)
    scale = max(abs(r) for r in roots)
    kept = [r for r in roots if abs(r) > 1e-14 * max(scale, 1.0)]
    if len(kept) < len(roots):
        warnings.warn("dropped near-zero harmonic Ritz roots; polynomial degree "
                      f"reduced to {len(kept)}", stacklevel=2)
    return ResidualPolynomial(leja_order(kept))


def polynomial_preconditioner(A, poly: ResidualPolynomial):
    """Preconditioner applying s(A) with p(z) = 1 - z s(z)."""
    return FunctionPreconditioner(lambda v: poly.apply_s(A, v))


# ---------------------------------------------------------------------------
# GMRES-E: augmented restarting with harmonic Ritz vectors


def _real_vectors_from_pairs(values, vectors, count):
    """Real spanning vectors for the ``count`` smallest-|theta| eigenpairs.

    A complex pair contributes its real and imaginary parts (two slots); if
    the budget splits a pair only the real part is taken.
    """
    out = []
    i = 0
    while i < len(values) and len(out) < count:
        v = vectors[:, i]
        if abs(values[i].imag) > 1e-12 * max(1.0, abs(values[i])):
            out.append(np.real(v))
            if len(out) < count:
                out.append(np.imag(v))
            i += 2
        else:
            out.append(np.real(v))
            i += 1
    return out


def gmres_e(A, b, x0=None, m1=20, m2=2, opts=None):
    """Augmented restarted GMRES: each cycle appends the harmonic Ritz vectors
    of smallest magnitude from the previous cycle to the search space.

    The cycle mechanics follow the augmented-restart skeleton with the
    augmentation source swapped to harmonic Ritz vectors; rank-deficient
    augmentation columns are dropped and counted in the diagnostics.  Cycles
    are m1 + m2 steps long: opts.restart is ignored.
    """
    opts = _augmented_options("gmres-e", opts, b, m1, m2)

    def make_cycle(run):
        aug = []            # harmonic Ritz vectors carried to the next cycle
        last = None         # (Hbar, Z) of the previous cycle

        def cycle(r, budget):
            nonlocal aug, last
            if last is not None:
                # the driver restarted: harvest the previous cycle's vectors
                H, Z = last
                n_used = H.shape[1]
                if m2 > 0 and n_used > 1:
                    hr = harmonic_ritz(H[:n_used, :n_used], H[n_used, n_used - 1])
                    aug = []
                    for y in _real_vectors_from_pairs(hr.values, hr.vectors, m2):
                        u = Z[:, :n_used] @ y
                        nu = np.linalg.norm(u)
                        if nu > 0:
                            aug.append(u / nu)

            def direction(j, slot, V):
                n_aug = len(aug)
                if slot < budget - n_aug:
                    return V[:, j], "krylov"
                idx = slot - (budget - n_aug)
                if idx >= n_aug:
                    return None
                return aug[idx], "aug"

            update, rhos, status, _, H, Z, dropped = _flexible_cycle(
                run, r, budget, direction)
            run.diagnostics["dropped_augmentations"] += dropped
            last = (H, Z)
            return update, rhos, status

        return cycle

    return _restart_driver(A, b, x0, opts, make_cycle,
                           diagnostics={"dropped_augmentations": 0})
