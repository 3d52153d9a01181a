import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmreskit.deflation import (
    ResidualPolynomial,
    build_poly_preconditioner,
    gmres_e,
    harmonic_ritz,
    leja_order,
    polynomial_preconditioner,
)
from gmreskit.harness import gen_convdiff, gen_spectrum
from gmreskit.ortho import OrthoScheme, arnoldi
from gmreskit.solvers import GmresOptions, gmres, gmres_restarted


def random_hessenberg(rng, m):
    return np.triu(rng.standard_normal((m, m)), -1) + 2.0 * np.eye(m)


class TestHarmonicRitz:
    def test_zero_subdiagonal_gives_eigenvalues(self, rng):
        H = random_hessenberg(rng, 6)
        hr = harmonic_ritz(H, 0.0)
        expected = np.sort_complex(np.linalg.eigvals(H))
        assert np.allclose(np.sort_complex(hr.values), expected, atol=1e-10)

    def test_symmetric_tridiagonal_gives_real_values(self, rng):
        # Arnoldi on a symmetric operator yields a symmetric tridiagonal H
        A = gen_spectrum(np.linspace(1.0, 9.0, 12), seed=2)
        b = rng.standard_normal(12)
        dec = arnoldi(A, b, 6, OrthoScheme.MGS)
        H = dec.Hbar[:6, :6]
        hr = harmonic_ritz(H, dec.Hbar[6, 5])
        assert np.max(np.abs(hr.values.imag)) <= 1e-10
        # oracle: generalized eigenproblem (Hbar^T Hbar) y = theta H^T y
        Hbar = dec.Hbar[:7, :6]
        mu = np.linalg.eigvals(np.linalg.solve(Hbar.T @ Hbar, H.T))
        theta_oracle = np.sort(1.0 / mu.real)
        assert np.allclose(np.sort(hr.values.real), theta_oracle, atol=1e-8)

    def test_substitution_residuals(self, rng):
        H = random_hessenberg(rng, 8)
        hr = harmonic_ritz(H, 0.9)
        assert hr.residual_norms.max() <= 1e-10 * np.linalg.norm(H)

    def test_values_sorted_by_magnitude(self, rng):
        H = random_hessenberg(rng, 7)
        hr = harmonic_ritz(H, 0.5)
        mags = np.abs(hr.values)
        assert np.all(np.diff(mags) >= -1e-14)


class TestLejaOrder:
    def test_single_point(self):
        assert leja_order([2.5]) == [2.5 + 0.0j]

    def test_three_reals(self):
        assert leja_order([1.0, 2.0, 3.0]) == [3.0, 1.0, 2.0]

    def test_brute_force_greedy(self, rng):
        # verify the greedy criterion position by position for small sets
        pts = [complex(z) for z in rng.standard_normal(6) * 3.0]
        out = leja_order(pts)
        assert sorted((z.real, z.imag) for z in out) == \
            sorted((z.real, z.imag) for z in pts)
        assert abs(out[0]) == max(abs(z) for z in pts)
        chosen = [out[0]]
        for z in out[1:]:
            remaining = list(chosen)
            best = max((sum(math.log(abs(c - w)) for w in remaining), -abs(c))
                       for c in pts if not any(c == e for e in chosen))
            mine = sum(math.log(abs(z - w)) for w in remaining)
            assert mine >= best[0] - 1e-12
            chosen.append(z)

    def test_conjugate_pairs_stay_adjacent(self):
        out = leja_order([1 + 2j, 1 - 2j, 3.0, 0.5 + 0.1j, 0.5 - 0.1j])
        i = out.index(1 + 2j) if 1 + 2j in out else out.index(1 - 2j)
        assert out[i + 1] == out[i].conjugate()
        j = [k for k, z in enumerate(out) if abs(z.real - 0.5) < 1e-12][0]
        assert out[j + 1] == out[j].conjugate()

    def test_permutation_property(self, rng):
        pts = list(rng.standard_normal(5)) + [1 + 1j, 1 - 1j]
        out = leja_order(pts)
        assert len(out) == len(pts)
        assert sorted((z.real, z.imag) for z in out) == \
            sorted((complex(z).real, complex(z).imag) for z in pts)


def reference_leja_order(points):
    """leja_order as it was before its running log-products: each pick sums
    a candidate's log distances to the whole prefix afresh, in O(n^3).

    Modified Leja ordering of a conjugate-closed point set.

    Greedy: start from the largest modulus, then repeatedly pick the point
    maximizing the product of distances to the chosen prefix (accumulated in
    log magnitude); a chosen complex point drags its conjugate along so pairs
    stay adjacent.
    """
    pts = [complex(p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    remaining = list(range(len(pts)))
    order = []

    def log_products(cands):
        out = []
        for i in cands:
            acc = 0.0
            for j in order:
                d = abs(pts[i] - pts[j])
                acc += math.log(d) if d > 0 else -math.inf
            out.append(acc)
        return out

    def take(i):
        order.append(i)
        remaining.remove(i)

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
        logs = log_products(remaining)
        best = max(range(len(remaining)), key=lambda k: (logs[k], -remaining[k]))
        take_with_conjugate(remaining[best])
    return [pts[i] for i in order]


@st.composite
def conjugate_closed_sets(draw):
    """A conjugate-closed point list in any order: small integer and float
    coordinates, so that ties and repeated points (distance 0) are common."""
    coord = st.one_of(st.integers(-3, 3).map(float),
                      st.floats(-4.0, 4.0, allow_nan=False, width=64))
    reals = draw(st.lists(coord, max_size=8))
    pairs = draw(st.lists(st.tuples(coord, coord.filter(lambda y: y != 0.0)), max_size=8))
    pts = [complex(x) for x in reals]
    for x, y in pairs:
        pts += [complex(x, y), complex(x, -y)]
    pts = draw(st.permutations(pts))
    return pts if pts else [complex(draw(coord))]


def _same_points(a, b):
    return [(z.real, z.imag) for z in a] == [(z.real, z.imag) for z in b] and \
        [math.copysign(1.0, z.imag) for z in a] == [math.copysign(1.0, z.imag) for z in b]


class TestLejaOrderMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(conjugate_closed_sets())
    def test_same_points_in_the_same_order(self, pts):
        assert _same_points(leja_order(pts), reference_leja_order(pts))

    def test_random_conjugate_closed_sets(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n_real, n_pairs = rng.integers(0, 10), rng.integers(0, 10)
            z = rng.standard_normal(n_pairs) + 1j * rng.standard_normal(n_pairs)
            pts = [*rng.standard_normal(n_real), *np.ravel(np.column_stack((z, z.conj())))]
            pts = [pts[k] for k in rng.permutation(len(pts))] or [1.0]
            assert _same_points(leja_order(pts), reference_leja_order(pts))

    def test_an_unclosed_set_raises_as_the_reference_does(self):
        for pts in ([1 + 1j], [1 + 1j, 2 - 1j, 3.0]):
            with pytest.raises(ValueError, match="closed under conjugation"):
                reference_leja_order(pts)
            with pytest.raises(ValueError, match="closed under conjugation"):
                leja_order(pts)


class TestResidualPolynomial:
    def test_p_at_zero_is_one(self):
        poly = ResidualPolynomial([2.0, 1 + 1j, 1 - 1j])
        assert abs(poly.eval_scalar(0.0) - 1.0) < 1e-15

    def test_apply_matches_scalar_on_diagonal(self, rng):
        roots = [3.0, 1 + 0.5j, 1 - 0.5j]
        poly = ResidualPolynomial(roots)
        lam = np.array([0.5, 1.5, 2.5, 4.0])
        A = np.diag(lam)
        v = rng.standard_normal(4)
        expected = np.array([poly.eval_scalar(l).real for l in lam]) * v
        assert np.allclose(poly.apply(A, v), expected, atol=1e-12)

    def test_s_of_a_identity(self, rng):
        # p(z) = 1 - z s(z)  =>  v - A s(A) v = p(A) v
        roots = [2.0, 0.8 + 0.3j, 0.8 - 0.3j, 5.0]
        poly = ResidualPolynomial(roots)
        A = rng.standard_normal((9, 9)) + 3.0 * np.eye(9)
        v = rng.standard_normal(9)
        lhs = v - A @ poly.apply_s(A, v)
        assert np.allclose(lhs, poly.apply(A, v), atol=1e-10)

    def test_rejects_root_at_zero(self):
        with pytest.raises(ValueError, match="root at 0"):
            ResidualPolynomial([0.0, 1.0])

    def test_rejects_unpaired_complex(self):
        with pytest.raises(ValueError, match="conjugate"):
            ResidualPolynomial([1 + 1j, 2.0])


class TestPolyPreconditioner:
    def test_degree_one_identity(self):
        poly = build_poly_preconditioner(np.eye(4), np.ones(4), 1)
        assert poly.degree == 1
        assert abs(poly.roots[0] - 1.0) < 1e-12
        # preconditioned system solves in one application
        pre = polynomial_preconditioner(np.eye(4), poly)
        rep = gmres(np.eye(4), np.ones(4),
                    opts=GmresOptions(rtol=1e-12, precond_side="right",
                                      preconditioner=pre))
        assert rep.iterations == 1

    def test_residual_polynomial_identity(self, rng):
        A = gen_convdiff(8, 8, peclet=5.0)
        b = np.ones(64)
        m = 8
        poly = build_poly_preconditioner(A, b, m)
        rep = gmres(A, b, opts=GmresOptions(rtol=1e-300, max_iter=m))
        dense = A.to_dense()
        r_m = b - dense @ rep.x
        dev = np.linalg.norm(poly.apply(A, b) - r_m) / np.linalg.norm(b)
        assert dev <= 1e-6

    def test_preconditioning_accelerates(self):
        A = np.diag(np.linspace(1.0, 100.0, 100))
        b = np.ones(100)
        plain = gmres(A, b, opts=GmresOptions(rtol=1e-8))
        poly = build_poly_preconditioner(A, b, 8)
        pre = polynomial_preconditioner(A, poly)
        prec = gmres(A, b, opts=GmresOptions(rtol=1e-8, precond_side="right",
                                             preconditioner=pre))
        assert prec.converged
        assert prec.iterations < plain.iterations

    def test_degree_cap_warns(self):
        A = np.diag(np.linspace(1.0, 30.0, 40))
        with pytest.warns(UserWarning, match="stability cap"):
            build_poly_preconditioner(A, np.ones(40), 21)


class TestGmresE:
    def test_m2_zero_is_plain_restarted(self, convdiff100, rhs100):
        rep_e = gmres_e(convdiff100, rhs100, m1=10, m2=0,
                        opts=GmresOptions(rtol=1e-8, max_iter=400))
        rep_g = gmres_restarted(convdiff100, rhs100,
                                opts=GmresOptions(rtol=1e-8, restart=10,
                                                  max_iter=400))
        assert rep_e.residual_history == rep_g.residual_history

    def test_deflation_beats_plain_restart(self):
        eigs = np.concatenate([[0.01], np.linspace(1.0, 99.0, 99)])
        A = gen_spectrum(eigs, seed=17)
        b = np.random.default_rng(18).standard_normal(100)
        opts = GmresOptions(rtol=1e-8, max_iter=2000)
        rep_e = gmres_e(A, b, m1=10, m2=2, opts=opts)
        rep_g = gmres_restarted(A, b, opts=GmresOptions(rtol=1e-8, restart=12,
                                                        max_iter=2000))
        assert rep_e.converged
        assert rep_e.matvecs <= rep_g.matvecs

    def test_augmented_relation_audit(self, convdiff100, rhs100):
        # run a couple of augmented cycles and audit A Z = V Hbar directly
        from gmreskit.solvers import _Run, _flexible_cycle
        from gmreskit.deflation import _real_vectors_from_pairs
        dense = convdiff100.to_dense()
        opts = GmresOptions(rtol=1e-300)
        run = _Run(lambda v: dense @ v, opts)
        r = rhs100.copy()
        update, rhos, status, V, H, Z, _ = _flexible_cycle(
            run, r, 12, lambda j, slot, VV: (VV[:, j], "krylov"))
        n = H.shape[1]
        hr = harmonic_ritz(H[:n, :n], H[n, n - 1])
        aug = [Z[:, :n] @ y for y in
               _real_vectors_from_pairs(hr.values, hr.vectors, 2)]
        aug = [u / np.linalg.norm(u) for u in aug]
        r2 = r - dense @ update

        def direction(j, slot, VV):
            if slot < 10:
                return VV[:, j], "krylov"
            return aug[slot - 10], "aug"

        update2, rhos2, status2, V2, H2, Z2, dropped = _flexible_cycle(
            run, r2, 12, direction)
        n2 = H2.shape[1]
        rel = np.linalg.norm(dense @ Z2[:, :n2] - V2[:, : n2 + 1] @ H2[: n2 + 1])
        assert rel <= 1e-11 * np.linalg.norm(dense)
        assert dropped == 0


class TestAugmentationDrop:
    def test_in_span_augmentation_dropped(self, rng):
        from gmreskit.solvers import GmresOptions, _Run, _flexible_cycle
        A = rng.standard_normal((20, 20)) + 4.0 * np.eye(20)
        r = rng.standard_normal(20)
        opts = GmresOptions(rtol=1e-300)
        run = _Run(lambda v: A @ v, opts)
        # slot 2 feeds back the current residual direction r/||r|| = v_1,
        # whose image is already in the expanded space: projects to ~0 only
        # if it coincides with a basis vector, so use v_1 itself
        def direction(j, slot, V):
            if slot == 2:
                return V[:, 0], "aug"
            return V[:, j], "krylov"

        update, rhos, status, V, H, Z, dropped = _flexible_cycle(
            run, r, 6, direction)
        assert dropped == 1
        assert H.shape[1] == 6  # the drop consumed a slot, not a step
