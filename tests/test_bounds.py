import numpy as np
import pytest

from gmreskit import bounds
from gmreskit.bounds import (
    DESK_SCALE_LIMIT,
    bound_report,
    eigen_bound,
    elman_bound,
    fov_bound,
    fov_distance,
    residual_poly_check,
    spectrum_and_conditioning,
)
from gmreskit.commavoid import sstep_gmres
from gmreskit.deflation import ResidualPolynomial
from gmreskit.harness import gen_convdiff, gen_spectrum
from gmreskit.linalg import CsrMatrix
from gmreskit.solvers import GmresOptions, gmres


class TestEigenBound:
    def test_annihilating_polynomial_gives_zero(self):
        eigs = [1.0, 2.0, 3.0]
        poly = ResidualPolynomial(eigs)
        assert eigen_bound(eigs, 1.0, poly) <= 1e-12

    def test_hand_example(self):
        # A = diag(1,2), p(z) = 1 - 2z/3: max(|1-2/3|, |1-4/3|) = 1/3
        poly = ResidualPolynomial([1.5])
        val = eigen_bound([1.0, 2.0], 1.0, poly)
        assert abs(val - 1.0 / 3.0) < 1e-14

    def test_dominates_measured_ratio_on_normal_matrix(self):
        A = gen_spectrum(np.linspace(1.0, 12.0, 15), seed=21)
        b = np.random.default_rng(22).standard_normal(15)
        rep = gmres(A, b, opts=GmresOptions(rtol=1e-12))
        br = bound_report(A, rep, grid_count=64)
        assert br.flags["normal"]
        for n, measured, eig, _, _ in br.rows():
            if eig is not None:
                assert eig >= measured - 1e-10

    def test_kappa_x_one_for_normal(self):
        A = gen_spectrum(np.arange(1.0, 7.0), seed=3)
        _, kappa = spectrum_and_conditioning(A)
        assert kappa == 1.0


class TestElmanBound:
    def test_identity_collapses(self):
        assert elman_bound(np.eye(4), 1) == 0.0

    def test_closed_form_2x2(self):
        # M = sym part of [[1,1],[0,1]] has lambda_min = 1/2;
        # A^T A = [[1,1],[1,2]] has lambda_max = (3+sqrt(5))/2
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        lam_min = 0.5
        lam_max = (3.0 + np.sqrt(5.0)) / 2.0
        for n in (1, 2, 6):
            expected = (1.0 - lam_min ** 2 / lam_max) ** (n / 2.0)
            assert abs(elman_bound(A, n) - expected) < 1e-12

    def test_indefinite_part_inapplicable(self):
        A = np.array([[0.0, 3.0], [-3.0, 0.0]])  # symmetric part is zero
        assert elman_bound(A, 2) is None

    def test_dominates_on_pd_part_matrix(self, convdiff100, rhs100):
        rep = gmres(convdiff100, rhs100, opts=GmresOptions(rtol=1e-10))
        # one eigensweep: elman_bound(A, n) = q^(n/2) with q = elman_bound(A, 2)
        q = elman_bound(convdiff100, 2)
        assert q is not None
        for n, ratio in enumerate(rep.relative_history()):
            assert q ** (n / 2.0) >= ratio - 1e-10


class TestFovDistance:
    def test_identity(self):
        mu, inside = fov_distance(np.eye(5), 64)
        assert not inside
        assert abs(mu - 1.0) <= 1e-12

    def test_normal_diagonal(self):
        mu, inside = fov_distance(np.diag([1.0, 3.0]), 256)
        assert not inside
        assert abs(mu - 1.0) <= 1e-3

    def test_nonnormal_disc_closed_form(self):
        # the field of values of [[2, 2], [0, 2]] is the disc |z - 2| <= 1
        mu, inside = fov_distance(np.array([[2.0, 2.0], [0.0, 2.0]]), 64)
        assert not inside
        assert mu == 1.0

    def test_origin_inside_flag(self):
        A = np.diag([-1.0, 1.0])
        mu, inside = fov_distance(A, 64)
        assert inside and mu == 0.0

    def test_monotone_under_refinement(self, rng):
        A = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
        vals = [fov_distance(A, g)[0] for g in (8, 16, 32, 64, 128)]
        assert all(vals[i] <= vals[i + 1] + 1e-15 for i in range(len(vals) - 1))

    def test_grid_convergence(self, rng):
        A = rng.standard_normal((4, 4)) + 8.0 * np.eye(4)
        coarse = fov_distance(A, 256)[0]
        fine = fov_distance(A, 4096)[0]
        assert abs(coarse - fine) <= 1e-3 * max(fine, 1.0)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            fov_distance(np.eye(3), 4)


class TestFovBound:
    def test_identity_zero(self):
        assert fov_bound(np.eye(3), 1, grid_count=64) == 0.0

    def test_normal_diagonal_closed_form(self):
        # mu_F(A) = 1 and mu_F(A^{-1}) = 1/2 for A = diag(1,2)
        for n in (1, 2, 4):
            val = fov_bound(np.diag([1.0, 2.0]), n, grid_count=256)
            assert abs(val - 0.5 ** (n / 2.0)) <= 1e-3

    def test_inapplicable_when_origin_inside(self):
        assert fov_bound(np.diag([-1.0, 1.0]), 2, grid_count=64) is None

    def test_dominates_on_pd_part_convdiff(self):
        A = gen_convdiff(5, 5, peclet=2.0)
        b = np.ones(25)
        rep = gmres(A, b, opts=GmresOptions(rtol=1e-12))
        # one FOV sweep: fov_bound(A, n) = q^(n/2) with q = fov_bound(A, 2)
        q = fov_bound(A, 2, grid_count=64)
        assert q is not None
        for n, ratio in enumerate(rep.relative_history()):
            assert q ** (n / 2.0) >= ratio - 1e-10


class TestResidualPolyCheck:
    def test_grade_annihilation(self):
        A = gen_spectrum(np.array([1.0, 2.0, 3.0, 4.0, 1.0, 2.0]), seed=5)
        b = np.random.default_rng(6).standard_normal(6)
        dev = residual_poly_check(A, b, 4)
        assert dev <= 1e-8

    def test_convdiff_identity(self):
        A = gen_convdiff(8, 8, peclet=5.0)
        dev = residual_poly_check(A, np.ones(64), 8)
        assert dev <= 1e-6

    def test_scaling_invariance(self):
        A = gen_convdiff(6, 6, peclet=3.0).to_dense()
        b = np.ones(36)
        dev1 = residual_poly_check(A, b, 6)
        dev2 = residual_poly_check(10.0 * A, 10.0 * b, 6)
        assert abs(dev1 - dev2) <= 1e-12


class TestBoundReport:
    def test_flags_and_columns(self):
        A = gen_convdiff(6, 6, peclet=4.0)
        b = np.ones(36)
        rep = gmres(A, b, opts=GmresOptions(rtol=1e-8))
        br = bound_report(A, rep, grid_count=32, max_eigen_degree=10)
        assert br.flags["pd_symmetric_part"]
        assert br.flags["origin_outside_fov"]
        assert len(br.measured) == len(rep.residual_history)
        # all applicable bounds dominate
        for n, measured, eig, elman, fov in br.rows():
            for v in (eig, elman, fov):
                if v is not None:
                    assert v >= measured - 1e-10

    def test_sstep_hessenberg_reaches_the_eigenvalue_column(self):
        A = gen_convdiff(6, 6, peclet=2.0)
        b = np.ones(36)
        opts = GmresOptions(rtol=1e-10)
        columns = [bound_report(A, solve(A, b, opts=opts), grid_count=32).eigen
                   for solve in (gmres, sstep_gmres)]
        assert [e is not None for e in columns[1]] == [e is not None for e in columns[0]]
        assert sum(e is not None for e in columns[1]) > 1


def _swept_fov_distance(A, grid_count):
    """Johnson's sweep over the whole circle, as a reference."""
    S, K = 0.5 * (A + A.T), 0.5 * (A - A.T)
    thetas = 2.0 * np.pi * np.arange(grid_count) / grid_count
    return max(np.linalg.eigvalsh(np.cos(t) * S + 1j * np.sin(t) * K)[0] for t in thetas)


@pytest.mark.parametrize("shift", [6.0, -6.0, 0.5])
def test_fov_distance_is_the_best_real_direction(rng, shift):
    # a real operator's field of values is symmetric about the real axis, so
    # no direction of a fine sweep separates the origin better than t = 0, pi
    A = rng.standard_normal((7, 7)) + shift * np.eye(7)
    mu, inside = fov_distance(A, 8)
    assert (mu, inside) == fov_distance(A, 9) == fov_distance(A, 4096)
    swept = _swept_fov_distance(A, 720)
    assert swept <= max(mu, 0.0) + 1e-12
    assert inside == (swept <= 0.0)
    if not inside:
        assert swept >= mu - 1e-12



def test_binary32_csr_gives_the_bounds_of_its_binary64_copy(rng):
    # a binary32 CSR is read as the binary64 dense array it equals, as a
    # binary32 dense array already was
    dense = (4 * np.eye(12) + rng.standard_normal((12, 12))).astype(np.float32)
    A32, A64 = CsrMatrix.from_dense(dense), dense.astype(np.float64)
    assert elman_bound(A32, 7) == elman_bound(A64, 7) == elman_bound(dense, 7)
    assert fov_bound(A32, 7) == fov_bound(A64, 7) == fov_bound(dense, 7)
    assert fov_distance(A32) == fov_distance(A64)
    rep = gmres(A64, np.ones(12), opts=GmresOptions(rtol=1e-10))
    assert bound_report(A32, rep) == bound_report(A64, rep)


class TestDeskScaleLimit:
    def test_rejects_a_large_operator_before_densifying(self):
        # densified, this identity would take 8 TB
        n = 10**6
        A = CsrMatrix.from_coo(n, n, np.arange(n), np.arange(n), np.ones(n))
        rep = gmres(np.eye(3), np.ones(3))
        with pytest.raises(ValueError, match=f"^A has {n} rows: .* n <= {DESK_SCALE_LIMIT}$"):
            bound_report(A, rep)
        with pytest.raises(ValueError, match="^A has 2001 rows"):
            bound_report(np.zeros((DESK_SCALE_LIMIT + 1, 1)), rep)

    def test_the_limit_itself_is_accepted(self, monkeypatch):
        monkeypatch.setattr(bounds, "DESK_SCALE_LIMIT", 10)
        for n in (10, 11):
            A = gen_spectrum(np.linspace(1.0, 2.0, n), seed=1)
            rep = gmres(A, np.ones(n), opts=GmresOptions(rtol=1e-8))
            if n == 10:
                assert bound_report(A, rep).flags["normal"]
            else:
                with pytest.raises(ValueError, match="^A has 11 rows: .* n <= 10$"):
                    bound_report(A, rep)
