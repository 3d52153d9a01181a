import numpy as np
import pytest

from gmreskit.harness import gen_convdiff, gen_spectrum
from gmreskit.linalg import forward_substitute_unit
from gmreskit.ortho import (
    ArnoldiProcess,
    OrthoScheme,
    ReductionCounter,
    arnoldi,
    householder_arnoldi,
    mgs_pass,
)
from gmreskit.solvers import GmresOptions, _flexible_cycle, _Run, fgmres

SCHEMES = [OrthoScheme.MGS, OrthoScheme.CGS, OrthoScheme.CGS2,
           OrthoScheme.CGSP, OrthoScheme.ICWY]


def well_conditioned(rng, n, shift=3.0):
    return rng.standard_normal((n, n)) / np.sqrt(n) + shift * np.eye(n)


@pytest.mark.parametrize("scheme", SCHEMES)
class TestArnoldiSchemes:
    def test_identity_grade_one(self, scheme, rng):
        r0 = rng.standard_normal(8)
        dec = arnoldi(np.eye(8), r0, 5, scheme)
        assert dec.breakdown_at == 1
        assert dec.n == 1
        assert dec.Hbar.shape == (2, 1)
        assert abs(dec.Hbar[0, 0] - 1.0) < 1e-14
        assert dec.Hbar[1, 0] == 0.0

    def test_two_by_two_hand_values(self, scheme):
        # A = diag(1,2), v1 = (1,1)/sqrt(2): h11 = 1.5, h21 = 0.5
        A = np.diag([1.0, 2.0])
        r0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        dec = arnoldi(A, r0, 1, scheme)
        assert abs(dec.Hbar[0, 0] - 1.5) < 1e-14
        assert abs(dec.Hbar[1, 0] - 0.5) < 1e-14
        # dense Gram-Schmidt oracle for V
        v2 = A @ r0 - 1.5 * r0
        v2 /= np.linalg.norm(v2)
        assert np.allclose(np.abs(dec.V[:, 1]), np.abs(v2), atol=1e-14)

    def test_arnoldi_relation(self, scheme, rng):
        A = well_conditioned(rng, 30)
        r0 = rng.standard_normal(30)
        dec = arnoldi(A, r0, 20, scheme)
        rel = dec.relation_residual(lambda v: A @ v)
        assert rel <= 1e-12 * np.linalg.norm(A)

    def test_happy_breakdown_at_grade(self, scheme):
        # 3 distinct eigenvalues: grade of a generic vector is 3
        A = gen_spectrum(np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0]), seed=3).to_dense()
        r0 = np.random.default_rng(9).standard_normal(6)
        dec = arnoldi(A, r0, 6, scheme)
        assert dec.breakdown_at == 3
        assert dec.n == 3
        assert dec.Hbar[3, 2] == 0.0

    def test_reduction_model(self, scheme, rng):
        A = well_conditioned(rng, 25)
        r0 = rng.standard_normal(25)
        dec = arnoldi(A, r0, 8, scheme)
        model = {
            OrthoScheme.MGS: [j + 1 for j in range(1, 9)],
            OrthoScheme.CGS: [2] * 8,
            OrthoScheme.CGS2: [3] * 8,
            OrthoScheme.CGSP: [1] * 8,
            OrthoScheme.ICWY: [1] * 8,
        }[scheme]
        assert dec.reduction_log == model


class TestSchemeEquivalence:
    def test_columnwise_agreement(self):
        # spread spectrum (kappa = 50) keeps the subdiagonals well away from
        # the noise floor over 20 steps
        A = gen_spectrum(np.linspace(1.0, 50.0, 40), seed=11).to_dense()
        r0 = np.random.default_rng(13).standard_normal(40)
        decs = [arnoldi(A, r0, 20, s) for s in SCHEMES]
        ref = decs[0]
        for dec in decs[1:]:
            # subdiagonals are nonnegative by construction, so no sign flips
            assert np.max(np.abs(dec.Hbar - ref.Hbar)) <= 1e-8 * np.linalg.norm(A)
            assert np.max(np.abs(dec.V - ref.V)) <= 1e-8

    def test_orthogonality_quality(self):
        A = gen_spectrum(np.linspace(1.0, 50.0, 40), seed=11).to_dense()
        r0 = np.random.default_rng(13).standard_normal(40)
        for scheme in (OrthoScheme.CGS2, OrthoScheme.ICWY):
            dec = arnoldi(A, r0, 25, scheme)
            assert dec.gram_residual() <= 1e-10
        # MGS trades orthogonality for cost: looser bound on benign problems
        assert arnoldi(A, r0, 25, OrthoScheme.MGS).gram_residual() <= 1e-8


class TestWeightedArnoldi:
    def test_weighted_relation_and_gram(self, rng):
        A = gen_spectrum(np.linspace(1.0, 20.0, 20), seed=5).to_dense()
        r0 = rng.standard_normal(20)
        d = rng.random(20) + 0.5
        dec = arnoldi(A, r0, 10, OrthoScheme.MGS, weight=d)
        rel = dec.relation_residual(lambda v: A @ v)
        assert rel <= 1e-12 * np.linalg.norm(A)
        G = dec.V.T @ (d[:, None] * dec.V)
        assert np.linalg.norm(G - np.eye(G.shape[0])) <= 1e-10

    def test_rejects_nonpositive_weight(self, rng):
        with pytest.raises(ValueError, match="positive"):
            ArnoldiProcess(np.eye(4), np.ones(4), 2, weight=np.array([1.0, 0.0, 1.0, 1.0]))


class TestHouseholderArnoldi:
    def test_identity(self, rng):
        r0 = rng.standard_normal(6)
        dec, _ = householder_arnoldi(np.eye(6), r0, 4)
        assert dec.breakdown_at == 1
        assert abs(dec.Hbar[0, 0] - 1.0) < 1e-13

    def test_matches_mgs(self, rng):
        A = well_conditioned(rng, 25)
        r0 = rng.standard_normal(25)
        dec_h, _ = householder_arnoldi(A, r0, 12)
        dec_m = arnoldi(A, r0, 12, OrthoScheme.MGS)
        assert np.allclose(dec_h.Hbar, dec_m.Hbar, atol=1e-10 * np.linalg.norm(A))
        assert np.allclose(dec_h.V, dec_m.V, atol=1e-10)

    def test_relation_and_orthogonality(self, rng):
        A = well_conditioned(rng, 30)
        r0 = rng.standard_normal(30)
        dec, _ = householder_arnoldi(A, r0, 20)
        assert dec.relation_residual(lambda v: A @ v) <= 1e-13 * np.linalg.norm(A)
        assert dec.gram_residual() <= 1e-13

    def test_sign_zero_convention(self):
        # r0 with r0[0] = 0: sign(0) = +1, so w1 = r0 + ||r0|| e1
        r0 = np.array([0.0, 3.0, 4.0])
        dec, proc = householder_arnoldi(np.eye(3), r0, 1)
        w1 = proc.reflectors[0][0]
        expected = r0.copy()
        expected[0] += 5.0
        assert np.allclose(w1, expected)

    def test_decomposition_counts_the_steps_only(self):
        # step j (1-based) logs 2j + 2 and the start two; rebuilding V for the
        # decomposition applies reflectors again, which its count leaves out
        counter = ReductionCounter()
        dec, _ = householder_arnoldi(gen_convdiff(10, 10, 10.0), np.ones(100), 30,
                                     counter=counter)
        assert dec.reduction_log == [2 * j + 2 for j in range(1, 31)]
        assert dec.reductions == 2 + sum(dec.reduction_log) == 992
        assert counter.total > dec.reductions

    def test_stays_orthogonal_on_ill_conditioned(self):
        # Hilbert-like matrix: MGS loses orthogonality, reflectors do not
        n = 12
        H = np.array([[1.0 / (i + j + 1.0) for j in range(n)] for i in range(n)])
        r0 = np.ones(n)
        dec_h, _ = householder_arnoldi(H, r0, n - 1)
        dec_m = arnoldi(H, r0, n - 1, OrthoScheme.MGS)
        assert dec_h.gram_residual() <= 1e-13
        assert dec_m.gram_residual() > dec_h.gram_residual()


class TestIcwyProject:
    def test_internal_L_strictly_lower(self, rng):
        A = well_conditioned(rng, 12)
        proc = ArnoldiProcess(A, rng.standard_normal(12), 6, OrthoScheme.ICWY)
        for _ in range(6):
            proc.step()
        assert np.all(np.triu(proc.L) == 0.0)

    def test_forward_substitute_unit(self, rng):
        L = np.tril(rng.standard_normal((6, 6)), -1)
        rhs = rng.standard_normal(6)
        x = forward_substitute_unit(L, rhs)
        assert np.allclose((np.eye(6) + L) @ x, rhs, atol=1e-13)


class TestCounter:
    def test_marks_and_buckets(self):
        c = ReductionCounter()
        c.count()
        c.begin_step()
        c.count(2)
        c.end_step()
        c.mark()
        assert c.total == 3
        assert c.per_step == [2]
        assert c.marks == [3]


class TestInvariantSweeps:
    @pytest.mark.parametrize("kappa", [1e1, 1e3, 1e4])
    def test_relation_across_conditioning(self, kappa):
        # relation holds for every scheme on operators up to kappa 1e4, n=30
        A = gen_spectrum(np.logspace(0.0, np.log10(kappa), 40), seed=int(kappa))
        dense = A.to_dense()
        r0 = np.random.default_rng(int(kappa) + 1).standard_normal(40)
        for scheme in SCHEMES:
            dec = arnoldi(A, r0, 30, scheme)
            rel = dec.relation_residual(lambda v: dense @ v)
            assert rel <= 1e-12 * np.linalg.norm(dense), (scheme, kappa)

    @pytest.mark.parametrize("kappa", [1e1, 1e3, 1e4])
    def test_orthogonality_across_conditioning(self, kappa):
        A = gen_spectrum(np.logspace(0.0, np.log10(kappa), 40), seed=int(kappa))
        r0 = np.random.default_rng(int(kappa) + 2).standard_normal(40)
        for scheme in (OrthoScheme.CGS2,):
            dec = arnoldi(A, r0, 30, scheme)
            assert dec.gram_residual() <= 1e-10, (scheme, kappa)
        dec_h, _ = householder_arnoldi(A, r0, 30)
        assert dec_h.gram_residual() <= 1e-10, kappa
        if kappa == 1e3:
            # MGS loss of orthogonality tracks the Krylov-matrix conditioning
            # (residual decay), so the bound applies where the process stays
            # well determined over the run
            dec_m = arnoldi(A, r0, 30, OrthoScheme.MGS)
            assert dec_m.gram_residual() <= 1e-8, kappa


class TestMgsPass:
    def test_counts_k_plus_one_reductions(self, rng):
        V, _ = np.linalg.qr(rng.standard_normal((20, 6)))
        counter = ReductionCounter()
        h, w, h_sub = mgs_pass(V, 4, rng.standard_normal(20), counter)
        assert counter.total == 5
        assert h.shape == (4,)
        assert np.max(np.abs(V[:, :4].T @ w)) <= 1e-14 * h_sub
        assert h_sub == np.linalg.norm(w)

    def test_keeps_float32(self, rng):
        V = np.linalg.qr(rng.standard_normal((20, 5)))[0].astype(np.float32)
        w = rng.standard_normal(20).astype(np.float32)
        h, w_out, _ = mgs_pass(V, 3, w, ReductionCounter())
        assert h.dtype == np.float32
        assert w_out.dtype == np.float32

    def test_weighted_projection_matches_arnoldi_mgs(self, rng):
        A = well_conditioned(rng, 15)
        d = rng.random(15) + 0.5
        proc = ArnoldiProcess(A, rng.standard_normal(15), 4, OrthoScheme.MGS, weight=d)
        for _ in range(3):
            proc.step()
        h, w, h_sub = mgs_pass(proc.V, 4, A @ proc.V[:, 3], ReductionCounter(), weight=d)
        proc.step()
        assert np.array_equal(proc.H[:4, 3], h)
        assert proc.H[4, 3] == h_sub
        assert np.array_equal(proc.V[:, 4], w / h_sub)
        # D-orthogonal to the basis it was projected against
        assert np.max(np.abs(proc.V[:, :4].T @ (d * w))) <= 1e-13 * h_sub

    def test_bases_are_column_major(self, convdiff100, rhs100):
        assert ArnoldiProcess(convdiff100, rhs100, 6).V.flags.f_contiguous
        opts = GmresOptions(restart=8, max_iter=8)
        rep = fgmres(convdiff100, rhs100, opts=opts)
        # the one cycle fgmres ran, rebuilt through the flexible cycle
        run = _Run(convdiff100.matvec, opts)
        run.tol_abs = opts.rtol * np.linalg.norm(rhs100)
        update, _, _, V, _, Z, _ = _flexible_cycle(
            run, rhs100, 8, lambda j, slot, V: (V[:, j], "krylov"))
        assert np.array_equal(update, rep.x)
        assert V.flags.f_contiguous and Z.flags.f_contiguous
