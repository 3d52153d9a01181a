from dataclasses import replace

import numpy as np
import pytest

from gmreskit.commavoid import (
    BasisCollapseError,
    ChebyshevBasis,
    MonomialBasis,
    NewtonBasis,
    bgs_project,
    build_basis,
    chebyshev_basis_from_warmup,
    lowsync_gmres,
    newton_basis_from_warmup,
    pipelined_gmres,
    sstep_gmres,
    tsqr,
    warmup_ritz_values,
)
from gmreskit.harness import gen_spectrum
from gmreskit.ortho import OrthoScheme, ReductionCounter, arnoldi
from gmreskit.solvers import GmresOptions, gmres


class TestBuildBasis:
    def test_monomial_identity_powers(self, rng):
        w = rng.standard_normal(6)
        w /= np.linalg.norm(w)
        W, Bbar = build_basis(np.eye(6), w, 2, MonomialBasis())
        for k in range(3):
            assert np.allclose(W[:, k], w)
        assert np.array_equal(Bbar,
                              np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))

    def test_newton_shift_annihilates_eigencomponent(self):
        A = np.diag([1.0, 2.0])
        w = np.array([1.0, 1.0])
        W, Bbar = build_basis(A, w, 2, NewtonBasis(shifts=(1.0, 2.0)))
        # (A - 1 I) w has zero first component
        assert W[0, 1] == 0.0
        assert W[1, 1] == 1.0
        assert Bbar[0, 0] == 1.0
        assert Bbar[1, 1] == 2.0

    @pytest.mark.parametrize("spec_name", ["monomial", "newton", "chebyshev"])
    def test_conversion_relation(self, spec_name, rng):
        A = rng.standard_normal((40, 40)) / np.sqrt(40) + 2.0 * np.eye(40)
        w = rng.standard_normal(40)
        spec = {
            "monomial": MonomialBasis(),
            "newton": newton_basis_from_warmup(A, w, 5),
            "chebyshev": chebyshev_basis_from_warmup(A, w, 5),
        }[spec_name]
        W, Bbar = build_basis(A, w, 5, spec)
        rel = np.linalg.norm(A @ W[:, :5] - W @ Bbar)
        assert rel <= 1e-12 * np.linalg.norm(A) * np.linalg.norm(W)

    def test_newton_complex_pair_real_arithmetic(self):
        # rotation-plus-shift matrix with complex spectrum 2 +/- 1j
        A = np.array([[2.0, -1.0], [1.0, 2.0]])
        ritz = warmup_ritz_values(A, np.array([1.0, 0.3]), 2)
        assert np.max(np.abs(np.sort(ritz.imag) - [-1.0, 1.0])) < 1e-8
        spec = NewtonBasis(shifts=(2 + 1j, 2 - 1j))
        w = np.array([1.0, 0.3])
        W, Bbar = build_basis(A, w, 2, spec)
        assert np.isrealobj(W)
        rel = np.linalg.norm(A @ W[:, :2] - W @ Bbar)
        assert rel <= 1e-13 * np.linalg.norm(W)

    def test_rejects_unpaired_complex_shifts(self):
        with pytest.raises(ValueError, match="conjugate"):
            NewtonBasis(shifts=(1 + 1j, 2.0))

    def test_monomial_conditioning_worse_than_newton(self):
        # the motivation for polynomial bases: monomial columns align
        A = np.diag(np.linspace(1.0, 100.0, 100))
        b = np.ones(100)
        Wm, _ = build_basis(A, b, 8, MonomialBasis())
        Wn, _ = build_basis(A, b, 8, newton_basis_from_warmup(A, b, 8))
        assert np.linalg.cond(Wm) >= np.linalg.cond(Wn)

    def test_collapse_on_overflow(self):
        A = 1e200 * np.eye(4)
        with np.errstate(over="ignore"):
            with pytest.raises(BasisCollapseError, match="overflow"):
                build_basis(A, np.ones(4), 3, MonomialBasis())

    def test_collapse_on_underflow(self):
        A = 1e-250 * np.eye(4)
        with pytest.raises(BasisCollapseError, match="underflow"):
            build_basis(A, np.ones(4), 3, MonomialBasis())

    def test_chebyshev_parameters(self):
        spec = ChebyshevBasis(center=2.0, xi1=1.5, xi2=0.5)
        assert spec.gamma == 1.5
        assert abs(spec.tau_sq - 2.0) < 1e-15
        # tau^2 may be negative when the rectangle is taller than wide
        tall = ChebyshevBasis(center=0.0, xi1=0.5, xi2=1.5)
        assert tall.tau_sq < 0


class TestTsqr:
    def test_orthonormal_input_single_block(self, rng):
        Q0, _ = np.linalg.qr(rng.standard_normal((50, 5)))
        tree = tsqr(Q0, 1)
        assert np.allclose(tree.R, np.eye(5), atol=1e-13)

    def test_single_block_matches_numpy_oracle(self, rng):
        W = rng.standard_normal((60, 6))
        tree = tsqr(W, 1)
        R_np = np.linalg.qr(W)[1]
        R_np = np.sign(np.diag(R_np))[:, None] * R_np
        assert np.allclose(tree.R, R_np, atol=1e-12 * np.linalg.norm(W))

    @pytest.mark.parametrize("nblocks", [2, 3, 4, 7])
    def test_partitions_consistent(self, nblocks, rng):
        W = rng.standard_normal((1000, 8))
        ref = tsqr(W, 1).R
        tree = tsqr(W, nblocks)
        Q = tree.q_explicit()
        assert np.linalg.norm(Q @ tree.R - W) <= 1e-13 * np.linalg.norm(W)
        assert np.linalg.norm(Q.T @ Q - np.eye(8)) <= 1e-13
        assert np.allclose(tree.R, ref, atol=1e-12 * np.linalg.norm(W))
        assert np.all(np.diag(tree.R) >= 0)

    def test_block_too_short(self, rng):
        with pytest.raises(ValueError, match="block too short"):
            tsqr(rng.standard_normal((10, 4)), 4)


class TestBgsProject:
    def test_empty_previous_block(self, rng):
        W = rng.standard_normal((10, 3))
        R, W2 = bgs_project(None, W)
        assert R.shape == (0, 3)
        assert np.array_equal(W2, W)

    def test_full_projection(self, rng):
        V, _ = np.linalg.qr(rng.standard_normal((20, 6)))
        W = V @ rng.standard_normal((6, 3))
        _, W2 = bgs_project(V, W)
        assert np.linalg.norm(W2) <= 1e-12 * np.linalg.norm(W)

    def test_orthogonality_after_projection(self, rng):
        V, _ = np.linalg.qr(rng.standard_normal((30, 8)))
        W = rng.standard_normal((30, 4))
        counter = ReductionCounter()
        R, W2 = bgs_project(V, W, counter)
        assert counter.total == 1
        assert np.linalg.norm(V.T @ W2) <= 1e-10 * np.linalg.norm(W)
        assert np.allclose(V @ R + W2, W, atol=1e-12)


class TestSstepGmres:
    def test_s1_monomial_equals_cgs_gmres(self, rng):
        A = rng.standard_normal((40, 40)) / np.sqrt(40) + 2.0 * np.eye(40)
        b = rng.standard_normal(40)
        rep_s = sstep_gmres(A, b, s=1, t=30, spec=MonomialBasis(),
                            opts=GmresOptions(rtol=1e-10, max_iter=30))
        rep_c = gmres(A, b, opts=GmresOptions(rtol=1e-10, scheme="cgs",
                                              max_iter=30))
        a = np.array(rep_s.residual_history)
        m = np.array(rep_c.residual_history)
        k = min(len(a), len(m))
        assert np.max(np.abs(a[:k] - m[:k]) / m[0]) <= 1e-12

    def test_s4_newton_matches_mgs(self, convdiff100, rhs100):
        rep_s = sstep_gmres(convdiff100, rhs100, s=4, t=5,
                            opts=GmresOptions(rtol=1e-300, max_iter=20))
        rep_m = gmres(convdiff100, rhs100,
                      opts=GmresOptions(rtol=1e-300, max_iter=20))
        a = np.array(rep_s.residual_history)
        m = np.array(rep_m.residual_history)
        assert np.max(np.abs(a - m) / m[0]) <= 1e-6

    def test_reductions_two_per_block(self, convdiff100, rhs100):
        rep = sstep_gmres(convdiff100, rhs100, s=4, t=5,
                          opts=GmresOptions(rtol=1e-300, max_iter=20))
        assert rep.reduction_log == [2] * len(rep.reduction_log)

    def test_coefficient_identity_vs_direct_arnoldi(self, rng):
        # Hbar assembled through the triangular sandwich equals direct Arnoldi
        A = gen_spectrum(np.linspace(1.0, 20.0, 30), seed=3).to_dense()
        b = rng.standard_normal(30)
        rep = sstep_gmres(A, b, s=3, t=4,
                          opts=GmresOptions(rtol=1e-300, max_iter=12))
        dec = arnoldi(A, b, 12, OrthoScheme.MGS)
        a = np.array(rep.residual_history)
        # equivalent mathematics implies equal residual histories
        rep_m = gmres(A, b, opts=GmresOptions(rtol=1e-300, max_iter=12))
        m = np.array(rep_m.residual_history)
        assert np.max(np.abs(a - m) / m[0]) <= 1e-8

    def test_restarted_cycles(self, convdiff100, rhs100):
        rep = sstep_gmres(convdiff100, rhs100, s=4, t=3,
                          opts=GmresOptions(rtol=1e-8, max_iter=200))
        assert rep.converged
        dense = convdiff100.to_dense()
        assert np.linalg.norm(rhs100 - dense @ rep.x) <= \
            1.1e-8 * np.linalg.norm(rhs100)

    def test_finite_termination_at_grade(self):
        eigs = np.concatenate([np.arange(1.0, 8.0)] * 3)[:20]
        A = gen_spectrum(eigs, seed=6)
        b = np.random.default_rng(7).standard_normal(20)
        for s, t in ((1, 20), (4, 5)):
            rep = sstep_gmres(A, b, s=s, t=t, opts=GmresOptions(rtol=1e-10))
            assert rep.converged
            assert rep.iterations == 7


class TestPipelinedGmres:
    def test_identity_one_iteration(self, rng):
        b = rng.standard_normal(6)
        rep = pipelined_gmres(np.eye(6), b, theta=0.0)
        assert rep.converged and rep.iterations == 1

    def test_matches_mgs_history(self, convdiff100, rhs100):
        rep_p = pipelined_gmres(convdiff100, rhs100, theta=0.0,
                                opts=GmresOptions(rtol=1e-300, max_iter=20))
        rep_m = gmres(convdiff100, rhs100,
                      opts=GmresOptions(rtol=1e-300, max_iter=20))
        a = np.array(rep_p.residual_history)
        m = np.array(rep_m.residual_history)
        assert np.max(np.abs(a - m) / m[0]) <= 1e-6

    def test_one_reduction_per_iteration(self, convdiff100, rhs100):
        rep = pipelined_gmres(convdiff100, rhs100, theta=0.0,
                              opts=GmresOptions(rtol=1e-300, max_iter=20))
        assert rep.reduction_log == [1] * len(rep.reduction_log)

    def test_warmup_theta_default(self, convdiff100, rhs100):
        rep = pipelined_gmres(convdiff100, rhs100,
                              opts=GmresOptions(rtol=1e-8, max_iter=200))
        assert rep.converged
        assert rep.diagnostics["theta"] != 0.0

    def test_grade_termination(self):
        eigs = np.concatenate([np.arange(1.0, 8.0)] * 3)[:20]
        A = gen_spectrum(eigs, seed=6)
        b = np.random.default_rng(7).standard_normal(20)
        rep = pipelined_gmres(A, b, theta=0.0, opts=GmresOptions(rtol=1e-10))
        assert rep.converged and rep.iterations == 7

    @pytest.mark.parametrize("max_iter", [60, 120])
    @pytest.mark.parametrize("solver", ["pipelined", "cgsp"])
    def test_every_reduction_in_a_step(self, kappa1e6_problem, solver, max_iter):
        # all reductions but each cycle's initial normalization belong to a
        # step, the three of a reorthogonalizing retry included
        b = np.random.default_rng(100).standard_normal(60)
        opts = GmresOptions(rtol=1e-10, max_iter=max_iter)
        if solver == "pipelined":
            rep = pipelined_gmres(kappa1e6_problem, b, theta=0.0, opts=opts)
        else:
            rep = gmres(kappa1e6_problem, b, opts=replace(opts, scheme="cgsp"))
        assert rep.reductions == rep.restarts + 1 + sum(rep.reduction_log)

    @pytest.mark.parametrize("max_iter, retries, reductions", [(60, 3, 70), (120, 63, 310)])
    def test_reorthogonalization_fallback(self, kappa1e6_problem, max_iter, retries,
                                          reductions):
        b = np.random.default_rng(100).standard_normal(60)
        rep = pipelined_gmres(kappa1e6_problem, b, theta=0.0,
                              opts=GmresOptions(rtol=1e-10, max_iter=max_iter))
        assert rep.diagnostics["reorthogonalizations"] == retries
        assert rep.reductions == reductions == 1 + max_iter + 3 * retries
        opts = GmresOptions(rtol=1e-10, max_iter=max_iter, scheme="cgsp")
        rep_c = gmres(kappa1e6_problem, b, opts=opts)
        p, c = np.array(rep.relative_history()), np.array(rep_c.relative_history())
        assert len(p) == len(c) and np.max(np.abs(p - c)) <= 1e-4


class TestLowsyncGmres:
    def test_identity(self, rng):
        b = rng.standard_normal(6)
        rep = lowsync_gmres(np.eye(6), b)
        assert rep.converged and rep.iterations == 1

    def test_matches_mgs_history(self, convdiff100, rhs100):
        rep_l = lowsync_gmres(convdiff100, rhs100,
                              opts=GmresOptions(rtol=1e-300, max_iter=20))
        rep_m = gmres(convdiff100, rhs100,
                      opts=GmresOptions(rtol=1e-300, max_iter=20))
        a = np.array(rep_l.residual_history)
        m = np.array(rep_m.residual_history)
        assert np.max(np.abs(a - m) / m[0]) <= 1e-6

    def test_one_reduction_per_iteration(self, convdiff100, rhs100):
        rep = lowsync_gmres(convdiff100, rhs100,
                            opts=GmresOptions(rtol=1e-300, max_iter=20))
        assert rep.reduction_log == [1] * len(rep.reduction_log)

    def test_converges_with_restart(self, convdiff100, rhs100):
        rep = lowsync_gmres(convdiff100, rhs100,
                            opts=GmresOptions(rtol=1e-8, restart=15,
                                              max_iter=300))
        assert rep.converged
        dense = convdiff100.to_dense()
        assert np.linalg.norm(rhs100 - dense @ rep.x) <= \
            1.1e-8 * np.linalg.norm(rhs100)


class TestSstepCoefficientIdentity:
    def test_assembled_hessenberg_matches_direct_arnoldi(self, rng):
        # the triangular sandwich reproduces the Hessenberg matrix a direct
        # orthogonalization run would build from the same start vector
        A = gen_spectrum(np.linspace(1.0, 25.0, 30), seed=12).to_dense()
        b = rng.standard_normal(30)
        for s in (2, 3, 6):
            rep = sstep_gmres(A, b, s=s, t=12 // s,
                              opts=GmresOptions(rtol=1e-300, max_iter=12))
            fH = rep.diagnostics["arnoldi"]
            dec = arnoldi(A, b, 12, OrthoScheme.MGS)
            n = min(fH.shape[1], dec.Hbar.shape[1])
            dev = np.max(np.abs(fH[: n + 1, :n] - dec.Hbar[: n + 1, :n]))
            assert dev <= 1e-8 * np.linalg.norm(A), s


class TestNewtonWarmupPadding:
    # Krylov spaces of dimension 3 and 2 give fewer Ritz values than s shifts
    @staticmethod
    def _operator(block, rest=(5.0, 6.0, 7.0)):
        n = len(block) + len(rest)
        A = np.diag(np.concatenate([np.zeros(len(block)), rest]))
        A[:len(block), :len(block)] = block
        return A, np.concatenate([np.ones(len(block)), np.zeros(n - len(block))])

    def test_odd_padding_after_a_complex_pair_converges(self):
        A, b = self._operator([[1.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, -1.0, 2.0]])
        rep = sstep_gmres(A, b, s=4, t=2)
        assert rep.termination == "converged"
        assert rep.iterations == 3

    @pytest.mark.parametrize("s", [3, 5])
    def test_odd_padding_ends_in_the_real_part(self, s):
        A, b = self._operator([[2.0, 1.0], [-1.0, 2.0]])
        ritz = warmup_ritz_values(A, b, s)
        shifts = newton_basis_from_warmup(A, b, s).shifts
        assert len(shifts) == s
        assert [z for z in shifts if not z.imag] == [ritz[-1].real]
        assert {z for z in shifts if z.imag} == set(ritz)

    def test_even_padding_is_unchanged(self):
        A, b = self._operator([[2.0, 1.0], [-1.0, 2.0]])
        ritz = warmup_ritz_values(A, b, 4)
        assert newton_basis_from_warmup(A, b, 4).shifts == (ritz[0], ritz[1]) * 2


class TestNamedBasis:
    @staticmethod
    def _report_bytes(rep):
        return (rep.x.tobytes(), np.asarray(rep.residual_history).tobytes(),
                rep.reduction_log, rep.diagnostics["arnoldi"].tobytes(),
                rep.diagnostics["basis"])

    @pytest.mark.parametrize("name,s", [("monomial", 3), ("newton", 3), ("chebyshev", 3),
                                        (None, 3), (None, 1)])
    def test_name_gives_the_bytes_of_its_spec_object(self, name, s):
        A = gen_spectrum(np.linspace(1.0, 25.0, 30), seed=12)
        b = np.random.default_rng(4).standard_normal(30)
        explicit = {"monomial": lambda: MonomialBasis(),
                    "newton": lambda: newton_basis_from_warmup(A, b, s),
                    "chebyshev": lambda: chebyshev_basis_from_warmup(A, b, s),
                    None: lambda: newton_basis_from_warmup(A, b, s) if s > 1
                    else MonomialBasis()}[name]()
        opts = GmresOptions(rtol=1e-10, max_iter=20)
        named = sstep_gmres(A, b, s=s, t=2, spec=name, opts=opts)
        assert named.diagnostics["basis"] == type(explicit).__name__
        assert self._report_bytes(named) == self._report_bytes(
            sstep_gmres(A, b, s=s, t=2, spec=explicit, opts=opts))

    def test_unknown_name_fails_before_any_product(self):
        products = []

        def op(v):
            products.append(v)
            return v

        with pytest.raises(ValueError, match="spec: unknown basis 'legendre'"):
            sstep_gmres(op, np.ones(8), spec="legendre")
        assert products == []
