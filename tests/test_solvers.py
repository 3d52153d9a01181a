import numpy as np
import pytest

from gmreskit import (gmres_e, gmres_ir, gmres_two_precision, lowsync_gmres,
                      pipelined_gmres, sstep_gmres)
from gmreskit.harness import gen_convdiff, gen_spectrum
from gmreskit.linalg import CsrMatrix
from gmreskit.ortho import arnoldi
from gmreskit.solvers import (
    DiagonalPreconditioner,
    FgmresBreakdownError,
    FunctionPreconditioner,
    GmresOptions,
    _flexible_cycle,
    _Run,
    backward_error,
    fgmres,
    gcr,
    gmres,
    gmres_restarted,
    hh_gmres,
    lgmres,
    orthodir,
    simpler_gmres,
    weighted_gmres,
)


def krylov_ls_min(A, b, n):
    """Brute-force minimal residual over span{b, Ab, ..., A^{n-1} b}."""
    A = np.asarray(A)
    K = np.zeros((len(b), n))
    v = b.copy()
    for j in range(n):
        K[:, j] = v / np.linalg.norm(v)
        v = A @ K[:, j]
    AK = A @ K
    y, *_ = np.linalg.lstsq(AK, b, rcond=None)
    return float(np.linalg.norm(b - AK @ y))


def relres(A, x, b):
    A = np.asarray(A) if not isinstance(A, CsrMatrix) else A.to_dense()
    return float(np.linalg.norm(b - A @ x) / np.linalg.norm(b))


class TestGmres:
    def test_identity_one_iteration(self, rng):
        b = rng.standard_normal(7)
        rep = gmres(np.eye(7), b)
        assert rep.converged
        assert rep.iterations == 1
        assert np.allclose(rep.x, b)

    def test_diagonal_exact_in_three(self):
        A = np.diag([1.0, 2.0, 3.0])
        b = np.ones(3)
        rep = gmres(A, b, opts=GmresOptions(rtol=1e-10))
        assert rep.iterations == 3
        assert np.allclose(rep.x, [1.0, 0.5, 1.0 / 3.0], atol=1e-12)

    def test_zero_rhs(self):
        rep = gmres(np.eye(4), np.zeros(4))
        assert rep.converged
        assert rep.iterations == 0
        assert np.array_equal(rep.x, np.zeros(4))

    def test_matches_brute_force_krylov_minimum(self, rng):
        A = rng.standard_normal((30, 30)) / np.sqrt(30) + 2.0 * np.eye(30)
        b = rng.standard_normal(30)
        rep = gmres(A, b, opts=GmresOptions(rtol=1e-300, max_iter=5))
        expected = krylov_ls_min(A, b, 5)
        assert abs(rep.residual_history[5] - expected) <= 1e-10 * np.linalg.norm(b)

    def test_monotone_history(self, rng, convdiff100, rhs100):
        for scheme in ("mgs", "cgs", "cgs2", "cgsp", "icwy"):
            rep = gmres(convdiff100, rhs100,
                        opts=GmresOptions(rtol=1e-10, scheme=scheme))
            h = rep.residual_history
            assert all(h[i + 1] <= h[i] * (1 + 1e-14) for i in range(len(h) - 1))

    def test_nonzero_x0(self, rng):
        A = rng.standard_normal((12, 12)) + 4.0 * np.eye(12)
        x_star = rng.standard_normal(12)
        b = A @ x_star
        x0 = rng.standard_normal(12)
        rep = gmres(A, b, x0=x0, opts=GmresOptions(rtol=1e-12))
        assert np.allclose(rep.x, x_star, atol=1e-9)

    def test_projection_property_at_exit(self, rng):
        # r_n is orthogonal to A K_n: audit through the basis of the same
        # single cycle, rebuilt by ortho.arnoldi (the report keeps only Hbar)
        A = rng.standard_normal((20, 20)) / np.sqrt(20) + 3.0 * np.eye(20)
        b = rng.standard_normal(20)
        rep = gmres(A, b, opts=GmresOptions(rtol=1e-300, max_iter=8))
        dec = arnoldi(A, b, 8)
        Hbar = rep.diagnostics["arnoldi"]
        assert Hbar.dtype == dec.Hbar.dtype and Hbar.tobytes() == dec.Hbar.tobytes()
        r = b - A @ rep.x
        AV = A @ dec.V[:, : dec.n]
        assert np.linalg.norm(AV.T @ r) <= \
            1e-8 * np.linalg.norm(A) * np.linalg.norm(b)

    def test_matvec_counter(self, rng):
        A = rng.standard_normal((10, 10)) + 4.0 * np.eye(10)
        b = rng.standard_normal(10)
        rep = gmres(A, b, opts=GmresOptions(rtol=1e-300, max_iter=5))
        # one product per step plus the entry and exit residuals
        assert rep.matvecs == 5 + 2


class TestRestartedGmres:
    def test_restart_beyond_grade_matches_full(self):
        A = gen_spectrum(np.array([1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0]),
                         seed=2)
        b = np.random.default_rng(4).standard_normal(8)
        full = gmres(A, b, opts=GmresOptions(rtol=1e-10))
        cyc = gmres_restarted(A, b, opts=GmresOptions(rtol=1e-10, restart=6))
        assert cyc.restarts == 0
        assert np.allclose(cyc.residual_history, full.residual_history)

    @pytest.mark.parametrize("opts", [None, GmresOptions(rtol=1e-10, max_iter=75)])
    def test_restart_defaults_to_thirty(self, opts):
        A = gen_convdiff(32, 32, peclet=10.0)
        b = np.random.default_rng(6).standard_normal(A.nrows)
        got = gmres_restarted(A, b, opts=opts)
        opts = opts if opts is not None else GmresOptions()
        want = gmres_restarted(A, b, opts=GmresOptions(**{**vars(opts), "restart": 30}))
        assert got.restarts >= 1

        def record(rep):
            return (rep.x.tobytes(), np.asarray(rep.residual_history).tobytes(),
                    rep.true_residual_checkpoints, rep.reduction_log, rep.reduction_marks,
                    rep.diagnostics["arnoldi"].tobytes(), rep.iterations, rep.restarts,
                    rep.matvecs, rep.reductions, rep.termination)

        assert record(got) == record(want)

    def test_restarting_costs_iterations(self, rng):
        n = 100
        A = np.diag(np.linspace(1.0, 100.0, n)) + 0.1 * np.diag(np.ones(n - 1), 1)
        b = rng.standard_normal(n)
        full = gmres(A, b, opts=GmresOptions(rtol=1e-8, max_iter=300))
        cyc = gmres_restarted(A, b, opts=GmresOptions(rtol=1e-8, restart=10,
                                                      max_iter=2000))
        assert full.converged and cyc.converged
        assert cyc.iterations >= full.iterations

    def test_checkpoint_fidelity(self, rng, convdiff100, rhs100):
        rep = gmres_restarted(convdiff100, rhs100,
                              opts=GmresOptions(rtol=1e-10, restart=12))
        assert rep.converged
        bnorm = np.linalg.norm(rhs100)
        for k, true_norm in rep.true_residual_checkpoints:
            assert abs(rep.residual_history[k] - true_norm) <= 1e-10 * bnorm

    def test_stagnation_exit(self):
        # a cyclic shift makes GMRES(m < N) stall completely
        n = 12
        A = np.roll(np.eye(n), 1, axis=0)
        b = np.zeros(n)
        b[0] = 1.0
        rep = gmres_restarted(A, b, opts=GmresOptions(rtol=1e-10, restart=4,
                                                      max_iter=200))
        assert rep.termination == "stagnation"


class TestHhGmres:
    def test_identity(self, rng):
        b = rng.standard_normal(6)
        rep = hh_gmres(np.eye(6), b)
        assert rep.converged and rep.iterations == 1

    def test_history_matches_mgs(self):
        A = gen_spectrum(np.linspace(1.0, 50.0, 40), seed=8)
        b = np.random.default_rng(3).standard_normal(40)
        h_hh = hh_gmres(A, b, opts=GmresOptions(rtol=1e-300, max_iter=20))
        h_mgs = gmres(A, b, opts=GmresOptions(rtol=1e-300, max_iter=20))
        a = np.array(h_hh.residual_history)
        m = np.array(h_mgs.residual_history)
        assert np.max(np.abs(a - m) / m[0]) <= 1e-8

    def test_backward_stable_on_ill_conditioned(self):
        A = gen_spectrum(np.logspace(0, 12, 40), seed=5)
        b = np.random.default_rng(6).standard_normal(40)
        rep = hh_gmres(A, b, opts=GmresOptions(rtol=1e-15, max_iter=40))
        assert backward_error(A, rep.x, b) <= 1e-12

    def test_reductions_follow_the_structural_formula(self):
        # step j (1-based) applies j reflectors to recover v_j and j to its
        # product, takes the tail norm and forms a reflector: 2j + 2.  A cycle
        # of n steps adds the norm of r0, the first reflector and the n
        # reflectors of its update: n^2 + 4n + 2
        A = gen_convdiff(64, 64, peclet=10.0)
        b = np.random.default_rng(5).standard_normal(A.nrows)
        rep = hh_gmres(A, b, opts=GmresOptions(rtol=1e-14, restart=30, max_iter=90))
        assert (rep.iterations, rep.restarts) == (90, 2)
        assert rep.reduction_log == [2 * j + 2 for j in range(1, 31)] * 3
        assert rep.reductions == 3 * (30 ** 2 + 4 * 30 + 2) == 3066

    def test_breakdown_step_counts_one_fewer(self):
        # five distinct eigenvalues: step 5 finds the invariant subspace and
        # forms no reflector
        A = gen_spectrum(np.repeat([1.0, 2.0, 3.0, 4.0, 5.0], 2), seed=2)
        b = np.random.default_rng(4).standard_normal(10)
        rep = hh_gmres(A, b, opts=GmresOptions(rtol=1e-300, max_iter=10))
        assert rep.iterations == 5 and not rep.diagnostics["arnoldi"][5].any()
        assert rep.reduction_log == [4, 6, 8, 10, 2 * 5 + 1]
        assert rep.reductions == 5 ** 2 + 4 * 5 + 2 - 1


class TestSimplerGmres:
    def test_identity_immediate(self, rng):
        b = rng.standard_normal(5)
        rep = simpler_gmres(np.eye(5), b, variant="sgmres")
        assert rep.converged and rep.iterations == 1
        assert abs(rep.residual_history[1]) <= 1e-14 * np.linalg.norm(b)

    def test_rb_matches_mgs_history(self, rng):
        A = rng.standard_normal((30, 30)) / np.sqrt(30) + 2.0 * np.eye(30)
        b = rng.standard_normal(30)
        rb = simpler_gmres(A, b, opts=GmresOptions(rtol=1e-8), variant="rb")
        mg = gmres(A, b, opts=GmresOptions(rtol=1e-8))
        a = np.array(rb.residual_history)
        m = np.array(mg.residual_history[: len(a)])
        assert np.max(np.abs(a - m) / m[0]) <= 1e-8

    def test_omega_endpoints(self, rng):
        A = rng.standard_normal((20, 20)) / np.sqrt(20) + 3.0 * np.eye(20)
        b = rng.standard_normal(20)
        end1 = simpler_gmres(A, b, opts=GmresOptions(rtol=1e-8, simpler_omega=1.0),
                             variant="adaptive")
        rb = simpler_gmres(A, b, opts=GmresOptions(rtol=1e-8), variant="rb")
        assert end1.residual_history == rb.residual_history
        end0 = simpler_gmres(A, b, opts=GmresOptions(rtol=1e-8, simpler_omega=0.0),
                             variant="adaptive")
        sg = simpler_gmres(A, b, opts=GmresOptions(rtol=1e-8), variant="sgmres")
        assert end0.residual_history == sg.residual_history

    def test_kappa_z_diagnostic(self, rng):
        A = rng.standard_normal((15, 15)) + 4.0 * np.eye(15)
        b = rng.standard_normal(15)
        rep = simpler_gmres(A, b, variant="rb")
        assert rep.diagnostics["kappa_z"] >= 1.0

    @pytest.mark.parametrize("variant", ["sgmres", "rb", "adaptive"])
    def test_kappa_z_of_a_nonfinite_product_is_nan(self, variant):
        # the 4th product puts a NaN into Z, on which np.linalg.cond's SVD fails
        A = gen_convdiff(6, 6)
        products = []

        def op(v):
            products.append(A.matvec(v))
            if len(products) == 4:
                products[-1][3] = np.nan
            return products[-1]

        rep = simpler_gmres(op, np.ones(36), opts=GmresOptions(rtol=1e-8, max_iter=20),
                            variant=variant)
        assert rep.termination == "maxiter"
        assert np.isnan(rep.x).any()
        assert np.isnan(rep.diagnostics["kappa_z"])


class TestGcrOrthodir:
    def test_identity_instant(self, rng):
        b = rng.standard_normal(5)
        for solver in (gcr, orthodir):
            rep = solver(np.eye(5), b)
            assert rep.converged and rep.iterations == 1

    def test_a_orthogonality_audit(self, rng):
        A = rng.standard_normal((40, 40)) / np.sqrt(40) + 3.0 * np.eye(40)
        b = rng.standard_normal(40)
        # reimplement the direction recurrence to capture the q vectors
        rep = gcr(A, b, opts=GmresOptions(rtol=1e-300, max_iter=15))
        # audit: run again while recording directions via the operator
        qs = []
        x = np.zeros(40)
        r = b.copy()
        q = r.copy()
        aq = A @ q
        for _ in range(15):
            qs.append((q, aq))
            alpha = (r @ aq) / (aq @ aq)
            x = x + alpha * q
            r = r - alpha * aq
            w = A @ r
            betas = [-(w @ aqi) / (aqi @ aqi) for _, aqi in qs]
            q = r + sum(bk * qk for bk, (qk, _) in zip(betas, qs))
            aq = w + sum(bk * aqk for bk, (_, aqk) in zip(betas, qs))
        worst = 0.0
        for i in range(len(qs)):
            for j in range(i + 1, len(qs)):
                aqi, aqj = qs[i][1], qs[j][1]
                worst = max(worst, abs(aqi @ aqj) /
                            (np.linalg.norm(aqi) * np.linalg.norm(aqj)))
        assert worst <= 1e-8

    def test_history_matches_mgs_on_convdiff(self, convdiff100, rhs100):
        opts = GmresOptions(rtol=1e-300, max_iter=20)
        m = np.array(gmres(convdiff100, rhs100, opts=opts).residual_history)
        for solver in (gcr, orthodir):
            h = np.array(solver(convdiff100, rhs100, opts=opts).residual_history)
            assert np.max(np.abs(h - m) / m[0]) <= 1e-6

    def test_indefinite_part_breakdown(self):
        # skew-symmetric A: (A q, q) geometry degenerates for GCR directions
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        b = np.array([1.0, 0.0])
        rep = gcr(A, b, opts=GmresOptions(rtol=1e-12, max_iter=5))
        # either it solves the 2x2 exactly or reports the documented breakdown
        assert rep.termination in ("converged", "breakdown")
        if rep.termination == "breakdown":
            assert "indefinite" in rep.diagnostics.get("breakdown_reason", "")


class TestFgmres:
    def test_identity_preconditioner_matches_gmres(self, rng):
        A = rng.standard_normal((15, 15)) + 4.0 * np.eye(15)
        b = rng.standard_normal(15)
        rep_f = fgmres(A, b, opts=GmresOptions(rtol=1e-10))
        rep_g = gmres(A, b, opts=GmresOptions(rtol=1e-10))
        assert np.allclose(rep_f.residual_history, rep_g.residual_history,
                           rtol=0, atol=1e-12 * np.linalg.norm(b))

    def test_fixed_preconditioner_matches_right_gmres(self, convdiff100, rhs100):
        dense = convdiff100.to_dense()
        M = np.tril(dense)  # lower-triangular (Gauss-Seidel-like) factor
        Minv = FunctionPreconditioner(lambda v: np.linalg.solve(M, v))
        rep_f = fgmres(convdiff100, rhs100, opts=GmresOptions(rtol=1e-10),
                       precond_sequence=Minv)
        rep_r = gmres(convdiff100, rhs100,
                      opts=GmresOptions(rtol=1e-10, precond_side="right",
                                        preconditioner=Minv))
        a = np.array(rep_f.residual_history)
        m = np.array(rep_r.residual_history)
        k = min(len(a), len(m))
        assert np.max(np.abs(a[:k] - m[:k])) <= 1e-10 * np.linalg.norm(rhs100)

    def test_alternating_preconditioners_relation(self, convdiff100, rhs100):
        dense = convdiff100.to_dense()
        d1 = np.diag(dense).copy()
        d2 = d1 * 2.0
        seq = lambda j, v: v / d1 if j % 2 == 0 else v / d2
        opts = GmresOptions(rtol=1e-10)
        rep = fgmres(convdiff100, rhs100, opts=opts, precond_sequence=seq)
        assert rep.converged and rep.restarts == 0
        # the one cycle fgmres ran, rebuilt through the flexible cycle
        run = _Run(convdiff100.matvec, opts)
        run.tol_abs = opts.rtol * np.linalg.norm(rhs100)
        update, rhos, _, V, H, Z, _ = _flexible_cycle(
            run, rhs100, len(rhs100), lambda j, slot, V: (seq(j, V[:, j]), "krylov"))
        assert np.array_equal(update, rep.x) and rhos == rep.residual_history[1:]
        n = H.shape[1]
        rel = np.linalg.norm(dense @ Z[:, :n] - V[:, : n + 1] @ H[: n + 1])
        assert rel <= 1e-12 * np.linalg.norm(dense)

    def test_singular_hessenberg_breakdown_error(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([1.0, 0.0])
        # M_2 maps v_2 = e2 back to e1, making A z_2 parallel to v_2
        precs = lambda j, v: v if j == 0 else np.array([v[1], v[0]])
        with pytest.raises(FgmresBreakdownError):
            fgmres(A, b, opts=GmresOptions(rtol=1e-14), precond_sequence=precs)

    @pytest.mark.parametrize("restart", [10, 13])
    def test_no_sequence_is_plain_restarted(self, convdiff100, rhs100, restart):
        # the flexible cycle and ArnoldiProcess share one MGS kernel and one
        # basis layout, so the identity sequence reproduces GMRES(m) bit for bit
        opts = GmresOptions(rtol=1e-8, restart=restart, max_iter=400)
        rep_f = fgmres(convdiff100, rhs100, opts=opts)
        rep_g = gmres_restarted(convdiff100, rhs100, opts=opts)
        assert rep_f.restarts >= 1
        assert rep_f.residual_history == rep_g.residual_history
        assert np.array_equal(rep_f.x, rep_g.x)


class TestLgmres:
    def test_m2_zero_is_plain_restarted(self, convdiff100, rhs100):
        opts = GmresOptions(rtol=1e-8, max_iter=400)
        rep_l = lgmres(convdiff100, rhs100, m1=10, m2=0, opts=opts)
        rep_g = gmres_restarted(convdiff100, rhs100,
                                opts=GmresOptions(rtol=1e-8, restart=10,
                                                  max_iter=400))
        assert rep_l.residual_history == rep_g.residual_history

    def test_first_cycle_is_full_kr_window(self, convdiff100, rhs100):
        # cycle 0 has no error approximations: identical to GMRES(m1+m2)
        rep_l = lgmres(convdiff100, rhs100, m1=8, m2=3,
                       opts=GmresOptions(rtol=1e-300, max_iter=11))
        rep_g = gmres(convdiff100, rhs100,
                      opts=GmresOptions(rtol=1e-300, max_iter=11))
        a = np.array(rep_l.residual_history)
        m = np.array(rep_g.residual_history)
        assert np.allclose(a, m, rtol=0, atol=1e-12 * m[0])

    def test_converges_where_small_restart_struggles(self):
        A = gen_convdiff(12, 12, peclet=20.0)
        b = np.ones(144)
        rep = lgmres(A, b, m1=5, m2=1, opts=GmresOptions(rtol=1e-8, max_iter=600))
        assert rep.converged
        assert relres(A, rep.x, b) <= 1e-7


class TestWeightedGmres:
    def test_identity_weight_matches_standard(self, convdiff100, rhs100):
        rep_w = weighted_gmres(convdiff100, rhs100,
                               opts=GmresOptions(rtol=1e-8, weight=np.ones(100)))
        rep_g = gmres(convdiff100, rhs100, opts=GmresOptions(rtol=1e-8))
        a = np.array(rep_w.residual_history)
        m = np.array(rep_g.residual_history)
        assert np.max(np.abs(a - m)) <= 1e-12 * m[0]

    def test_d_orthonormal_basis(self, rng):
        A = gen_spectrum(np.linspace(1.0, 30.0, 30), seed=9).to_dense()
        b = rng.standard_normal(30)
        d = rng.random(30) + 0.5
        rep = weighted_gmres(A, b, opts=GmresOptions(rtol=1e-300, max_iter=15,
                                                     weight=d))
        # the basis of the same single cycle, rebuilt by ortho.arnoldi on the
        # scaled system; unscaled, it is D-orthonormal
        s = np.sqrt(d)
        dec = arnoldi(lambda v: s * (A @ (v / s)), s * b, 15)
        Hbar = rep.diagnostics["arnoldi"]
        assert Hbar.dtype == dec.Hbar.dtype and Hbar.tobytes() == dec.Hbar.tobytes()
        V = dec.V / s[:, None]
        G = V.T @ (d[:, None] * V)
        assert np.linalg.norm(G - np.eye(G.shape[0])) <= 1e-10

    def test_transformed_system_equivalence(self, rng):
        # WGMRES == standard GMRES on D^{1/2} A D^{-1/2} with D^{1/2} r0
        A = rng.standard_normal((25, 25)) / 5.0 + 3.0 * np.eye(25)
        b = rng.standard_normal(25)
        d = rng.random(25) + 0.5
        rep_w = weighted_gmres(A, b, opts=GmresOptions(rtol=1e-8, weight=d))
        s = np.sqrt(d)
        At = (s[:, None] * A) / s[None, :]
        bt = s * b
        rep_t = gmres(At, bt, opts=GmresOptions(rtol=1e-8))
        a = np.array(rep_w.residual_history)
        m = np.array(rep_t.residual_history[: len(a)])
        assert np.max(np.abs(a - m) / m[0]) <= 1e-8

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            GmresOptions(weight=np.array([1.0, -1.0]))


class TestCrossVariantEquivalence:
    def test_histories_agree(self, convdiff100, rhs100):
        opts = lambda: GmresOptions(rtol=1e-300, max_iter=20)
        runs = {
            "mgs": gmres(convdiff100, rhs100, opts=opts()),
            "hh": hh_gmres(convdiff100, rhs100, opts=opts()),
            "rb": simpler_gmres(convdiff100, rhs100, opts=opts(), variant="rb"),
            "gcr": gcr(convdiff100, rhs100, opts=opts()),
            "orthodir": orthodir(convdiff100, rhs100, opts=opts()),
        }
        ref = np.array(runs["mgs"].residual_history)
        for name, rep in runs.items():
            h = np.array(rep.residual_history)
            assert len(h) == len(ref), name
            assert np.max(np.abs(h - ref) / ref[0]) <= 1e-6, name


class TestPreconditionedGmres:
    def test_left_reports_preconditioned_history_checkpoints_true(
            self, convdiff100, rhs100):
        dense = convdiff100.to_dense()
        M = DiagonalPreconditioner(np.diag(dense))
        rep = gmres(convdiff100, rhs100,
                    opts=GmresOptions(rtol=1e-10, precond_side="left",
                                      preconditioner=M))
        assert rep.converged
        r_true = rhs100 - dense @ rep.x
        k, ckpt = rep.true_residual_checkpoints[-1]
        assert abs(ckpt - np.linalg.norm(r_true)) <= 1e-12 * np.linalg.norm(rhs100)
        # the estimated-norm checkpoint matches the preconditioned rho
        _, est = rep.estimated_norm_checkpoints[-1]
        assert abs(rep.residual_history[k] - est) <= 1e-10 * np.linalg.norm(rhs100)

    def test_right_preserves_true_residual_history(self, convdiff100, rhs100):
        dense = convdiff100.to_dense()
        M = DiagonalPreconditioner(np.diag(dense))
        rep = gmres(convdiff100, rhs100,
                    opts=GmresOptions(rtol=1e-10, precond_side="right",
                                      preconditioner=M))
        assert rep.converged
        assert relres(dense, rep.x, rhs100) <= 1e-9


class TestFiniteTermination:
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_exactly_d_iterations(self, d):
        eigs = np.concatenate([np.arange(1.0, d + 1.0)] * 3)[: 2 * d + 3]
        A = gen_spectrum(eigs, seed=d)
        b = np.random.default_rng(d).standard_normal(len(eigs))
        rep = gmres(A, b, opts=GmresOptions(rtol=1e-10))
        assert rep.converged
        assert rep.iterations == d


class TestBreakdownExits:
    def test_simpler_breakdown_on_dependent_direction(self):
        # SGMRES reuses v_1 as the second direction; on A = I its image lies
        # exactly in the span, so the triangular factor degenerates and the
        # documented breakdown exit fires (with the solution already exact)
        b = np.random.default_rng(4).standard_normal(6)
        rep = simpler_gmres(np.eye(6), b,
                            opts=GmresOptions(rtol=1e-300, max_iter=6),
                            variant="sgmres")
        assert rep.termination == "breakdown"
        assert relres(np.eye(6), rep.x, b) <= 1e-12


class TestMinimalResidualOracle:
    def test_all_full_variants_match_brute_force(self, rng):
        # every full variant realizes the same minimum over the explicit
        # Krylov basis, computed here by dense least squares
        A = gen_spectrum(np.linspace(1.0, 40.0, 30), seed=14).to_dense()
        b = rng.standard_normal(30)
        n = 15
        expected = krylov_ls_min(A, b, n)
        opts = lambda: GmresOptions(rtol=1e-300, max_iter=n)
        variants = {
            "mgs": gmres(A, b, opts=opts()),
            "cgs2": gmres(A, b, opts=GmresOptions(rtol=1e-300, max_iter=n,
                                                  scheme="cgs2")),
            "hh": hh_gmres(A, b, opts=opts()),
            "rb": simpler_gmres(A, b, opts=opts(), variant="rb"),
            "gcr": gcr(A, b, opts=opts()),
            "orthodir": orthodir(A, b, opts=opts()),
        }
        for name, rep in variants.items():
            got = rep.residual_history[n]
            assert abs(got - expected) <= 1e-6 * np.linalg.norm(b), name


class TestOrthodirDirections:
    def test_a_orthogonality_of_direction_recurrence(self, rng):
        # replay the direction growth q_{j+1} = A q_j + sum beta q_i and
        # audit (A q_i, A q_j) = 0 directly; 12 steps, before the one-pass
        # recurrence's documented stability loss sets in
        A = rng.standard_normal((40, 40)) / np.sqrt(40) + 3.0 * np.eye(40)
        b = rng.standard_normal(40)
        qs = []
        x = np.zeros(40)
        r = b.copy()
        q = r.copy()
        aq = A @ q
        for _ in range(12):
            qs.append((q, aq))
            alpha = (r @ aq) / (aq @ aq)
            x = x + alpha * q
            r = r - alpha * aq
            w = A @ aq
            betas = [-(w @ aqi) / (aqi @ aqi) for _, aqi in qs]
            q = aq + sum(bk * qk for bk, (qk, _) in zip(betas, qs))
            aq = w + sum(bk * aqk for bk, (_, aqk) in zip(betas, qs))
        worst = 0.0
        for i in range(len(qs)):
            for j in range(i + 1, len(qs)):
                aqi, aqj = qs[i][1], qs[j][1]
                worst = max(worst, abs(aqi @ aqj) /
                            (np.linalg.norm(aqi) * np.linalg.norm(aqj)))
        assert worst <= 1e-8
        assert np.linalg.norm(b - A @ x) <= 1e-6 * np.linalg.norm(b)


class TestHhPreconditioned:
    def test_right_preconditioned_hh(self, convdiff100, rhs100):
        dense = convdiff100.to_dense()
        M = DiagonalPreconditioner(np.diag(dense))
        rep = hh_gmres(convdiff100, rhs100,
                       opts=GmresOptions(rtol=1e-10, precond_side="right",
                                         preconditioner=M))
        assert rep.converged
        assert relres(dense, rep.x, rhs100) <= 1e-9

    def test_left_preconditioned_hh(self, convdiff100, rhs100):
        dense = convdiff100.to_dense()
        M = DiagonalPreconditioner(np.diag(dense))
        rep = hh_gmres(convdiff100, rhs100,
                       opts=GmresOptions(rtol=1e-10, precond_side="left",
                                         preconditioner=M))
        assert rep.converged
        assert relres(dense, rep.x, rhs100) <= 1e-9

    def test_unsupported_options_rejected(self, convdiff100, rhs100):
        M = DiagonalPreconditioner(np.ones(100))
        bad = GmresOptions(precond_side="right", preconditioner=M)
        with pytest.raises(ValueError, match="preconditioning"):
            gcr(convdiff100, rhs100, opts=bad)
        with pytest.raises(ValueError, match="weight"):
            simpler_gmres(convdiff100, rhs100,
                          opts=GmresOptions(weight=np.ones(100)))


class TestWeightedRestartRefresh:
    def test_auto_weights_refresh_across_cycles(self, convdiff100, rhs100):
        rep = weighted_gmres(convdiff100, rhs100,
                             opts=GmresOptions(rtol=1e-8, restart=10,
                                               max_iter=400))
        assert rep.converged
        assert rep.restarts >= 1
        assert relres(convdiff100.to_dense(), rep.x, rhs100) <= 1e-7


class TestOptionValidation:
    @pytest.mark.parametrize("rtol", [0.0, -1e-8, float("nan"), float("inf")])
    def test_rejects_rtol_not_positive_and_finite(self, rtol):
        with pytest.raises(ValueError, match="rtol must be positive"):
            GmresOptions(rtol=rtol)

    def test_rejects_negative_max_iter(self):
        with pytest.raises(ValueError, match="max_iter"):
            GmresOptions(max_iter=-1)
        assert GmresOptions(max_iter=0).max_iter == 0

    @pytest.mark.parametrize("field,value", [
        ("max_iter", 2.5), ("max_iter", True), ("max_iter", "8"),
        ("restart", 2.5), ("restart", True), ("restart", np.float64(8.0)),
    ])
    def test_rejects_a_count_that_is_not_an_integer(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            GmresOptions(**{field: value})

    def test_numpy_integer_counts_are_accepted(self):
        opts = GmresOptions(max_iter=np.int64(12), restart=np.int32(4))
        A = gen_convdiff(6, 6, peclet=2.0)
        ref = gmres(A, np.ones(36), opts=GmresOptions(max_iter=12, restart=4))
        assert gmres(A, np.ones(36), opts=opts).x.tobytes() == ref.x.tobytes()

    @pytest.mark.parametrize("call,arg", [
        (lambda A, b: sstep_gmres(A, b, s=2.5, t=2), "s"),
        (lambda A, b: sstep_gmres(A, b, s=2, t=False), "t"),
        (lambda A, b: lgmres(A, b, m1=2.5, m2=1), "m1"),
        (lambda A, b: gmres_e(A, b, m1=4, m2=1.0), "m2"),
        (lambda A, b: gmres_ir(A, b, max_refinements=2.5),
         "max_refinements"),
    ])
    def test_solver_counts_must_be_integers(self, call, arg):
        A = gen_convdiff(6, 6, peclet=2.0)
        with pytest.raises(ValueError, match=f"^{arg} must be an integer, got "):
            call(A, np.ones(36))

    @pytest.mark.parametrize("weight,message", [
        (np.full(36, np.inf), "weight must be finite"),
        (np.full(36, np.nan), "weight must be finite"),
        (np.ones((36, 1)), r"weight must be 1-D, got shape \(36, 1\)"),
        (np.ones(36) + 1j, "weight must be real"),
    ])
    def test_rejects_a_weight_that_is_not_a_finite_vector(self, weight, message):
        with pytest.raises(ValueError, match=message):
            GmresOptions(weight=weight)

    @pytest.mark.parametrize("solve", [gmres, weighted_gmres])
    def test_rejects_a_weight_of_another_length(self, solve):
        A = gen_convdiff(6, 6, peclet=2.0)
        with pytest.raises(ValueError, match=r"opts.weight must have b's shape \(36,\), "
                                             r"got \(3,\)"):
            solve(A, np.ones(36), opts=GmresOptions(weight=np.ones(3)))

    def test_householder_scheme_takes_a_weight(self):
        # the weight scales the system the scheme runs on: Householder's
        # history is MGS's to rounding
        A = gen_convdiff(6, 6, peclet=2.0)
        d = np.linspace(0.5, 2.0, 36)
        hh, mgs = (weighted_gmres(A, np.ones(36), opts=GmresOptions(
            rtol=1e-10, scheme=scheme, weight=d)) for scheme in ("householder", "mgs"))
        assert hh.converged and hh.iterations == mgs.iterations
        a, m = np.array(hh.residual_history), np.array(mgs.residual_history)
        assert np.max(np.abs(a - m)) <= 1e-12 * m[0]

    @pytest.mark.parametrize("M", [3, "jacobi", np.ones(4)])
    def test_rejects_a_preconditioner_without_apply_that_is_not_callable(self, M):
        with pytest.raises(ValueError, match="^preconditioner must have an apply method"):
            GmresOptions(precond_side="right", preconditioner=M)

    def test_a_callable_preconditioner_is_accepted(self):
        A = gen_convdiff(6, 6, peclet=2.0)
        d = A.diagonal()
        rep = gmres(A, np.ones(36), opts=GmresOptions(
            rtol=1e-10, precond_side="right", preconditioner=lambda v: v / d))
        ref = gmres(A, np.ones(36), opts=GmresOptions(
            rtol=1e-10, precond_side="right", preconditioner=DiagonalPreconditioner(d)))
        assert rep.x.tobytes() == ref.x.tobytes()


class TestStructuralReductionCounts:
    """Modeled reductions of the entries that acceptance criterion 12 and
    TestHhGmres do not pin, on convdiff 10^2 (Peclet 10) at rtol 1e-14."""

    A = gen_convdiff(10, 10, peclet=10.0)
    b = np.ones(100)

    @pytest.mark.parametrize("solve", [gcr, orthodir])
    def test_gcr_like(self, solve):
        # step 1: (Aq, Aq), (r, Aq) and ||r||; every later step adds the
        # batched A-orthogonalization: 4n - 1 in n steps
        rep = solve(self.A, self.b, opts=GmresOptions(rtol=1e-14, max_iter=12))
        assert (rep.iterations, rep.reductions) == (12, 4 * 12 - 1)

    @pytest.mark.parametrize("variant", ["sgmres", "rb", "adaptive"])
    def test_simpler_family(self, variant):
        # step j (1-based): the MGS pass of A z_j over j - 1 columns and its
        # norm, then (r, v_j) and ||r||: j + 2, so n(n + 5)/2 in n steps
        rep = simpler_gmres(self.A, self.b, opts=GmresOptions(rtol=1e-14, max_iter=12),
                            variant=variant)
        assert (rep.iterations, rep.reductions) == (12, 12 * 17 // 2)

    @pytest.mark.parametrize("solve", [
        lambda A, b: fgmres(A, b, opts=GmresOptions(rtol=1e-14, restart=12, max_iter=24)),
        lambda A, b: lgmres(A, b, m1=9, m2=3, opts=GmresOptions(rtol=1e-14, max_iter=24)),
        lambda A, b: gmres_two_precision(
            A, b, opts=GmresOptions(rtol=1e-14, restart=12, max_iter=24)),
        lambda A, b: gmres_e(A, b, m1=10, m2=2, opts=GmresOptions(rtol=1e-14, max_iter=24)),
        lambda A, b: weighted_gmres(
            A, b, opts=GmresOptions(rtol=1e-14, restart=12, max_iter=24)),
    ], ids=["fgmres", "lgmres", "two-precision", "gmres-e", "weighted-gmres"])
    def test_mgs_cycles(self, solve):
        # an MGS cycle of m steps: the norm of r0, then j + 1 in step j,
        # 1 + m(m + 3)/2 in all
        rep = solve(self.A, self.b)
        assert (rep.iterations, rep.restarts) == (24, 1)
        assert rep.reductions == 2 * (1 + 12 * 15 // 2) == 182

    def test_lowsync_cycles(self):
        # a cycle of m ICWY steps: the norm of r0, step 1's projection, one
        # merged batch in each later step and the flush of the deferred
        # normalization, which sits outside any step: m + 2 per cycle
        rep = lowsync_gmres(self.A, self.b,
                            opts=GmresOptions(rtol=1e-14, restart=12, max_iter=24))
        assert (rep.iterations, rep.restarts) == (24, 1)
        assert rep.reductions == 2 * (12 + 2) == 28
        assert rep.reduction_log == [1] * 24

    def test_pipelined_cycles(self):
        # the norm of r0, then one merged batch per step and no retry: m + 1
        rep = pipelined_gmres(self.A, self.b, theta=0.0,
                              opts=GmresOptions(rtol=1e-14, restart=12, max_iter=24))
        assert (rep.iterations, rep.restarts) == (24, 1)
        assert rep.diagnostics["reorthogonalizations"] == 0
        assert rep.reductions == 2 * (12 + 1) == 26

    def test_sstep_cycles(self):
        # two per block: block 0 holds the entry normalization and its TSQR
        # tree, every later one its block Gram-Schmidt and its tree
        rep = sstep_gmres(self.A, self.b, s=4, t=3, spec="monomial",
                          opts=GmresOptions(rtol=1e-14, max_iter=24))
        assert (rep.iterations, rep.restarts) == (24, 1)
        assert rep.reductions == 12
        assert rep.reduction_log == [2] * 6

    def test_gmres_ir_counts_no_inner_reduction(self):
        # its inner binary32 solves keep their reductions on a private
        # counter, so the report has none (ROADMAP item 1)
        rep = gmres_ir(self.A, self.b)
        assert rep.converged and rep.reductions == 0
