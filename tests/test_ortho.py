import ast
from pathlib import Path

import numpy as np
import pytest

import gmreskit
from gmreskit.harness import gen_convdiff, gen_spectrum
from gmreskit.linalg import forward_substitute_unit
from gmreskit.ortho import (
    ArnoldiProcess,
    OrthoScheme,
    ReductionCounter,
    arnoldi,
    basis,
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
        # Arnoldi on S A S^-1 from S r0, S = D^(1/2): the unscaled basis
        # S^-1 V is D-orthonormal and keeps A's relation with the same Hbar
        A = gen_spectrum(np.linspace(1.0, 20.0, 20), seed=5).to_dense()
        r0 = rng.standard_normal(20)
        d = rng.random(20) + 0.5
        s = np.sqrt(d)
        dec = arnoldi(lambda v: s * (A @ (v / s)), s * r0, 10, OrthoScheme.MGS)
        V = dec.V / s[:, None]
        rel = np.linalg.norm(A @ V[:, :10] - V @ dec.Hbar)
        assert rel <= 1e-12 * np.linalg.norm(A)
        G = V.T @ (d[:, None] * V)
        assert np.linalg.norm(G - np.eye(G.shape[0])) <= 1e-10


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
        with c.step():
            c.count(2)
        c.mark()
        assert c.total == 3
        assert c.per_step == [2]
        assert c.marks == [3]

    def test_batch_counts_one(self, rng):
        c = ReductionCounter()
        B, w = rng.standard_normal((10, 3)), rng.standard_normal(10)
        with c.step():
            with c.batch():
                c.dots(B, w)
                c.dots(w, w)
                c.norm(w)
            with c.batch():
                pass
            c.norm(w)
        assert (c.total, c.per_step) == (3, [3])

    def test_weighted_primitives(self, rng):
        # the D-inner product is the Euclidean one of operands scaled by
        # D^(1/2), at one reduction each
        c = ReductionCounter()
        B, w = rng.standard_normal((10, 3)), rng.standard_normal(10)
        d = rng.uniform(0.5, 2.0, 10)
        s = np.sqrt(d)
        np.testing.assert_allclose(c.dots(s[:, None] * B, s * w), B.T @ np.diag(d) @ w,
                                   rtol=1e-13)
        assert c.norm(s * w) == pytest.approx(np.sqrt(w @ np.diag(d) @ w), rel=1e-14)
        assert c.norm(w) == np.linalg.norm(w)
        assert c.total == 3

    def test_step_closes_its_bucket_on_a_raise(self):
        c = ReductionCounter()
        with pytest.raises(ZeroDivisionError):
            with c.step():
                c.count()
                1 / 0
        c.count()
        assert (c.total, c.per_step) == (2, [1])

    def test_only_the_counter_calls_count(self):
        # every modeled reduction is counted by the primitive that computes
        # it, so no module outside ReductionCounter counts by hand
        calls = []
        for path in sorted(Path(gmreskit.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            inside = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                      and c.name == "ReductionCounter" for n in ast.walk(c)}
            calls += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                      if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                      and n.func.attr == "count" and id(n) not in inside]
        assert calls == []


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


def reference_mgs_pass(V, k, w, counter):
    """mgs_pass as it was before ReductionCounter.sweep ran its loop, kept
    verbatim as the oracle its bytes must match."""
    h = np.zeros(k, dtype=w.dtype)
    if k:
        w = w.astype(np.result_type(w, V))
        tmp = np.empty_like(w)
    for i in range(k):
        v = V[:, i]
        h[i] = counter.dots(v, w)
        np.multiply(v, h[i], out=tmp)
        w -= tmp
    return h, w, counter.norm(w)


class TestMgsSweepBytes:
    """mgs_pass through ReductionCounter.sweep keeps the reference's bytes
    and counts, whatever the dtypes of V and w."""

    @pytest.mark.parametrize("v_dtype, w_dtype", [
        (np.float64, np.float64), (np.float32, np.float32),
        (np.float64, np.float32), (np.float32, np.float64)])
    @pytest.mark.parametrize("k", [0, 1, 5, 17])
    def test_same_bytes_as_reference(self, rng, v_dtype, w_dtype, k):
        V = np.asfortranarray(np.linalg.qr(rng.standard_normal((41, 18)))[0], v_dtype)
        w = (rng.standard_normal(41) * np.logspace(-3, 3, 41)).astype(w_dtype)
        w[::7] = [0.0, -0.0, 0.0, -0.0, 0.0, -0.0]
        ours, ref = ReductionCounter(), ReductionCounter()
        h, w_out, h_sub = mgs_pass(V, k, w.copy(), ours)
        h_ref, w_ref, h_sub_ref = reference_mgs_pass(V, k, w.copy(), ref)
        assert h.dtype == h_ref.dtype == w_dtype
        assert w_out.dtype == w_ref.dtype
        assert h.tobytes() == h_ref.tobytes()
        assert w_out.tobytes() == w_ref.tobytes()
        assert np.float64(h_sub).tobytes() == np.float64(h_sub_ref).tobytes()
        assert ours.total == ref.total == k + 1

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_w_a_column_of_v(self, rng, dtype):
        # an operator may return its input: V stays as it was
        V = basis(30, 6, dtype)
        V[:] = np.linalg.qr(rng.standard_normal((30, 6)))[0]
        before = V.copy()
        h, w, h_sub = mgs_pass(V, 4, V[:, 3], ReductionCounter())
        h_ref, w_ref, h_sub_ref = reference_mgs_pass(V, 4, V[:, 3], ReductionCounter())
        assert np.array_equal(V, before)
        assert (h.tobytes(), w.tobytes(), h_sub) == (h_ref.tobytes(), w_ref.tobytes(), h_sub_ref)
        # k = 0 hands back w itself, projected against nothing
        w0 = V[:, 2]
        h, w, h_sub = mgs_pass(V, 0, w0, ReductionCounter())
        assert h.shape == (0,) and w is w0 and h_sub == np.linalg.norm(w0)

    def test_counts_inside_step_and_batch(self, rng):
        V = np.linalg.qr(rng.standard_normal((20, 6)))[0]
        c = ReductionCounter()
        with c.step():
            c.sweep(V, np.zeros(4), rng.standard_normal(20))
        with c.step():
            with c.batch():
                c.sweep(V, np.zeros(5), rng.standard_normal(20))
        assert (c.total, c.per_step) == (5, [4, 1])

    def test_per_step_of_an_mgs_process(self, rng):
        # step j projects against j + 1 columns and takes one norm
        A = well_conditioned(rng, 15)
        proc = ArnoldiProcess(A, rng.standard_normal(15), 6, OrthoScheme.MGS)
        for _ in range(6):
            proc.step()
        assert proc.counter.per_step == [j + 2 for j in range(6)]
        assert proc.counter.total == 1 + sum(j + 2 for j in range(6))


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
        # on the scaled operator S A S^-1, S = D^(1/2), as weighted GMRES runs
        A = well_conditioned(rng, 15)
        d = rng.random(15) + 0.5
        s = np.sqrt(d)
        op = lambda v: s * (A @ (v / s))
        proc = ArnoldiProcess(op, s * rng.standard_normal(15), 4, OrthoScheme.MGS)
        for _ in range(3):
            proc.step()
        h, w, h_sub = mgs_pass(proc.V, 4, op(proc.V[:, 3]), ReductionCounter())
        proc.step()
        assert np.array_equal(proc.H[:4, 3], h)
        assert proc.H[4, 3] == h_sub
        assert np.array_equal(proc.V[:, 4], w / h_sub)
        # unscaled, D-orthogonal to the unscaled basis it was projected against
        V = proc.V[:, :4] / s[:, None]
        assert np.max(np.abs(V.T @ (d * (w / s)))) <= 1e-13 * h_sub

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
