"""Contracts of the shared restart driver, checked across the solver catalogue."""

import numpy as np
import pytest

from gmreskit import (DiagonalPreconditioner, GmresOptions, fgmres, gcr, gmres,
                      gmres_e, gmres_ir, gmres_restarted, gmres_two_precision,
                      hh_gmres, lgmres, lowsync_gmres, orthodir, pipelined_gmres,
                      simpler_gmres, sstep_gmres, weighted_gmres)
from gmreskit.harness import SOLVER_DISPATCH, gen_convdiff
from gmreskit.solvers import _essai_weights

# dispatch name -> solve(A, b, x0, opts); every restarting entry cycles 8 steps
SOLVE = {
    "gmres": lambda A, b, x0, o: gmres(A, b, x0, o),
    "gmres-restarted": lambda A, b, x0, o: gmres_restarted(A, b, x0, o),
    "hh-gmres": lambda A, b, x0, o: hh_gmres(A, b, x0, o),
    "sgmres": lambda A, b, x0, o: simpler_gmres(A, b, x0, o, variant="sgmres"),
    "rb-sgmres": lambda A, b, x0, o: simpler_gmres(A, b, x0, o, variant="rb"),
    "adaptive-sgmres": lambda A, b, x0, o: simpler_gmres(A, b, x0, o),
    "gcr": lambda A, b, x0, o: gcr(A, b, x0, o),
    "orthodir": lambda A, b, x0, o: orthodir(A, b, x0, o),
    "fgmres": lambda A, b, x0, o: fgmres(A, b, x0, o),
    "lgmres": lambda A, b, x0, o: lgmres(A, b, x0, m1=6, m2=2, opts=o),
    "gmres-e": lambda A, b, x0, o: gmres_e(A, b, x0, m1=6, m2=2, opts=o),
    "weighted-gmres": lambda A, b, x0, o: weighted_gmres(A, b, x0, o),
    "sstep-gmres": lambda A, b, x0, o: sstep_gmres(A, b, x0, s=4, t=2, opts=o),
    "pipelined-gmres": lambda A, b, x0, o: pipelined_gmres(A, b, x0, o),
    "lowsync-gmres": lambda A, b, x0, o: lowsync_gmres(A, b, x0, o),
    "two-precision": lambda A, b, x0, o: gmres_two_precision(A, b, x0, o),
    # refinement starts from its own LU solve and takes neither x0 nor opts
    "gmres-ir": lambda A, b, x0, o: gmres_ir(A, b),
}
PRECONDITIONED = ("gmres", "gmres-restarted", "hh-gmres", "weighted-gmres",
                  "lowsync-gmres", "two-precision")
RESTARTING = ("gmres-restarted", "hh-gmres", "fgmres", "lgmres", "gmres-e",
              "weighted-gmres", "sstep-gmres", "pipelined-gmres", "lowsync-gmres",
              "two-precision")


@pytest.fixture(scope="module")
def problem():
    A = gen_convdiff(8, 8, peclet=10.0)
    return A, np.random.default_rng(8).standard_normal(64)


def _options(A, side, **kw):
    if side == "none":
        return GmresOptions(restart=8, **kw)
    M = DiagonalPreconditioner(np.diag(A.to_dense()))
    return GmresOptions(restart=8, precond_side=side, preconditioner=M, **kw)


@pytest.mark.parametrize(
    "name,side",
    [(name, "none") for name in SOLVER_DISPATCH] + [(name, "left") for name in PRECONDITIONED])
def test_zero_rhs_and_solved_x0(problem, name, side):
    A, b = problem
    opts = _options(A, side)
    rep = SOLVE[name](A, np.zeros(len(b)), None, opts)
    assert np.array_equal(rep.x, np.zeros(len(b)))
    assert rep.converged and rep.iterations == 0
    if name == "gmres-ir":
        return
    # an x0 that already solves the system exits at iteration 0, and the
    # checkpoint holds the true residual even under left preconditioning
    x0 = np.linalg.solve(A.to_dense(), b)
    rep = SOLVE[name](A, b, x0, opts)
    assert rep.converged and rep.iterations == 0
    assert rep.true_residual_checkpoints[-1][1] == np.linalg.norm(b - A.matvec(x0))


@pytest.mark.parametrize("name", RESTARTING)
def test_progress_value_is_history_over_tol_ref(problem, name):
    A, b = problem
    seen = []
    weight = np.linspace(0.5, 2.0, len(b)) if name == "weighted-gmres" else None
    opts = _options(A, "none", rtol=1e-10, max_iter=40, weight=weight,
                    iteration_callback=lambda k, value: seen.append((k, value)))
    rep = SOLVE[name](A, b, None, opts)
    assert rep.restarts >= 1
    tol_ref = np.linalg.norm(b) if weight is None else np.sqrt(b @ (weight * b))
    assert [k for k, _ in seen] == list(range(1, rep.iterations + 1))
    for k, value in seen:
        assert value == pytest.approx(rep.residual_history[k] / tol_ref, rel=1e-14)


def test_essai_refresh_reference_under_left_preconditioning(problem):
    # the refreshed tolerance reference is ||M^-1 b||_w, as at the initial check
    A, b = problem
    seen = []
    opts = _options(A, "left", iteration_callback=lambda k, value: seen.append(value))
    rep = weighted_gmres(A, b, None, opts)
    Minv_b = b / np.diag(A.to_dense())
    w = _essai_weights(Minv_b)
    tol_ref = np.sqrt(Minv_b @ (w * Minv_b))
    assert seen[0] == pytest.approx(rep.residual_history[1] / tol_ref, rel=1e-14)


@pytest.mark.parametrize("name", ["gcr", "orthodir"])
def test_gcr_like_spends_no_product_past_its_budget(name):
    A = gen_convdiff(10, 10, peclet=10.0)
    b = np.ones(100)
    opts = GmresOptions(max_iter=13)
    rep = SOLVE[name](A, b, None, opts)
    ref = gmres(A, b, None, opts)
    assert rep.iterations == ref.iterations == 13
    assert rep.matvecs == ref.matvecs
