"""Contracts of the shared restart driver, checked across the solver catalogue."""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from gmreskit import (DiagonalPreconditioner, GmresOptions, fgmres, gcr, gmres,
                      gmres_e, gmres_ir, gmres_restarted, gmres_two_precision,
                      hh_gmres, lgmres, lowsync_gmres, orthodir, pipelined_gmres,
                      simpler_gmres, sstep_gmres, weighted_gmres)
from gmreskit import mixedprec
from gmreskit.commavoid import MonomialBasis
from gmreskit.harness import SOLVER_DISPATCH, gen_convdiff, gen_spectrum
from gmreskit.linalg import CsrMatrix, HessenbergLsState
from gmreskit.ortho import OrthogonalizationBreakdown, OrthoScheme
from gmreskit.solvers import READS, _essai_weights, _givens_cycle

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


def test_ir_zero_rhs_exits_before_factorizing():
    # the singular operator would stop the binary32 LU
    rep = gmres_ir(np.zeros((4, 4)), np.zeros(4))
    assert np.array_equal(rep.x, np.zeros(4))
    assert rep.converged and rep.iterations == 0


# the diagnostics each driver solver seeds before its first cycle (SOLVE's s and t)
SEEDED = {
    "sgmres": {"kappa_z": 1.0}, "rb-sgmres": {"kappa_z": 1.0},
    "adaptive-sgmres": {"kappa_z": 1.0},
    "lgmres": {"augmented_cycles": 0}, "gmres-e": {"dropped_augmentations": 0},
    "sstep-gmres": {"basis": None, "s": 4, "t": 2},
    "pipelined-gmres": {"theta": None, "reorthogonalizations": 0},
}


@pytest.mark.parametrize("name", [name for name in SOLVE if name != "gmres-ir"])
def test_zero_rhs_keeps_the_seeded_diagnostics(problem, name):
    A, b = problem
    rep = SOLVE[name](A, np.zeros(len(b)), None, _options(A, "none"))
    assert rep.diagnostics == SEEDED.get(name, {})
    # every key a zero b reports, a nonzero b reports too
    assert set(rep.diagnostics) <= set(SOLVE[name](A, b, None, _options(A, "none")).diagnostics)


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


# SOLVE with no warm-up product: s-step gets a basis object, pipelined a theta
NO_WARMUP = dict(SOLVE, **{
    "sstep-gmres": lambda A, b, x0, o: sstep_gmres(A, b, x0, s=4, t=2,
                                                   spec=MonomialBasis(), opts=o),
    "pipelined-gmres": lambda A, b, x0, o: pipelined_gmres(A, b, x0, o, theta=0.5),
})


def _counting(product, made, tag):
    """product, appending tag to made at each call."""
    def counted(*args):
        made.append(tag)
        return product(*args)

    return counted


@pytest.mark.parametrize("name", SOLVER_DISPATCH)
def test_reported_matvecs_are_the_products_made(problem, name, monkeypatch):
    A, b = problem
    made = []
    if name == "gmres-ir":
        # the LU needs the matrix: count its binary64 and binary32 products
        low = mixedprec.low_operator
        monkeypatch.setattr(CsrMatrix, "matvec", _counting(CsrMatrix.matvec, made, "binary64"))
        monkeypatch.setattr(mixedprec, "low_operator", lambda A, dtype, n=None: _counting(
            low(A, dtype, n=n), made, "binary32"))
        rep = gmres_ir(A, b)
        assert {"binary64", "binary32"} <= set(made)
    else:
        dense = A.to_dense()
        op = _counting(lambda v: dense @ v, made, "binary64")
        rep = NO_WARMUP[name](op, b, None, GmresOptions(restart=8))
    assert rep.matvecs == len(made) > 0


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize(
    "name,arg",
    # refinement takes no x0
    [(name, arg) for name in SOLVER_DISPATCH for arg in ("b", "x0")
     if (name, arg) != ("gmres-ir", "x0")])
def test_rejects_nonfinite_b_and_x0(problem, name, arg, bad):
    A, b = problem
    b, x0 = b.copy(), np.zeros(len(b))
    (b if arg == "b" else x0)[3] = bad
    with pytest.raises(ValueError, match=f"{arg} must be finite"):
        SOLVE[name](A, b, x0, _options(A, "none"))


@pytest.mark.parametrize("imag", [0.0, 1.0])
@pytest.mark.parametrize(
    "name,arg",
    # refinement takes no x0
    [(name, arg) for name in SOLVER_DISPATCH for arg in ("b", "x0")
     if (name, arg) != ("gmres-ir", "x0")])
def test_rejects_complex_b_and_x0(problem, name, arg, imag):
    # any complex dtype, even with a zero imaginary part
    A, b = problem
    args = {"b": b, "x0": np.zeros(len(b))}
    args[arg] = args[arg].astype(complex)
    args[arg][3] += imag * 1j
    with pytest.raises(ValueError, match=f"{arg} must be real"):
        SOLVE[name](A, args["b"], args["x0"], _options(A, "none"))


@pytest.mark.parametrize("form", ["csr", "ndarray"])
@pytest.mark.parametrize("imag", [0.0, 1.0])
@pytest.mark.parametrize("name", SOLVER_DISPATCH)
def test_rejects_complex_operator(problem, name, imag, form):
    # any complex dtype, even with a zero imaginary part: a complex array
    # would otherwise be solved for its real part
    A, b = problem
    values = A.values * (1 + imag * 1j)
    C = replace(A, values=values) if form == "csr" else replace(A, values=values).to_dense()
    with pytest.raises(ValueError, match="operator must be real"):
        SOLVE[name](C, b, None, _options(A, "none"))


@pytest.mark.parametrize("form", ["csr", "ndarray"])
@pytest.mark.parametrize("entry", [np.inf, np.nan])
@pytest.mark.parametrize("name", SOLVER_DISPATCH)
def test_rejects_nonfinite_operator(problem, name, entry, form):
    # one stored entry: the solvers would otherwise spend their whole budget
    # on NaN residuals
    A, b = problem
    values = A.values.copy()
    values[7] = entry
    C = replace(A, values=values) if form == "csr" else replace(A, values=values).to_dense()
    with pytest.raises(ValueError, match="operator must be finite"):
        SOLVE[name](C, b, None, _options(A, "none"))


@pytest.mark.parametrize("name", SOLVER_DISPATCH)
def test_rejects_b_that_is_not_1d(problem, name):
    A, b = problem
    with pytest.raises(ValueError, match=r"b must be 1-D, got shape \(8, 8\)"):
        SOLVE[name](A, b.reshape(8, 8), None, _options(A, "none"))
    # a scalar b: the augmented entries derive their budget from len(b)
    with pytest.raises(ValueError, match=r"b must be 1-D, got shape \(\)"):
        SOLVE[name](A, 3.0, None, _options(A, "none"))


@pytest.mark.parametrize("name", SOLVER_DISPATCH)
def test_rejects_b_of_another_length_before_any_product(problem, name, monkeypatch):
    # no warm-up, no factorization and no product runs before the check
    A, b = problem
    calls = []
    for method in ("matvec", "to_dense"):
        monkeypatch.setattr(CsrMatrix, method, lambda self, *a, m=method: calls.append(m))
    with pytest.raises(ValueError, match="dimension mismatch: operator is 64x64, "
                                         "b has length 63"):
        SOLVE[name](A, b[:-1], None, _options(A, "none"))
    assert calls == []


@pytest.mark.parametrize("shape", [(63,), (64, 1)])
@pytest.mark.parametrize("name", [n for n in SOLVER_DISPATCH if n != "gmres-ir"])
def test_rejects_x0_of_another_shape(problem, name, shape):
    A, b = problem
    with pytest.raises(ValueError, match="x0 must "):
        SOLVE[name](A, b, np.zeros(shape), _options(A, "none"))


@pytest.mark.parametrize("tol,breakdown_at,raise_at,status,ncols,resumed", [
    (0.0, None, None, "exhausted", 2, [0, 1, 2]),   # capped at ls's two columns
    (np.inf, None, None, "converged", 1, []),
    (0.0, 2, None, "breakdown", 2, [0]),
    (0.0, None, 1, "breakdown", 1, [0]),
])
def test_givens_cycle_stops_and_resumes_per_contract(tol, breakdown_at, raise_at,
                                                     status, ncols, resumed):
    H = np.triu(np.arange(1.0, 13.0).reshape(4, 3), -1)
    seen = []

    def steps():
        for j in range(3):
            if j == raise_at:
                raise OrthogonalizationBreakdown("unstable step")
            yield H, j + 1, j + 1 == breakdown_at
            seen.append(j)

    ls = HessenbergLsState(2, 1.0)
    rhos, got = _givens_cycle(lambda rho: rho <= tol, ls, steps())
    assert (got, ls.ncols, seen) == (status, ncols, resumed)
    assert len(rhos) == ncols and rhos[-1] == ls.rho


def _reachable_array_bytes(obj):
    """Bytes of the arrays obj reaches through attributes, dicts, lists and
    tuples; a view counts the whole array it keeps alive."""
    owners, seen, stack = {}, set(), [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            while isinstance(o.base, np.ndarray):
                o = o.base
            owners[id(o)] = o.nbytes
        elif isinstance(o, dict):
            stack.extend(o.values())
        elif isinstance(o, (list, tuple)):
            stack.extend(o)
        elif hasattr(o, "__dict__"):
            stack.extend(vars(o).values())
    return sum(owners.values())


@pytest.mark.parametrize("name", SOLVER_DISPATCH)
def test_report_keeps_no_krylov_basis(name):
    # a restarted solve's report holds x and at most an (m+1) x m Hessenberg,
    # not the N x (m+1) basis of a cycle
    A = gen_convdiff(32, 32, peclet=10.0)
    N, m = A.nrows, 8
    b = np.random.default_rng(3).standard_normal(N)
    rep = SOLVE[name](A, b, None, GmresOptions(rtol=1e-14, restart=m, max_iter=3 * m))
    assert _reachable_array_bytes(rep) <= 3 * (N + m * m) * 8


@pytest.mark.parametrize("solve,bases", [
    (gmres_restarted, 1.5),
    (lowsync_gmres, 1.5),
    (pipelined_gmres, 2.5),  # V and its companion W
])
def test_restarted_solve_holds_one_basis_at_a_time(solve, bases):
    A = gen_convdiff(64, 64, peclet=10.0)
    N, m = A.nrows, 30
    b = np.random.default_rng(5).standard_normal(N)
    A.matvec(b)  # the product's cached layout is not the solve's
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rep = solve(A, b, opts=GmresOptions(rtol=1e-14, restart=m, max_iter=3 * m))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.restarts == 2
    assert peak < bases * N * (m + 1) * 8


def test_householder_solve_holds_one_basis_of_reflectors():
    # the reflectors are the basis's only store: each v_j is rebuilt in its step
    A = gen_convdiff(64, 64, peclet=10.0)
    N, m = A.nrows, 30
    b = np.random.default_rng(5).standard_normal(N)
    A.matvec(b)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rep = hh_gmres(A, b, opts=GmresOptions(rtol=1e-14, restart=m, max_iter=3 * m))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.restarts == 2
    assert peak < 1.5 * N * (m + 1) * 8


# the entries whose cycle length is fixed: they accept restart and ignore it
FIXED_CYCLE = {"sgmres": simpler_gmres, "rb-sgmres": simpler_gmres,
               "adaptive-sgmres": simpler_gmres, "gcr": gcr, "orthodir": orthodir,
               "lgmres": lgmres, "gmres-e": gmres_e, "sstep-gmres": sstep_gmres}


def _use_case(name, problem):
    """(A, b, the default options, solve(opts)) of one entry; refinement gets
    its inner options and a problem on which its inner solves take 2 steps."""
    if name == "gmres-ir":
        A = gen_spectrum(np.geomspace(1e-6, 1.0, 64), seed=5)
        b = np.random.default_rng(8).standard_normal(64)
        return A, b, GmresOptions(rtol=1e-4, restart=50, max_iter=200), \
            lambda o: gmres_ir(A, b, inner_opts=o)
    A, b = problem
    return A, b, GmresOptions(), lambda o: SOLVE[name](A, b, None, o)


def _non_default(field, A, calls):
    """Keywords that set field off its default; precond_side comes with a
    preconditioner, and the callback records its iterations in calls."""
    M = DiagonalPreconditioner(A.diagonal())
    return {
        "rtol": {"rtol": 1e-2},
        "max_iter": {"max_iter": 1},
        "restart": {"restart": 1},
        "scheme": {"scheme": "cgs2"},
        "precond_side": {"precond_side": "left", "preconditioner": M},
        "preconditioner": {"preconditioner": M},
        "weight": {"weight": np.linspace(0.5, 2.0, A.shape[0])},
        "simpler_omega": {"simpler_omega": 0.9},
        "iteration_callback": {"iteration_callback": lambda k, value: calls.append(k)},
    }[field]


def _result(rep):
    return (rep.x.tobytes(), np.asarray(rep.residual_history).tobytes(),
            rep.iterations, rep.restarts, rep.matvecs, rep.reductions, rep.termination)


@pytest.mark.parametrize("field", [f.name for f in fields(GmresOptions)])
@pytest.mark.parametrize("name", SOLVER_DISPATCH)
def test_every_option_is_used_or_refused(problem, name, field):
    A, b, default, solve = _use_case(name, problem)
    calls = []
    opts = replace(default, **_non_default(field, A, calls))
    if field == "restart" and name in FIXED_CYCLE:
        assert _result(solve(opts)) == _result(solve(default))
        assert "opts.restart is ignored" in " ".join(FIXED_CYCLE[name].__doc__.split())
        return
    try:
        rep = solve(opts)
    except ValueError as exc:
        assert f"opts.{field}" in str(exc)
        assert field not in READS[name][0] or field in ("scheme", "preconditioner")
        return
    assert field in READS[name][0]
    assert _result(rep) != _result(solve(default)) or calls


@pytest.mark.parametrize("scheme", [s.value for s in OrthoScheme])
@pytest.mark.parametrize("name", SOLVER_DISPATCH)
def test_each_entry_runs_the_schemes_it_declares(problem, name, scheme):
    _, _, default, solve = _use_case(name, problem)
    opts = replace(default, scheme=scheme)
    if scheme == "mgs" or scheme in READS[name][1]:
        assert solve(opts).iterations > 0
    else:
        with pytest.raises(ValueError, match="opts.scheme"):
            solve(opts)


def test_hh_gmres_is_gmres_with_the_householder_scheme(problem):
    A, b = problem
    opts = GmresOptions(rtol=1e-10, restart=8)
    hh = hh_gmres(A, b, opts=opts)
    assert hh.converged and hh.restarts >= 1
    assert _result(hh) == _result(gmres(A, b, opts=replace(opts, scheme="householder")))
