"""The three workloads: what one pass sets up, which operations it runs, and
how their outputs are checked.

A pass is set-up (operators, right-hand sides, preconditioners, s-step
basis parameters), then every operation in a fixed order.  The seed draws
only the right-hand sides.  Budgeted solves use a tolerance no seed reaches,
so they stop at their budget and their iterations, matvecs and reductions
are constants of the workload; each is still checked against a stated
accuracy that every seed meets.
"""

from __future__ import annotations

import os
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import checks
import reference

UNREACHED = 1e-14        # relative tolerance of the budgeted solves
BOUND_GRID = 32          # field-of-values directions (`gmreskit run` uses 64)


def jacobi_diagonal(A):
    rows = np.repeat(np.arange(A.nrows), np.diff(A.row_ptr))
    on_diag = A.col_idx == rows
    d = np.zeros(A.nrows)
    d[rows[on_diag]] = A.values[on_diag]
    return d


@dataclass
class Op:
    """One operation of a pass.

    kind is "solve" (timed into solve_s) or "bound".  A budgeted solve names
    its budget and must run exactly that many iterations; otherwise it must
    converge.  accuracy bounds its final relative true residual.
    """

    label: str
    kind: str
    run: object                 # (gk, ctx, results) -> result
    accuracy: float | None = None
    budget: int | None = None
    needs: tuple = ()


@dataclass
class PassResult:
    setup_s: float
    solve_s: float
    pass_s: float
    ctx: dict | None
    results: dict                   # label -> SolveReport / BoundReport
    errors: dict                    # label -> message
    solve_counts: dict              # label -> (iterations, matvecs, reductions)

    def totals(self):
        its, mvs, reds = zip(*self.solve_counts.values()) if self.solve_counts \
            else ((), (), ())
        return {"iterations": sum(its), "matvecs": sum(mvs), "reductions": sum(reds)}


def run_pass(gk, workload, seed):
    """Set up and run every operation once; checks are left to the caller."""
    t0 = perf_counter()
    ctx, setup_error = None, None
    try:
        ctx = workload.setup(gk, np.random.default_rng(seed))
    except Exception:  # the benchmark records the failure and carries on
        setup_error = _report_error(workload.name, "set-up")
    t1 = perf_counter()
    results, errors, solve_s = {}, {}, 0.0
    for op in workload.ops:
        if ctx is None:
            errors[op.label] = setup_error
            continue
        missing = [n for n in op.needs if n not in results]
        if missing:
            errors[op.label] = f"input {missing[0]} failed"
            continue
        start = perf_counter()
        try:
            results[op.label] = op.run(gk, ctx, results)
        except Exception:  # one failed operation must not stop the others
            errors[op.label] = _report_error(workload.name, op.label)
        if op.kind == "solve":
            solve_s += perf_counter() - start
    t2 = perf_counter()
    counts = {op.label: (results[op.label].iterations, results[op.label].matvecs,
                         results[op.label].reductions)
              for op in workload.ops if op.kind == "solve" and op.label in results}
    return PassResult(setup_s=t1 - t0, solve_s=solve_s, pass_s=t2 - t0, ctx=ctx,
                      results=results, errors=errors, solve_counts=counts)


def _report_error(workload, label):
    text = traceback.format_exc()
    print(f"[{workload}] {label} failed:\n{text}", file=sys.stderr)
    return text.strip().splitlines()[-1]


def check_solves(workload, ref_of, res):
    """Residual, budget and monotonicity checks common to every solve."""
    problems = []
    for op in workload.ops:
        rep = res.results.get(op.label)
        if op.kind != "solve" or rep is None:
            continue
        ref, b = ref_of(op.label)
        problems += checks.solve_residual(op.label, ref, b, rep, op.accuracy)
        if op.budget is not None and rep.iterations != op.budget:
            problems.append(f"{op.label}: stopped at {rep.iterations} of its "
                            f"{op.budget}-iteration budget ({rep.termination})")
        if op.budget is None and rep.termination != "converged":
            problems.append(f"{op.label}: ended {rep.termination}, not converged")
        if op.label in workload.minimal_residual:
            problems += checks.monotone(op.label, rep)
    return problems


def check_agreement(workload, res):
    ref_label = workload.agreement_ref
    base = res.results.get(ref_label)
    problems = []
    for label in workload.agreement:
        rep = res.results.get(label)
        if base is not None and rep is not None:
            problems += checks.agree(label, rep, ref_label, base, workload.RESTART)
    return problems


def _opts(gk, **kw):
    kw.setdefault("rtol", UNREACHED)
    return gk.GmresOptions(**kw)


# ---------------------------------------------------------------------------


class SparseKrylov:
    """convdiff 128x128 (N=16384) read from Matrix Market; six solves whose
    16384x51 basis (6.7 MB) exceeds the L2 cache, so sparse matvec and
    orthogonalization do nearly all the work."""

    name = "sparse-krylov"
    NX, PECLET, RESTART, BUDGET, S, POLY_DEGREE = 128, 10.0, 50, 300, 5, 5
    ACCURACY = 1e-3          # relative residual every seed gets below in 300

    def __init__(self, workdir):
        self.path = os.path.join(workdir, f"convdiff{self.NX}.mtx")
        R, K = self.RESTART, self.BUDGET

        def gmres(scheme):
            return lambda gk, c, _: gk.gmres(
                c["A"], c["b"], opts=_opts(gk, max_iter=K, restart=R, scheme=scheme))

        self.ops = [
            Op("mgs", "solve", gmres("mgs"), self.ACCURACY, K),
            Op("cgs2", "solve", gmres("cgs2"), self.ACCURACY, K),
            Op("lowsync", "solve", lambda gk, c, _: gk.lowsync_gmres(
                c["A"], c["b"], opts=_opts(gk, max_iter=K, restart=R)), self.ACCURACY, K),
            Op("pipelined", "solve", lambda gk, c, _: gk.pipelined_gmres(
                c["A"], c["b"], opts=_opts(gk, max_iter=K, restart=R)), self.ACCURACY, K),
            Op("sstep", "solve", lambda gk, c, _: gk.sstep_gmres(
                c["A"], c["b"], s=self.S, t=R // self.S, spec=c["spec"],
                opts=_opts(gk, max_iter=K)), self.ACCURACY, K),
            Op("poly-cgs2", "solve", lambda gk, c, _: gk.gmres(
                c["A"], c["b"], opts=_opts(gk, rtol=1e-12, restart=R, scheme="cgs2",
                                           precond_side="right",
                                           preconditioner=c["M"])), 1e-12),
        ]
        self.minimal_residual = {op.label for op in self.ops}
        self.agreement_ref = "mgs"
        self.agreement = ("cgs2", "lowsync", "pipelined", "sstep")

    def prepare(self, gk):
        """Write the operator to a Matrix Market file before any timing."""
        self.ref = reference.convdiff(self.NX, self.NX, self.PECLET)
        A = gk.gen_convdiff(self.NX, self.NX, peclet=self.PECLET)
        gk.mm_write(self.path, A)
        return [f"gen_convdiff: {p}" for p in reference.same_csr(A, self.ref)]

    def setup(self, gk, rng):
        A = gk.mm_read(self.path)
        b = rng.standard_normal(A.nrows)
        spec = gk.commavoid.newton_basis_from_warmup(A, b, self.S)
        poly = gk.build_poly_preconditioner(A, b, self.POLY_DEGREE)
        return {"A": A, "b": b, "spec": spec,
                "M": gk.polynomial_preconditioner(A, poly)}

    def check(self, res):
        c = res.ctx
        problems = [f"mm_read: {p}" for p in reference.same_csr(c["A"], self.ref)]
        problems += check_solves(self, lambda label: (self.ref, c["b"]), res)
        return problems + check_agreement(self, res)


class Catalogue:
    """convdiff 64x64 (N=4096) through every binary64 dispatch entry at fixed
    budgets, then bound reports on full solves that end at the grade.  The
    4096x31 basis (1 MB) fits in L2, so interpreter overhead, the Hessenberg
    least squares and the small dense kernels weigh more here."""

    name = "catalogue"
    NX, PECLET, RESTART, CYCLES, S, POLY_DEGREE = 64, 10.0, 30, 3, 5, 5
    BOUND_NX, BOUND_PECLET = 4, 2.0
    SPECTRUM = (1.0, 12.0, 15)       # normal operator, eigenvalues linspace
    SPECTRUM_SEED = 21
    POLY_BUDGET = 15

    def __init__(self, workdir):
        R = self.RESTART
        K = R * self.CYCLES
        budgeted = {
            "gmres-mgs": lambda gk, c, _: gk.gmres(c["A"], c["b"], opts=_opts(
                gk, max_iter=K, restart=R, scheme="mgs")),
            "gmres-cgs": lambda gk, c, _: gk.gmres(c["A"], c["b"], opts=_opts(
                gk, max_iter=K, restart=R, scheme="cgs")),
            "gmres-cgs2": lambda gk, c, _: gk.gmres(c["A"], c["b"], opts=_opts(
                gk, max_iter=K, restart=R, scheme="cgs2")),
            "gmres-cgsp": lambda gk, c, _: gk.gmres(c["A"], c["b"], opts=_opts(
                gk, max_iter=K, restart=R, scheme="cgsp")),
            "gmres-icwy": lambda gk, c, _: gk.gmres(c["A"], c["b"], opts=_opts(
                gk, max_iter=K, restart=R, scheme="icwy")),
            "gmres-restarted": lambda gk, c, _: gk.gmres_restarted(
                c["A"], c["b"], opts=_opts(gk, max_iter=K, restart=R)),
            "hh-gmres": lambda gk, c, _: gk.hh_gmres(
                c["A"], c["b"], opts=_opts(gk, max_iter=K, restart=R)),
            "fgmres": lambda gk, c, _: gk.fgmres(
                c["A"], c["b"], opts=_opts(gk, max_iter=K, restart=R)),
            "lgmres": lambda gk, c, _: gk.lgmres(
                c["A"], c["b"], m1=R - 3, m2=3, opts=_opts(gk, max_iter=K)),
            "gmres-e": lambda gk, c, _: gk.gmres_e(
                c["A"], c["b"], m1=R - 2, m2=2, opts=_opts(gk, max_iter=K)),
            "weighted-gmres": lambda gk, c, _: gk.weighted_gmres(
                c["A"], c["b"], opts=_opts(gk, max_iter=K, restart=R)),
            "sstep-gmres": lambda gk, c, _: gk.sstep_gmres(
                c["A"], c["b"], s=self.S, t=R // self.S, spec=c["spec"],
                opts=_opts(gk, max_iter=K)),
            "pipelined-gmres": lambda gk, c, _: gk.pipelined_gmres(
                c["A"], c["b"], opts=_opts(gk, max_iter=K, restart=R)),
            "lowsync-gmres": lambda gk, c, _: gk.lowsync_gmres(
                c["A"], c["b"], opts=_opts(gk, max_iter=K, restart=R)),
            "jacobi": lambda gk, c, _: gk.gmres(c["A"], c["b"], opts=_opts(
                gk, max_iter=K, restart=R, precond_side="right",
                preconditioner=c["D"])),
        }
        # unrestarted solvers keep every direction; one cycle's worth of them
        single = {
            "sgmres": lambda gk, c, _: gk.simpler_gmres(
                c["A"], c["b"], opts=_opts(gk, max_iter=R), variant="sgmres"),
            "rb-sgmres": lambda gk, c, _: gk.simpler_gmres(
                c["A"], c["b"], opts=_opts(gk, max_iter=R), variant="rb"),
            "adaptive-sgmres": lambda gk, c, _: gk.simpler_gmres(
                c["A"], c["b"], opts=_opts(gk, max_iter=R), variant="adaptive"),
            "gcr": lambda gk, c, _: gk.gcr(c["A"], c["b"], opts=_opts(gk, max_iter=R)),
            "orthodir": lambda gk, c, _: gk.orthodir(
                c["A"], c["b"], opts=_opts(gk, max_iter=R)),
        }
        self.ops = [Op(k, "solve", f, self.ACCURACY[k], K) for k, f in budgeted.items()]
        self.ops += [Op(k, "solve", f, self.ACCURACY[k], R) for k, f in single.items()]
        P = self.POLY_BUDGET
        self.ops.append(Op("poly", "solve", lambda gk, c, _: gk.gmres(
            c["A"], c["b"], opts=_opts(gk, max_iter=P, restart=R, precond_side="right",
                                       preconditioner=c["M"])),
            self.ACCURACY["poly"], P))
        # full solves to the grade, then a bound report for each
        grade = {
            "grade-mgs": lambda gk, c, _: gk.gmres(c["A4"], c["b4"], opts=_opts(gk)),
            "grade-hh": lambda gk, c, _: gk.hh_gmres(c["A4"], c["b4"], opts=_opts(gk)),
            "grade-lowsync": lambda gk, c, _: gk.lowsync_gmres(
                c["A4"], c["b4"], opts=_opts(gk)),
            "grade-spectrum": lambda gk, c, _: gk.gmres(c["As"], c["bs"], opts=_opts(gk)),
        }
        self.ops += [Op(k, "solve", f, 1e-10) for k, f in grade.items()]
        for k in grade:
            op = "A4" if k != "grade-spectrum" else "As"
            self.ops.append(Op("bounds-" + k[6:], "bound", lambda gk, c, r, k=k, op=op:
                               gk.bound_report(c[op], r[k], grid_count=BOUND_GRID),
                               needs=(k,)))
        self.minimal_residual = {op.label for op in self.ops if op.kind == "solve"}
        self.agreement_ref = "gmres-mgs"
        self.agreement = ("gmres-cgs", "gmres-cgs2", "gmres-cgsp", "gmres-icwy",
                          "gmres-restarted", "hh-gmres", "fgmres", "lgmres",
                          "gmres-e", "sstep-gmres", "pipelined-gmres",
                          "lowsync-gmres", "jacobi", "sgmres", "rb-sgmres",
                          "adaptive-sgmres", "gcr", "orthodir")

    # stated accuracy of each budgeted solve after its budget, every seed
    ACCURACY = {
        "gmres-mgs": 0.1, "gmres-cgs": 0.1, "gmres-cgs2": 0.1, "gmres-cgsp": 0.1,
        "gmres-icwy": 0.1, "gmres-restarted": 0.1, "hh-gmres": 0.1, "fgmres": 0.1,
        "lgmres": 0.1, "gmres-e": 0.1, "weighted-gmres": 0.1, "sstep-gmres": 0.1,
        "pipelined-gmres": 0.1, "lowsync-gmres": 0.1, "jacobi": 0.1,
        "sgmres": 0.5, "rb-sgmres": 0.5, "adaptive-sgmres": 0.5, "gcr": 0.5,
        "orthodir": 0.5, "poly": 0.2,
    }

    def prepare(self, gk):
        self.ref = reference.convdiff(self.NX, self.NX, self.PECLET)
        self.ref4 = reference.convdiff(self.BOUND_NX, self.BOUND_NX, self.BOUND_PECLET)
        return []

    def setup(self, gk, rng):
        A = gk.gen_convdiff(self.NX, self.NX, peclet=self.PECLET)
        b = rng.standard_normal(A.nrows)
        spec = gk.commavoid.newton_basis_from_warmup(A, b, self.S)
        poly = gk.build_poly_preconditioner(A, b, self.POLY_DEGREE)
        A4 = gk.gen_convdiff(self.BOUND_NX, self.BOUND_NX, peclet=self.BOUND_PECLET)
        As = gk.gen_spectrum(np.linspace(*self.SPECTRUM), seed=self.SPECTRUM_SEED)
        return {"A": A, "b": b, "spec": spec,
                "D": gk.DiagonalPreconditioner(jacobi_diagonal(A)),
                "M": gk.polynomial_preconditioner(A, poly),
                "A4": A4, "b4": rng.standard_normal(A4.nrows), "As": As, "bs": rng.standard_normal(As.nrows)}

    def check(self, res):
        c = res.ctx
        problems = [f"gen_convdiff {self.NX}: {p}"
                    for p in reference.same_csr(c["A"], self.ref)]
        problems += [f"gen_convdiff {self.BOUND_NX}: {p}"
                     for p in reference.same_csr(c["A4"], self.ref4)]
        spec_ref = reference.csr_of(c["As"])
        eigs = np.linalg.eigvalsh(spec_ref.dense())
        if not np.allclose(eigs, np.linspace(*self.SPECTRUM), rtol=0, atol=1e-12):
            problems.append("gen_spectrum: eigenvalues differ from the prescribed ones")

        def ref_of(label):
            if label == "grade-spectrum":
                return spec_ref, c["bs"]
            if label.startswith("grade-"):
                return self.ref4, c["b4"]
            return self.ref, c["b"]

        problems += check_solves(self, ref_of, res)
        problems += check_agreement(self, res)
        for op in self.ops:
            br = res.results.get(op.label)
            if op.kind == "bound" and br is not None:
                ref = spec_ref if op.label.endswith("spectrum") else self.ref4
                problems += checks.bounds(op.label, br, ref.dense(), BOUND_GRID)
        return problems


class MixedPrecision:
    """Two-precision GMRES(50) on convdiff 48x48 beside its binary64 twin at
    the same budget, then GMRES-IR on convdiff 32x32 to 1e-13.  Only here
    does the mixed-precision layer set solve time and peak memory."""

    name = "mixed-precision"
    NX, PECLET, RESTART, BUDGET = 48, 10.0, 50, 80
    IR_NX, IR_RTOL, IR_FORWARD = 32, 1e-13, 1e-12
    ACCURACY = 2e-2

    def __init__(self, workdir):
        R, K = self.RESTART, self.BUDGET
        self.ops = [
            Op("two-precision", "solve", lambda gk, c, _: gk.gmres_two_precision(
                c["A"], c["b"], opts=_opts(gk, max_iter=K, restart=R)), self.ACCURACY, K),
            Op("binary64-twin", "solve", lambda gk, c, _: gk.gmres_restarted(
                c["A"], c["b"], opts=_opts(gk, max_iter=K, restart=R)), self.ACCURACY, K),
            Op("gmres-ir", "solve", lambda gk, c, _: gk.gmres_ir(
                c["A32"], c["b32"], rtol=self.IR_RTOL), self.IR_RTOL),
        ]
        self.minimal_residual = {"two-precision", "binary64-twin"}

    def prepare(self, gk):
        self.ref = reference.convdiff(self.NX, self.NX, self.PECLET)
        self.ref32 = reference.convdiff(self.IR_NX, self.IR_NX, self.PECLET)
        return []

    def setup(self, gk, rng):
        A = gk.gen_convdiff(self.NX, self.NX, peclet=self.PECLET)
        A32 = gk.gen_convdiff(self.IR_NX, self.IR_NX, peclet=self.PECLET)
        return {"A": A, "b": rng.standard_normal(A.nrows), "A32": A32, "b32": rng.standard_normal(A32.nrows)}

    def check(self, res):
        c = res.ctx
        problems = [f"gen_convdiff {self.NX}: {p}"
                    for p in reference.same_csr(c["A"], self.ref)]
        problems += [f"gen_convdiff {self.IR_NX}: {p}"
                     for p in reference.same_csr(c["A32"], self.ref32)]
        problems += check_solves(self, lambda label: (
            (self.ref32, c["b32"]) if label == "gmres-ir" else (self.ref, c["b"])), res)
        two, twin = res.results.get("two-precision"), res.results.get("binary64-twin")
        if two is not None and twin is not None:
            problems += checks.twin("two-precision", two, "binary64", twin)
        ir = res.results.get("gmres-ir")
        if ir is not None:
            err = reference.forward_error(self.ref32, ir.x, c["b32"])
            problems += checks.forward("gmres-ir", err, self.IR_FORWARD)
        return problems


WORKLOADS = {w.name: w for w in (SparseKrylov, Catalogue, MixedPrecision)}
