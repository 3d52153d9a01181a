"""Minimal-residual solver family: GMRES and its classical relatives.

All solvers return a SolveReport carrying the iterate, the per-iteration
residual-norm estimates, explicitly recomputed residual checkpoints, and the
matvec / global-reduction counters.  One solve owns its state; operators and
preconditioners are only read.

Every solver of the family except gmres_ir runs through one restart driver,
_restart_driver, and supplies only its cycle; gmres_ir's binary32 inner solve
runs the Arnoldi cycle of gmres (_arnoldi_cycles) under its own restart loop.
The driver owns:

- coercion of A, b and x0, and the run (_Run) with its one counter;
- the zero right-hand side, which returns x = 0, converged, 0 iterations;
- the operator the cycles iterate on and the tolerance reference for each
  preconditioning side (none, left, right) and for a weight, with a
  per-cycle weight refresh such as Essai's (below);
- the initial residual, with an early converged exit at iteration 0 when x0
  already meets the tolerance;
- the restart loop: the iteration budget, the right-preconditioner map-back
  of each update, the explicit residual recompute after every cycle (true
  and estimate-norm checkpoints), stagnation, the restart count and the
  termination;
- the SolveReport, which _Run.report builds.

make_cycle(run) is called once per solve, after the zero right-hand side
exit and before the first product, and returns cycle(r, budget) ->
(update, rhos, status): one cycle of at most budget iterations from the
residual r, returning the correction before any right preconditioner, the
cycle's residual estimates and one of converged / exhausted / breakdown.
Each estimate is emitted as soon as it exists: run.emit(rho) marks the
reduction counter, calls opts.iteration_callback(k, rho / tol_ref) with the
global iteration k, and returns whether rho meets the tolerance.  State a
solver carries from cycle to cycle lives in the closure of make_cycle; a
cycle is called again only when the driver restarts.

A weight d runs weighted GMRES as GMRES on S A S^-1, S = diag(sqrt(d))
(Guttel & Pestana, Numer. Algorithms 67, 2014): each cycle iterates on
v -> s * op(v / s) from s * r, and the driver divides its update by s
before any right preconditioner and keeps the one weighted norm ||s * r||,
for the history and tol_ref.  The cycles see only Euclidean products.

Every cycle that grows a Hessenberg matrix (Arnoldi in each scheme and
working dtype, low-sync and pipelined, all on ortho.ArnoldiProcess but
Householder's on ortho.HouseholderArnoldi; flexible and augmented on
ArnoldiProcess.step_along; s-step) is a step generator run by one least-squares loop,
_givens_cycle(emit, ls, steps).  After each step the generator yields
(H, completed, breakdown): the Hessenberg storage, how many of its leading
columns are final, and whether the step found an invariant subspace.  The
loop pushes every newly final column (up to ls's capacity) through the
running Givens QR and passes its estimate to emit, then returns converged
(emit said so), breakdown (the flag, or an OrthogonalizationBreakdown raised
by the step) or exhausted (the generator ran out).  A generator is resumed
only while the cycle goes on, so what follows its yield (the next basis
vector, an error for a block that did not converge) runs only then.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .linalg import (
    HessenbergLsState,
    as_matvec,
    back_substitute,
    operator_norm_estimate,
)
from .ortho import (BREAKDOWN_REL, ArnoldiProcess, HouseholderArnoldi,
                    OrthogonalizationBreakdown, OrthoScheme, ReductionCounter, basis,
                    mgs_pass)

__all__ = [
    "GmresOptions",
    "SolveReport",
    "FunctionPreconditioner",
    "DiagonalPreconditioner",
    "BreakdownError",
    "FgmresBreakdownError",
    "backward_error",
    "gmres",
    "gmres_restarted",
    "hh_gmres",
    "simpler_gmres",
    "gcr",
    "orthodir",
    "fgmres",
    "lgmres",
    "weighted_gmres",
]


class BreakdownError(RuntimeError):
    """Unrecoverable breakdown of a solver recurrence."""


class FgmresBreakdownError(BreakdownError):
    """h_{j+1,j} vanished while the flexible Hessenberg matrix is singular."""


@dataclass
class GmresOptions:
    """Knobs shared by the solver family.

    rtol is relative to ||b|| (in the inner-product norm the solver
    minimizes); restart of None means a full, non-restarted run.  A solver
    uses every field it reads (READS) and refuses any other that differs
    from its default, with a ValueError naming opts.<field>, but for
    restart: the simpler family, gcr, orthodir, lgmres, gmres_e and
    sstep_gmres fix their cycle length, accept restart and ignore it.
    """

    rtol: float = 1e-8
    max_iter: int | None = None
    restart: int | None = None
    scheme: OrthoScheme | str = OrthoScheme.MGS
    precond_side: str = "none"
    preconditioner: object = None
    weight: np.ndarray | None = None
    simpler_omega: float = 0.5
    iteration_callback: object = None

    def __post_init__(self):
        if not 0 < self.rtol < math.inf:
            raise ValueError("rtol must be positive and finite")
        if self.max_iter is not None:
            _check_count("max_iter", self.max_iter, 0)
        if self.restart is not None:
            _check_count("restart", self.restart, 1)
        self.scheme = OrthoScheme(self.scheme)
        if self.precond_side not in ("none", "left", "right"):
            raise ValueError("precond_side must be none, left or right")
        if self.precond_side != "none" and self.preconditioner is None:
            raise ValueError("preconditioner required for preconditioned runs")
        M = self.preconditioner
        if M is not None and not (hasattr(M, "apply") or callable(M)):
            raise ValueError("preconditioner must have an apply method or be callable")
        if self.weight is not None:
            self.weight = _finite_vector("weight", self.weight)
            if np.any(self.weight <= 0):
                raise ValueError("weight entries must be positive")
        if not 0.0 <= self.simpler_omega <= 1.0:
            raise ValueError("simpler_omega must lie in [0, 1]")


_RUN = ("rtol", "max_iter", "restart", "iteration_callback")
_PRECOND = ("precond_side", "preconditioner")
_ARNOLDI = _RUN + ("scheme",) + _PRECOND + ("weight",)
_DIRECT = ("mgs", "cgs", "cgs2", "cgsp")  # the schemes of ArnoldiProcess.step_along
_EVERY = _DIRECT + ("icwy", "householder")

# The GmresOptions fields each SOLVER_DISPATCH entry reads, with the schemes it
# runs if it reads scheme; _options refuses every other non-default field.
READS = {
    "gmres": (_ARNOLDI, _EVERY),
    "gmres-restarted": (_ARNOLDI, _EVERY),
    "hh-gmres": (_RUN + ("scheme",) + _PRECOND, ("householder",)),
    "sgmres": (_RUN, ()),
    "rb-sgmres": (_RUN, ()),
    "adaptive-sgmres": (_RUN + ("simpler_omega",), ()),
    "gcr": (_RUN, ()),
    "orthodir": (_RUN, ()),
    "fgmres": (_RUN + ("scheme",), _DIRECT),
    "lgmres": (_RUN + ("scheme",), _DIRECT),
    "gmres-e": (_RUN + ("scheme",), _DIRECT),
    "weighted-gmres": (_ARNOLDI, _EVERY),
    "sstep-gmres": (_RUN, ()),
    "pipelined-gmres": (_RUN, ()),
    "lowsync-gmres": (_RUN + _PRECOND + ("weight",), ()),
    "two-precision": (_ARNOLDI, _DIRECT + ("icwy",)),
    "gmres-ir": (("rtol", "max_iter", "restart"), ()),  # of its inner_opts
}


def _options(name, opts, arg="opts"):
    """opts, or the default options, once the entry name reads every field that
    differs from its default (READS); a ValueError names the first that fails."""
    opts = opts if opts is not None else GmresOptions()
    reads, schemes = READS[name]
    for f in fields(GmresOptions):
        value = getattr(opts, f.name)
        if value is None if f.default is None else value == f.default:
            continue
        if f.name not in reads:
            about = "one-sided preconditioning, " if f.name == "precond_side" else ""
            raise ValueError(f"{name} does not support {about}{arg}.{f.name}")
        if f.name == "scheme" and value.value not in schemes:
            raise ValueError(f"{name} does not run {arg}.scheme {value.value}; "
                             f"it runs {', '.join(schemes)}")
    if opts.preconditioner is not None and opts.precond_side == "none":
        raise ValueError(f"{name} applies {arg}.preconditioner only with "
                         f"{arg}.precond_side left or right")
    return opts


@dataclass
class SolveReport:
    """Outcome of one solve.

    residual_history[k] is the estimated residual norm after k iterations
    in the norm the variant minimizes (||D^(1/2) r|| with a weight D);
    true_residual_checkpoints holds explicitly recomputed Euclidean
    ||b - A x|| values at restarts and exit, and estimated_norm_checkpoints
    the same recomputation in the estimate's own norm (they coincide for
    plain runs).

    matvecs counts the products of A, in any dtype, that the solve's cycles,
    residual recomputes and breakdown scale make, and reductions the
    modeled global reductions of its cycles, each counted by the counter
    primitive that computes it (ortho.ReductionCounter).  The driver's own
    norms are outside the model and uncounted: ||b|| for tol_ref, the
    initial residual norm, the explicit residual norm after each cycle, and
    GMRES-IR's outer residual norms.  Neither count covers the products
    inside a preconditioner's apply, pipelined's warm-up Arnoldi, s-step's
    warm-up for a named basis, the polynomial preconditioner's build, or
    GMRES-IR's inner reductions (ROADMAP item 1).

    diagnostics["arnoldi"], in the reports of the Arnoldi cycles (every
    scheme, Householder included, weighted, low-sync and two-precision, but
    not pipelined) and of s-step, is the last cycle's (n+1) x n Hessenberg
    factor Hbar in the cycle's working dtype, n its completed steps (with a
    weight D, that of D^(1/2) A D^(-1/2), the D-inner product's); a
    breakdown leaves its last row zero.  No report keeps a Krylov basis.
    """

    x: np.ndarray
    residual_history: list
    iterations: int
    termination: str
    restarts: int = 0
    reductions: int = 0
    matvecs: int = 0
    true_residual_checkpoints: list = field(default_factory=list)
    estimated_norm_checkpoints: list = field(default_factory=list)
    reduction_log: list = field(default_factory=list)
    reduction_marks: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def converged(self):
        return self.termination == "converged"

    def relative_history(self):
        h0 = self.residual_history[0]
        return [v / h0 for v in self.residual_history] if h0 else list(self.residual_history)


class FunctionPreconditioner:
    """Wrap a callable v -> M^{-1} v as a Preconditioner."""

    def __init__(self, fn):
        self._fn = fn

    def apply(self, v):
        return self._fn(v)


class DiagonalPreconditioner:
    def __init__(self, diag):
        self.diag = np.asarray(diag, dtype=np.float64)
        if np.any(self.diag == 0):
            raise ValueError("diagonal preconditioner must be nonsingular")

    def apply(self, v):
        return v / self.diag


def _apply_precond(M, v):
    if M is None:
        return v
    if hasattr(M, "apply"):
        return M.apply(v)
    return M(v)


def backward_error(A, x, b):
    """Normwise backward error ||b - A x|| / (||A|| ||x|| + ||b||)."""
    matvec, _ = as_matvec(A, n=len(b))
    r = np.asarray(b, dtype=np.float64) - matvec(np.asarray(x, dtype=np.float64))
    anorm = operator_norm_estimate(A, matvec, probe=np.asarray(b, dtype=np.float64))
    denom = anorm * np.linalg.norm(x) + np.linalg.norm(b)
    if denom == 0.0:
        return float(np.linalg.norm(r))
    return float(np.linalg.norm(r) / denom)


# ---------------------------------------------------------------------------
# The restart driver


class _Run:
    """One solve as its cycle sees it; built by _restart_driver and by
    mixedprec's gmres_ir and binary32 inner solve.

    counter counts the products and the modeled reductions.  op is the
    operator the cycles iterate on: the counted product, to which the driver
    adds the preconditioner, the working dtype and a weight's scaling.
    tol_ref and tol_abs hold the current cycle's tolerance.  diagnostics
    becomes the report's (report builds the SolveReport); a cycle that ends an
    Arnoldi process of any scheme (pipelined's excepted) writes a copy of
    its Hessenberg factor to diagnostics["arnoldi"] (SolveReport) and drops
    the process, so a solve holds one basis at a time.
    No attribute may refer back to the run (a closure over it, or the run
    itself): the reference cycle would keep a finished solve's arrays alive
    until the cyclic garbage collector runs.
    """

    def __init__(self, matvec, opts, diagnostics=None):
        self.counter = ReductionCounter()
        self.op = self.counter.counted(matvec)
        self.opts = opts
        self.dtype = np.dtype(np.float64)
        self.tol_ref = 1.0
        self.tol_abs = 0.0
        self.iterations = 0
        self.diagnostics = {} if diagnostics is None else diagnostics

    def emit(self, rho):
        """Deliver the next iteration's residual estimate; True once it meets
        the tolerance."""
        self.iterations += 1
        self.counter.mark()
        if self.opts.iteration_callback is not None:
            self.opts.iteration_callback(self.iterations, rho / self.tol_ref)
        return rho <= self.tol_abs

    def report(self, x, history, termination, restarts=0, checkpoints=(),
               est_checkpoints=()):
        """The solve's SolveReport, with the counts its counter holds."""
        return SolveReport(
            x=x,
            residual_history=history,
            iterations=len(history) - 1,
            termination=termination,
            restarts=restarts,
            reductions=self.counter.total,
            matvecs=self.counter.matvecs,
            true_residual_checkpoints=list(checkpoints),
            estimated_norm_checkpoints=list(est_checkpoints),
            reduction_log=list(self.counter.per_step),
            reduction_marks=list(self.counter.marks),
            diagnostics=self.diagnostics,
        )


def _finite_vector(name, v, like=None):
    """v as a binary64 array; a ValueError names the argument unless v is a
    real, finite 1-D vector, of like's shape when like is given."""
    if np.iscomplexobj(v):
        raise ValueError(f"{name} must be real")
    try:
        v = np.asarray(v, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # GmresOptions passed where x0 goes, say
        raise ValueError(f"{name} must be a real vector, got {type(v).__name__}") from exc
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if like is not None and v.shape != like.shape:
        raise ValueError(f"{name} must have b's shape {like.shape}, got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def _matvec_for(A, N):
    """A's matvec; a ValueError unless A's dimension is b's length N."""
    matvec, dim = as_matvec(A, n=N)
    if dim != N:
        raise ValueError(f"dimension mismatch: operator is {dim}x{dim}, b has length {N}")
    return matvec


def _check_count(name, value, least):
    """A ValueError naming the argument unless value is an integer (a numpy
    integer, not a bool) of at least least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")


def _restart_driver(A, b, x0, opts, make_cycle, *, diagnostics=None,
                    weight_refresh=None, dtype=np.float64):
    """Run a solver's cycles under the shared restart loop (module docstring).

    diagnostics seeds the report's diagnostics.  weight_refresh(r) -> weights,
    when given, replaces opts.weight: it is applied to the initial residual
    and again at every restart.  A dtype other than binary64 carries the
    cycle products out in that format (mixedprec.low_operator); residuals
    and solution updates stay binary64.
    """
    b = _finite_vector("b", b)
    x0 = None if x0 is None else _finite_vector("x0", x0, like=b)
    if opts.weight is not None:
        _finite_vector("opts.weight", opts.weight, like=b)
    N = len(b)
    # A is checked before any warm-up or factorization
    run = _Run(_matvec_for(A, N), opts, diagnostics)
    if np.linalg.norm(b) == 0.0:
        return run.report(np.zeros(N), [0.0], "converged")

    matvec = product = run.op  # the binary64 product the residuals take
    run.dtype = np.dtype(dtype)
    if run.dtype != np.float64:
        from .mixedprec import low_operator
        product = run.counter.counted(low_operator(A, run.dtype, n=N))

    M = opts.preconditioner
    side = opts.precond_side
    if side == "right":
        run.op = op = lambda v: product(_apply_precond(M, v))
    elif side == "left":
        run.op = op = lambda v: _apply_precond(M, product(v))
    else:
        run.op = op = product

    def precond_residual(r):
        return _apply_precond(M, r) if side == "left" else r

    def norm(v):  # the D-norm ||s * v|| of a weighted solve
        return float(np.linalg.norm(v if s is None else s * v))

    cycle = make_cycle(run)
    x = np.zeros(N) if x0 is None else x0.copy()
    r_true = b - matvec(x)
    r = precond_residual(r_true)
    weight = opts.weight if weight_refresh is None else weight_refresh(r)
    s = None if weight is None else np.sqrt(weight)
    tol_ref = norm(precond_residual(b))
    history = [norm(r)]
    checkpoints = []
    est_checkpoints = []
    restarts = 0
    status = "exhausted"
    if history[0] <= opts.rtol * tol_ref:
        status = "converged"
        checkpoints.append((0, float(np.linalg.norm(r_true))))
        est_checkpoints.append((0, history[0]))

    max_iter = opts.max_iter if opts.max_iter is not None else N
    m = opts.restart if opts.restart is not None else max_iter
    while status != "converged":
        budget = min(m, max_iter - (len(history) - 1))
        if budget <= 0:
            break
        run.tol_ref, run.tol_abs = tol_ref, opts.rtol * tol_ref
        rho_start = history[-1]
        # with a weight, GMRES on S A S^-1 from S r, S in the working dtype
        sc = 1.0 if s is None else s.astype(run.dtype, copy=False)
        if s is not None:
            run.op = lambda v: sc * op(v / sc)
        update, rhos, status = cycle(sc * r, budget)
        update = update / sc
        if side == "right":
            update = _apply_precond(M, update)
        x = x + update
        history.extend(rhos)
        total_iter = len(history) - 1

        r_true = b - matvec(x)
        r = precond_residual(r_true)
        rho_true = norm(r)
        checkpoints.append((total_iter, float(np.linalg.norm(r_true))))
        est_checkpoints.append((total_iter, rho_true))
        if status == "converged" or rho_true <= run.tol_abs:
            status = "converged"
            break
        if status == "breakdown" or total_iter >= max_iter:
            break
        # the next cycle restarts from the explicit residual, unless this
        # cycle cut it by less than one part in 1e14
        if rho_true >= rho_start * (1.0 - 1e-14):
            status = "stagnation"
            break
        restarts += 1
        if weight_refresh is not None:
            s = np.sqrt(weight_refresh(r))
            tol_ref = norm(precond_residual(b))

    return run.report(x, history, "maxiter" if status == "exhausted" else status,
                      restarts, checkpoints, est_checkpoints)


# ---------------------------------------------------------------------------
# The Givens least-squares loop and the Arnoldi cycles of every scheme (gmres /
# restarted / Householder / weighted / low-sync / two-precision)


def _givens_cycle(emit, ls, steps):
    """Run the step generator steps through the running Givens QR ls and
    return (rhos, status); the contract is in the module docstring."""
    rhos = []
    try:
        for H, completed, breakdown in steps:
            for c in range(ls.ncols, min(completed, ls.R.shape[1])):
                rhos.append(ls.push_column(H[: c + 2, c]))
                if emit(rhos[-1]):
                    return rhos, "converged"
            if breakdown:
                return rhos, "breakdown"
    except OrthogonalizationBreakdown:
        return rhos, "breakdown"
    return rhos, "exhausted"


def _process_steps(proc):
    """Steps of an ArnoldiProcess or a HouseholderArnoldi; once the budget is
    spent, ICWY's deferred normalization completes the last column."""
    while proc.steps < proc.max_steps:
        proc.step()
        yield proc.H, proc.completed, proc.breakdown_at is not None
    if proc.completed < proc.steps:
        proc.finish()
        yield proc.H, proc.completed, proc.breakdown_at is not None


def _arnoldi_cycles(run, shift=None):
    """Cycles of Arnoldi in opts.scheme (Householder's on a HouseholderArnoldi)
    with a running Givens QR of the Hessenberg factor, in the run's working
    dtype; each records its Hessenberg factor.  A shift makes a CGS-P
    process pipelined (commavoid.pipelined_gmres), which records its retries
    instead."""

    def cycle(r, budget):
        if run.opts.scheme is OrthoScheme.HOUSEHOLDER:
            proc = HouseholderArnoldi(run.op, r, budget, counter=run.counter)
        else:
            proc = ArnoldiProcess(run.op, r, budget, run.opts.scheme,
                                  counter=run.counter, dtype=run.dtype, _shift=shift)
        ls = HessenbergLsState(proc.max_steps, proc.beta, dtype=run.dtype)
        rhos, status = _givens_cycle(run.emit, ls, _process_steps(proc))
        update = proc.eval_basis_combination(ls.solve())
        if shift is None:  # a copy of the completed (n+1) x n factor
            n = proc.completed
            run.diagnostics["arnoldi"] = proc.H[: n + 1, :n].copy()
        else:
            run.diagnostics["reorthogonalizations"] += proc.reorthogonalizations
        return np.asarray(update, dtype=np.float64), rhos, status

    return cycle


def gmres(A, b, x0=None, opts=None):
    """Minimal-residual iteration over the Krylov space of A (GMRES).

    Builds an orthonormal Krylov basis with the configured Gram-Schmidt
    scheme, keeps a running QR of the Hessenberg factor through Givens
    rotations (which yields the residual-norm estimate for free), and exits
    when that estimate drops below rtol * ||b||.

    Parameters
    ----------
    A : CsrMatrix, ndarray or callable
        Square operator; callables receive and return length-N vectors.
    b : ndarray
        Right-hand side. A zero b short-circuits to x = 0.
    x0 : ndarray, optional
        Initial iterate (zeros by default).
    opts : GmresOptions, optional
        Tolerance, iteration/restart limits, orthogonalization scheme,
        preconditioning side, and the optional diagonal weight.

    Returns
    -------
    SolveReport
        Iterate, per-iteration residual estimates, explicit residual
        checkpoints, matvec/reduction counters, and termination reason
        (converged, maxiter, breakdown, or stagnation).

    Notes
    -----
    With precond_side "right" the history holds true residual norms and the
    final update is mapped back through the preconditioner; with "left" the
    history holds preconditioned residual norms while the checkpoints always
    record the true ones. Happy breakdown (an invariant Krylov subspace)
    surfaces as convergence at the grade.
    """
    return _restart_driver(A, b, x0, _options("gmres", opts), _arnoldi_cycles)


def hh_gmres(A, b, x0=None, opts=None):
    """gmres with the Householder scheme, the one scheme it takes: the
    solution update evaluates V_n y through the recursive reflector product
    rather than storing the basis."""
    opts = replace(_options("hh-gmres", opts), scheme=OrthoScheme.HOUSEHOLDER)
    return _restart_driver(A, b, x0, opts, _arnoldi_cycles)


def _restarted_options(opts, m=30):
    """opts with restart length m if they set none."""
    return opts if opts.restart is not None else replace(opts, restart=m)


def gmres_restarted(A, b, x0=None, opts=None):
    """Restarted GMRES(m), m = opts.restart or 30 when unset; each cycle ends
    with an explicit residual recompute."""
    opts = _restarted_options(_options("gmres-restarted", opts))
    return _restart_driver(A, b, x0, opts, _arnoldi_cycles)


def _essai_weights(r):
    """Essai's restart weights sqrt(N) |r_i| / ||r||, clamped away from zero."""
    r = np.asarray(r, dtype=np.float64)
    nrm = np.linalg.norm(r)
    if nrm == 0.0:
        return np.ones(len(r))
    w = math.sqrt(len(r)) * np.abs(r) / nrm
    return np.maximum(w, 1e-10)


def weighted_gmres(A, b, x0=None, opts=None):
    """GMRES in the D-inner product, on the scaled system (module docstring).

    With an explicit opts.weight the diagonal stays fixed; without one the
    weights follow the residual at every restart (Essai's rule), clamped
    below at 1e-10.
    """
    opts = _options("weighted-gmres", opts)
    refresh = _essai_weights if opts.weight is None else None
    return _restart_driver(A, b, x0, opts, _arnoldi_cycles, weight_refresh=refresh)


# ---------------------------------------------------------------------------
# Simpler GMRES family


def simpler_gmres(A, b, x0=None, opts=None, variant="adaptive"):
    """Generalized simpler GMRES: AZ_n = V_n T_n with T_n upper triangular.

    variant selects the next direction z_n: "sgmres" always reuses v_{n-1},
    "rb" the normalized running residual, and "adaptive" switches on the
    one-step residual decrease factor opts.simpler_omega.  The run is one
    unrestarted cycle: opts.restart is ignored.
    """
    if variant not in ("sgmres", "rb", "adaptive"):
        raise ValueError("variant must be sgmres, rb or adaptive")
    opts = _options(variant if variant == "sgmres" else f"{variant}-sgmres", opts)
    omega = opts.simpler_omega if variant == "adaptive" else \
        (1.0 if variant == "rb" else 0.0)

    def make_cycle(run):
        def cycle(r, budget):
            N = len(r)
            V = basis(N, budget)
            Z = basis(N, budget)
            T = np.zeros((budget, budget))
            alpha = np.zeros(budget)
            rhos = []
            status = "exhausted"
            rho = float(np.linalg.norm(r))
            rho_prev2 = None  # ||r_{n-2}||
            n = 0
            for j in range(budget):
                rho_prev = rho
                if j == 0 or rho_prev <= omega * (rho_prev2 if rho_prev2 is not None
                                                  else np.inf):
                    z = r / rho_prev
                else:
                    z = V[:, j - 1]
                T[:j, j], w, t_jj = mgs_pass(V, j, run.op(z), run.counter)
                tnorm = max(np.abs(np.diag(T)[: j + 1]).max(), t_jj)
                if t_jj <= BREAKDOWN_REL * tnorm:
                    status = "breakdown"
                    break
                T[j, j] = t_jj
                V[:, j] = w / t_jj
                Z[:, j] = z
                alpha[j] = run.counter.dots(r, V[:, j])
                r = r - alpha[j] * V[:, j]
                rho = run.counter.norm(r)
                rho_prev2 = rho_prev
                rhos.append(rho)
                n = j + 1
                if run.emit(rho):
                    status = "converged"
                    break
            # the SVD behind cond does not converge on an inf or NaN
            finite = np.isfinite(Z[:, :n]).all()
            run.diagnostics["kappa_z"] = (float(np.linalg.cond(Z[:, :n])) if finite
                                          else np.nan) if n else 1.0
            update = Z[:, :n] @ back_substitute(T[:n, :n], alpha[:n])
            return update, rhos, status

        return cycle

    return _restart_driver(A, b, x0, replace(opts, restart=None), make_cycle,
                           diagnostics={"kappa_z": 1.0})


# ---------------------------------------------------------------------------
# GCR and ORTHODIR


def _gcr_like(name, A, b, x0, opts, direction_rule):
    """One unrestarted cycle of A-orthogonal directions; direction_rule(op, r,
    aq_last) -> (seed, A seed) proposes the next direction."""
    opts = _options(name, opts)

    def make_cycle(run):
        anorm = operator_norm_estimate(A, run.op, probe=np.asarray(b, dtype=np.float64))

        def cycle(r, budget):
            Q = basis(len(r), budget)    # search directions q_i
            AQ = basis(len(r), budget)   # their images A q_i
            aq_sq = np.zeros(budget)     # (A q_i, A q_i)
            rhos = []
            status = "exhausted"
            update = np.zeros(len(r))
            for k in range(budget):
                if k == 0:
                    q, aq = r, run.op(r)
                else:
                    # next direction: seed w and its image A w, then A-orthogonalize
                    seed, aseed = direction_rule(run.op, r, AQ[:, k - 1])
                    betas = -run.counter.dots(AQ[:, :k], aseed) / aq_sq[:k]
                    q = seed + Q[:, :k] @ betas
                    aq = aseed + AQ[:, :k] @ betas
                Q[:, k] = q
                AQ[:, k] = aq
                denom = float(run.counter.dots(aq, aq))
                aq_sq[k] = denom
                if denom <= 1e-28 * anorm * anorm:
                    status = "breakdown"
                    run.diagnostics["breakdown_reason"] = "indefinite symmetric part"
                    break
                alpha = float(run.counter.dots(r, aq)) / denom
                update = update + alpha * q
                r = r - alpha * aq
                rhos.append(run.counter.norm(r))
                if run.emit(rhos[-1]):
                    status = "converged"
                    break
            return update, rhos, status

        return cycle

    return _restart_driver(A, b, x0, replace(opts, restart=None), make_cycle)


def gcr(A, b, x0=None, opts=None):
    """Generalized conjugate residuals; requires a definite symmetric part for
    guaranteed progress, and reports a breakdown diagnostic otherwise.  One
    unrestarted cycle: opts.restart is ignored."""

    def rule(op, r, aq_last):
        return r, op(r)

    return _gcr_like("gcr", A, b, x0, opts, rule)


def orthodir(A, b, x0=None, opts=None):
    """ORTHODIR: same projection as GCR with directions grown from A q_j.  One
    unrestarted cycle: opts.restart is ignored."""

    def rule(op, r, aq_last):
        return aq_last, op(aq_last)

    return _gcr_like("orthodir", A, b, x0, opts, rule)


# ---------------------------------------------------------------------------
# Flexible and augmented cycles (FGMRES / LGMRES / GMRES-E)


def _flexible_cycle(run, r0, m, direction_fn):
    """One cycle in opts.scheme (a direct one) where step j expands the basis with A applied to an
    arbitrary direction z_j (ArnoldiProcess.step_along).

    direction_fn(j, slot, V) -> (z, kind) or None; j is the basis step about
    to be performed, slot the position in the operand schedule (they drift
    apart when "aug" columns project to zero and are dropped as
    rank-deficient).  A vanishing subdiagonal on a "krylov" direction ends the
    cycle: exact convergence when the flexible Hessenberg matrix is regular,
    FgmresBreakdownError otherwise.  Returns (update, rhos, status, V, Hbar,
    Z, dropped).
    """
    proc = ArnoldiProcess(run.op, r0, m, run.opts.scheme, counter=run.counter)
    Z = basis(proc.N, proc.max_steps)
    ls = HessenbergLsState(proc.max_steps, proc.beta)
    dropped = 0

    def steps():
        nonlocal dropped
        slot = 0
        while proc.steps < proc.max_steps:
            j = proc.steps
            got = direction_fn(j, slot, proc.V)
            slot += 1
            if got is None:
                return
            z, kind = got
            if proc.step_along(z, droppable=kind == "aug"):
                Z[:, j] = z
                yield proc.H, proc.completed, proc.breakdown_at is not None
            else:
                dropped += 1

    rhos, status = _givens_cycle(run.emit, ls, steps())
    n = ls.ncols
    # at an invariant subspace the column scale is that of the projections
    if proc.breakdown_at is not None and \
            abs(ls.diag(n - 1)) <= BREAKDOWN_REL * proc._column_scale(n - 1, 0.0):
        raise FgmresBreakdownError("h_{j+1,j} vanished with a singular Hessenberg matrix")
    update = Z[:, :n] @ ls.solve(n)
    return update, rhos, status, proc.V, proc.H[:, :n], Z[:, :n], dropped


def fgmres(A, b, x0=None, opts=None, precond_sequence=None):
    """Flexible GMRES: the preconditioner may change at every step.

    precond_sequence is a callable (j, v) -> M_j^{-1} v, a sequence of
    Preconditioner objects cycled per step, or None for the identity.
    """
    opts = _options("fgmres", opts)  # precond_sequence is its preconditioner
    if precond_sequence is None:
        apply_mj = lambda j, v: v
    elif callable(precond_sequence) and not hasattr(precond_sequence, "apply"):
        apply_mj = precond_sequence
    else:
        seq = list(precond_sequence) if not hasattr(precond_sequence, "apply") \
            else [precond_sequence]
        apply_mj = lambda j, v: _apply_precond(seq[j % len(seq)], v)

    def make_cycle(run):
        def cycle(r, budget):
            base = run.iterations

            def direction(j, slot, V):
                return apply_mj(base + j, V[:, j]), "krylov"

            return _flexible_cycle(run, r, budget, direction)[:3]

        return cycle

    return _restart_driver(A, b, x0, opts, make_cycle)


def _augmented_options(name, opts, b, m1, m2):
    """The options of the augmented solver name, with cycles of m = m1 + m2
    steps in place of opts.restart; the default budget, max(len(b), m) with
    b checked first, covers at least one cycle."""
    _check_count("m1", m1, 1)
    _check_count("m2", m2, 0)
    opts = _options(name, opts)
    m = m1 + m2
    return replace(opts, restart=m, max_iter=opts.max_iter if opts.max_iter is not None
                   else max(len(_finite_vector("b", b)), m))


def lgmres(A, b, x0=None, m1=20, m2=3, opts=None):
    """LGMRES(m1, m2): restarted GMRES augmented with the previous error
    approximations, which damps the alternating behavior of plain GMRES(m).

    The u vectors are kept unnormalized; each cycle's search space is spanned
    by the recorded directions so that A Z_m = V_{m+1} Hbar_m holds column by
    column.  Cycles are m1 + m2 steps long: opts.restart is ignored.
    """
    opts = _augmented_options("lgmres", opts, b, m1, m2)

    def make_cycle(run):
        us = []  # u_1, u_2, ... error approximations, one per finished cycle

        def cycle(r, budget):
            k = len(us)
            run.diagnostics["augmented_cycles"] = k

            def direction(j, slot, V):
                # Krylov step unless the slot falls in the augmentation window
                # m1 < slot+1 <= m1 + k, which replays the newest corrections
                if slot < m1 or slot - m1 >= k:
                    return V[:, j], "krylov"
                return us[k - 1 - (slot - m1)], "aug"

            update, rhos, status, *_ = _flexible_cycle(run, r, budget, direction)
            us.append(update)
            return update, rhos, status

        return cycle

    return _restart_driver(A, b, x0, opts, make_cycle,
                           diagnostics={"augmented_cycles": 0})
