"""Problem generation, experiment configuration, batch execution, and
machine-readable outputs.

An experiment is one JSON document: a problem, a right-hand side, a list of
solver variants, and output options.  Every randomized choice carries a
mandatory seed so reruns are byte-identical; wall-clock timings go to a
separate file excluded from that guarantee.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import bounds as bounds_mod
from .commavoid import (
    MonomialBasis,
    chebyshev_basis_from_warmup,
    lowsync_gmres,
    newton_basis_from_warmup,
    pipelined_gmres,
    sstep_gmres,
)
from .deflation import build_poly_preconditioner, gmres_e, polynomial_preconditioner
from .linalg import CsrMatrix, SingularMatrixError, as_matvec, mm_read, operator_norm_estimate
from .mixedprec import gmres_ir, gmres_two_precision
from .solvers import (
    DiagonalPreconditioner,
    GmresOptions,
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
    _finite_vector,
    _matvec_for,
)

__all__ = [
    "ExperimentConfig",
    "PerturbationSchedule",
    "ConfigError",
    "gen_convdiff",
    "gen_spectrum",
    "inexact_operator",
    "run",
    "compare",
    "SOLVER_DISPATCH",
]


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending key."""


# ---------------------------------------------------------------------------
# Problem generators


def gen_convdiff(nx, ny, peclet=0.0):
    """Five-point upwind convection-diffusion operator on the unit square.

    Dirichlet boundaries are eliminated; the diffusion stencil is the
    textbook (-1, -1, 4, -1, -1) and the convection term adds a first-order
    upwind difference of strength |peclet| along x.  Interior rows sum to
    zero; the matrix is symmetric exactly when peclet == 0.
    """
    if nx < 2 or ny < 2:
        raise ValueError("need nx, ny >= 2")
    n = nx * ny
    pe = float(peclet)
    diag = 4.0 + abs(pe)
    west = -1.0 - (pe if pe > 0 else 0.0)
    east = -1.0 - (-pe if pe < 0 else 0.0)
    k = np.arange(n)
    ix, iy = k % nx, k // nx
    # (mask of the rows that have the neighbour, column offset, coefficient)
    stencil = ((iy > 0, -nx, -1.0), (ix > 0, -1, west), (k >= 0, 0, diag),
               (ix < nx - 1, 1, east), (iy < ny - 1, nx, -1.0))
    rows = np.concatenate([k[mask] for mask, _, _ in stencil])
    cols = np.concatenate([k[mask] + off for mask, off, _ in stencil])
    values = np.concatenate([np.full(np.count_nonzero(mask), c) for mask, _, c in stencil])
    return CsrMatrix.from_coo(n, n, rows, cols, values)


def gen_spectrum(eigs, seed):
    """Operator with prescribed real eigenvalues: Q diag(eigs) Q^T for a
    seeded random orthogonal Q, stored in CSR form."""
    eigs = np.asarray(eigs, dtype=np.float64)
    if eigs.size == 0:
        raise ValueError("need at least one eigenvalue")
    n = len(eigs)
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.where(np.diag(R) == 0, 1.0, np.diag(R)))
    dense = Q @ np.diag(eigs) @ Q.T
    return CsrMatrix.from_dense(dense)


@dataclass(frozen=True)
class PerturbationSchedule:
    """Inexact-product model: each application adds a random perturbation of
    norm eta_j ||A|| ||v||; relaxed mode lets eta_j grow as the residual
    shrinks toward the target, eta_j = eta * min(1, rtol / rho_{j-1})."""

    mode: str = "fixed"
    eta: float = 0.0
    rtol: float = 1e-8

    def __post_init__(self):
        if self.mode not in ("fixed", "relaxed"):
            raise ValueError("mode must be fixed or relaxed")
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")


def inexact_operator(A, schedule: PerturbationSchedule, history_hook=None, seed=0):
    """Wrap A so every product picks up a seeded random perturbation.

    history_hook() supplies the latest relative residual for the relaxed
    schedule (None before the first iteration).  The returned callable
    carries the operator dimension in its ``n`` attribute and the unperturbed
    operator in its ``exact`` attribute.
    """
    matvec, n = as_matvec(A)
    anorm = operator_norm_estimate(A)
    rng = np.random.default_rng(seed)

    def perturbed(v):
        base = matvec(v)
        eta = schedule.eta
        if eta == 0.0:
            return base
        if schedule.mode == "relaxed":
            rho = history_hook() if history_hook is not None else None
            if rho is not None and rho > 0:
                eta = eta * min(1.0, schedule.rtol / rho)
            else:
                eta = eta * schedule.rtol
        g = rng.standard_normal(len(base))
        g /= np.linalg.norm(g)
        return base + (eta * anorm * float(np.linalg.norm(v))) * g

    perturbed.n = n
    perturbed.exact = A
    return perturbed


# ---------------------------------------------------------------------------
# Experiment configuration


@dataclass
class ExperimentConfig:
    problem: dict
    rhs: dict
    variants: list
    outputs: str = "out"
    bound_checks: bool = False
    inexact: dict | None = None

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ConfigError("experiment document must be a JSON object")
        missing = [k for k in ("problem", "rhs", "variants") if k not in doc]
        if missing:
            raise ConfigError(f"missing required keys: {', '.join(missing)}")
        variants = doc["variants"]
        if not isinstance(variants, list) or not variants:
            raise ConfigError("variants: need a nonempty list")
        names = set()
        for i, v in enumerate(variants):
            if "name" not in v or "solver" not in v:
                raise ConfigError(f"variants[{i}]: need name and solver")
            if v["solver"] not in SOLVER_DISPATCH:
                raise ConfigError(f"variants[{i}].solver: unknown solver "
                                  f"{v['solver']!r}")
            if v["name"] in names:
                raise ConfigError(f"variants[{i}].name: duplicate {v['name']!r}")
            names.add(v["name"])
        rhs = doc["rhs"]
        if rhs.get("kind") == "random" and "seed" not in rhs:
            raise ConfigError("rhs.seed: seeds are mandatory for randomized choices")
        prob = doc["problem"]
        if prob.get("kind") == "spectrum" and "seed" not in prob:
            raise ConfigError("problem.seed: seeds are mandatory for randomized choices")
        inexact = doc.get("inexact")
        if inexact is not None and "seed" not in inexact:
            raise ConfigError("inexact.seed: seeds are mandatory for randomized choices")
        return cls(problem=prob, rhs=rhs, variants=variants,
                   outputs=doc.get("outputs", "out"),
                   bound_checks=bool(doc.get("bound_checks", False)),
                   inexact=inexact)

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
                ) from exc
        return cls.from_dict(doc)


def _build_problem(cfg):
    kind = cfg.problem.get("kind")
    if kind == "convdiff":
        return gen_convdiff(cfg.problem["nx"], cfg.problem["ny"],
                            cfg.problem.get("peclet", 0.0))
    if kind == "spectrum":
        return gen_spectrum(cfg.problem["eigs"], cfg.problem["seed"])
    if kind == "matrix_market":
        return mm_read(cfg.problem["path"])
    raise ConfigError(f"problem.kind: unknown kind {kind!r}")


def _build_rhs(cfg, n):
    kind = cfg.rhs.get("kind", "ones")
    if kind == "ones":
        return np.ones(n)
    if kind == "random":
        return np.random.default_rng(cfg.rhs["seed"]).standard_normal(n)
    if kind == "file":
        return np.loadtxt(cfg.rhs["path"]).reshape(-1)
    raise ConfigError(f"rhs.kind: unknown kind {kind!r}")


def _basis_from_options(A, b, options):
    kind = options.get("basis", "newton")
    s = options.get("s", 4)
    if kind == "monomial":
        return MonomialBasis()
    if kind == "newton":
        return newton_basis_from_warmup(A, b, s)
    if kind == "chebyshev":
        return chebyshev_basis_from_warmup(A, b, s)
    raise ConfigError(f"options.basis: unknown basis {kind!r}")


def _gmres_options(options, callback=None):
    scheme = options.get("scheme", "mgs")
    if scheme == "householder":
        # reflector orthogonalization is its own solver; the generic options
        # carry mgs and the dispatch reroutes to hh-gmres
        scheme = "mgs"
    return GmresOptions(
        rtol=options.get("rtol", 1e-8),
        max_iter=options.get("max_iter"),
        restart=options.get("restart"),
        scheme=scheme,
        simpler_omega=options.get("omega", 0.5),
        iteration_callback=callback,
    )


def _with_preconditioner(A, b, opts, options):
    pc = options.get("preconditioner")
    if not pc:
        return opts
    kind = pc.get("kind")
    side = pc.get("side", "right")
    if kind == "jacobi":
        dense_diag = _operator_diagonal(A)
        M = DiagonalPreconditioner(dense_diag)
    elif kind == "poly":
        poly = build_poly_preconditioner(A, b, pc.get("degree", 5))
        M = polynomial_preconditioner(A, poly)
    else:
        raise ConfigError(f"preconditioner.kind: unknown kind {kind!r}")
    return replace(opts, precond_side=side, preconditioner=M)


def _operator_diagonal(A):
    # the inexact model perturbs products, not entries
    A = getattr(A, "exact", A)
    if isinstance(A, CsrMatrix):
        return A.diagonal()
    return np.diag(np.asarray(A))


def _run_variant(A, b, variant, callback=None):
    # before the s-step basis and the polynomial preconditioner run on b
    b = _finite_vector("b", b)
    _matvec_for(A, len(b))
    solver = variant["solver"]
    options = dict(variant.get("options", {}))
    opts = _gmres_options(options, callback)
    opts = _with_preconditioner(A, b, opts, options)
    if options.get("scheme") == "householder" and solver in ("gmres",
                                                             "gmres-restarted"):
        solver = "hh-gmres"
    if solver == "gmres":
        return gmres(A, b, opts=opts)
    if solver == "gmres-restarted":
        return gmres_restarted(A, b, opts=replace(
            opts, restart=options.get("restart", 30)))
    if solver == "hh-gmres":
        return hh_gmres(A, b, opts=opts)
    if solver in ("sgmres", "rb-sgmres", "adaptive-sgmres"):
        variant_name = {"sgmres": "sgmres", "rb-sgmres": "rb",
                        "adaptive-sgmres": "adaptive"}[solver]
        return simpler_gmres(A, b, opts=opts, variant=variant_name)
    if solver == "gcr":
        return gcr(A, b, opts=opts)
    if solver == "orthodir":
        return orthodir(A, b, opts=opts)
    if solver == "fgmres":
        return fgmres(A, b, opts=opts)
    if solver == "lgmres":
        return lgmres(A, b, m1=options.get("m1", 20), m2=options.get("m2", 3),
                      opts=opts)
    if solver == "gmres-e":
        return gmres_e(A, b, m1=options.get("m1", 20), m2=options.get("m2", 2),
                       opts=opts)
    if solver == "weighted-gmres":
        return weighted_gmres(A, b, opts=opts)
    if solver == "sstep-gmres":
        spec = _basis_from_options(A, b, options)
        return sstep_gmres(A, b, s=options.get("s", 4), t=options.get("t", 5),
                           spec=spec, opts=opts)
    if solver == "pipelined-gmres":
        return pipelined_gmres(A, b, opts=opts, theta=options.get("theta"))
    if solver == "lowsync-gmres":
        return lowsync_gmres(A, b, opts=opts)
    if solver == "two-precision":
        return gmres_two_precision(A, b, opts=opts)
    if solver == "gmres-ir":
        return gmres_ir(A, b, rtol=options.get("rtol", 1e-13),
                        max_refinements=options.get("max_refinements", 40))
    raise ConfigError(f"solver: unknown solver {solver!r}")


SOLVER_DISPATCH = (
    "gmres", "gmres-restarted", "hh-gmres", "sgmres", "rb-sgmres",
    "adaptive-sgmres", "gcr", "orthodir", "fgmres", "lgmres", "gmres-e",
    "weighted-gmres", "sstep-gmres", "pipelined-gmres", "lowsync-gmres",
    "two-precision", "gmres-ir",
)


# ---------------------------------------------------------------------------
# Output writing


def _fmt(x):
    return repr(float(x))


def _write_atomic(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _variant_csv(report):
    checkpoints = dict(report.true_residual_checkpoints)
    marks = report.reduction_marks
    lines = ["iter,rho,true_residual,reductions_cum"]
    for k, rho in enumerate(report.residual_history):
        if k == 0:
            cum = 0
        elif k - 1 < len(marks):
            cum = marks[k - 1]
        else:
            cum = marks[-1] if marks else report.reductions
        true_part = _fmt(checkpoints[k]) if k in checkpoints else ""
        lines.append(f"{k},{_fmt(rho)},{true_part},{cum}")
    return "\n".join(lines) + "\n"


def _bounds_csv(br):
    lines = ["iter,measured,eigen_bound,elman_bound,fov_bound"]
    for n, measured, eig, elman, fov in br.rows():
        cells = [str(n), _fmt(measured)]
        for v in (eig, elman, fov):
            cells.append("" if v is None else _fmt(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def run(config, output_dir=None, log=None):
    """Execute every variant of an experiment and write its artifacts.

    Per variant: a CSV of (iter, rho, true_residual, reductions_cum) plus an
    optional bound-report CSV; one summary.json across variants.  Wall-clock
    times go to timings.json, the only artifact excluded from byte-identical
    rerun determinism.  Returns (summary dict, output directory).
    """
    if not isinstance(config, ExperimentConfig):
        config = ExperimentConfig.from_json(config)
    outdir = output_dir if output_dir is not None else config.outputs
    os.makedirs(outdir, exist_ok=True)
    A = _build_problem(config)
    matvec, n = as_matvec(A)
    b = _build_rhs(config, n)
    summary = {"variants": {}}
    timings = {}
    for variant in config.variants:
        name = variant["name"]
        if log:
            log(f"running variant {name} ({variant['solver']})")
        operator = A
        callback = None
        if config.inexact is not None:
            sched = PerturbationSchedule(
                mode=config.inexact.get("mode", "fixed"),
                eta=config.inexact.get("eta", 0.0),
                rtol=variant.get("options", {}).get("rtol", 1e-8))
            cell = {"rho": None}
            callback = lambda k, rho_rel, cell=cell: cell.__setitem__("rho", rho_rel)
            operator = inexact_operator(A, sched,
                                        history_hook=lambda cell=cell: cell["rho"],
                                        seed=config.inexact["seed"])
        t0 = time.perf_counter()
        try:
            report = _run_variant(operator, b, variant, callback)
        except (RuntimeError, np.linalg.LinAlgError, SingularMatrixError) as exc:
            # an internal solver error (a singular least-squares factor is a
            # ValueError) fails the run's exit status but does not stop the
            # remaining variants
            timings[name] = time.perf_counter() - t0
            summary["variants"][name] = {
                "solver": variant["solver"],
                "termination": "error",
                "error": f"{type(exc).__name__}: {exc}",
            }
            summary["errors"] = summary.get("errors", 0) + 1
            continue
        timings[name] = time.perf_counter() - t0
        _write_atomic(os.path.join(outdir, f"{name}.csv"), _variant_csv(report))
        if config.bound_checks:
            br = bounds_mod.bound_report(A, report)
            _write_atomic(os.path.join(outdir, f"{name}_bounds.csv"),
                          _bounds_csv(br))
        summary["variants"][name] = {
            "solver": variant["solver"],
            "termination": report.termination,
            "iterations": report.iterations,
            "restarts": report.restarts,
            "matvecs": report.matvecs,
            "reductions": report.reductions,
            "final_true_residual": _last_checkpoint(report),
            "final_backward_error": backward_error(A, report.x, b),
        }
    _write_atomic(os.path.join(outdir, "summary.json"),
                  json.dumps(summary, sort_keys=True, indent=2) + "\n")
    _write_atomic(os.path.join(outdir, "timings.json"),
                  json.dumps(timings, sort_keys=True, indent=2) + "\n")
    return summary, outdir


def _last_checkpoint(report):
    if report.true_residual_checkpoints:
        return report.true_residual_checkpoints[-1][1]
    return report.residual_history[-1]


def compare(config, output_dir=None, log=None):
    """Run all variants and produce an aligned comparison table.

    Returns (rows, text table); also writes comparison.csv next to the run
    artifacts.  Needs at least two variants.
    """
    if not isinstance(config, ExperimentConfig):
        config = ExperimentConfig.from_json(config)
    if len(config.variants) < 2:
        raise ConfigError("variants: comparison needs at least two variants")
    summary, outdir = run(config, output_dir, log)
    header = ("variant", "termination", "iterations", "matvecs", "reductions",
              "backward_error")
    rows = []
    for variant in config.variants:
        entry = summary["variants"][variant["name"]]
        rows.append((variant["name"], entry["termination"],
                     entry["iterations"], entry["matvecs"],
                     entry["reductions"], entry["final_backward_error"]))
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    fmt_row = lambda r: "  ".join(str(c).ljust(w) for c, w in zip(r, widths))
    table = "\n".join([fmt_row(header)] + [fmt_row(r) for r in rows]) + "\n"
    csv_lines = [",".join(header)]
    for r in rows:
        csv_lines.append(",".join(_fmt(c) if isinstance(c, float) else str(c)
                                  for c in r))
    _write_atomic(os.path.join(outdir, "comparison.csv"),
                  "\n".join(csv_lines) + "\n")
    return rows, table
