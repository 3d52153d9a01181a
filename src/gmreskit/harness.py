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
from .commavoid import _BASIS_NAMES, lowsync_gmres, pipelined_gmres, sstep_gmres
from .deflation import build_poly_preconditioner, gmres_e, polynomial_preconditioner
from .linalg import CsrMatrix, as_matvec, mm_read, operator_norm_estimate
from .mixedprec import gmres_ir, gmres_two_precision
from .solvers import (
    READS,
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
            options = v.get("options", {})
            if not isinstance(options, dict):
                raise ConfigError(f"variants[{i}].options: need a JSON object")
            unread = sorted(set(options) - _option_keys(v["solver"]))
            if unread:
                raise ConfigError(f"variants[{i}].options.{unread[0]}: {v['solver']} "
                                  f"does not read this key")
            if "basis" in options and options["basis"] not in _BASIS_NAMES:
                raise ConfigError(f"variants[{i}].options.basis: unknown basis "
                                  f"{options['basis']!r}; use one of {', '.join(_BASIS_NAMES)}")
            if options.get("preconditioner") is not None:
                _check_preconditioner(options["preconditioner"],
                                      f"variants[{i}].options.preconditioner")
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


# name -> (solver, the keywords the name fixes, the option keys passed on as
# keywords when a variant sets them).  Every other default lives in the
# solver's signature or in GmresOptions.
SOLVER_DISPATCH = {
    "gmres": (gmres, {}, ()),
    "gmres-restarted": (gmres_restarted, {}, ()),
    "hh-gmres": (hh_gmres, {}, ()),
    "sgmres": (simpler_gmres, {"variant": "sgmres"}, ()),
    "rb-sgmres": (simpler_gmres, {"variant": "rb"}, ()),
    "adaptive-sgmres": (simpler_gmres, {"variant": "adaptive"}, ()),
    "gcr": (gcr, {}, ()),
    "orthodir": (orthodir, {}, ()),
    "fgmres": (fgmres, {}, ()),
    "lgmres": (lgmres, {}, ("m1", "m2")),
    "gmres-e": (gmres_e, {}, ("m1", "m2")),
    "weighted-gmres": (weighted_gmres, {}, ()),
    "sstep-gmres": (sstep_gmres, {}, ("s", "t")),
    "pipelined-gmres": (pipelined_gmres, {}, ("theta",)),
    "lowsync-gmres": (lowsync_gmres, {}, ()),
    "two-precision": (gmres_two_precision, {}, ()),
    "gmres-ir": (gmres_ir, {}, ("rtol", "max_refinements")),
}

# variant option key -> the GmresOptions field it sets, for every entry but
# gmres-ir; "preconditioner" sets precond_side and preconditioner
_OPTION_FIELDS = {"rtol": "rtol", "max_iter": "max_iter", "restart": "restart",
                  "scheme": "scheme", "omega": "simpler_omega",
                  "preconditioner": "preconditioner"}


def _option_keys(name):
    """The variant option keys the dispatch entry ``name`` reads: those of its
    fields in solvers.READS and the keywords it passes on."""
    solve, _, passed = SOLVER_DISPATCH[name]
    keys = set(passed)
    if solve is not gmres_ir:  # the one entry that takes no GmresOptions
        keys.update(k for k, f in _OPTION_FIELDS.items() if f in READS[name][0])
    if solve is sstep_gmres:
        keys.add("basis")
    return keys


def _check_preconditioner(pc, where):
    """A ConfigError naming the key unless pc is a preconditioner object
    {"kind": "jacobi" | "poly", "side": "left" | "right", "degree": int >= 1}
    of which only kind is required and only poly takes a degree."""
    if not isinstance(pc, dict):
        raise ConfigError(f"{where}: need a JSON object or null")
    unknown = sorted(set(pc) - {"kind", "side", "degree"})
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}: unknown key; use kind, side or degree")
    if pc.get("kind") not in ("jacobi", "poly"):
        raise ConfigError(f"{where}.kind: need jacobi or poly, got {pc.get('kind')!r}")
    if pc.get("side", "right") not in ("left", "right"):
        raise ConfigError(f"{where}.side: need left or right, got {pc['side']!r}")
    if "degree" in pc:
        degree = pc["degree"]
        if pc["kind"] != "poly":
            raise ConfigError(f"{where}.degree: only a poly preconditioner has a degree")
        if isinstance(degree, bool) or not isinstance(degree, int) or degree < 1:
            raise ConfigError(f"{where}.degree: need an integer of at least 1, got {degree!r}")


def _gmres_options(A, b, options, callback=None):
    """GmresOptions holding only the keys the variant sets."""
    fields = {_OPTION_FIELDS[k]: v for k, v in options.items() if k in _OPTION_FIELDS}
    pc = fields.pop("preconditioner", None)
    opts = GmresOptions(iteration_callback=callback, **fields)
    if pc is None:
        return opts
    if pc["kind"] == "jacobi":
        M = DiagonalPreconditioner(_operator_diagonal(A))
    else:
        poly = build_poly_preconditioner(A, b, pc.get("degree", 5))
        M = polynomial_preconditioner(A, poly)
    return replace(opts, precond_side=pc.get("side", "right"), preconditioner=M)


def _operator_diagonal(A):
    # the inexact model perturbs products, not entries
    A = getattr(A, "exact", A)
    if isinstance(A, CsrMatrix):
        return A.diagonal()
    return np.diag(np.asarray(A))


def _run_variant(A, b, variant, callback=None):
    # before the polynomial preconditioner runs on b
    b = _finite_vector("b", b)
    _matvec_for(A, len(b))
    options = variant.get("options", {})
    solve, fixed, passed = SOLVER_DISPATCH[variant["solver"]]
    kwargs = dict(fixed, **{k: options[k] for k in passed if k in options})
    if solve is not gmres_ir:
        kwargs["opts"] = _gmres_options(A, b, options, callback)
    if solve is sstep_gmres and "basis" in options:
        kwargs["spec"] = options["basis"]
    return solve(A, b, **kwargs)


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
                rtol=variant.get("options", {}).get("rtol", GmresOptions.rtol))
            cell = {"rho": None}
            callback = lambda k, rho_rel, cell=cell: cell.__setitem__("rho", rho_rel)
            operator = inexact_operator(A, sched,
                                        history_hook=lambda cell=cell: cell["rho"],
                                        seed=config.inexact["seed"])
        t0 = time.perf_counter()
        try:
            report = _run_variant(operator, b, variant, callback)
        except Exception as exc:
            # a solver's error fails the run's exit status but does not stop
            # the remaining variants
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
        entry = summary["variants"][name] = {
            "solver": variant["solver"],
            "termination": report.termination,
            "iterations": report.iterations,
            "restarts": report.restarts,
            "matvecs": report.matvecs,
            "reductions": report.reductions,
            "final_true_residual": _last_checkpoint(report),
            "final_backward_error": backward_error(A, report.x, b),
        }
        if config.bound_checks and n > bounds_mod.DESK_SCALE_LIMIT:
            entry["bounds"] = (f"skipped: A has {n} rows, above the bound "
                               f"report's limit of {bounds_mod.DESK_SCALE_LIMIT}")
        elif config.bound_checks:
            br = bounds_mod.bound_report(A, report)
            _write_atomic(os.path.join(outdir, f"{name}_bounds.csv"),
                          _bounds_csv(br))
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
    artifacts.  Needs at least two variants.  A variant that raised has the
    termination "error" and empty count and backward-error cells.
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
                     *(entry.get(k, "") for k in ("iterations", "matvecs", "reductions",
                                                  "final_backward_error"))))
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
