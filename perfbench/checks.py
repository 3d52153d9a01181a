"""Checks on the program's outputs.

Each check returns a list of problems; an empty list means the output
passed.  Residuals are recomputed with the reference product, never with the
program's own matvec.
"""

from __future__ import annotations

import numpy as np

from reference import elman_base, fov_base, residual

EPS = float(np.finfo(np.float64).eps)

# relative agreement of a recomputed residual with the program's checkpoint:
# both products round each component by a few eps times (|A||x| + |b|)_i
CHECKPOINT_RTOL = 1e-8
ROUNDING_SLACK = 32 * EPS
# slack on the never-increasing rule, as in the acceptance suite
MONOTONE_SLACK = 1e-14
# first-cycle histories of variants over one Krylov space, relative to rho_0
AGREEMENT_TOL = 1e-8
# measured ratios may exceed a bound by rounding only
BOUND_SLACK = 1e-10
# the program's Jacobi eigensolver stops at 1e-14 * ||S||_F off-diagonal mass
BOUND_BASE_TOL = 1e-9


def solve_residual(label, ref, b, report, accuracy):
    """The final iterate's residual, recomputed with the reference product,
    matches the report's last true-residual checkpoint and meets
    ``accuracy * ||b||``."""
    if not report.true_residual_checkpoints:
        return [f"{label}: no true-residual checkpoint"]
    rho, scale = residual(ref, report.x, b)
    checkpoint = report.true_residual_checkpoints[-1][1]
    problems = []
    if not abs(rho - checkpoint) <= CHECKPOINT_RTOL * checkpoint + ROUNDING_SLACK * scale:
        problems.append(f"{label}: recomputed residual {rho:.6e} disagrees with "
                        f"the last checkpoint {checkpoint:.6e}")
    bnorm = float(np.linalg.norm(b))
    if not rho <= accuracy * bnorm:
        problems.append(f"{label}: relative residual {rho / bnorm:.3e} misses the "
                        f"stated accuracy {accuracy:.1e}")
    return problems


def cycles(report):
    """Index ranges [start, end] of the residual history, one per cycle.

    Cycles end at the true-residual checkpoints, which every solver records
    at each restart and at exit.
    """
    ends = sorted({k for k, _ in report.true_residual_checkpoints if k > 0})
    spans, start = [], 0
    for end in ends:
        spans.append((start, end))
        start = end
    return spans


def monotone(label, report):
    """A minimal-residual estimate never increases within a cycle."""
    h = report.residual_history
    problems = []
    for start, end in cycles(report):
        for k in range(start + 1, end):
            if not h[k + 1] <= h[k] * (1.0 + MONOTONE_SLACK):
                problems.append(f"{label}: residual estimate rises at iteration "
                                f"{k + 1} ({h[k]:.6e} -> {h[k + 1]:.6e})")
                break
    return problems


def agree(label, report, ref_label, ref_report, length):
    """Two variants over one Krylov space give the same first ``length``
    residual estimates."""
    h = np.asarray(report.residual_history[: length + 1])
    g = np.asarray(ref_report.residual_history[: length + 1])
    if len(h) != len(g):
        return [f"{label}: first cycle has {len(h) - 1} iterations, "
                f"{ref_label} has {len(g) - 1}"]
    dev = float(np.max(np.abs(h - g)) / g[0])
    if not dev <= AGREEMENT_TOL:
        return [f"{label}: first-cycle history departs from {ref_label} by "
                f"{dev:.2e} of rho_0"]
    return []


def final_residual(report):
    return report.true_residual_checkpoints[-1][1]


def twin(label, report, twin_label, twin_report, factor=10.0):
    """A two-precision solve ends within ``factor`` of its binary64 twin."""
    mine, theirs = final_residual(report), final_residual(twin_report)
    if not mine <= factor * theirs:
        return [f"{label}: final residual {mine:.3e} is more than {factor:g}x "
                f"the {twin_label} twin's {theirs:.3e}"]
    return []


def forward(label, err, limit):
    if not err <= limit:
        return [f"{label}: forward error {err:.3e} above {limit:.0e}"]
    return []


def bounds(label, br, dense, grid_count):
    """Every applicable bound dominates the measured ratio, and the Elman and
    field-of-values bases match numpy.linalg.eigvalsh at the same angles."""
    problems = []
    for n, measured, *values in br.rows():
        for name, v in zip(("eigen", "elman", "fov"), values):
            if v is not None and not v >= measured - BOUND_SLACK:
                problems.append(f"{label}: {name} bound {v:.6e} below the "
                                f"measured ratio {measured:.6e} at n={n}")
    refs = {"elman": elman_base(dense), "fov": fov_base(dense, grid_count)}
    for name, ref in refs.items():
        col = getattr(br, name)
        got = col[2] if len(col) > 2 else None  # base ** (2 / 2)
        if (got is None) != (ref is None):
            problems.append(f"{label}: {name} bound applicability disagrees "
                            f"with the reference")
        elif got is not None and not abs(got - ref) <= BOUND_BASE_TOL:
            problems.append(f"{label}: {name} base {got:.12f} differs from the "
                            f"reference {ref:.12f}")
    return problems
