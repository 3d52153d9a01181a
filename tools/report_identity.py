"""Dump the SolveReport of every solver on a fixed grid, or compare two dumps.

    PYTHONPATH=src python tools/report_identity.py dump after.npz
    PYTHONPATH=/path/to/other/checkout/src python tools/report_identity.py dump before.npz
    PYTHONPATH=src python tools/report_identity.py compare before.npz after.npz

`dump` runs every SOLVER_DISPATCH entry, and three more GMRES-IR variants,
on five problems with max_iter 13 and 60, restart unset and 8, and x0 zero
and random (rtol 1e-8, seeded right-hand sides), 800 cases in all.  The problems are convdiff 10x10 and
32x32 (Peclet 10); convdiff 4x4, whose grade the budgets reach; a singular
operator with eigenvalues 0, 0, 1, ..., 6; and one with 40 eigenvalues
geometrically spaced over [1e-6, 1] (condition number 1e6).  The last three
drive the solvers into their breakdown, stagnation and exception exits.
It writes each report's counts, termination, x, residual history,
true-residual checkpoints, reduction log and marks, and the diagnostics
counters reorthogonalizations, dropped_augmentations, augmented_cycles and
theta (NaN where a solver has none), or the type of the exception the call
raised, and prints how many cases ended in each termination or exception
type.  gmres-ir runs as the harness dispatches it, on its default inner
options (rtol 1e-4, restart 50, max_iter 200); the variants change one of them each, to inner
restart 5, max_iter 3 or rtol 1e-6, so that the inner restart loop and its
budget are covered.  All four ignore max_iter, restart and x0.  It also stores the CSR arrays (row_ptr,
col_idx, values) of each problem after an mm_write -> mm_read round trip,
of gen_convdiff(128, 128, 10.0), and of a 64x64 arrow matrix with ten empty
rows, together with the bytes of A.matvec(v) for each of them on two seeded
vectors, the second holding zeros of both signs.  And it stores the binary32
LU factors (L, U, perm, growth) that lu_low computes, and their solves of
three seeded right-hand sides, for convdiff 32x32 (Peclet 10), the kappa~1e3
200x200 matrix of acceptance criterion 13 and a nonsymmetric Gaussian
150x150 matrix.

`compare` prints each case whose counts, termination or exception type
moved, each reduction-log entry that moved (index, before -> after), and
each case whose reduction marks or diagnostics counters moved.  Then it
prints one row per solver: its cases, how many moved, and the largest
relative difference in x (normwise) and in the residual histories and
true-residual checkpoints (largest entry difference over the common prefix,
relative to the initial residual norm).  It then names each CSR array or
matvec output, and each LU factor or solve, whose dtype or bytes differ.
It exits with status 1 when a count, a termination, an exception type, a
reduction log or its marks, a diagnostics counter, a CSR array, a matvec
output, an LU factor or an LU solve differs, so a change that should only
move rounding can be checked against its parent.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from collections import Counter

import numpy as np

from gmreskit import (GmresOptions, fgmres, gcr, gmres, gmres_e, gmres_ir, gmres_restarted,
                      gmres_two_precision, hh_gmres, lgmres, lowsync_gmres, lu_low, orthodir,
                      pipelined_gmres, simpler_gmres, sstep_gmres, weighted_gmres)
from gmreskit.harness import SOLVER_DISPATCH, gen_convdiff, gen_spectrum
from gmreskit.linalg import CsrMatrix, mm_read, mm_write

SOLVE = {
    "gmres": gmres,
    "gmres-restarted": gmres_restarted,
    "hh-gmres": hh_gmres,
    "sgmres": lambda A, b, x0, o: simpler_gmres(A, b, x0, o, variant="sgmres"),
    "rb-sgmres": lambda A, b, x0, o: simpler_gmres(A, b, x0, o, variant="rb"),
    "adaptive-sgmres": simpler_gmres,
    "gcr": gcr,
    "orthodir": orthodir,
    "fgmres": fgmres,
    "lgmres": lambda A, b, x0, o: lgmres(A, b, x0, opts=o),
    "gmres-e": lambda A, b, x0, o: gmres_e(A, b, x0, opts=o),
    "weighted-gmres": weighted_gmres,
    "sstep-gmres": lambda A, b, x0, o: sstep_gmres(A, b, x0, opts=o),
    "pipelined-gmres": pipelined_gmres,
    "lowsync-gmres": lowsync_gmres,
    "two-precision": gmres_two_precision,
    "gmres-ir": lambda A, b, x0, o: gmres_ir(A, b),
    "gmres-ir-restart5": lambda A, b, x0, o: gmres_ir(
        A, b, inner_opts=GmresOptions(rtol=1e-4, restart=5, max_iter=200)),
    "gmres-ir-maxiter3": lambda A, b, x0, o: gmres_ir(
        A, b, inner_opts=GmresOptions(rtol=1e-4, restart=50, max_iter=3)),
    "gmres-ir-rtol1e-6": lambda A, b, x0, o: gmres_ir(
        A, b, inner_opts=GmresOptions(rtol=1e-6, restart=50, max_iter=200)),
}
COUNTS = ("iterations", "matvecs", "reductions", "restarts")
LU = ("L", "U", "perm", "growth")
DIAGNOSTICS = ("reorthogonalizations", "dropped_augmentations", "augmented_cycles", "theta")
CSR = ("row_ptr", "col_idx", "values")


def problems():
    """(label, operator, seed of the right-hand side and random x0)."""
    for side in (10, 32, 4):
        yield f"n={side}^2", gen_convdiff(side, side, peclet=10.0), side
    yield "singular", gen_spectrum([0.0, 0.0, 1, 2, 3, 4, 5, 6], seed=3), 3
    yield "kappa=1e6", gen_spectrum(np.geomspace(1e-6, 1.0, 40), seed=5), 5


def cases():
    for label, A, seed in problems():
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(A.nrows)
        x_random = rng.standard_normal(A.nrows)
        for max_iter in (13, 60):
            for restart in (None, 8):
                for x0_kind, x0 in (("zero", None), ("random", x_random)):
                    opts = GmresOptions(rtol=1e-8, max_iter=max_iter, restart=restart)
                    # every dispatch entry (one SOLVE lacks is a KeyError), then the variants
                    for name in dict.fromkeys([*SOLVER_DISPATCH, *SOLVE]):
                        yield (f"{name} {label} max_iter={max_iter} "
                               f"restart={restart} x0={x0_kind}", name, A, b, x0, opts)


def operators():
    """(key prefix, CsrMatrix) of every stored operator."""
    with tempfile.TemporaryDirectory() as tmp:
        for label, A, _ in problems():
            mm_write(os.path.join(tmp, "A.mtx"), A)
            yield f"csr {label} mm round trip", mm_read(os.path.join(tmp, "A.mtx"))
    yield "csr convdiff 128^2 Peclet 10", gen_convdiff(128, 128, 10.0)
    # a dense first row and first column over the diagonal, rows 20-29 empty
    n = 64
    rest = np.setdiff1d(np.arange(1, n), np.arange(20, 30))
    rows = np.concatenate((np.zeros(n, dtype=np.int64), rest, rest))
    cols = np.concatenate((np.arange(n), np.zeros(len(rest), dtype=np.int64), rest))
    values = np.random.default_rng(11).standard_normal(len(rows))
    yield "csr arrow 64^2 with empty rows", CsrMatrix.from_coo(n, n, rows, cols, values)


def factored():
    """(key prefix, matrix) of every binary32 LU stored."""
    yield "lu convdiff 32^2 Peclet 10", gen_convdiff(32, 32, 10.0)
    rng = np.random.default_rng(133)  # as acceptance criterion 13 builds it
    Q1, _ = np.linalg.qr(rng.standard_normal((200, 200)))
    Q2, _ = np.linalg.qr(rng.standard_normal((200, 200)))
    yield "lu kappa~1e3 200^2", Q1 @ np.diag(np.logspace(0.0, 3.0, 200)) @ Q2.T
    yield "lu gaussian 150^2", np.random.default_rng(17).standard_normal((150, 150))


def vectors(n):
    """Two seeded vectors to multiply with; the second holds signed zeros."""
    v = np.random.default_rng(0).standard_normal(n)
    w = np.random.default_rng(1).standard_normal(n)
    w[::3], w[1::3] = -0.0, 0.0
    return v, w


def dump(path):
    out = {}
    for prefix, A in operators():
        out.update({f"{prefix}|{name}": getattr(A, name) for name in CSR})
        out.update({f"{prefix}|matvec {k}": A.matvec(v)
                    for k, v in enumerate(vectors(A.ncols))})
    for prefix, A in factored():
        lu = lu_low(A)
        out.update({f"{prefix}|{name}": np.asarray(getattr(lu, name)) for name in LU})
        n = len(lu.perm)
        rhs = (*vectors(n), np.random.default_rng(2).standard_normal(n).astype(np.float32))
        out.update({f"{prefix}|solve {k}": lu.solve(r) for k, r in enumerate(rhs)})
    outcomes = Counter()  # termination or exception type -> cases
    for key, name, A, b, x0, opts in cases():
        try:
            rep = SOLVE[name](A, b, x0, opts)
        except Exception as exc:  # the exception type is part of the record
            out[key + "|raised"] = np.array(type(exc).__name__)
            outcomes[type(exc).__name__] += 1
            continue
        outcomes[rep.termination] += 1
        out[key + "|raised"] = np.array("")
        out[key + "|counts"] = np.array([getattr(rep, c) for c in COUNTS])
        out[key + "|termination"] = np.array(rep.termination)
        out[key + "|x"] = np.asarray(rep.x, dtype=np.float64)
        out[key + "|history"] = np.asarray(rep.residual_history, dtype=np.float64)
        out[key + "|checkpoints"] = np.array([v for _, v in rep.true_residual_checkpoints])
        out[key + "|reduction_log"] = np.array(rep.reduction_log, dtype=np.int64)
        out[key + "|reduction_marks"] = np.array(rep.reduction_marks, dtype=np.int64)
        diag = rep.diagnostics
        out[key + "|diagnostics"] = np.array(
            [np.nan if diag.get(k) is None else float(diag[k]) for k in DIAGNOSTICS])
    np.savez(path, **out)
    print(f"{path}: {sum(outcomes.values())} cases; "
          + ", ".join(f"{k} {v}" for k, v in sorted(outcomes.items())))


def _rel_x(a, b):
    scale = np.linalg.norm(a)
    return float(np.linalg.norm(a - b) / scale) if scale else float(np.linalg.norm(b))


def _rel_series(a, b, scale):
    # over the common prefix: a history that changed length is a count change
    k = min(len(a), len(b))
    return float(np.max(np.abs(a[:k] - b[:k])) / (scale or 1.0)) if k else 0.0


def compare(path_a, path_b):
    a, b = np.load(path_a), np.load(path_b)
    keys = sorted(k[: -len("|raised")] for k in a.files if k.endswith("|raised"))
    if sorted(k for k in b.files if k.endswith("|raised")) != [k + "|raised" for k in keys]:
        print("the two dumps cover different cases")
        return 1
    rows = {}  # solver -> [cases, record changes, exception changes, max dx, max dhist]
    for key in keys:
        row = rows.setdefault(key.split()[0], [0, 0, 0, 0.0, 0.0])
        row[0] += 1
        ra, rb = str(a[key + "|raised"]), str(b[key + "|raised"])
        if ra != rb:
            row[2] += 1
            print(f"{key}: raised {ra or 'nothing'} -> {rb or 'nothing'}")
            continue
        if ra:
            continue
        ca, cb = a[key + "|counts"], b[key + "|counts"]
        ta, tb = str(a[key + "|termination"]), str(b[key + "|termination"])
        moved = not np.array_equal(ca, cb) or ta != tb
        if moved:
            print(f"{key}: {dict(zip(COUNTS, ca.tolist()))} {ta} -> "
                  f"{dict(zip(COUNTS, cb.tolist()))} {tb}")
        la, lb = a[key + "|reduction_log"], b[key + "|reduction_log"]
        if len(la) != len(lb):
            moved = True
            print(f"{key}: reduction log of {len(la)} steps -> {len(lb)}")
        else:
            for i in np.flatnonzero(la != lb):
                moved = True
                print(f"{key}: reduction_log[{i}] {la[i]} -> {lb[i]}")
        if not np.array_equal(a[key + "|reduction_marks"], b[key + "|reduction_marks"]):
            moved = True
            print(f"{key}: reduction marks moved")
        da, db = a[key + "|diagnostics"], b[key + "|diagnostics"]
        if not np.array_equal(da, db, equal_nan=True):
            moved = True
            print(f"{key}: diagnostics {dict(zip(DIAGNOSTICS, da.tolist()))} -> "
                  f"{dict(zip(DIAGNOSTICS, db.tolist()))}")
        row[1] += moved
        row[3] = max(row[3], _rel_x(a[key + "|x"], b[key + "|x"]))
        r0 = a[key + "|history"][0]
        row[4] = max(row[4], *(_rel_series(a[key + part], b[key + part], r0)
                               for part in ("|history", "|checkpoints")))
    print(f"{'solver':<17} {'cases':>5} {'record moved':>12} {'raised moved':>12} "
          f"{'max rel dx':>10} {'max rel dhist':>13}")
    for name, (n, moved, raised, dx, dh) in rows.items():
        print(f"{name:<17} {n:>5} {moved:>12} {raised:>12} {dx:>10.3g} {dh:>13.3g}")
    moved = sum(r[1] for r in rows.values())
    raised = sum(r[2] for r in rows.values())
    print(f"all counts, logs and diagnostics equal: "
          f"{'yes' if not moved else f'no ({moved} cases)'}; "
          f"exception type changed: {raised} cases; "
          f"largest relative difference in x {max(r[3] for r in rows.values()):.3g}, "
          f"in the histories {max(r[4] for r in rows.values()):.3g}")
    arrays_moved = 0
    for prefix, what in (("csr ", "CSR arrays and matvec outputs"),
                         ("lu ", "LU factors and solves")):
        keys_a = {k for k in a.files if k.startswith(prefix)}
        keys_b = {k for k in b.files if k.startswith(prefix)}
        differ = sorted(keys_a ^ keys_b) + sorted(
            k for k in keys_a & keys_b
            if a[k].dtype != b[k].dtype or a[k].tobytes() != b[k].tobytes())
        for key in differ:
            print(f"differs or is missing: {key}")
        print(f"{what} identical: {'yes' if not differ else f'no ({len(differ)})'} "
              f"({len(keys_a | keys_b)} arrays)")
        arrays_moved += len(differ)
    return 0 if not moved and not raised and not arrays_moved else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("dump").add_argument("path")
    cmp_parser = sub.add_parser("compare")
    cmp_parser.add_argument("before")
    cmp_parser.add_argument("after")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.path)
        return 0
    return compare(args.before, args.after)


if __name__ == "__main__":
    sys.exit(main())
