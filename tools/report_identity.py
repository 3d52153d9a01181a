"""Dump the SolveReport of every solver on a fixed grid, or compare two dumps.

    PYTHONPATH=src python tools/report_identity.py dump after.npz
    PYTHONPATH=/path/to/other/checkout/src python tools/report_identity.py dump before.npz
    PYTHONPATH=src python tools/report_identity.py compare [--exact] before.npz after.npz
    PYTHONPATH=src python tools/report_identity.py compare --envelope --moves lu before.npz after.npz

`dump` runs every SOLVER_DISPATCH entry, and three more GMRES-IR variants,
on five problems with max_iter 13 and 60, restart unset and 8, and x0 zero
and random (rtol 1e-8, seeded right-hand sides), 800 cases in all.  It also
runs each SOLVER_DISPATCH name through harness._run_variant, as the CLI does,
with options rtol 1e-8 and max_iter 60, on each problem: 85 more cases, keyed
"harness:<name>", and gmres and gmres-restarted with scheme householder as
well: 10 more, keyed "harness:<name>+householder", 895 cases in all.  The
problems are convdiff 10x10 and 32x32 (Peclet 10); convdiff 4x4, whose grade
the budgets reach; a singular operator with eigenvalues 0, 0, 1, ..., 6; and
one with 40 eigenvalues geometrically spaced over [1e-6, 1] (condition number
1e6).  The last three drive the solvers into their breakdown, stagnation and
exception exits.
It writes each report's counts, termination, x, residual history,
true-residual checkpoints, reduction log and marks, and the diagnostics
counters reorthogonalizations, dropped_augmentations, augmented_cycles and
theta (NaN where a solver has none), the Hessenberg factor the report
records in diagnostics["arnoldi"] where it has one (the array itself, or
the Hbar of an older report's ArnoldiDecomposition) and otherwise the one
an older s-step GMRES kept in diagnostics["hessenberg"], or the type of the
exception the call raised, and prints how many cases ended in each
termination or exception type.  gmres-ir runs as the harness dispatches it, on its default inner
options (rtol 1e-4, restart 50, max_iter 200); the variants change one of them each, to inner
restart 5, max_iter 3 or rtol 1e-6, so that the inner restart loop and its
budget are covered.  All four ignore max_iter, restart and x0.  It also stores the CSR arrays (row_ptr,
col_idx, values) of each problem after an mm_write -> mm_read round trip,
of gen_convdiff(128, 128, 10.0), of a 64x64 arrow matrix with ten empty
rows, of convdiff 32x32 (Peclet 10) with a seeded tenth of its entries
removed, of a 48x80 matrix with six diagonals, of a seeded Gaussian
60x60 matrix (from_dense) and of a seeded uniform random 64x64 pattern
with five empty rows, the last two without a band, together with the
bytes of A.matvec(v) for each of them on two seeded vectors, the second
holding zeros of both signs.  And it stores the binary32
LU factors (L, U, perm, growth) that lu_low computes, and their solves of
three seeded right-hand sides, for convdiff 32x32 (Peclet 10), the kappa~1e3
200x200 matrix of acceptance criterion 13, a nonsymmetric Gaussian
150x150 matrix, the negated convdiff 20x20 (Peclet 50), whose pivots are
negative, and a 200x200 band of width 10 whose first panel overflows.

`compare` prints each case whose counts, termination or exception type
moved, each reduction-log entry that moved (index, before -> after), and
each case whose reduction marks, diagnostics counters or recorded
Hessenberg (present on one side only, or of another dtype, shape or bytes)
moved.  Then it prints one row per solver: its cases, how many moved, and the largest
relative difference in x (normwise) and in the residual histories and
true-residual checkpoints (largest entry difference over the common prefix,
relative to the initial residual norm).  It then names each CSR array or
matvec output, and each LU factor or solve, whose dtype or bytes differ.
It exits with status 1 when a count, a termination, an exception type, a
reduction log or its marks, a diagnostics counter, a recorded Hessenberg,
a CSR array, a matvec output, an LU factor or an LU solve differs, so a change that should only
move rounding can be checked against its parent.  It also names each case
whose x, residual history or true-residual checkpoints differ in dtype, shape
or any byte; with --exact those cases make it exit with status 1 too, so a
change that should move no bit at all can be checked.

--envelope keeps every check of --exact, except for the families of arrays
that --moves names.  With --moves lu, the LU factors, growth and solves of
each factored() matrix whose bytes differ are not failed for their bytes:
the tool regenerates the matrix and holds the second dump's arrays to their
error bounds (lu_envelope): the backward error of the factors within
gamma_n max(|L||U|), each solve's residual within gamma_3n max(|L||U||x|),
growth within a factor 2 of the first dump's, and the same infs and NaNs at
the same positions wherever either side holds one.  It prints every moved
array with its ratio to its bound and exits with status 1 when one is
outside.  No solve case may move under --envelope yet.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from collections import Counter
from functools import partial

import numpy as np

from gmreskit import (GmresOptions, fgmres, gcr, gmres, gmres_e, gmres_ir, gmres_restarted,
                      gmres_two_precision, hh_gmres, lgmres, lowsync_gmres, lu_low, orthodir,
                      pipelined_gmres, simpler_gmres, sstep_gmres, weighted_gmres)
from gmreskit.harness import SOLVER_DISPATCH, _run_variant, gen_convdiff, gen_spectrum
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
    """(key, solve()) of every case."""
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
                               f"restart={restart} x0={x0_kind}",
                               partial(SOLVE[name], A, b, x0, opts))
        # the CLI path: each dispatch name as harness.run hands it over, and
        # the two GMRES entries with the Householder scheme
        for name in SOLVER_DISPATCH:
            variant = {"solver": name, "options": {"rtol": 1e-8, "max_iter": 60}}
            yield f"harness:{name} {label} max_iter=60", partial(_run_variant, A, b, variant)
        for name in ("gmres", "gmres-restarted"):
            variant = {"solver": name, "options": {"rtol": 1e-8, "max_iter": 60,
                                                   "scheme": "householder"}}
            yield (f"harness:{name}+householder {label} max_iter=60",
                   partial(_run_variant, A, b, variant))


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
    # a stencil with a tenth of its entries removed: rows that lack a band offset
    A = gen_convdiff(32, 32, 10.0)
    keep = np.random.default_rng(12).random(A.nnz) >= 0.1
    rows = np.repeat(np.arange(A.nrows), np.diff(A.row_ptr))
    yield "csr convdiff 32^2 with holes", CsrMatrix.from_coo(
        A.nrows, A.ncols, rows[keep], A.col_idx[keep], A.values[keep])
    # six diagonals of a 48x80 matrix; fewer than half the rows hold the last
    i, j = np.indices((48, 80))
    on = np.isin(j - i, [-5, -1, 0, 2, 45, 60])
    i, j = i[on], j[on]
    values = np.random.default_rng(13).standard_normal(len(i))
    yield "csr banded 48x80", CsrMatrix.from_coo(48, 80, i, j, values)
    # two patterns without a band, where every row gathers
    yield "csr gaussian 60^2", CsrMatrix.from_dense(
        np.random.default_rng(14).standard_normal((60, 60)))
    rng = np.random.default_rng(15)
    stored = rng.random((64, 64)) < 0.1
    stored[[0, 17, 18, 40, 63]] = False
    i, j = np.nonzero(stored)
    yield "csr random 64^2 with empty rows", CsrMatrix.from_coo(
        64, 64, i, j, rng.standard_normal(len(i)))


def factored():
    """(key prefix, matrix) of every binary32 LU stored."""
    yield "lu convdiff 32^2 Peclet 10", gen_convdiff(32, 32, 10.0)
    rng = np.random.default_rng(133)  # as acceptance criterion 13 builds it
    Q1, _ = np.linalg.qr(rng.standard_normal((200, 200)))
    Q2, _ = np.linalg.qr(rng.standard_normal((200, 200)))
    yield "lu kappa~1e3 200^2", Q1 @ np.diag(np.logspace(0.0, 3.0, 200)) @ Q2.T
    yield "lu gaussian 150^2", np.random.default_rng(17).standard_normal((150, 150))
    # two band matrices whose panels stop at their reach, of orders that are
    # not multiples of the panel width
    A = gen_convdiff(20, 20, 50.0)
    yield "lu negated convdiff 20^2 Peclet 50", CsrMatrix(
        A.nrows, A.ncols, A.row_ptr, A.col_idx, -A.values)
    yield "lu overflowing band 200^2", overflow_band()


def overflow_band():
    """A 200^2 band of width 10 with unit diagonal whose first panel overflows
    to -inf in column 63, so that the panel is factored again at full width."""
    n = 200
    offsets = np.subtract.outer(np.arange(n), np.arange(n))
    A = np.where(np.abs(offsets) <= 10,
                 0.1 * np.random.default_rng(5).standard_normal((n, n)), 0.0)
    np.fill_diagonal(A, 1.0)
    A[61, 61] = A[62, 61] = 1.0
    A[61, 63], A[62, 63] = 3e38, -3e38
    A[73, 61:63] = 1.0
    return A


def vectors(n):
    """Two seeded vectors to multiply with; the second holds signed zeros."""
    v = np.random.default_rng(0).standard_normal(n)
    w = np.random.default_rng(1).standard_normal(n)
    w[::3], w[1::3] = -0.0, 0.0
    return v, w


def right_hand_sides(n):
    """The three right-hand sides every stored LU solves."""
    return (*vectors(n), np.random.default_rng(2).standard_normal(n).astype(np.float32))


def lu_arrays(prefix, A):
    """{prefix|name: array} of A's binary32 LU factors, growth and solves."""
    # the overflowing band's factors and solves hold infs and NaNs
    with np.errstate(over="ignore", invalid="ignore"):
        lu = lu_low(A)
        out = {f"{prefix}|{name}": np.asarray(getattr(lu, name)) for name in LU}
        out.update({f"{prefix}|solve {k}": lu.solve(r)
                    for k, r in enumerate(right_hand_sides(len(lu.perm)))})
    return out


def _gamma(k):
    """gamma_k = k u / (1 - k u) of binary32, u = 2^-24."""
    u = 2.0 ** -24
    return k * u / (1 - k * u)


def _ratio(measured, bound):
    # 0 for an exact result, even against a zero bound; NaN stays NaN
    return 0.0 if measured == 0 else float(measured / bound)


def _same_nonfinite(a, b):
    """Whether a and b hold the same infs and NaNs at the same positions."""
    fa, fb = np.isfinite(a), np.isfinite(b)
    return np.array_equal(fa, fb) and np.array_equal(a[~fa], b[~fb], equal_nan=True)


def lu_envelope(A, rhs, before, after):
    """{name: ratio} of each array of the binary32 LU `after` of A (L, U,
    perm, growth, and "solve k" of rhs[k]) to its bound; a ratio above 1, or
    NaN, is outside the envelope.  L, U and perm get the backward error
    max|A32[perm] - L U| over gamma_n max(|L||U|) (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 9.3), each solve x the residual
    max|b32[perm] - A32[perm] x| over gamma_3n max(|L||U||x|) (Thm 9.4), and
    growth its factor to before's growth over 2.  |L|, |U| and |x| are taken
    plus the smallest normal binary32 number, so that underflow, whose
    absolute error the theorems leave out, stays inside (Higham, eq. 2.8).
    An array that holds an inf or NaN on either side gets 0 when both hold
    the same ones at the same positions, else inf.  A32 and b32 are A and b
    rounded to binary32, as lu_low and LowLU.solve read them."""
    perm = after["perm"]
    n = len(perm)
    dense = A.to_dense() if isinstance(A, CsrMatrix) else np.asarray(A, dtype=np.float64)
    PA = dense.astype(np.float32).astype(np.float64)[perm]
    L, U = (after[name].astype(np.float64) for name in ("L", "U"))
    ratios = {}
    with np.errstate(all="ignore"):
        mL, mU = (np.abs(M) + np.finfo(np.float32).tiny for M in (L, U))
        backward = _ratio(np.abs(PA - L @ U).max(initial=0.0),
                          _gamma(n) * (mL @ mU).max(initial=0.0))
        ratios.update(L=backward, U=backward, perm=backward)
        for k, b in enumerate(rhs):
            x = after[f"solve {k}"].astype(np.float64)
            b32 = np.asarray(b, dtype=np.float32).astype(np.float64)[perm]
            mx = np.abs(x) + np.finfo(np.float32).tiny
            ratios[f"solve {k}"] = _ratio(np.abs(b32 - PA @ x).max(initial=0.0),
                                          _gamma(3 * n) * (mL @ (mU @ mx)).max(initial=0.0))
        growth = sorted(float(g) for g in (before["growth"], after["growth"]))
        ratios["growth"] = _ratio(growth[1], 2 * growth[0])
    for name in ratios:
        if not (np.isfinite(before[name]).all() and np.isfinite(after[name]).all()):
            ratios[name] = 0.0 if _same_nonfinite(before[name], after[name]) else np.inf
    return ratios


def dump(path):
    out = {}
    for prefix, A in operators():
        out.update({f"{prefix}|{name}": getattr(A, name) for name in CSR})
        out.update({f"{prefix}|matvec {k}": A.matvec(v)
                    for k, v in enumerate(vectors(A.ncols))})
    for prefix, A in factored():
        out.update(lu_arrays(prefix, A))
    outcomes = Counter()  # termination or exception type -> cases
    for key, solve in cases():
        try:
            rep = solve()
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
        # s-step records its assembled Hessenberg under its own key
        recorded = diag.get("arnoldi", diag.get("hessenberg"))
        if recorded is not None:
            out[key + "|hessenberg"] = getattr(recorded, "Hbar", recorded)
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


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _judge_lu(a, b, differ):
    """Print each moved LU array of a factored() matrix with its ratio to its
    bound (lu_envelope); return how many are outside the envelope."""
    matrices = dict(factored())
    outside = 0
    for prefix in sorted({k.split("|")[0] for k in differ}):
        before, after = ({k.split("|")[1]: d[k] for k in d.files if k.startswith(prefix + "|")}
                         for d in (a, b))
        ratios = lu_envelope(matrices[prefix], right_hand_sides(len(after["perm"])),
                             before, after)
        for key in (k for k in differ if k.startswith(prefix + "|")):
            ratio = ratios[key.split("|")[1]]
            outside += not ratio <= 1
            print(f"moved: {key}: {ratio:.3g} of its bound"
                  + ("" if ratio <= 1 else " (outside the envelope)"))
    return outside


def compare(path_a, path_b, exact=False, moves=()):
    a, b = np.load(path_a), np.load(path_b)
    keys = sorted(k[: -len("|raised")] for k in a.files if k.endswith("|raised"))
    if sorted(k for k in b.files if k.endswith("|raised")) != [k + "|raised" for k in keys]:
        print("the two dumps cover different cases")
        return 1
    rows = {}  # solver -> [cases, record changes, exception changes, max dx, max dhist]
    hessenbergs = 0  # cases with a recorded Hessenberg on either side
    unequal_bytes = 0  # cases whose x, history or checkpoints differ in a byte
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
        ha, hb = (d.get(key + "|hessenberg") for d in (a, b))
        if ha is not None or hb is not None:
            hessenbergs += 1
            if ha is None or hb is None or not _same_bytes(ha, hb):
                moved = True
                print(f"{key}: recorded Hessenberg "
                      + " -> ".join("none" if h is None else f"{h.dtype} {h.shape}"
                                    for h in (ha, hb)) + " differs")
        unequal = [part for part in ("x", "history", "checkpoints")
                   if not _same_bytes(a[f"{key}|{part}"], b[f"{key}|{part}"])]
        if unequal:
            unequal_bytes += 1
            print(f"{key}: bytes of {', '.join(unequal)} differ")
        row[1] += moved
        row[3] = max(row[3], _rel_x(a[key + "|x"], b[key + "|x"]))
        r0 = a[key + "|history"][0]
        row[4] = max(row[4], *(_rel_series(a[key + part], b[key + part], r0)
                               for part in ("|history", "|checkpoints")))
    print(f"{'solver':<23} {'cases':>5} {'record moved':>12} {'raised moved':>12} "
          f"{'max rel dx':>10} {'max rel dhist':>13}")
    for name, (n, moved, raised, dx, dh) in rows.items():
        print(f"{name:<23} {n:>5} {moved:>12} {raised:>12} {dx:>10.3g} {dh:>13.3g}")
    moved = sum(r[1] for r in rows.values())
    raised = sum(r[2] for r in rows.values())
    print(f"recorded Hessenbergs compared: {hessenbergs} cases")
    print(f"all counts, logs, diagnostics and Hessenbergs equal: "
          f"{'yes' if not moved else f'no ({moved} cases)'}; "
          f"exception type changed: {raised} cases; "
          f"largest relative difference in x "
          f"{max((r[3] for r in rows.values()), default=0):.3g}, "
          f"in the histories {max((r[4] for r in rows.values()), default=0):.3g}")
    print(f"x, histories and checkpoints byte-equal: "
          f"{'yes' if not unequal_bytes else f'no ({unequal_bytes} cases)'}")
    arrays_moved = 0
    for prefix, what in (("csr ", "CSR arrays and matvec outputs"),
                         ("lu ", "LU factors and solves")):
        keys_a = {k for k in a.files if k.startswith(prefix)}
        keys_b = {k for k in b.files if k.startswith(prefix)}
        missing = sorted(keys_a ^ keys_b)
        differ = sorted(k for k in keys_a & keys_b if not _same_bytes(a[k], b[k]))
        judged = prefix == "lu " and "lu" in moves
        for key in missing + ([] if judged else differ):
            print(f"differs or is missing: {key}")
        print(f"{what} identical: "
              f"{'yes' if not missing + differ else f'no ({len(missing + differ)})'} "
              f"({len(keys_a | keys_b)} arrays)")
        arrays_moved += len(missing) + (_judge_lu(a, b, differ) if judged else len(differ))
    failed = moved or raised or arrays_moved or (exact and unequal_bytes)
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("dump").add_argument("path")
    cmp_parser = sub.add_parser("compare")
    cmp_parser.add_argument("before")
    cmp_parser.add_argument("after")
    cmp_parser.add_argument("--exact", action="store_true",
                            help="also exit 1 when any x, history or checkpoint differs in a byte")
    cmp_parser.add_argument("--envelope", action="store_true",
                            help="--exact, but the arrays of the families that --moves names "
                                 "are held to their error bounds instead of their bytes")
    cmp_parser.add_argument("--moves", action="append", choices=["lu"], default=[],
                            help="with --envelope: a family of arrays allowed to move "
                                 "(lu: the binary32 LU factors, growth and solves)")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.path)
        return 0
    if args.moves and not args.envelope:
        parser.error("--moves needs --envelope")
    return compare(args.before, args.after, exact=args.exact or args.envelope, moves=args.moves)


if __name__ == "__main__":
    sys.exit(main())
