"""Dump the SolveReport of every solver on a fixed grid, or compare two dumps.

    PYTHONPATH=src python tools/report_identity.py dump after.npz
    PYTHONPATH=/path/to/other/checkout/src python tools/report_identity.py dump before.npz
    PYTHONPATH=src python tools/report_identity.py compare [--exact] before.npz after.npz
    PYTHONPATH=src python tools/report_identity.py compare --envelope --moves lu \
        before.npz after.npz
    PYTHONPATH=src python tools/report_identity.py compare --envelope \
        --moves weighted-gmres before.npz after.npz

`dump` runs every SOLVER_DISPATCH entry, and three more GMRES-IR variants,
on five problems with max_iter 13 and 60, restart unset and 8, and x0 zero
and random (rtol 1e-8, seeded right-hand sides), 800 cases in all; and
gmres, gmres-restarted, lowsync-gmres, two-precision and weighted-gmres,
which read opts.weight, with a seeded positive weight, max_iter 60, restart
8 and x0 zero on each problem: 25 more, keyed "<name>+weight", 825 cases.
It also runs each SOLVER_DISPATCH name through harness._run_variant, as the
CLI does, with options rtol 1e-8 and max_iter 60, on each problem: 85 more
cases, keyed "harness:<name>", and gmres and gmres-restarted with scheme
householder as well: 10 more, keyed "harness:<name>+householder", 920
cases.  And it runs sstep-gmres over each basis recurrence, with spec
"monomial", spec "chebyshev" and an explicit NewtonBasis whose shifts hold
a conjugate pair, max_iter 60 and x0 zero on each problem: 15 more, keyed
"sstep-gmres+<basis>", 935 cases in all.  The problems are convdiff 10x10
and 32x32 (Peclet 10); convdiff 4x4, whose grade the budgets reach; a
singular operator with eigenvalues 0, 0, 1, ..., 6; and one with 40
eigenvalues geometrically spaced over [1e-6, 1] (condition number 1e6).  The last three drive the
solvers into their breakdown, stagnation and exception exits.
It writes each report's counts, termination, x, residual history,
true-residual checkpoints, reduction log and marks, and the diagnostics
counters reorthogonalizations, dropped_augmentations, augmented_cycles and
theta (NaN where a solver has none), the Hessenberg factor the report
records in diagnostics["arnoldi"] where it has one (the array itself, or
the Hbar of an older report's ArnoldiDecomposition) and otherwise the one
an older s-step GMRES kept in diagnostics["hessenberg"], or the type of the
exception the call raised, and prints how many cases ended in each
termination or exception type.  gmres-ir runs as the harness dispatches
it, on its default inner options (rtol 1e-4, restart 50, max_iter 200); the
variants change one of them each, to inner restart 5, max_iter 3 or rtol
1e-6, so that the inner restart loop and its budget are covered.  All four
ignore max_iter, restart and x0.  It also stores the CSR arrays (row_ptr,
col_idx, values) of each problem after an mm_write -> mm_read round trip,
of convdiff 10x10 (Peclet 10) read from a general file with whole-line
comments and blank lines between its entries (mm_read's second read
path), of the symmetric A + A^T of that matrix read from a symmetric file
that stores its lower triangle column by column,
of gen_convdiff(128, 128, 10.0), of a 64x64 arrow matrix with ten empty
rows, of convdiff 32x32 (Peclet 10) with a seeded tenth of its entries
removed, of a 48x80 matrix with six diagonals, of a seeded Gaussian
60x60 matrix (from_dense), of a seeded uniform random 64x64 pattern
with five empty rows and of a seeded 2000x2000 pattern with 1 to 30
entries at random columns in most rows and about a twentieth of its rows
empty, the last three without a band, together with the
bytes of A.matvec(v) for each of them on two seeded vectors, the second
holding zeros of both signs.  And it stores the binary32
LU factors (L, U, perm, growth) that lu_low computes, and their solves of
three seeded right-hand sides, for convdiff 32x32 (Peclet 10), the kappa~1e3
200x200 matrix of acceptance criterion 13, a nonsymmetric Gaussian
150x150 matrix, the negated convdiff 20x20 (Peclet 50), whose pivots are
negative, and a 200x200 band of width 10 whose first panel overflows, as an
ndarray and as CSR.

`compare` prints each case whose counts, termination or exception type
moved, each reduction-log entry that moved (index, before -> after), and
each case whose reduction marks, diagnostics counters or recorded
Hessenberg (present on one side only, or of another dtype, shape or bytes)
moved.  Then it prints one row per solver: its cases, how many moved, how
many --moves excluded (below), and the largest relative difference in x
(normwise) and in the residual histories and true-residual checkpoints
(largest entry difference over the common prefix, relative to the initial
residual norm) over the cases it did not exclude.  It then names each CSR
array or matvec output, and each LU factor or solve, whose dtype or bytes
differ.
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
outside.

With --moves <name>, a SOLVER_DISPATCH name, the cases of that solver
(its harness: cases included) whose x, history, checkpoints or recorded
Hessenberg differ in bytes are not failed for their bytes.  Their exception
type, termination, counts, reduction log and marks and diagnostics counters
must still be equal, with no iteration slack, and their recorded Hessenberg
must keep its dtype and shape.  Each history entry and the last explicit
residual are held to the bounds solve_envelope states and derives from
Paige, Rozloznik & Strakos (SIMAX 28, 2006), and the tool prints each such
case with its ratios to them and exits with status 1 when one is outside.
A case whose problem is singular to working precision (the singular
problem) falls outside that theory: it is listed as excluded, and its
bytes are not judged.  Every case of a solver --moves does not name must
stay byte-equal, as under --exact.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from collections import Counter
from functools import lru_cache, partial

import numpy as np

from gmreskit import (GmresOptions, fgmres, gcr, gmres, gmres_e, gmres_ir, gmres_restarted,
                      gmres_two_precision, hh_gmres, lgmres, lowsync_gmres, lu_low, orthodir,
                      pipelined_gmres, simpler_gmres, sstep_gmres, weighted_gmres)
from gmreskit.commavoid import NewtonBasis
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


def right_hand_side(A, seed):
    """(b, the random x0) of the problem A with its seed."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(A.nrows), rng.standard_normal(A.nrows)


def cases():
    """(key, solve()) of every case."""
    for label, A, seed in problems():
        b, x_random = right_hand_side(A, seed)
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
        # the solvers that read opts.weight, given a fixed seeded one
        weight = np.random.default_rng(seed + 100).uniform(0.5, 2.0, A.nrows)
        opts = GmresOptions(rtol=1e-8, max_iter=60, restart=8, weight=weight)
        for name in ("gmres", "gmres-restarted", "lowsync-gmres", "two-precision",
                     "weighted-gmres"):
            yield (f"{name}+weight {label} max_iter=60 restart=8 x0=zero",
                   partial(SOLVE[name], A, b, None, opts))
        # the default spec is the Newton basis from warm-up shifts
        opts = GmresOptions(rtol=1e-8, max_iter=60)
        for basis, spec in (("monomial", "monomial"), ("chebyshev", "chebyshev"),
                            ("newton-pair", NewtonBasis((1 + 1j, 1 - 1j, 0.5, 2.0)))):
            yield (f"sstep-gmres+{basis} {label} max_iter=60 x0=zero",
                   partial(sstep_gmres, A, b, None, spec=spec, opts=opts))


def operators():
    """(key prefix, CsrMatrix) of every stored operator."""
    with tempfile.TemporaryDirectory() as tmp:
        for label, A, _ in problems():
            mm_write(os.path.join(tmp, "A.mtx"), A)
            yield f"csr {label} mm round trip", mm_read(os.path.join(tmp, "A.mtx"))
        # mm_read's second read path: whole-line comments and blank lines
        # between the entries, which numpy's reader of the path refuses
        A = gen_convdiff(10, 10, peclet=10.0)
        mm_write(os.path.join(tmp, "A.mtx"), A)
        with open(os.path.join(tmp, "A.mtx"), encoding="ascii") as fh:
            lines = fh.readlines()
        for k in range(len(lines) - 7, 2, -7):
            lines.insert(k, "% a comment\n" if k % 2 else "\n")
        with open(os.path.join(tmp, "A.mtx"), "w", encoding="ascii") as fh:
            fh.writelines(lines)
        yield "csr n=10^2 mm with comments", mm_read(os.path.join(tmp, "A.mtx"))
        # a symmetric file, its lower triangle stored column by column
        S = np.tril(A.to_dense() + A.to_dense().T)
        cols, rows = np.nonzero(S.T)
        with open(os.path.join(tmp, "S.mtx"), "w", encoding="ascii") as fh:
            fh.write("%%MatrixMarket matrix coordinate real symmetric\n"
                     f"{A.nrows} {A.ncols} {len(rows)}\n"
                     + "".join(f"{i + 1} {j + 1} {float(S[i, j])!r}\n"
                               for i, j in zip(rows, cols)))
        yield "csr n=10^2 mm symmetric", mm_read(os.path.join(tmp, "S.mtx"))
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
    # three patterns without a band, where every row gathers
    yield "csr gaussian 60^2", CsrMatrix.from_dense(
        np.random.default_rng(14).standard_normal((60, 60)))
    rng = np.random.default_rng(15)
    stored = rng.random((64, 64)) < 0.1
    stored[[0, 17, 18, 40, 63]] = False
    i, j = np.nonzero(stored)
    yield "csr random 64^2 with empty rows", CsrMatrix.from_coo(
        64, 64, i, j, rng.standard_normal(len(i)))
    # a general pattern at scale: 1 to 30 entries in most rows, one in
    # twenty rows empty, columns drawn at random, so no offset is held by
    # half the rows
    rng = np.random.default_rng(16)
    n = 2000
    lengths = np.where(rng.random(n) < 0.05, 0, rng.integers(1, 31, n))
    cols = np.concatenate([rng.choice(n, k, replace=False) for k in lengths])
    yield "csr general 2000^2 with empty rows", CsrMatrix.from_coo(
        n, n, np.repeat(np.arange(n), lengths), cols, rng.standard_normal(len(cols)))


def factored():
    """(key prefix, matrix) of every binary32 LU stored."""
    yield "lu convdiff 32^2 Peclet 10", gen_convdiff(32, 32, 10.0)
    rng = np.random.default_rng(133)  # as acceptance criterion 13 builds it
    Q1, _ = np.linalg.qr(rng.standard_normal((200, 200)))
    Q2, _ = np.linalg.qr(rng.standard_normal((200, 200)))
    yield "lu kappa~1e3 200^2", Q1 @ np.diag(np.logspace(0.0, 3.0, 200)) @ Q2.T
    yield "lu gaussian 150^2", np.random.default_rng(17).standard_normal((150, 150))
    # band matrices of orders that are not multiples of the panel width, the
    # CSR ones in band storage
    A = gen_convdiff(20, 20, 50.0)
    yield "lu negated convdiff 20^2 Peclet 50", CsrMatrix(
        A.nrows, A.ncols, A.row_ptr, A.col_idx, -A.values)
    yield "lu overflowing band 200^2", overflow_band()
    yield "lu overflowing band 200^2 csr", CsrMatrix.from_dense(overflow_band())


def overflow_band():
    """A 200^2 band of width 10 with unit diagonal whose first panel overflows
    to -inf in column 63, so that inf x 0 puts NaNs into its factors."""
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
    growth its factor to before's growth over 2.  The backward error and its
    bound are taken over the entries where L U and |L||U| are finite, so that
    perm gets a number also when the factors hold an inf.  |L|, |U| and |x|
    are taken plus the smallest normal binary32 number, so that underflow,
    whose absolute error the theorems leave out, stays inside (Higham, eq.
    2.8).
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
        LU, scale = L @ U, mL @ mU
        finite = np.isfinite(LU) & np.isfinite(scale)
        backward = _ratio(np.abs(PA - LU)[finite].max(initial=0.0),
                          _gamma(n) * scale[finite].max(initial=0.0))
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
        out.update(record(key, solve))
        outcomes[str(out[key + "|raised"]) or str(out[key + "|termination"])] += 1
    np.savez(path, **out)
    print(f"{path}: {sum(outcomes.values())} cases; "
          + ", ".join(f"{k} {v}" for k, v in sorted(outcomes.items())))


def record(key, solve):
    """{key|part: array} of the report solve() returns, or of the type of
    the exception it raises."""
    out = {}
    try:
        rep = solve()
    except Exception as exc:  # the exception type is part of the record
        out[key + "|raised"] = np.array(type(exc).__name__)
        return out
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
    return out


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


def solver_of(key):
    """The SOLVER_DISPATCH name (or variant) a case key runs."""
    return key.split()[0].removeprefix("harness:").split("+")[0]


@lru_cache(maxsize=None)
def conditioning(label):
    """(N, kappa(A), {x0 kind: ||b - A x0||}) of the problem label."""
    A, seed = next((A, seed) for name, A, seed in problems() if name == label)
    dense = A.to_dense()
    b, x_random = right_hand_side(A, seed)
    return (A.nrows, float(np.linalg.cond(dense)),
            {"zero": float(np.linalg.norm(b)),
             "random": float(np.linalg.norm(b - dense @ x_random))})


def _eps(key, after):
    """The unit roundoff of the case's recorded Hessenberg's dtype, binary64's
    where none is recorded."""
    hessenberg = after.get(key + "|hessenberg")
    return np.finfo(np.float64 if hessenberg is None else hessenberg.dtype).eps


def singular(key, after):
    """Whether the case's problem is singular to its working precision,
    kappa(A) eps >= 1, outside the theory of solve_envelope's bounds."""
    return conditioning(key.split()[1])[1] * _eps(key, after) >= 1


def solve_envelope(key, before, after):
    """{"history": ratio, "residual": ratio} of a case's moved history and
    last explicit residual to the bound tau = (k + 1) N eps kappa(A), or None
    for a problem singular to working precision (kappa(A) eps >= 1).

    MGS-GMRES is backward stable (Paige, Rozloznik & Strakos, SIMAX 28,
    2006): its k-th residual is the minimal residual of a problem within a
    normwise relative distance of order k N eps of (A, b), whose minimal
    residual moves by at most kappa(A) times that.  So two runs that differ
    only in rounding keep their histories within tau rho_0 of each other
    until the relative residual nears kappa(A) eps, where both stay below
    it; the 1 of k + 1 covers the norm of r0 itself.  Each history entry is
    held to tau rho_0 and the last explicit residual to tau ||b - A x0||.
    k is the case's iteration count, N the order and kappa(A) the condition
    number of its problem, and eps that of the recorded Hessenberg's dtype
    (the cycle's working precision), binary64 where none is recorded."""
    if singular(key, after):
        return None
    x0 = next((w[3:] for w in key.split() if w.startswith("x0=")), "zero")
    N, kappa, r0 = conditioning(key.split()[1])
    tau = (after[key + "|counts"][0] + 1) * N * _eps(key, after) * kappa
    h_a, h_b = before[key + "|history"], after[key + "|history"]
    c_a, c_b = before[key + "|checkpoints"], after[key + "|checkpoints"]
    return {"history": _rel_series(h_a, h_b, h_a[0]) / tau,
            "residual": abs(c_a[-1] - c_b[-1]) / (tau * r0[x0]) if len(c_a) else 0.0}


def _judge_solves(a, b, moved):
    """Print each moved case of a named solver with its ratios to its bounds
    (solve_envelope), or as excluded; return how many are outside."""
    print("bounds: each history entry within (k + 1) N eps kappa(A) rho_0 and the "
          "last explicit residual within (k + 1) N eps kappa(A) ||b - A x0|| of "
          "the first dump's (Paige, Rozloznik & Strakos, SIMAX 28, 2006)")
    outside = excluded = 0
    for key in moved:
        ratios = solve_envelope(key, a, b)
        if ratios is None:
            excluded += 1
            print(f"excluded: {key}: its problem is singular to working precision "
                  f"(kappa(A) eps >= 1), outside the theory of the bounds")
            continue
        bad = not all(r <= 1 for r in ratios.values())
        outside += bad
        print(f"moved: {key}: history {ratios['history']:.3g}, last explicit residual "
              f"{ratios['residual']:.3g} of its bound"
              + (" (outside the envelope)" if bad else ""))
    print(f"cases of the named solvers whose bytes moved: {len(moved)}; "
          f"outside their bounds: {outside}; excluded: {excluded}")
    return outside


def compare(path_a, path_b, exact=False, moves=()):
    a, b = np.load(path_a), np.load(path_b)
    keys = sorted(k[: -len("|raised")] for k in a.files if k.endswith("|raised"))
    if sorted(k for k in b.files if k.endswith("|raised")) != [k + "|raised" for k in keys]:
        print("the two dumps cover different cases")
        return 1
    # solver -> [cases, record changes, exception changes, excluded cases,
    # max dx, max dhist], the largest differences over the cases not excluded
    rows = {}
    hessenbergs = 0  # cases with a recorded Hessenberg on either side
    unequal_bytes = 0  # cases whose x, history or checkpoints differ in a byte
    held = []  # cases of a solver --moves names whose bytes differ
    for key in keys:
        named = solver_of(key) in moves
        row = rows.setdefault(key.split()[0], [0, 0, 0, 0, 0.0, 0.0])
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
        unequal = [part for part in ("x", "history", "checkpoints")
                   if not _same_bytes(a[f"{key}|{part}"], b[f"{key}|{part}"])]
        if ha is not None or hb is not None:
            hessenbergs += 1
            same_kind = ha is not None and hb is not None and \
                (ha.dtype, ha.shape) == (hb.dtype, hb.shape)
            if same_kind and named and not _same_bytes(ha, hb):
                unequal.append("hessenberg")  # a named solver's keeps dtype and shape
            elif not (same_kind and _same_bytes(ha, hb)):
                moved = True
                print(f"{key}: recorded Hessenberg "
                      + " -> ".join("none" if h is None else f"{h.dtype} {h.shape}"
                                    for h in (ha, hb)) + " differs")
        if unequal and named:
            held.append(key)
        elif unequal:
            unequal_bytes += 1
            print(f"{key}: bytes of {', '.join(unequal)} differ")
        row[1] += moved
        if unequal and named and singular(key, b):
            row[3] += 1  # its bytes are not judged (_judge_solves)
            continue
        row[4] = max(row[4], _rel_x(a[key + "|x"], b[key + "|x"]))
        r0 = a[key + "|history"][0]
        row[5] = max(row[5], *(_rel_series(a[key + part], b[key + part], r0)
                               for part in ("|history", "|checkpoints")))
    print(f"{'solver':<23} {'cases':>5} {'record moved':>12} {'raised moved':>12} "
          f"{'excluded':>8} {'max rel dx':>10} {'max rel dhist':>13}")
    for name, (n, moved, raised, excluded, dx, dh) in rows.items():
        print(f"{name:<23} {n:>5} {moved:>12} {raised:>12} {excluded:>8} {dx:>10.3g} "
              f"{dh:>13.3g}")
    moved = sum(r[1] for r in rows.values())
    raised = sum(r[2] for r in rows.values())
    print(f"recorded Hessenbergs compared: {hessenbergs} cases")
    print(f"all counts, logs, diagnostics and Hessenbergs equal: "
          f"{'yes' if not moved else f'no ({moved} cases)'}; "
          f"exception type changed: {raised} cases; "
          f"largest relative difference in x "
          f"{max((r[4] for r in rows.values()), default=0):.3g}, "
          f"in the histories {max((r[5] for r in rows.values()), default=0):.3g}")
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
    outside = _judge_solves(a, b, held) if held else 0
    failed = moved or raised or arrays_moved or outside or (exact and unequal_bytes)
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
    cmp_parser.add_argument("--moves", action="append", choices=["lu", *SOLVER_DISPATCH],
                            default=[],
                            help="with --envelope: a family of arrays allowed to move "
                                 "(lu: the binary32 LU factors, growth and solves; a "
                                 "SOLVER_DISPATCH name: the cases of that solver)")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.path)
        return 0
    if args.moves and not args.envelope:
        parser.error("--moves needs --envelope")
    return compare(args.before, args.after, exact=args.exact or args.envelope, moves=args.moves)


if __name__ == "__main__":
    sys.exit(main())
