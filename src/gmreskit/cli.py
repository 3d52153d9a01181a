"""Command-line interface: run experiments, compare variants, generate and
inspect Matrix Market operators.

Verbosity is controlled by the KRYLOV_LOG environment variable (0 silent,
1 progress lines on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .harness import (_RHS, ConfigError, ExperimentConfig, compare, gen_convdiff, gen_spectrum,
                      run)
from .linalg import CsrMatrix, MatrixMarketError, mm_read, mm_write


def _log_fn():
    try:
        level = int(os.environ.get("KRYLOV_LOG", "0"))
    except ValueError:
        level = 0
    if level <= 0:
        return None
    return lambda msg: print(msg, file=sys.stderr)


def _apply_overrides(config: ExperimentConfig, args):
    overrides = {}
    if args.rtol is not None:
        overrides["rtol"] = args.rtol
    if args.max_iter is not None:
        overrides["max_iter"] = args.max_iter
    if args.restart is not None:
        overrides["restart"] = args.restart
    if args.scheme is not None:
        overrides["scheme"] = args.scheme
    for variant in config.variants:
        variant.setdefault("options", {}).update(overrides)
    if args.seed is not None:
        kind = _RHS.kind(config.rhs, "rhs")
        if "seed" not in _RHS.table[kind][0]:
            raise ConfigError(f"rhs.seed: rhs kind {kind!r} does not read a seed")
        config.rhs["seed"] = args.seed
    # parsed again: an override the entry does not read is the ConfigError
    # that the same key in the document's options is
    return ExperimentConfig.from_dict(asdict(config))


def _add_solver_flags(p):
    p.add_argument("--rtol", type=float, default=None,
                   help="override every variant's relative tolerance")
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--restart", type=int, default=None)
    p.add_argument("--scheme", default=None,
                   choices=["mgs", "cgs", "cgs2", "cgsp", "icwy", "householder"])
    p.add_argument("--seed", type=int, default=None,
                   help="override the right-hand-side seed")
    p.add_argument("-o", "--output-dir", default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gmreskit",
        description="GMRES variant benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    _add_solver_flags(p_run)

    p_cmp = sub.add_parser("compare", help="run variants and print a comparison table")
    p_cmp.add_argument("config")
    _add_solver_flags(p_cmp)

    p_gen = sub.add_parser("gen", help="generate a test operator as Matrix Market")
    gen_sub = p_gen.add_subparsers(dest="generator", required=True)
    p_cd = gen_sub.add_parser("convdiff")
    p_cd.add_argument("--nx", type=int, required=True)
    p_cd.add_argument("--ny", type=int, required=True)
    p_cd.add_argument("--peclet", type=float, default=0.0)
    p_cd.add_argument("-o", "--output", required=True)
    p_sp = gen_sub.add_parser("spectrum")
    p_sp.add_argument("--eigs", required=True,
                      help="comma-separated eigenvalue list")
    p_sp.add_argument("--seed", type=int, required=True)
    p_sp.add_argument("-o", "--output", required=True)

    p_info = sub.add_parser("info", help="describe a Matrix Market file")
    p_info.add_argument("matrix")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    log = _log_fn()
    try:
        if args.command == "run":
            config = _apply_overrides(ExperimentConfig.from_json(args.config), args)
            summary, outdir = run(config, output_dir=args.output_dir, log=log)
            print(json.dumps(summary, sort_keys=True, indent=2))
            print(f"artifacts written to {outdir}", file=sys.stderr)
            return 1 if summary.get("errors") else 0
        if args.command == "compare":
            config = _apply_overrides(ExperimentConfig.from_json(args.config), args)
            rows, table = compare(config, output_dir=args.output_dir, log=log)
            print(table, end="")
            return 1 if any(row[1] == "error" for row in rows) else 0
        if args.command == "gen":
            if args.generator == "convdiff":
                A = gen_convdiff(args.nx, args.ny, args.peclet)
            else:
                eigs = [float(t) for t in args.eigs.split(",") if t.strip()]
                A = gen_spectrum(eigs, args.seed)
            mm_write(args.output, A)
            print(f"wrote {A.nrows}x{A.ncols} matrix ({A.nnz} entries) to "
                  f"{args.output}")
            return 0
        if args.command == "info":
            A = mm_read(args.matrix)
            sym = "symmetric" if _is_symmetric(A) else "general"
            vals = A.values
            print(f"size: {A.nrows} x {A.ncols}")
            print(f"nonzeros: {A.nnz}")
            print(f"structure: {sym}")
            if A.nnz:
                print(f"value range: [{vals.min():.6g}, {vals.max():.6g}]")
            print(f"frobenius norm: {A.frobenius_norm():.6g}")
            return 0
        parser.error(f"unknown command {args.command!r}")
    except (ConfigError, MatrixMarketError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _is_symmetric(A):
    if A.nrows != A.ncols:
        return False
    # explicitly stored zeros are zeros of the matrix, mirrored or not
    keep = A.values != 0
    rows, cols, vals = A._nnz_rows()[keep], A.col_idx[keep], A.values[keep]
    T = CsrMatrix.from_coo(A.ncols, A.nrows, cols, rows, vals)
    return all(map(np.array_equal, (T._nnz_rows(), T.col_idx, T.values), (rows, cols, vals)))


if __name__ == "__main__":
    sys.exit(main())
