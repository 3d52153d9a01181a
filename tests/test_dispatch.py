"""The CLI's dispatch table: every SOLVER_DISPATCH entry run through the
harness gives the bytes of the library call it names, variant option keys
are checked against the table, and one variant's error does not stop a run."""

import importlib.util
import json
import os
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from gmreskit import (fgmres, gcr, gmres, gmres_e, gmres_ir, gmres_restarted,
                      gmres_two_precision, hh_gmres, lgmres, lowsync_gmres, orthodir,
                      pipelined_gmres, simpler_gmres, sstep_gmres, weighted_gmres)
from gmreskit.cli import main
from gmreskit.commavoid import (MonomialBasis, chebyshev_basis_from_warmup,
                                newton_basis_from_warmup)
from gmreskit.deflation import (build_poly_preconditioner, harmonic_ritz,
                                polynomial_preconditioner)
from gmreskit.harness import (SOLVER_DISPATCH, ConfigError, ExperimentConfig, _option_keys,
                              _run_variant, _variant_csv, compare, gen_convdiff, run)
from gmreskit.linalg import CsrMatrix, mm_write
from gmreskit.solvers import READS, DiagonalPreconditioner, GmresOptions

# dispatch name -> the library call it names, spelled out independently of the table
DIRECT = {
    "gmres": gmres,
    "gmres-restarted": gmres_restarted,
    "hh-gmres": hh_gmres,
    "sgmres": partial(simpler_gmres, variant="sgmres"),
    "rb-sgmres": partial(simpler_gmres, variant="rb"),
    "adaptive-sgmres": simpler_gmres,
    "gcr": gcr,
    "orthodir": orthodir,
    "fgmres": fgmres,
    "lgmres": lgmres,
    "gmres-e": gmres_e,
    "weighted-gmres": weighted_gmres,
    "sstep-gmres": sstep_gmres,
    "pipelined-gmres": pipelined_gmres,
    "lowsync-gmres": lowsync_gmres,
    "two-precision": gmres_two_precision,
    # refinement takes no GmresOptions
    "gmres-ir": lambda A, b, opts, **kw: gmres_ir(A, b, **kw),
}
# the option keys an entry passes on as keywords, with values off their defaults
PASSED = {
    "lgmres": {"m1": 6, "m2": 2},
    "gmres-e": {"m1": 6, "m2": 1},
    "sstep-gmres": {"s": 3, "t": 2},
    "pipelined-gmres": {"theta": 0.5},
    "gmres-ir": {"rtol": 1e-10, "max_refinements": 2},
}
OPTION_SETS = {
    "default": {},
    "gmres-options": {"rtol": 1e-6, "max_iter": 20, "scheme": "cgs2", "omega": 0.25},
    "restart": {"restart": 8},
    "jacobi": {"preconditioner": {"kind": "jacobi"}},
    "poly": {"preconditioner": {"kind": "poly", "degree": 3}},
    "householder": {"scheme": "householder"},
}
FIELDS = {"rtol": "rtol", "max_iter": "max_iter", "restart": "restart",
          "scheme": "scheme", "omega": "simpler_omega"}


@pytest.fixture(scope="module")
def problem():
    A = gen_convdiff(8, 8, peclet=10.0)
    return A, np.random.default_rng(8).standard_normal(64)


def _direct(A, b, name, options):
    """The library call a variant stands for."""
    kw = {k: v for k, v in options.items() if k in PASSED.get(name, {})}
    fields = {FIELDS[k]: v for k, v in options.items() if k in FIELDS}
    if name == "gmres-restarted":
        fields.setdefault("restart", 30)
    pc = options.get("preconditioner")
    if pc and pc["kind"] == "jacobi":
        fields.update(precond_side="right", preconditioner=DiagonalPreconditioner(A.diagonal()))
    elif pc:
        poly = build_poly_preconditioner(A, b, pc["degree"])
        fields.update(precond_side="right", preconditioner=polynomial_preconditioner(A, poly))
    basis = {"monomial": lambda: MonomialBasis(),
             "newton": lambda: newton_basis_from_warmup(A, b, options.get("s", 4)),
             "chebyshev": lambda: chebyshev_basis_from_warmup(A, b, options.get("s", 4))}
    if "basis" in options:
        kw["spec"] = basis[options["basis"]]()
    return DIRECT[name](A, b, opts=GmresOptions(**fields), **kw)


def _outcome(call):
    """Bytes of x, history and checkpoints, the counts and the termination,
    or the exception's type and message."""
    try:
        rep = call()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return (rep.x.dtype, rep.x.tobytes(),
            np.asarray(rep.residual_history, dtype=np.float64).tobytes(),
            np.array(rep.true_residual_checkpoints, dtype=np.float64).tobytes(),
            rep.iterations, rep.restarts, rep.matvecs, rep.reductions, rep.termination)


def test_table_names_and_passed_keys():
    assert list(SOLVER_DISPATCH) == list(DIRECT) == list(READS)
    for name, (_, _, passed) in SOLVER_DISPATCH.items():
        assert set(passed) == set(PASSED.get(name, {})), name


def test_readme_option_table_is_the_declaration():
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("option_table",
                                                  root / "tools" / "option_table.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.table() in (root / "README.md").read_text(encoding="utf-8")


@pytest.mark.parametrize("label", OPTION_SETS)
@pytest.mark.parametrize("name", SOLVER_DISPATCH)
def test_harness_call_is_the_library_call(problem, name, label):
    A, b = problem
    options = OPTION_SETS[label]
    got = _outcome(lambda: _run_variant(A, b, {"solver": name, "options": options}))
    assert got == _outcome(lambda: _direct(A, b, name, options))


@pytest.mark.parametrize("options", [
    *({"solver": name, "options": options} for name, options in PASSED.items()),
    *({"solver": "sstep-gmres", "options": {"basis": kind, "s": 3, "t": 3}}
      for kind in ("monomial", "newton", "chebyshev")),
    {"solver": "sstep-gmres", "options": {"basis": "newton"}},
    {"solver": "sstep-gmres", "options": {"s": 1, "t": 6}},
], ids=lambda v: f"{v['solver']}-{'-'.join(map(str, v['options'].values()))}")
def test_passed_keys_reach_the_library_call(problem, options):
    A, b = problem
    got = _outcome(lambda: _run_variant(A, b, options))
    want = _outcome(lambda: _direct(A, b, options["solver"], options["options"]))
    assert got == want
    assert isinstance(got, tuple)


@pytest.mark.parametrize("name", [name for name in SOLVER_DISPATCH
                                  if name != "gmres-ir"])  # its third parameter is inner_opts
def test_options_passed_where_x0_goes_is_a_value_error_naming_x0(problem, name):
    A, b = problem
    solve, fixed, _ = SOLVER_DISPATCH[name]
    with pytest.raises(ValueError, match=r"^x0 must be a real vector, got GmresOptions$"):
        solve(A, b, GmresOptions(rtol=1e-6), **fixed)


def test_householder_keeps_the_restart_length_of_gmres_restarted():
    A = gen_convdiff(16, 16, peclet=10.0)
    b = np.ones(256)
    variant = {"solver": "gmres-restarted",
               "options": {"scheme": "householder", "rtol": 1e-10}}
    rep = _run_variant(A, b, variant)
    assert rep.converged and rep.restarts >= 1
    assert _outcome(lambda: _run_variant(A, b, variant)) == \
        _outcome(lambda: hh_gmres(A, b, opts=GmresOptions(rtol=1e-10, restart=30)))


def test_sstep_at_s_one_runs_the_library_monomial_basis(problem):
    A, b = problem
    rep = _run_variant(A, b, {"solver": "sstep-gmres", "options": {"s": 1}})
    assert rep.diagnostics["basis"] == "MonomialBasis"
    named = _run_variant(A, b, {"solver": "sstep-gmres",
                                "options": {"s": 1, "basis": "newton"}})
    assert named.diagnostics["basis"] == "NewtonBasis"


def _doc(outputs, variants, **extra):
    return dict({"problem": {"kind": "convdiff", "nx": 8, "ny": 8, "peclet": 10.0},
                 "rhs": {"kind": "random", "seed": 8}, "variants": variants,
                 "outputs": str(outputs)}, **extra)


def test_ones_rhs_through_run_is_the_library_call(tmp_path, problem):
    A, _ = problem
    variants = [{"name": name, "solver": name} for name in SOLVER_DISPATCH]
    summary, outdir = run(ExperimentConfig.from_dict(
        _doc(tmp_path, variants, rhs={"kind": "ones"})))
    assert "errors" not in summary
    for name in SOLVER_DISPATCH:
        rep = _direct(A, np.ones(64), name, {})
        with open(os.path.join(outdir, f"{name}.csv")) as fh:
            assert fh.read() == _variant_csv(rep), name
        entry = summary["variants"][name]
        assert (entry["iterations"], entry["matvecs"], entry["termination"]) == \
            (rep.iterations, rep.matvecs, rep.termination)


def test_matrix_market_problem_and_file_rhs_match_the_generated_run(tmp_path, problem):
    A, b = problem
    mm_write(str(tmp_path / "A.mtx"), A)
    np.savetxt(tmp_path / "b.txt", b)
    variants = [{"name": name, "solver": name} for name in SOLVER_DISPATCH]
    generated, out1 = run(ExperimentConfig.from_dict(_doc(tmp_path / "gen", variants)))
    read, out2 = run(ExperimentConfig.from_dict(_doc(
        tmp_path / "read", variants,
        problem={"kind": "matrix_market", "path": str(tmp_path / "A.mtx")},
        rhs={"kind": "file", "path": str(tmp_path / "b.txt")})))
    assert read == generated
    for name in [*SOLVER_DISPATCH, "summary"]:
        ext = "json" if name == "summary" else "csv"
        with open(os.path.join(out1, f"{name}.{ext}"), "rb") as f1, \
                open(os.path.join(out2, f"{name}.{ext}"), "rb") as f2:
            assert f1.read() == f2.read(), name


class TestOptionKeys:
    def test_misspelled_key_is_named(self):
        doc = _doc("out", [{"name": "a", "solver": "gmres", "options": {"max_iters": 5}}])
        with pytest.raises(ConfigError, match=r"variants\[0\]\.options\.max_iters"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("solver,key", [
        ("gmres-ir", "restart"), ("gmres-ir", "preconditioner"), ("gmres", "basis"),
        ("gmres", "m1"), ("fgmres", "theta"), ("pipelined-gmres", "s"),
        ("sstep-gmres", "max_refinements")])
    def test_key_the_entry_does_not_read(self, solver, key):
        doc = _doc("out", [{"name": "a", "solver": "gmres"},
                           {"name": "b", "solver": solver, "options": {key: 1}}])
        with pytest.raises(ConfigError, match=rf"variants\[1\]\.options\.{key}: {solver}"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("name", SOLVER_DISPATCH)
    def test_every_key_an_entry_reads_is_accepted(self, name):
        valid = dict(PASSED.get(name, {}), rtol=1e-8, max_iter=5, restart=4, scheme="mgs",
                     omega=0.5, preconditioner={"kind": "jacobi"}, basis="newton")
        options = {k: valid[k] for k in _option_keys(name)}
        ExperimentConfig.from_dict(_doc("out", [{"name": "a", "solver": name,
                                                 "options": options}]))

    def test_options_must_be_an_object(self):
        doc = _doc("out", [{"name": "a", "solver": "gmres", "options": ["rtol"]}])
        with pytest.raises(ConfigError, match=r"variants\[0\]\.options"):
            ExperimentConfig.from_dict(doc)

    def test_cli_override_the_entry_does_not_read_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(_doc(tmp_path / "out", [
            {"name": name, "solver": name} for name in SOLVER_DISPATCH])))
        assert main(["run", str(cfg), "--max-iter", "40", "--restart", "10"]) == 1
        ir = list(SOLVER_DISPATCH).index("gmres-ir")
        assert (f"variants[{ir}].options.max_iter: gmres-ir does not read this key"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()
        # rtol, which every entry reads, is taken by them all
        assert main(["run", str(cfg), "--rtol", "1e-6"]) == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert all(summary["variants"][name]["termination"] == "converged"
                   for name in SOLVER_DISPATCH)


class TestRunErrors:
    def test_variant_error_is_recorded_and_the_run_goes_on(self, tmp_path):
        doc = _doc(tmp_path, [
            {"name": "mgs", "solver": "gmres"},
            {"name": "fg", "solver": "fgmres", "options": {"scheme": "icwy"}},
            {"name": "cgs2", "solver": "gmres", "options": {"scheme": "cgs2"}}])
        summary, outdir = run(ExperimentConfig.from_dict(doc))
        assert summary["errors"] == 1
        assert summary["variants"]["fg"] == {
            "solver": "fgmres", "termination": "error",
            "error": "ValueError: fgmres does not run opts.scheme icwy; "
                     "it runs mgs, cgs, cgs2, cgsp"}
        assert summary["variants"]["cgs2"]["termination"] == "converged"
        with open(os.path.join(outdir, "summary.json")) as fh:
            assert json.load(fh) == summary
        assert not os.path.exists(os.path.join(outdir, "fg.csv"))

    def test_config_error_still_stops_the_run(self, tmp_path):
        doc = _doc(tmp_path, [{"name": "a", "solver": "gmres",
                               "options": {"preconditioner": {"kind": "ilu"}}}])
        with pytest.raises(ConfigError, match="preconditioner.kind"):
            run(ExperimentConfig.from_dict(doc))

    def test_rank_deficient_poly_build_is_an_error_entry(self, tmp_path):
        # b = e_0 with A e_0 = 0: the Arnoldi process stops at Hbar = 0
        mm_write(str(tmp_path / "A.mtx"), CsrMatrix.from_dense(np.diag([0.0, 1, 2, 3, 4])))
        np.savetxt(tmp_path / "b.txt", np.eye(5)[0])
        doc = {"problem": {"kind": "matrix_market", "path": str(tmp_path / "A.mtx")},
               "rhs": {"kind": "file", "path": str(tmp_path / "b.txt")},
               "outputs": str(tmp_path / "out"),
               "variants": [{"name": "p", "solver": "gmres",
                             "options": {"preconditioner": {"kind": "poly", "degree": 3}}}]}
        summary, _ = run(ExperimentConfig.from_dict(doc))
        assert summary["errors"] == 1
        assert summary["variants"]["p"]["error"].startswith("ValueError: H_m")


class TestParseTimeChecks:
    @pytest.mark.parametrize("basis", ["legendre", "Newton", None, 3])
    def test_unknown_basis_is_named(self, basis):
        doc = _doc("out", [{"name": "a", "solver": "gmres"},
                           {"name": "b", "solver": "sstep-gmres", "options": {"basis": basis}}])
        with pytest.raises(ConfigError, match=r"variants\[1\]\.options\.basis: unknown basis"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("pc,key", [
        ({"kind": "jacobi", "side": "none"}, "side"),
        ({"kind": "poly", "degre": 2}, "degre"),
        ({"side": "left"}, "kind"),
        ({}, "kind"),
        ({"kind": "ilu"}, "kind"),
        ({"kind": "jacobi", "degree": 3}, "degree"),
        ({"kind": "poly", "degree": 0}, "degree"),
        ({"kind": "poly", "degree": 2.5}, "degree"),
        ({"kind": "poly", "degree": True}, "degree"),
    ])
    def test_bad_preconditioner_key_is_named(self, pc, key):
        doc = _doc("out", [{"name": "a", "solver": "gmres"},
                           {"name": "b", "solver": "gmres", "options": {"preconditioner": pc}}])
        with pytest.raises(ConfigError, match=rf"variants\[1\]\.options\.preconditioner\.{key}:"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("pc", ["jacobi", ["kind"], False])
    def test_preconditioner_must_be_an_object_or_null(self, pc):
        doc = _doc("out", [{"name": "a", "solver": "gmres", "options": {"preconditioner": pc}}])
        with pytest.raises(ConfigError, match=r"variants\[0\]\.options\.preconditioner: need"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("pc", [None, {"kind": "jacobi", "side": "left"},
                                    {"kind": "poly", "side": "right", "degree": 2}])
    def test_valid_preconditioners_are_accepted(self, pc):
        ExperimentConfig.from_dict(_doc("out", [
            {"name": "a", "solver": "gmres", "options": {"preconditioner": pc}}]))

    def test_null_preconditioner_runs_unpreconditioned(self, problem):
        A, b = problem
        variant = {"solver": "gmres", "options": {"preconditioner": None}}
        assert _outcome(lambda: _run_variant(A, b, variant)) == \
            _outcome(lambda: _run_variant(A, b, {"solver": "gmres"}))


class TestCompareErrors:
    DOC_VARIANTS = [{"name": "mgs", "solver": "gmres"},
                    {"name": "fg", "solver": "fgmres", "options": {"scheme": "icwy"}}]

    def test_error_row_has_empty_count_cells(self, tmp_path):
        rows, table = compare(ExperimentConfig.from_dict(_doc(tmp_path, self.DOC_VARIANTS)))
        assert rows[1] == ("fg", "error", "", "", "", "")
        assert rows[0][1] == "converged"
        assert table.splitlines()[2].split() == ["fg", "error"]
        with open(os.path.join(tmp_path, "comparison.csv")) as fh:
            assert fh.read().splitlines()[2] == "fg,error,,,,"

    def test_cli_exits_one_when_a_variant_errored(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(_doc(tmp_path / "out", self.DOC_VARIANTS)))
        assert main(["compare", str(cfg)]) == 1
        assert "fg" in capsys.readouterr().out


class TestHarmonicRitzFallback:
    def test_grade_deficient_fallback(self):
        hr = harmonic_ritz([[1.0, 0.0], [0.0, 0.0]], 1.0)
        assert hr.grade_deficient
        assert hr.values.tolist() == [1.0]
        assert np.isnan(hr.residual_norms).all()

    def test_rank_deficient_hbar_names_h_m(self):
        with pytest.raises(ValueError, match="H_m"):
            harmonic_ritz([[0.0]], 0.0)

    def test_poly_build_on_a_null_vector(self):
        with pytest.raises(ValueError, match="H_m"):
            build_poly_preconditioner(np.diag([0.0, 1, 2, 3, 4]), np.eye(5)[0], 3)
