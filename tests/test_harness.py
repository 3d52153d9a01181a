import json
import os

import numpy as np
import pytest

from gmreskit.harness import (
    ConfigError,
    ExperimentConfig,
    PerturbationSchedule,
    compare,
    gen_convdiff,
    gen_spectrum,
    inexact_operator,
    run,
    _run_variant,
)
from gmreskit.solvers import GmresOptions, gmres


class TestGenConvdiff:
    def test_pure_diffusion_symmetric(self):
        A = gen_convdiff(3, 3, peclet=0.0).to_dense()
        assert np.array_equal(A, A.T)

    def test_interior_stencil(self):
        A = gen_convdiff(3, 3, peclet=0.0).to_dense()
        center = 4  # node (1,1) of the 3x3 grid
        assert A[center, center] == 4.0
        for nb in (1, 3, 5, 7):
            assert A[center, nb] == -1.0

    def test_interior_rows_sum_to_zero(self):
        # constant-vector probe: interior rows annihilate ones
        A = gen_convdiff(6, 6, peclet=7.0)
        probe = A.matvec(np.ones(36))
        interior = [iy * 6 + ix for iy in range(1, 5) for ix in range(1, 5)]
        assert np.allclose(probe[interior], 0.0)

    def test_nonsymmetric_with_convection(self):
        A = gen_convdiff(4, 4, peclet=3.0).to_dense()
        assert not np.array_equal(A, A.T)

    def test_negative_peclet_upwinds_other_side(self):
        Ap = gen_convdiff(3, 3, peclet=2.0).to_dense()
        An = gen_convdiff(3, 3, peclet=-2.0).to_dense()
        assert np.array_equal(Ap, An.T)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            gen_convdiff(1, 5)


class TestGenSpectrum:
    def test_single_eigenvalue(self):
        A = gen_spectrum([1.0], seed=0)
        assert np.allclose(A.to_dense(), [[1.0]])

    def test_eigenvalues_verified(self):
        from gmreskit.linalg import dense_eig_general
        eigs = np.array([1.0, 4.0, 9.0, 16.0])
        A = gen_spectrum(eigs, seed=5)
        got = np.sort(dense_eig_general(A.to_dense()).real)
        assert np.allclose(got, eigs, atol=1e-8)

    def test_termination_at_grade(self):
        eigs = np.concatenate([np.arange(1.0, 6.0)] * 2)
        A = gen_spectrum(eigs, seed=9)
        b = np.random.default_rng(10).standard_normal(10)
        rep = gmres(A, b, opts=GmresOptions(rtol=1e-10))
        assert rep.iterations == 5

    def test_deterministic(self):
        A = gen_spectrum([1.0, 2.0], seed=42)
        B = gen_spectrum([1.0, 2.0], seed=42)
        assert np.array_equal(A.values, B.values)


class TestInexactOperator:
    def test_eta_zero_is_exact(self, convdiff100, rhs100):
        op = inexact_operator(convdiff100, PerturbationSchedule("fixed", 0.0),
                              seed=1)
        rep_ex = gmres(convdiff100, rhs100, opts=GmresOptions(rtol=1e-8))
        rep_in = gmres(op, rhs100, opts=GmresOptions(rtol=1e-8))
        assert rep_ex.residual_history == rep_in.residual_history

    def test_perturbation_norm_exact(self, convdiff100):
        sched = PerturbationSchedule("fixed", 1e-6)
        op = inexact_operator(convdiff100, sched, seed=2)
        v = np.random.default_rng(3).standard_normal(100)
        exact = convdiff100.matvec(v)
        pert = op(v) - exact
        expected = 1e-6 * convdiff100.frobenius_norm() * np.linalg.norm(v)
        assert abs(np.linalg.norm(pert) - expected) <= 1e-12 * expected

    def test_tiny_fixed_perturbation_still_converges(self, convdiff100, rhs100):
        op = inexact_operator(convdiff100, PerturbationSchedule("fixed", 1e-12),
                              seed=4)
        rep = gmres(op, rhs100, opts=GmresOptions(rtol=1e-8))
        assert rep.converged
        true_res = np.linalg.norm(rhs100 - convdiff100.matvec(rep.x))
        assert true_res <= 1e-7 * np.linalg.norm(rhs100)

    @pytest.mark.parametrize("mode, eta, name", [("exact", 0.0, "mode"),
                                                 ("fixed", -1e-9, "eta")])
    def test_schedule_names_a_refused_argument(self, mode, eta, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            PerturbationSchedule(mode, eta)

    def test_relaxed_beats_fixed_at_same_eta(self, convdiff100, rhs100):
        # early products must be accurate: a fixed eta=1e-8 floor blocks deep
        # convergence while the relaxed schedule reaches the target
        cell = {"rho": None}
        hook = lambda: cell["rho"]
        cb = lambda k, rho: cell.__setitem__("rho", rho)
        relaxed = inexact_operator(
            convdiff100, PerturbationSchedule("relaxed", 1e-8, rtol=1e-8),
            history_hook=hook, seed=5)
        rep_rel = gmres(relaxed, rhs100,
                        opts=GmresOptions(rtol=1e-8, iteration_callback=cb))
        assert rep_rel.converged
        fixed = inexact_operator(convdiff100,
                                 PerturbationSchedule("fixed", 1e-8), seed=5)
        rep_fix = gmres(fixed, rhs100,
                        opts=GmresOptions(rtol=1e-10, max_iter=100))
        true_fix = np.linalg.norm(rhs100 - convdiff100.matvec(rep_fix.x))
        assert true_fix > 1e-10 * np.linalg.norm(rhs100)


def config_doc(outdir, bound_checks=False):
    return {
        "problem": {"kind": "convdiff", "nx": 6, "ny": 6, "peclet": 4.0},
        "rhs": {"kind": "random", "seed": 3},
        "variants": [
            {"name": "mgs", "solver": "gmres", "options": {"rtol": 1e-8}},
            {"name": "pipe", "solver": "pipelined-gmres",
             "options": {"rtol": 1e-8, "theta": 0.0}},
        ],
        "outputs": outdir,
        "bound_checks": bound_checks,
    }


class TestConfig:
    def test_rejects_empty_variants(self):
        with pytest.raises(ConfigError, match="variants"):
            ExperimentConfig.from_dict({"problem": {}, "rhs": {},
                                        "variants": []})

    def test_rejects_missing_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_dict({
                "problem": {"kind": "convdiff", "nx": 3, "ny": 3},
                "rhs": {"kind": "random"},
                "variants": [{"name": "a", "solver": "gmres"}]})

    def test_rejects_unknown_solver(self):
        with pytest.raises(ConfigError, match="unknown solver"):
            ExperimentConfig.from_dict({
                "problem": {"kind": "convdiff", "nx": 3, "ny": 3},
                "rhs": {"kind": "ones"},
                "variants": [{"name": "a", "solver": "nope"}]})

    # each value of the wrong JSON type is a ConfigError naming its key
    @pytest.mark.parametrize("change, key", [
        ({"problem": 3}, "problem"), ({"problem": None}, "problem"),
        ({"rhs": "ones"}, "rhs"), ({"inexact": 3}, "inexact"),
        ({"inexact": []}, "inexact"),
        ({"variants": [3]}, r"variants\[0\]"),
        ({"variants": [{"name": "a", "solver": "gmres"}, ["b", "gmres"]]},
         r"variants\[1\]"),
        ({"variants": [{"name": "a", "solver": ["gmres"]}]}, r"variants\[0\]\.solver"),
        ({"variants": [{"name": 1, "solver": "gmres"}]}, r"variants\[0\]\.name"),
        ({"outputs": 3}, "outputs"), ({"bound_checks": "no"}, "bound_checks"),
        ({"problem": {"kind": "convdiff", "nx": "6", "ny": 6}}, r"problem\.nx"),
        ({"problem": {"kind": "convdiff", "ny": 6}}, r"problem\.nx"),
        ({"problem": {"kind": "convdiff", "nx": True, "ny": 6}}, r"problem\.nx"),
        ({"rhs": {"kind": "file"}}, r"rhs\.path"),
        ({"rhs": {"kind": "random", "seed": "x"}}, r"rhs\.seed"),
        ({"inexact": {"eta": "1e-6", "seed": 1}}, r"inexact\.eta"),
    ])
    def test_rejects_values_of_the_wrong_type(self, change, key):
        doc = dict(config_doc("out"), **change)
        with pytest.raises(ConfigError, match=rf"^{key}: need a "):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("doc", [[], "problem", 3, None])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(ConfigError, match="experiment document"):
            ExperimentConfig.from_dict(doc)

    # each refused document is a ConfigError naming its key, whether the
    # parser or run() finds it
    @pytest.mark.parametrize("change, key", [
        ({"variants": [{"name": "a"}]}, r"variants\[0\]"),
        ({"variants": [{"solver": "gmres"}]}, r"variants\[0\]"),
        ({"variants": [{"name": "a", "solver": "gmres"}, {"name": "a", "solver": "gcr"}]},
         r"variants\[1\]\.name"),
        ({"problem": {"kind": "spectrum", "eigs": [1.0, 2.0]}}, r"problem\.seed"),
        ({"inexact": {"mode": "fixed", "eta": 1e-6}}, r"inexact\.seed"),
        ({"problem": {"kind": "banana", "nx": 6, "ny": 6}}, r"problem\.kind"),
        ({"problem": {"nx": 6, "ny": 6}}, r"problem\.kind"),
        ({"rhs": {"kind": "banana"}}, r"rhs\.kind"),
        # a stray key is refused, not read as its default
        ({"problem": {"kind": "convdiff", "nx": 6, "ny": 6, "pecelt": 10}}, r"problem\.pecelt"),
        ({"inexact": {"seed": 3, "etaa": 1e-3}}, r"inexact\.etaa"),
        ({"bound_check": True}, "bound_check"),
        ({"rhs": {"kind": "random", "seed": 3, "sed": 4}}, r"rhs\.sed"),
        ({"variants": [{"name": "a", "solver": "gmres", "option": {"rtol": 1e-2, "restart": 3}}]},
         r"variants\[0\]\.option"),
    ])
    def test_refused_document_names_the_key(self, tmp_path, change, key):
        doc = dict(config_doc(str(tmp_path / "out")), **change)
        with pytest.raises(ConfigError, match=rf"^{key}"):
            run(ExperimentConfig.from_dict(doc))

    @pytest.mark.parametrize("part", ["problem", "rhs"])
    def test_unknown_kind_is_refused_when_parsed(self, part):
        doc = config_doc("out")
        doc[part] = dict(doc[part], kind="banana")
        with pytest.raises(ConfigError, match=rf"^{part}\.kind: unknown kind 'banana'"):
            ExperimentConfig.from_dict(doc)

    def test_parse_error_carries_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{\n  "problem": }\n')
        with pytest.raises(ConfigError, match="line 2"):
            ExperimentConfig.from_json(p)


class TestRun:
    def test_artifacts_and_summary(self, tmp_path):
        cfg = ExperimentConfig.from_dict(config_doc(str(tmp_path / "out")))
        summary, outdir = run(cfg)
        assert os.path.exists(os.path.join(outdir, "mgs.csv"))
        assert os.path.exists(os.path.join(outdir, "pipe.csv"))
        with open(os.path.join(outdir, "summary.json")) as fh:
            loaded = json.load(fh)
        assert loaded == summary
        for name in ("mgs", "pipe"):
            assert summary["variants"][name]["termination"] == "converged"

    def test_csv_matches_report(self, tmp_path):
        cfg = ExperimentConfig.from_dict(config_doc(str(tmp_path / "out")))
        A = gen_convdiff(6, 6, 4.0)
        b = np.random.default_rng(3).standard_normal(36)
        rep = gmres(A, b, opts=GmresOptions(rtol=1e-8))
        summary, outdir = run(cfg)
        lines = open(os.path.join(outdir, "mgs.csv")).read().strip().splitlines()
        assert lines[0] == "iter,rho,true_residual,reductions_cum"
        assert len(lines) == len(rep.residual_history) + 1
        rho1 = float(lines[1].split(",")[1])
        assert rho1 == rep.residual_history[0]
        assert summary["variants"]["mgs"]["iterations"] == rep.iterations

    def test_rerun_byte_identical(self, tmp_path):
        cfg1 = ExperimentConfig.from_dict(config_doc(str(tmp_path / "a")))
        cfg2 = ExperimentConfig.from_dict(config_doc(str(tmp_path / "b")))
        _, out1 = run(cfg1)
        _, out2 = run(cfg2)
        for name in ("mgs.csv", "pipe.csv", "summary.json"):
            b1 = open(os.path.join(out1, name), "rb").read()
            b2 = open(os.path.join(out2, name), "rb").read()
            assert b1 == b2, name

    def test_bound_report_csv(self, tmp_path):
        doc = config_doc(str(tmp_path / "out"), bound_checks=True)
        doc["problem"] = {"kind": "convdiff", "nx": 5, "ny": 5, "peclet": 2.0}
        cfg = ExperimentConfig.from_dict(doc)
        _, outdir = run(cfg)
        lines = open(os.path.join(outdir, "mgs_bounds.csv")).read().splitlines()
        assert lines[0] == "iter,measured,eigen_bound,elman_bound,fov_bound"
        assert len(lines) > 2

    def test_bounds_skipped_above_the_desk_scale_limit(self, tmp_path):
        # 46 x 46 = 2116 unknowns, above the bound report's 2000
        doc = config_doc(str(tmp_path / "out"), bound_checks=True)
        doc["problem"] = {"kind": "convdiff", "nx": 46, "ny": 46, "peclet": 2.0}
        doc["variants"] = doc["variants"][:1]
        summary, outdir = run(ExperimentConfig.from_dict(doc))
        entry = summary["variants"]["mgs"]
        assert entry["bounds"] == ("skipped: A has 2116 rows, above the bound "
                                   "report's limit of 2000")
        assert entry["termination"] == "converged"
        assert json.load(open(os.path.join(outdir, "summary.json"))) == summary
        assert sorted(os.listdir(outdir)) == ["mgs.csv", "summary.json", "timings.json"]

    def test_bounds_of_a_small_operator_are_not_marked(self, tmp_path):
        doc = config_doc(str(tmp_path / "out"), bound_checks=True)
        summary, outdir = run(ExperimentConfig.from_dict(doc))
        assert all("bounds" not in entry for entry in summary["variants"].values())
        assert os.path.exists(os.path.join(outdir, "pipe_bounds.csv"))

    def test_compare_table(self, tmp_path):
        cfg = ExperimentConfig.from_dict(config_doc(str(tmp_path / "out")))
        rows, table = compare(cfg)
        assert len(rows) == 2
        assert "variant" in table
        # table rows mirror the in-memory reports
        A = gen_convdiff(6, 6, 4.0)
        b = np.random.default_rng(3).standard_normal(36)
        rep = gmres(A, b, opts=GmresOptions(rtol=1e-8))
        assert rows[0][2] == rep.iterations
        assert rows[0][3] == rep.matvecs

    def test_identical_variants_identical_rows(self, tmp_path):
        doc = config_doc(str(tmp_path / "out"))
        doc["variants"] = [
            {"name": "a", "solver": "gmres", "options": {"rtol": 1e-8}},
            {"name": "b", "solver": "gmres", "options": {"rtol": 1e-8}},
        ]
        rows, _ = compare(ExperimentConfig.from_dict(doc))
        assert rows[0][1:] == rows[1][1:]

    def test_golden_csv_schema(self, tmp_path):
        # the CSV schema and float formatting are a compatibility contract:
        # this run must reproduce the checked-in artifact byte for byte
        doc = {
            "problem": {"kind": "spectrum",
                        "eigs": [1.0, 2.0, 3.0, 4.0, 5.0], "seed": 3},
            "rhs": {"kind": "random", "seed": 4},
            "variants": [{"name": "mgs", "solver": "gmres",
                          "options": {"rtol": 1e-10}}],
            "outputs": str(tmp_path / "out"),
        }
        _, outdir = run(ExperimentConfig.from_dict(doc))
        golden_dir = os.path.join(os.path.dirname(__file__), "golden")
        got = open(os.path.join(outdir, "mgs.csv"), "rb").read()
        want = open(os.path.join(golden_dir, "spectrum5_mgs.csv"), "rb").read()
        assert got == want
        got_s = open(os.path.join(outdir, "summary.json"), "rb").read()
        want_s = open(os.path.join(golden_dir, "spectrum5_summary.json"),
                      "rb").read()
        assert got_s == want_s

    def test_singular_variant_recorded_as_error(self, tmp_path):
        # a zero operator leaves every least-squares factor singular: the
        # variants that raise SingularMatrixError get error entries and
        # summary.json is still written
        doc = {"problem": {"kind": "spectrum", "eigs": [0.0] * 8, "seed": 1},
               "rhs": {"kind": "random", "seed": 2},
               "variants": [{"name": "mgs", "solver": "gmres"},
                            {"name": "fg", "solver": "fgmres"}],
               "outputs": str(tmp_path / "out")}
        summary, outdir = run(ExperimentConfig.from_dict(doc))
        entry = summary["variants"]["mgs"]
        assert entry["termination"] == "error"
        assert entry["error"].startswith("SingularMatrixError")
        assert summary["variants"]["fg"]["termination"] == "error"
        assert summary["errors"] == 2
        with open(os.path.join(outdir, "summary.json")) as fh:
            assert json.load(fh) == summary

    def test_inexact_run(self, tmp_path):
        doc = config_doc(str(tmp_path / "out"))
        doc["inexact"] = {"mode": "relaxed", "eta": 1e-9, "seed": 11}
        summary, _ = run(ExperimentConfig.from_dict(doc))
        assert summary["variants"]["mgs"]["termination"] == "converged"


@pytest.mark.parametrize("basis", ["newton", "chebyshev"])
def test_sstep_zero_rhs_through_harness(basis):
    variant = {"solver": "sstep-gmres", "options": {"basis": basis}}
    rep = _run_variant(gen_convdiff(8, 8, peclet=10.0), np.zeros(64), variant)
    assert rep.converged and rep.iterations == 0
    assert np.array_equal(rep.x, np.zeros(64))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("variant", [
    {"solver": "sstep-gmres", "options": {"basis": "newton"}},
    {"solver": "sstep-gmres", "options": {"basis": "chebyshev"}},
    {"solver": "gmres", "options": {"preconditioner": {"kind": "poly", "degree": 3}}},
], ids=["newton", "chebyshev", "poly"])
def test_nonfinite_b_rejected_before_warmup(variant, bad):
    # the warm-up Arnoldi on b would fail in LAPACK first
    b = np.ones(64)
    b[5] = bad
    with pytest.raises(ValueError, match="b must be finite"):
        _run_variant(gen_convdiff(8, 8, peclet=10.0), b, variant)


@pytest.mark.parametrize("variant", [
    {"solver": "sstep-gmres", "options": {"basis": "newton"}},
    {"solver": "sstep-gmres", "options": {"basis": "chebyshev"}},
    {"solver": "gmres", "options": {"preconditioner": {"kind": "poly", "degree": 3}}},
], ids=["newton", "chebyshev", "poly"])
def test_b_of_another_length_rejected_before_warmup(variant):
    with pytest.raises(ValueError, match="dimension mismatch: operator is 64x64, "
                                         "b has length 63"):
        _run_variant(gen_convdiff(8, 8, peclet=10.0), np.ones(63), variant)


class TestCli:
    def test_gen_info_roundtrip(self, tmp_path, capsys):
        from gmreskit.cli import main
        mtx = str(tmp_path / "m.mtx")
        assert main(["gen", "convdiff", "--nx", "4", "--ny", "4",
                     "--peclet", "1.5", "-o", mtx]) == 0
        assert main(["info", mtx]) == 0
        out = capsys.readouterr().out
        assert "16 x 16" in out

    def test_run_and_overrides(self, tmp_path, capsys):
        from gmreskit.cli import main
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(config_doc(str(tmp_path / "out"))))
        assert main(["run", str(cfg), "--rtol", "1e-6"]) == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["variants"]["mgs"]["termination"] == "converged"

    def test_compare_cli(self, tmp_path, capsys):
        from gmreskit.cli import main
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(config_doc(str(tmp_path / "out"))))
        assert main(["compare", str(cfg)]) == 0
        assert "variant" in capsys.readouterr().out

    def test_bad_config_exit_code(self, tmp_path, capsys):
        from gmreskit.cli import main
        cfg = tmp_path / "bad.json"
        cfg.write_text("{}")
        assert main(["run", str(cfg)]) == 1

    def test_wrong_type_exit_code(self, tmp_path, capsys):
        from gmreskit.cli import main
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(config_doc(str(tmp_path / "out")), rhs="ones")))
        assert main(["run", str(cfg)]) == 1
        assert "error: rhs: need a JSON object" in capsys.readouterr().err

    def test_missing_key_exit_code(self, tmp_path, capsys):
        from gmreskit.cli import main
        cfg = tmp_path / "bad.json"
        doc = dict(config_doc(str(tmp_path / "out")), problem={"kind": "convdiff", "ny": 6})
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg)]) == 1
        assert "error: problem.nx: need a JSON integer of at least 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change, error", [
        ({"problem": {"kind": "convdiff", "nx": 6, "ny": 6, "pecelt": 10}},
         "error: problem.pecelt: unknown key; use kind, nx, ny or peclet"),
        ({"rhs": {"kind": "banana"}}, "error: rhs.kind: unknown kind 'banana'"),
    ], ids=["stray-key", "unknown-kind"])
    def test_refused_document_writes_nothing(self, tmp_path, capsys, change, error):
        from gmreskit.cli import main
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(config_doc(str(tmp_path / "out")), **change)))
        assert main(["run", str(cfg)]) == 1
        assert error in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("part", ["problem", "rhs"])
    def test_missing_input_file_writes_nothing(self, tmp_path, capsys, part):
        from gmreskit.cli import main
        cfg = tmp_path / "exp.json"
        missing = {"problem": {"kind": "matrix_market", "path": str(tmp_path / "A.mtx")},
                   "rhs": {"kind": "file", "path": str(tmp_path / "b.txt")}}
        cfg.write_text(json.dumps(dict(config_doc(str(tmp_path / "out")), **{part: missing[part]})))
        assert main(["run", str(cfg)]) == 1
        assert missing[part]["path"] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_override_needs_a_random_rhs(self, tmp_path, capsys):
        from gmreskit.cli import main
        cfg = tmp_path / "exp.json"
        doc = config_doc(str(tmp_path / "out"))
        cfg.write_text(json.dumps(dict(doc, rhs={"kind": "ones"})))
        assert main(["compare", str(cfg), "--seed", "4"]) == 1
        assert "error: rhs.seed: rhs kind 'ones' does not read a seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "--seed", "4"]) == 0

    def test_scheme_override_reaches_every_variant(self, tmp_path, capsys):
        from gmreskit.cli import main
        cfg = tmp_path / "exp.json"
        doc = config_doc(str(tmp_path / "out"))
        cfg.write_text(json.dumps(doc))
        # pipelined-gmres reads no scheme
        assert main(["run", str(cfg), "--scheme", "cgs2"]) == 1
        assert "error: variants[1].options.scheme: pipelined-gmres" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        doc["variants"] = doc["variants"][:1]
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "--scheme", "cgs2", "-o", str(tmp_path / "cli")]) == 0
        doc["variants"][0]["options"]["scheme"] = "cgs2"
        run(ExperimentConfig.from_dict(doc), output_dir=str(tmp_path / "lib"))
        for name in ("mgs.csv", "summary.json"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()

    def test_missing_file_exit_code(self, capsys):
        from gmreskit.cli import main
        assert main(["info", "/nonexistent/m.mtx"]) == 1

    def test_log_env_var(self, tmp_path, capsys, monkeypatch):
        from gmreskit.cli import main
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(config_doc(str(tmp_path / "out"))))
        monkeypatch.setenv("KRYLOV_LOG", "1")
        assert main(["run", str(cfg)]) == 0
        err = capsys.readouterr().err
        assert "running variant mgs" in err


def _convdiff_by_cells(nx, ny, peclet):
    """Reference assembly: one row per grid cell, neighbours in column order."""
    pe = float(peclet)
    row_ptr, col_idx, values = [0], [], []
    for iy in range(ny):
        for ix in range(nx):
            west = -1.0 - (pe if pe > 0 else 0.0)
            east = -1.0 - (-pe if pe < 0 else 0.0)
            for keep, col, val in ((iy > 0, (iy - 1) * nx + ix, -1.0),
                                   (ix > 0, iy * nx + ix - 1, west),
                                   (True, iy * nx + ix, 4.0 + abs(pe)),
                                   (ix < nx - 1, iy * nx + ix + 1, east),
                                   (iy < ny - 1, (iy + 1) * nx + ix, -1.0)):
                if keep:
                    col_idx.append(col)
                    values.append(val)
            row_ptr.append(len(values))
    return (np.array(row_ptr, dtype=np.int64), np.array(col_idx, dtype=np.int64),
            np.array(values, dtype=np.float64))


@pytest.mark.parametrize("peclet", [-2.0, 0.0, 0.5, 10.0])
@pytest.mark.parametrize("nx, ny", [(2, 2), (3, 5), (7, 4), (10, 10), (64, 64)])
def test_convdiff_matches_cell_loop_bit_for_bit(nx, ny, peclet):
    A = gen_convdiff(nx, ny, peclet)
    for got, want in zip((A.row_ptr, A.col_idx, A.values), _convdiff_by_cells(nx, ny, peclet)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_jacobi_under_exact_inexact_product_matches_exact_run(tmp_path):
    # eta = 0 leaves every product exact, so the artifacts must not move
    doc = config_doc(None)
    doc["variants"] = [{"name": "jac", "solver": "gmres",
                        "options": {"rtol": 1e-8, "preconditioner": {"kind": "jacobi"}}}]
    summaries = []
    for label, inexact in (("exact", None), ("inexact", {"mode": "fixed", "eta": 0.0,
                                                         "seed": 1})):
        doc["outputs"] = str(tmp_path / label)
        if inexact is not None:
            doc["inexact"] = inexact
        _, outdir = run(ExperimentConfig.from_dict(doc))
        summaries.append(open(os.path.join(outdir, "summary.json"), "rb").read())
    assert summaries[0] == summaries[1]
    assert b'"converged"' in summaries[0]


def test_jacobi_under_inexact_product_runs(tmp_path):
    doc = config_doc(str(tmp_path / "out"))
    doc["variants"] = [{"name": "jac", "solver": "gmres",
                        "options": {"preconditioner": {"kind": "jacobi"}}}]
    doc["inexact"] = {"mode": "fixed", "eta": 1e-10, "seed": 1}
    summary, outdir = run(ExperimentConfig.from_dict(doc))
    assert summary["variants"]["jac"]["termination"] == "converged"
    assert os.path.exists(os.path.join(outdir, "summary.json"))


def test_final_true_residual_of_an_inexact_run_takes_the_exact_product(tmp_path):
    # the report's checkpoints go through the perturbed product; the summary's
    # final residual is ||b - A x|| with A itself
    doc = config_doc(str(tmp_path / "out"))
    doc["problem"] = {"kind": "convdiff", "nx": 10, "ny": 10, "peclet": 10.0}
    doc["variants"] = [{"name": "mgs", "solver": "gmres", "options": {"rtol": 1e-8}}]
    doc["inexact"] = {"mode": "fixed", "eta": 1e-6, "seed": 1}
    summary, _ = run(ExperimentConfig.from_dict(doc))
    A = gen_convdiff(10, 10, peclet=10.0)
    b = np.random.default_rng(3).standard_normal(100)
    # the same seeded perturbations, so the same iterate
    operator = inexact_operator(A, PerturbationSchedule(eta=1e-6), seed=1)
    report = _run_variant(operator, b, doc["variants"][0])
    final = summary["variants"]["mgs"]["final_true_residual"]
    assert final == float(np.linalg.norm(b - A.matvec(report.x)))
    assert final != report.true_residual_checkpoints[-1][1]


class TestCliInfo:
    @staticmethod
    def info(tmp_path, capsys, symmetry, body):
        from gmreskit.cli import main
        path = tmp_path / "m.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate real {symmetry}\n{body}")
        assert main(["info", str(path)]) == 0
        return capsys.readouterr().out

    def test_symmetric_file(self, tmp_path, capsys):
        out = self.info(tmp_path, capsys, "symmetric", "3 3 3\n1 1 2.0\n3 1 -1.0\n2 2 4.0\n")
        assert "structure: symmetric" in out and "value range: [-1, 4]" in out

    def test_nonsymmetric_file(self, tmp_path, capsys):
        out = self.info(tmp_path, capsys, "general", "2 2 3\n1 1 1.0\n2 1 3.0\n1 2 2.0\n")
        assert "structure: general" in out

    def test_explicit_zero_without_mirror_is_symmetric(self, tmp_path, capsys):
        out = self.info(tmp_path, capsys, "general", "2 2 3\n1 1 1.0\n2 1 0.0\n2 2 1.0\n")
        assert "structure: symmetric" in out

    def test_empty_matrix(self, tmp_path, capsys):
        out = self.info(tmp_path, capsys, "general", "2 2 0\n")
        assert "nonzeros: 0" in out and "structure: symmetric" in out
        assert "value range" not in out

    def test_rectangular_is_general(self, tmp_path, capsys):
        out = self.info(tmp_path, capsys, "general", "2 3 1\n1 1 1.0\n")
        assert "size: 2 x 3" in out and "structure: general" in out

    def test_malformed_entry_exit_code(self, tmp_path, capsys):
        from gmreskit.cli import main
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1.5 1 1.0\n")
        assert main(["info", str(path)]) == 1
        assert "error: malformed entry line: '1.5 1 1.0'" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["-1 2 0", "2 -3 0", "2 2 -1"])
    def test_negative_size_exit_code(self, tmp_path, capsys, size):
        from gmreskit.cli import main
        path = tmp_path / "neg.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate real general\n{size}\n")
        assert main(["info", str(path)]) == 1
        assert f"error: malformed size line: '{size}'" in capsys.readouterr().err

    def test_rectangular_symmetric_exit_code(self, tmp_path, capsys):
        from gmreskit.cli import main
        path = tmp_path / "rect.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n5 3 1\n5 2 1.0\n")
        assert main(["info", str(path)]) == 1
        assert "error: symmetric matrix must be square: '5 3 1'" in capsys.readouterr().err
