"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the repository's default test collection (the file name does
not match test_*.py): it runs every workload at five seeds, about a minute.
"""

from __future__ import annotations

import sys
from pathlib import Path

from time import perf_counter

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gmreskit as gk  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, run_pass  # noqa: E402

SEEDS = range(5)
OUT = HERE / "out"


@pytest.fixture(scope="module")
def passes():
    """Every workload run once at each of SEEDS."""
    OUT.mkdir(exist_ok=True)
    runs = {}
    for name, cls in WORKLOADS.items():
        workload = cls(str(OUT))
        problems = workload.prepare(gk)
        results = [run_pass(gk, workload, seed) for seed in SEEDS]
        runs[name] = (workload, problems, results)
    return runs


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_identical_over_seeds(passes, name):
    workload, problems, results = passes[name]
    assert problems == []
    for res in results:
        assert res.errors == {}
        assert workload.check(res) == []
    first = results[0].solve_counts
    assert set(first) == {op.label for op in workload.ops if op.kind == "solve"}
    for seed, res in zip(SEEDS, results):
        assert res.solve_counts == first, f"seed {seed}"


def _cycle_lengths(rep):
    return [end - start for start, end in checks.cycles(rep)]


def test_reductions_match_structural_formulas(passes):
    """Per-step and total reductions as ortho's docstring models them: MGS
    j+1 at step j, CGS 2, CGS2 3, CGS-P 1, ICWY 1, pipelined 1, plus one
    initial normalization per cycle; ICWY adds one trailing batch per cycle
    for its deferred last normalization; s-step 2 per block, the first
    block's entry normalization being one of the two."""
    per_step = {"mgs": lambda j: j + 1, "cgs": lambda j: 2, "cgs2": lambda j: 3,
                "cgsp": lambda j: 1, "icwy": lambda j: 1}
    extra = {"icwy": 1}

    def model(scheme, lengths):
        return sum(1 + extra.get(scheme, 0) + sum(per_step[scheme](j)
                                                  for j in range(1, m + 1))
                   for m in lengths)

    _, _, (sk, *_) = passes["sparse-krylov"]
    _, _, (cat, *_) = passes["catalogue"]
    cases = [(sk, "mgs", "mgs"), (sk, "cgs2", "cgs2"), (sk, "lowsync", "icwy"),
             (sk, "poly-cgs2", "cgs2")]
    cases += [(cat, f"gmres-{s}", s) for s in per_step]
    cases += [(cat, "lowsync-gmres", "icwy"), (cat, "grade-lowsync", "icwy")]
    for res, label, scheme in cases:
        rep = res.results[label]
        lengths = _cycle_lengths(rep)
        assert rep.reductions == model(scheme, lengths), label
        logs = [per_step[scheme](j) for m in lengths for j in range(1, m + 1)]
        if scheme != "icwy":       # ICWY's first step is folded into the second
            assert rep.reduction_log == logs, label
    for res, label in ((sk, "pipelined"), (cat, "pipelined-gmres")):
        rep = res.results[label]
        assert rep.reduction_log == [1] * rep.iterations
        assert rep.reductions == rep.iterations + len(_cycle_lengths(rep))
    for res, label, s in ((sk, "sstep", 5), (cat, "sstep-gmres", 5)):
        rep = res.results[label]
        assert rep.reduction_log == [2] * (rep.iterations // s)
        assert rep.reductions == 2 * rep.iterations // s


@pytest.fixture(scope="module")
def small():
    ref = reference.convdiff(12, 12, 5.0)
    A = gk.gen_convdiff(12, 12, peclet=5.0)
    b = np.random.default_rng(7).standard_normal(A.nrows)
    rep = gk.gmres(A, b, opts=gk.GmresOptions(rtol=1e-10, restart=20))
    return ref, A, b, rep


def test_reference_stencil_matches_generator():
    for nx, ny, pe in ((5, 7, 0.0), (6, 4, 3.5), (4, 6, -2.0)):
        A = gk.gen_convdiff(nx, ny, peclet=pe)
        ref = reference.convdiff(nx, ny, pe)
        assert reference.same_csr(A, ref) == []
        assert np.array_equal(A.to_dense(), ref.dense())
    wrong = reference.convdiff(5, 7, 0.5)
    assert reference.same_csr(gk.gen_convdiff(5, 7, peclet=0.0), wrong)


def test_residual_check_accepts_the_solve(small):
    ref, _, b, rep = small
    assert checks.solve_residual("gmres", ref, b, rep, 1e-10) == []
    assert checks.monotone("gmres", rep) == []


def test_residual_check_rejects_perturbed_x(small):
    ref, _, b, rep = small
    x = rep.x + 1e-9 * np.random.default_rng(1).standard_normal(len(rep.x))
    bad = gk.SolveReport(**{**vars(rep), "x": x})
    assert any("disagrees" in p for p in checks.solve_residual("gmres", ref, b, bad, 1e-3))


def test_residual_check_rejects_out_of_bound_residual(small):
    ref, _, b, rep = small
    rho = rep.true_residual_checkpoints[-1][1] / np.linalg.norm(b)
    problems = checks.solve_residual("gmres", ref, b, rep, 0.5 * rho)
    assert any("misses the stated accuracy" in p for p in problems)


def test_monotone_and_agreement_reject_departures(small):
    _, _, _, rep = small
    h = list(rep.residual_history)
    h[3] = 2.0 * h[2]
    assert checks.monotone("gmres", gk.SolveReport(**{**vars(rep), "residual_history": h}))
    other = gk.SolveReport(**{**vars(rep), "residual_history": h})
    assert checks.agree("other", other, "gmres", rep, 10)


def test_bound_check_rejects_an_undercut_bound():
    A = gk.gen_spectrum(np.linspace(1.0, 12.0, 15), seed=21)
    b = np.random.default_rng(3).standard_normal(15)
    rep = gk.gmres(A, b, opts=gk.GmresOptions(rtol=1e-14))
    br = gk.bound_report(A, rep, grid_count=16)
    dense = reference.csr_of(A).dense()
    assert checks.bounds("spectrum", br, dense, 16) == []
    br.fov = [None if v is None else 0.5 * m for v, m in zip(br.fov, br.measured)]
    assert checks.bounds("spectrum", br, dense, 16)


def test_tracer_accounts_for_the_pass_and_restores_the_program(small):
    _, A, b, _ = small
    originals = (gk.gmres, gk.CsrMatrix.matvec, gk.solvers.gmres)
    tracer = Tracer()
    with tracer:
        assert gk.gmres is not originals[0]
        start = perf_counter()
        gk.gmres(A, b, opts=gk.GmresOptions(rtol=1e-10, restart=20))
        elapsed = perf_counter() - start
    assert (gk.gmres, gk.CsrMatrix.matvec, gk.solvers.gmres) == originals
    metrics = tracer.layer_metrics()
    assert metrics["linalg.matvec.calls"][0] > 0
    assert metrics["ortho.arnoldi.steps"][0] == metrics["linalg.lsq.columns"][0]
    assert abs(sum(tracer.self_s.values()) - tracer.covered()) < 1e-9
    assert tracer.covered() <= elapsed
