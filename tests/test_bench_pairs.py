"""tools/bench_pairs.py: the alternation of its pairs and the aggregation of
their metrics, driven by a stub perfbench/run.py instead of the benchmark."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest


def _load_bench_pairs():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


bench_pairs = _load_bench_pairs()

# a stand-in for perfbench/run.py: logs its call and prints a result whose
# solve_s is the side's base plus seed / 1000
STUB = """\
import argparse, json, pathlib
p = argparse.ArgumentParser()
for name in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(name)
a = p.parse_args()
here = pathlib.Path(__file__).resolve().parent
with open(here.parents[1] / "calls.log", "a") as fh:
    fh.write(f"{SIDE} {a.seed} {a.trace}\\n")
(here / "out").mkdir(exist_ok=True)
(here / "out" / f"{a.workload}-trace{a.trace}.json").write_text(
    json.dumps({"counts": {"solve": [3, 4, 5]}}))
if a.trace == "1":
    metrics = {"linalg.matvec.self_s": {"value": BASE / 2, "unit": "s"}}
else:
    metrics = {"solve_s": {"value": BASE + int(a.seed) / 1000, "unit": "s"},
               "iterations": {"value": 3, "unit": "count"}}
print("noise on stdout first")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
"""


def stub_checkout(root, side, base):
    (root / side / "perfbench").mkdir(parents=True)
    (root / side / "perfbench" / "run.py").write_text(
        f"SIDE, BASE = {side!r}, {base!r}\n" + STUB)
    return root / side


def run(metric_values, correct=True, failed=0, solve_counts=None, iterations=10):
    metrics = {"iterations": {"value": iterations, "unit": "count"}}
    metrics.update({k: {"value": v, "unit": "s"} for k, v in metric_values.items()})
    return {"correct": correct, "attempted": 4, "failed": failed, "metrics": metrics,
            "solve_counts": solve_counts}


def pairs_of(parent, change):
    """Pairs whose runs hold the metrics of parent[i] and change[i]."""
    return [{"seed": i, "first": bench_pairs.order(i)[0], "parent": run(a), "change": run(c)}
            for i, (a, c) in enumerate(zip(parent, change))]


def test_parent_goes_first_on_even_pairs(tmp_path):
    parent = stub_checkout(tmp_path, "parent", 1.0)
    change = stub_checkout(tmp_path, "change", 0.5)
    status = bench_pairs.main([str(parent), str(change), "--workload", "w", "--seeds", "3-6",
                               "--seconds", "0", "--out", str(tmp_path / "bench")])
    calls = (tmp_path / "calls.log").read_text().split("\n")[:-1]
    assert calls == ["parent 3 0", "change 3 0", "change 4 0", "parent 4 0",
                     "parent 5 0", "change 5 0", "change 6 0", "parent 6 0",
                     "parent 3 1", "change 3 1"]
    out = json.loads((tmp_path / "bench" / "BENCH_w-parent-change-3-6.json").read_text())
    assert status == 0 and out["all_correct"] and out["counts_equal"]
    assert [p["first"] for p in out["pairs"]] == ["parent", "change"] * 2
    assert [p["seed"] for p in out["pairs"]] == [3, 4, 5, 6]
    assert out["pairs"][1]["change"]["solve_counts"] == {"solve": [3, 4, 5]}
    s = out["summary"]["solve_s"]
    assert (s["change_wins"], s["pairs"], s["verdict"]) == (4, 4, "better")
    assert s["parent_median"] == pytest.approx(1.0045)
    assert out["summary"]["iterations"]["verdict"] == "equal"
    assert out["traced"] == {"seed": 3, "first": "parent",
                             "parent": {"linalg.matvec.self_s": 0.5},
                             "change": {"linalg.matvec.self_s": 0.25}}


def test_seed_ranges():
    assert bench_pairs.parse_seeds("1-10") == list(range(1, 11))
    assert bench_pairs.parse_seeds("7") == [7]


def test_medians_quartiles_and_wins_on_known_numbers():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    tight = [5.0, 5.1, 5.2, 5.3, 5.4, 5.5, 5.6, 5.7, 5.8, 5.9]
    pairs = pairs_of([{"spread": a, "tight": t, "slower": t, "mixed": t, "score": t}
                      for a, t in zip(parent, tight)],
                     [{"spread": a - 0.5, "tight": t - 1.0, "slower": t + 1.0,
                       "mixed": t + (-1.0 if i < 8 else 1.0), "score": t + 1.0}
                      for i, (a, t) in enumerate(zip(parent, tight))])
    summary = bench_pairs.summarize(pairs, {"score": "higher"})
    spread = summary["spread"]
    assert spread["parent_median"] == 5.5 and spread["change_median"] == 5.0
    assert spread["parent_quartiles"] == [3.25, 7.75]
    # 10 of 10 wins, but by less than the parent's interquartile range
    assert (spread["change_wins"], spread["change_losses"], spread["verdict"]) == \
        (10, 0, "unresolved")
    assert summary["tight"]["parent_quartiles"] == pytest.approx([5.225, 5.675])
    assert (summary["tight"]["change_wins"], summary["tight"]["verdict"]) == (10, "better")
    assert (summary["slower"]["change_losses"], summary["slower"]["verdict"]) == (10, "worse")
    # 8 of 10 wins is short of the 9 the verdict needs
    assert (summary["mixed"]["change_wins"], summary["mixed"]["verdict"]) == (8, "unresolved")
    assert summary["mixed"]["change_median"] == statistics.median(
        [t - 1.0 for t in tight[:8]] + [t + 1.0 for t in tight[8:]])
    # higher is better for score
    assert (summary["score"]["change_wins"], summary["score"]["verdict"]) == (10, "better")
    assert summary["iterations"]["verdict"] == "equal"


def test_incorrect_runs_and_unequal_counts_are_flagged():
    pairs = pairs_of([{"solve_s": 1.0}] * 6, [{"solve_s": 0.9}] * 6)
    traced = pairs.pop()
    clean = bench_pairs.report(pairs, traced, {})
    assert clean["all_correct"] and clean["counts_equal"] and clean["problems"] == []
    pairs[0]["change"]["correct"] = False
    pairs[1]["parent"]["failed"] = 2
    pairs[2]["change"] = {"error": "exit 1: no result"}
    pairs[3]["change"]["metrics"]["iterations"]["value"] = 11
    pairs[4]["parent"]["solve_counts"] = {"gmres-ir": [161, 170, 3644]}
    traced["parent"]["failed"] = 1
    flagged = bench_pairs.report(pairs, traced, {})
    assert not flagged["all_correct"] and not flagged["counts_equal"]
    assert flagged["problems"] == [
        "seed 0 change: correct False, failed 0",
        "seed 1 parent: correct True, failed 2",
        "seed 2 change: exit 1: no result",
        "seed 5 parent: correct True, failed 1",
        "seed 2: counts differ between parent and change",
        "seed 3: counts differ between parent and change",
        "seed 4: counts differ between parent and change"]
    # the pair without a result drops out of the metrics it did not report
    assert flagged["summary"]["solve_s"]["pairs"] == 4
    assert flagged["summary"]["iterations"]["change_losses"] == 1
