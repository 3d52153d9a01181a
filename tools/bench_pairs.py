"""Run perfbench in alternating parent/change pairs and write one BENCH_<label>.json.

    python tools/bench_pairs.py PARENT CHANGE --workload W --seeds A-B --seconds S
    python tools/bench_pairs.py 2940b2a HEAD --workload mixed-precision \
        --seeds 1-10 --seconds 20 --workdir /tmp/pairs

PARENT and CHANGE are git revisions of this repository, each exported with
`git archive` into a directory of its own under --workdir (a temporary
directory by default, removed afterwards), or paths of source checkouts,
used as they are.  Pair i runs `perfbench/run.py --workload W --seed A+i
--seconds S --trace 0` once in each checkout, each in a fresh interpreter:
the parent first when i is even, the change first when i is odd, so that
the machine's state drifting between runs falls on both sides alike.  Then
one pair runs with --trace 1 at seed A, the parent first, for the per-layer
metrics (self times among them).  Nothing under perfbench/ is changed.

The JSON file, in --out (bench/ by default), holds each pair's end-to-end
metrics and per-solve counts; per metric the parent's and the change's
medians, the parent's quartiles (linear interpolation), the number of
pairs the change wins (a strictly better value, "better" as BENCHMARK.json
declares it) and loses, and a verdict; the traced pair's per-layer metrics;
and whether every run was correct with 0 failed operations and the same
counts as its partner.  Its label names the workload, the two sides (a
revision's short commit, a checkout's directory name) and the seeds.  A verdict is
"better" (or "worse") when the change wins (or loses) at least WIN_SHARE of
the pairs and its median is off the parent's by more than the parent's
interquartile range, "equal" when every pair ties, and "unresolved"
otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9
COUNTS = ("iterations", "matvecs", "reductions")


def parse_seeds(text):
    """'A-B' (inclusive) or 'A' as a list of ints."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def order(i):
    """The sides of pair i in the order they run: the parent first on even i."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def checkout(spec, workdir, name):
    """(directory, description) of a source checkout: spec itself when it is
    a directory holding perfbench/run.py, else the git revision spec exported
    into workdir/name."""
    path = Path(spec)
    if (path / "perfbench" / "run.py").is_file():
        return path.resolve(), {"path": str(path.resolve()), "name": path.resolve().name}
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{spec}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    dest = Path(workdir) / name
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest, {"rev": spec, "commit": commit, "name": commit[:7]}


def perfbench(directory, workload, seed, seconds, trace):
    """One perfbench run in a fresh interpreter: its JSON result, plus the
    per-solve counts it wrote, or {"error": ...} when it produced none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=directory, capture_output=True, text=True,
                          timeout=3 * seconds + 900)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    detail = Path(directory) / "perfbench" / "out" / f"{workload}-trace{trace}.json"
    if detail.is_file():
        result["solve_counts"] = json.loads(detail.read_text()).get("counts")
    return result


def metrics(run):
    return {k: m["value"] for k, m in run.get("metrics", {}).items()}


def run_pairs(run, seeds, log=None):
    """Alternating pairs over seeds, then one traced pair at the first seed;
    run(side, seed, trace) returns one run's result.  Returns (pairs,
    traced pair)."""
    def pair(i, seed, trace):
        out = {"seed": seed, "first": order(i)[0]}
        for side in order(i):
            out[side] = run(side, seed, trace)
            if log is not None:
                log(f"pair {i} seed {seed} trace {trace} {side}: "
                    f"{out[side].get('error') or metrics(out[side]).get('solve_s', 'traced')}")
        return out

    timed = [pair(i, seed, 0) for i, seed in enumerate(seeds)]
    return timed, pair(0, seeds[0], 1)


def problems(pairs):
    """(runs unfit to compare, pairs whose counts differ): a run that gave
    no result, was not correct or failed operations; a pair whose sides'
    total or per-solve counts differ."""
    unfit, differ = [], []
    for p in pairs:
        for side in ("parent", "change"):
            r = p[side]
            if "error" in r:
                unfit.append(f"seed {p['seed']} {side}: {r['error']}")
            elif not r.get("correct") or r.get("failed"):
                unfit.append(f"seed {p['seed']} {side}: correct {r.get('correct')}, "
                             f"failed {r.get('failed')}")
        a, b = (metrics(p[s]) for s in ("parent", "change"))
        if [a.get(k) for k in COUNTS] != [b.get(k) for k in COUNTS] \
                or p["parent"].get("solve_counts") != p["change"].get("solve_counts"):
            differ.append(f"seed {p['seed']}: counts differ between parent and change")
    return unfit, differ


def summarize(pairs, better):
    """Per metric, over the pairs whose two runs report it: medians, the
    parent's quartiles, wins, losses and the verdict (module docstring).
    better maps a metric to "lower" or "higher"; unnamed metrics are
    lower-is-better."""
    values = [(metrics(p["parent"]), metrics(p["change"])) for p in pairs]
    summary = {}
    for name in dict.fromkeys(k for a, _ in values for k in a):
        both = [(a[name], c[name]) for a, c in values if name in a and name in c]
        if not both:
            continue
        par, chg = zip(*both)
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        q1, _, q3 = statistics.quantiles(par, n=4, method="inclusive") \
            if len(par) > 1 else (par[0],) * 3
        wins = sum(sign * (c - a) < 0 for a, c in zip(par, chg))
        losses = sum(sign * (c - a) > 0 for a, c in zip(par, chg))
        gap = sign * (statistics.median(par) - statistics.median(chg))
        if wins == losses == 0:
            verdict = "equal"
        elif wins >= WIN_SHARE * len(par) and gap > q3 - q1:
            verdict = "better"
        elif losses >= WIN_SHARE * len(par) and -gap > q3 - q1:
            verdict = "worse"
        else:
            verdict = "unresolved"
        summary[name] = {"parent_median": statistics.median(par),
                         "change_median": statistics.median(chg),
                         "parent_quartiles": [q1, q3], "change_wins": wins,
                         "change_losses": losses, "pairs": len(par), "verdict": verdict}
    return summary


def report(pairs, traced, better, **about):
    unfit, differ = problems(pairs + [traced])
    return {**about, "pairs": pairs, "summary": summarize(pairs, better),
            "traced": {"seed": traced["seed"], "first": traced["first"],
                       **{s: metrics(traced[s]) for s in ("parent", "change")}},
            "all_correct": not unfit, "counts_equal": not differ, "problems": unfit + differ}


def declared_better():
    """metric -> "lower"/"higher" from BENCHMARK.json, if there is one."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m["better"] for m in spec.get("end_to_end", [])}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=parse_seeds, required=True, help="A-B, inclusive")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", type=Path, default=ROOT / "bench")
    p.add_argument("--workdir", help="where revisions are exported (default: a temporary "
                                     "directory, removed afterwards)")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        workdir = Path(args.workdir or tmp)
        sides = {"parent": checkout(args.parent, workdir, "parent"),
                 "change": checkout(args.change, workdir, "change")}

        def run(side, seed, trace):
            return perfbench(sides[side][0], args.workload, seed, args.seconds, trace)

        pairs, traced = run_pairs(run, args.seeds,
                                  log=lambda line: print(line, file=sys.stderr, flush=True))
    label = "-".join([args.workload, *(sides[s][1]["name"] for s in sides),
                      str(args.seeds[0]), str(args.seeds[-1])])
    out = report(pairs, traced, declared_better(), label=label, workload=args.workload,
                 parent=sides["parent"][1], change=sides["change"][1], seeds=args.seeds,
                 seconds=args.seconds, win_share=WIN_SHARE)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    for name, s in out["summary"].items():
        print(f"{name:12} {s['parent_median']:.6g} -> {s['change_median']:.6g}  "
              f"wins {s['change_wins']}/{s['pairs']}  {s['verdict']}")
    print(f"all correct: {out['all_correct']}; counts equal: {out['counts_equal']}; "
          f"wrote {path}")
    return 0 if not out["problems"] else 1


if __name__ == "__main__":
    sys.exit(main())
