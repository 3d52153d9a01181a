"""gmreskit benchmark: fixed-work GMRES workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload sparse-krylov --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; gmreskit is imported from its
``src`` directory, never from an installed copy.  One run does an untimed
warm-up pass, then (trace 0) timed passes for ``--seconds`` and one untimed
pass in a fresh interpreter for peak memory, or (trace 1) traced passes for
``--seconds``.  Every pass's outputs are checked against numpy reference
computations.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Details go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# one BLAS thread: on two cores a second one bought a tenth of the wall time
# for 70 % more CPU and tied the timings to the other core's load
BLAS_THREADS = "1"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PASSES = 3

END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("pass_s", "s"),
              ("iterations", "count"), ("matvecs", "count"),
              ("reductions", "count"), ("peak_mem_mb", "MB"))


def import_gmreskit():
    """Import gmreskit from this checkout's src/ directory, or exit non-zero.

    The BLAS thread count is pinned first, since numpy reads it on import.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "gmreskit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gmreskit sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import gmreskit
    if Path(gmreskit.__file__).resolve().parent != src / "gmreskit":
        sys.exit(f"perfbench: imported gmreskit from {gmreskit.__file__}, "
                 f"not from {src}")
    return gmreskit


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--memory-pass", action="store_true",
                   help="internal: run one pass and print its peak RSS growth")
    return p.parse_args(argv)


class Run:
    """Passes of one workload plus the bookkeeping of what was attempted."""

    def __init__(self, gk, workload, seed, seconds):
        self.gk, self.workload, self.seed, self.seconds = gk, workload, seed, seconds
        self.attempted = self.failed = 0
        self.problems = []
        self.counts = None

    def one_pass(self):
        from workloads import run_pass
        res = run_pass(self.gk, self.workload, self.seed)
        self.attempted += len(self.workload.ops)
        self.failed += len(res.errors)
        if res.ctx is not None:
            try:
                self.problems += self.workload.check(res)
            except Exception as exc:  # a malformed output is a failed check
                self.problems.append(f"check raised {type(exc).__name__}: {exc}")
        if self.counts is None:
            self.counts = res.solve_counts
        elif res.solve_counts != self.counts:
            self.problems.append("iteration/matvec/reduction counts changed "
                                 "between passes of one run")
        res.ctx = res.results = None    # checked; keep only times and counts
        return res

    def timed(self, seconds, before=None, after=None):
        """Passes until ``seconds`` have gone by (at least MIN_PASSES)."""
        passes, start = [], perf_counter()
        while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
            if before is not None:
                before()
            passes.append(self.one_pass())
            if after is not None:
                after(passes[-1])
        return passes


def peak_rss_bytes():
    """High-water resident set size of this process image (Linux VmHWM).

    getrusage's ru_maxrss would not do: it carries the parent's peak across
    fork and exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def memory_pass(gk, workload, seed):
    """Peak RSS growth over one pass, in a fresh interpreter.

    tracemalloc would attribute allocations exactly, but it slows the
    interpreter-bound bound reports about fourteenfold.
    """
    from workloads import run_pass
    base = peak_rss_bytes()
    run_pass(gk, workload, seed)
    return (peak_rss_bytes() - base) / 1e6


def peak_memory(workload, seed):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--memory-pass"]
    # a fixed mmap threshold hands every freed array of 128 KiB or more back
    # at once and no huge-page advice keeps RSS to the pages touched, so the
    # high-water mark follows live data instead of allocator history
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072", NUMPY_MADVISE_HUGEPAGE="0")
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                         check=True, env=env)
    return json.loads(out.stdout.strip().splitlines()[-1])["peak_mem_mb"]


def end_to_end(run):
    run.one_pass()                                     # warm-up
    passes = run.timed(run.seconds)
    totals = passes[-1].totals()
    metrics = {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "solve_s": statistics.median(p.solve_s for p in passes),
        "pass_s": statistics.median(p.pass_s for p in passes),
        "iterations": totals["iterations"],
        "matvecs": totals["matvecs"],
        "reductions": totals["reductions"],
        "peak_mem_mb": peak_memory(run.workload.name, run.seed),
    }
    detail = {"passes": [{"setup_s": p.setup_s, "solve_s": p.solve_s,
                          "pass_s": p.pass_s} for p in passes]}
    return {k: (metrics[k], unit) for k, unit in END_TO_END}, detail


def per_layer(run):
    from tracing import Tracer
    run.one_pass()                                     # warm-up, untraced
    tracer = Tracer()
    layers, accounts = [], []

    def account(res):
        # self times plus the time no span covers make up the traced pass
        layers.append(tracer.layer_metrics())
        accounts.append({"pass_s": res.pass_s,
                         "self_s_total": sum(tracer.self_s.values()),
                         "untraced_remainder_s": res.pass_s - tracer.covered()})

    with tracer:
        passes = run.timed(run.seconds, before=tracer.reset, after=account)
    metrics = {}
    for name, (_, unit) in layers[0].items():
        median = statistics.median_low if unit == "count" else statistics.median
        metrics[name] = (median(m[name][0] for m in layers), unit)
    detail = {
        "traced_pass_s": [p.pass_s for p in passes],
        "accounts": accounts,
        "last_pass_self_s": dict(sorted(tracer.self_s.items())),
        "last_pass_spans": len(tracer.spans),
    }
    write_spans(run.workload.name, tracer.spans)
    return metrics, detail


def write_spans(workload, spans):
    with open(OUT / f"{workload}-spans.jsonl", "w", encoding="utf-8") as fh:
        for name, start, end, parent in spans:
            fh.write(json.dumps([name, start, end, parent]) + "\n")


def main(argv=None):
    args = parse_args(argv)
    gk = import_gmreskit()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](str(OUT))
    if args.memory_pass:
        print(json.dumps({"peak_mem_mb": memory_pass(gk, workload, args.seed)}))
        return
    run = Run(gk, workload, args.seed, args.seconds)
    run.problems += workload.prepare(gk)
    if args.trace:
        metrics, detail = per_layer(run)
    else:
        metrics, detail = end_to_end(run)
    for p in run.problems:
        print(f"[{workload.name}] check failed: {p}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail.update(workload=workload.name, seed=args.seed, trace=args.trace,
                  blas_threads=BLAS_THREADS, problems=run.problems[:50],
                  counts=run.counts, result=result)
    with open(OUT / f"{workload.name}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
