"""Per-layer spans around gmreskit's public functions and methods.

A span is recorded at each call into a layer: its name, start, end and the
span that caused it.  A layer's self time is its span's duration minus the
time its child spans cover.  Wrappers are installed into every gmreskit
module namespace that holds the wrapped object (and onto the classes for
methods), and removed again on exit; no program file changes.  Spans stay in
memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

MODULES = ("gmreskit", "gmreskit.linalg", "gmreskit.ortho", "gmreskit.solvers",
           "gmreskit.deflation", "gmreskit.commavoid", "gmreskit.mixedprec",
           "gmreskit.bounds", "gmreskit.harness", "gmreskit.cli")

# layer -> module-level functions whose calls it covers
FUNCTIONS = {
    "harness.gen": ("harness.gen_convdiff", "harness.gen_spectrum"),
    "linalg.mm_read": ("linalg.mm_read",),
    "linalg.dense_eig": ("linalg.dense_eig_symmetric", "linalg.dense_eig_general"),
    "solvers.restart_loop": (
        "solvers.gmres", "solvers.gmres_restarted", "solvers.hh_gmres",
        "solvers.simpler_gmres", "solvers.gcr", "solvers.orthodir",
        "solvers.fgmres", "solvers.lgmres", "solvers.weighted_gmres",
        "deflation.gmres_e", "commavoid.sstep_gmres", "commavoid.pipelined_gmres",
        "commavoid.lowsync_gmres", "mixedprec.gmres_two_precision",
        "mixedprec.gmres_ir"),
    "deflation.poly_build": ("deflation.build_poly_preconditioner",
                             "deflation.polynomial_preconditioner"),
    "deflation.ritz": ("deflation.harmonic_ritz", "deflation.leja_order"),
    "commavoid.basis": ("commavoid.build_basis",),
    "commavoid.tsqr": ("commavoid.tsqr",),
    "commavoid.bgs": ("commavoid.bgs_project",),
    "commavoid.warmup": ("commavoid.warmup_ritz_values",
                         "commavoid.newton_basis_from_warmup",
                         "commavoid.chebyshev_basis_from_warmup"),
    "mixedprec.lu": ("mixedprec.lu_low",),
    "bounds.fov": ("bounds.fov_distance", "bounds.fov_bound"),
    "bounds.report": ("bounds.bound_report",),
}

# layer -> methods (module.Class.method) whose calls it covers
METHODS = {
    "linalg.matvec": ("linalg.CsrMatrix.matvec",),
    "linalg.lsq": ("linalg.HessenbergLsState.push_column",
                   "linalg.HessenbergLsState.solve"),
    "ortho.arnoldi": ("ortho.ArnoldiProcess.__init__", "ortho.ArnoldiProcess.step",
                      "ortho.ArnoldiProcess.finish"),
    "ortho.householder": ("ortho.HouseholderArnoldi.__init__",
                          "ortho.HouseholderArnoldi.step",
                          "ortho.HouseholderArnoldi.eval_basis_combination",
                          "ortho.HouseholderArnoldi.decomposition"),
    "solvers.precond": ("solvers.DiagonalPreconditioner.apply",
                        "solvers.FunctionPreconditioner.apply"),
    "commavoid.tsqr": ("commavoid.TsqrTree.q_explicit",),
    "mixedprec.lu_solve": ("mixedprec.LowLU.solve",),
}

# Gram-Schmidt sweeps over the current basis per Arnoldi step (a dot and an
# update per vector); a CGS-P retry adds a CGS2 pass of four
SWEEPS = {"mgs": 2, "cgs": 2, "cgs2": 4, "cgsp": 2, "icwy": 3}
MB = 1e6

# (layer, key, unit) in the order the benchmark reports them
PER_LAYER = (
    ("linalg.matvec", "calls", "count"), ("linalg.matvec", "self_s", "s"),
    ("linalg.matvec", "bytes_mb", "MB"),
    ("ortho.arnoldi", "steps", "count"), ("ortho.arnoldi", "self_s", "s"),
    ("ortho.arnoldi", "bytes_mb", "MB"),
    ("ortho.arnoldi", "reorthogonalizations", "count"),
    ("ortho.householder", "self_s", "s"),
    ("linalg.lsq", "columns", "count"), ("linalg.lsq", "self_s", "s"),
    ("solvers.restart_loop", "self_s", "s"),
    ("solvers.precond", "calls", "count"), ("solvers.precond", "self_s", "s"),
    ("deflation.poly_build", "self_s", "s"),
    ("commavoid.basis", "self_s", "s"), ("commavoid.tsqr", "self_s", "s"),
    ("commavoid.bgs", "self_s", "s"), ("commavoid.warmup", "self_s", "s"),
    ("deflation.ritz", "self_s", "s"),
    ("mixedprec.low_operator", "self_s", "s"), ("mixedprec.lu", "self_s", "s"),
    ("mixedprec.lu_solve", "calls", "count"), ("mixedprec.lu_solve", "self_s", "s"),
    ("linalg.dense_eig", "calls", "count"), ("linalg.dense_eig", "self_s", "s"),
    ("bounds.fov", "self_s", "s"), ("bounds.report", "self_s", "s"),
    ("linalg.mm_read", "self_s", "s"), ("harness.gen", "self_s", "s"),
)


class Tracer:
    """Span recorder; ``install()`` wraps the program, ``remove()`` restores it."""

    def __init__(self):
        self.spans = []        # (name, start, end, parent index or -1)
        self._stack = []       # open spans: [name, start, child time, index]
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._restore = []

    # -- spans -----------------------------------------------------------------
    def reset(self):
        self.spans.clear()
        self.self_s.clear()
        self.counts.clear()

    def wrap(self, name, fn, after=None):
        """Callable that records a span named ``name`` around ``fn`` and counts
        its calls; ``after(args, result)`` runs inside the span and may add
        further counts."""
        stack, spans, self_s, counts = self._stack, self.spans, self.self_s, self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][3] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [name, perf_counter(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                self_s[name] += duration - frame[2]
                counts[calls] += 1
                if stack:
                    stack[-1][2] += duration
                spans[index] = (name, frame[1], end, parent)

        return traced

    def covered(self):
        """Total duration of top-level spans (those without a parent)."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent == -1)

    # -- counts ------------------------------------------------------------------
    def _after_matvec(self, args, result):
        A = args[0]
        nbytes = A.values.nbytes + A.col_idx.nbytes + 8 * (A.ncols + A.nrows)
        self.counts["linalg.matvec.bytes_mb"] += nbytes / MB

    def _after_push_column(self, args, result):
        self.counts["linalg.lsq.columns"] += 1

    def _arnoldi_step(self, fn):
        counts = self.counts

        def step(proc):
            j = proc.steps
            before = proc.reorthogonalizations
            try:
                return fn(proc)
            finally:
                retries = proc.reorthogonalizations - before
                sweeps = SWEEPS[proc.scheme.value] + 4 * retries
                counts["ortho.arnoldi.steps"] += 1
                counts["ortho.arnoldi.reorthogonalizations"] += retries
                counts["ortho.arnoldi.bytes_mb"] += (
                    sweeps * (j + 1) * proc.N * proc.dtype.itemsize / MB)

        return step

    # -- installation --------------------------------------------------------------
    def install(self):
        mods = {m.split(".")[-1]: importlib.import_module(m) for m in MODULES}
        wrappers = {}
        for layer, paths in FUNCTIONS.items():
            for path in paths:
                mod, attr = path.split(".")
                original = getattr(mods[mod], attr)
                wrappers[id(original)] = (original, self.wrap(layer, original))
        # the matvec closure that low_operator returns is traced as well
        low = mods["mixedprec"].low_operator

        def low_operator(A, dtype, n=None):
            return self.wrap("mixedprec.low_operator", low(A, dtype, n=n))

        wrappers[id(low)] = (low, self.wrap("mixedprec.low_operator", low_operator))
        # rebind every module-level name that refers to a wrapped function, so
        # calls through `from .x import f` bindings are traced too
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        hooks = {"linalg.CsrMatrix.matvec": self._after_matvec,
                 "linalg.HessenbergLsState.push_column": self._after_push_column}
        for layer, paths in METHODS.items():
            for path in paths:
                mod, cls_name, attr = path.split(".")
                cls = getattr(mods[mod], cls_name)
                original = cls.__dict__[attr]
                inner = self._arnoldi_step(original) \
                    if path == "ortho.ArnoldiProcess.step" else original
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self.wrap(layer, inner, after=hooks.get(path)))
        return self

    def remove(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- results --------------------------------------------------------------------
    def layer_metrics(self):
        """Per-layer metrics of everything recorded since the last reset."""
        out = {}
        for layer, key, unit in PER_LAYER:
            name = f"{layer}.{key}"
            value = self.self_s.get(layer, 0.0) if key == "self_s" \
                else self.counts.get(name, 0)
            out[name] = (int(value) if unit == "count" else value, unit)
        return out
