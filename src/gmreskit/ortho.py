"""Arnoldi process variants over one stepping engine.

Every Krylov basis in the package comes from ``basis`` (column-major, so each
V[:, i] is contiguous), and every caller projects against one through the
same two Gram-Schmidt kernels: ``mgs_pass`` (modified, a column at a time)
and ``cgs2_pass`` (classical, twice, in batched products).

Every scheme builds the relation A V_n = V_{n+1} Hbar_n and is instrumented
with a counter of modeled global reductions: one reduction = one batch of
inner products / norms whose operands are all available at the same time.
Per-step costs are structural properties of each scheme:

    MGS        j+1   (j sequential projections plus the norm)
    CGS          2   (one batched projection, one norm)
    CGS2         3   (two batched projections, one norm)
    CGSP         1   (projections and the squared norm share one batch)
    ICWY         1   (lagged normalization merges everything into one batch)
    pipelined    1   (CGSP's batch over the shifted companion basis; a CGSP
                      or pipelined step that retries with CGS2 counts 3 more)
    Householder 2j+2 (j reflector applications rebuild v_j and j reflect
                      A v_j, then the tail norm and the new reflector)

The initial normalization of r0 is counted toward the total but belongs to
no step (Householder adds its first reflector).  A direct step may project
op(z) for a direction z of its caller's instead of op(v_j): flexible GMRES's
relation A Z_n = V_{n+1} Hbar_n.  HouseholderArnoldi runs the Householder
scheme, ArnoldiProcess every other; both give V_n y (eval_basis_combination).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .linalg import as_matvec, forward_substitute_unit

__all__ = [
    "OrthoScheme",
    "ReductionCounter",
    "ArnoldiDecomposition",
    "ArnoldiProcess",
    "OrthogonalizationBreakdown",
    "arnoldi",
    "basis",
    "householder_arnoldi",
    "mgs_pass",
]

BREAKDOWN_REL = 1e-14


class OrthoScheme(str, Enum):
    MGS = "mgs"
    CGS = "cgs"
    CGS2 = "cgs2"
    CGSP = "cgsp"
    ICWY = "icwy"
    HOUSEHOLDER = "householder"


class OrthogonalizationBreakdown(RuntimeError):
    """Instability breakdown (e.g. a negative CGS-P radicand), distinct from
    the happy breakdown that signals an invariant Krylov subspace."""


class ReductionCounter:
    """Counts modeled global reductions, optionally bucketed per Arnoldi step,
    and the operator products made through counted(matvec).

    marks snapshots the running total once per delivered solver iteration so
    reports can expose exact cumulative counts.
    """

    def __init__(self):
        self.total = 0
        self.matvecs = 0
        self.per_step = []
        self.marks = []
        self._in_step = False

    def count(self, n=1):
        self.total += n
        if self._in_step:
            self.per_step[-1] += n

    def begin_step(self):
        self.per_step.append(0)
        self._in_step = True

    def end_step(self):
        self._in_step = False

    def mark(self):
        self.marks.append(self.total)

    def counted(self, matvec):
        """matvec, adding each of its calls to matvecs."""
        def product(v):
            self.matvecs += 1
            return matvec(v)

        return product


@dataclass
class ArnoldiDecomposition:
    """Orthonormal basis V, Hessenberg factor Hbar, and the reduction tally.

    After n completed steps V is N x (n+1) and Hbar is (n+1) x n.  On happy
    breakdown at the grade d, V is N x d and Hbar is (d+1) x d with an exactly
    zero last row (there is no v_{d+1}).
    """

    V: np.ndarray
    Hbar: np.ndarray
    n: int
    reductions: int
    reduction_log: list = field(default_factory=list)
    breakdown_at: int | None = None

    def relation_residual(self, matvec):
        """Frobenius norm of A V_n - V_{n+1} Hbar_n."""
        n = self.n
        AV = np.column_stack([matvec(self.V[:, j]) for j in range(n)])
        return float(np.linalg.norm(AV - self.V @ self.Hbar[: self.V.shape[1], :n]))

    def gram_residual(self):
        """2-norm of V^T V - I (loss of orthogonality)."""
        G = self.V.T @ self.V
        return float(np.linalg.norm(G - np.eye(G.shape[0]), 2))


def _ip_block(B, w, weight=None):
    return B.T @ w if weight is None else B.T @ (weight * w)


def weighted_norm(w, weight=None):
    if weight is None:
        return float(np.linalg.norm(w))
    return float(math.sqrt(abs(np.dot(w, weight * w))))


def basis(N, k, dtype=np.float64):
    """Zeroed column-major storage for k basis vectors of length N."""
    return np.zeros((N, k), dtype=dtype, order="F")


def mgs_pass(V, k, w, counter, weight=None):
    """Project w against the first k orthonormal columns of V one at a time
    (modified Gram-Schmidt), in the D-inner product when weight is given.
    Returns (coefficients, projected w, its norm) in w's dtype; k + 1 reductions."""
    h = np.zeros(k, dtype=w.dtype)
    if k:
        # w - h[i] * v in place, on a private copy of w (an operator may
        # return its input, a column of V): the same type and two roundings
        w = w.astype(np.result_type(w, V))
        tmp = np.empty_like(w)
    for i in range(k):
        v = V[:, i]
        h[i] = _ip_block(v, w, weight)
        counter.count()
        np.multiply(v, h[i], out=tmp)
        w -= tmp
    h_sub = weighted_norm(w, weight)
    counter.count()
    return h, w, h_sub


def cgs2_pass(V, w, counter, weight=None):
    """Project w against the orthonormal columns of V twice (classical
    Gram-Schmidt with one reorthogonalization), in the D-inner product when
    weight is given.  Returns (coefficients, projected w, its norm); the two
    projections and the norm count as three reductions.
    """
    h1 = _ip_block(V, w, weight)
    counter.count()
    w = w - V @ h1
    h2 = _ip_block(V, w, weight)
    counter.count()
    w = w - V @ h2
    h_sub = weighted_norm(w, weight)
    counter.count()
    return h1 + h2, w, h_sub


class ArnoldiProcess:
    """Stepwise Arnoldi driver for the Gram-Schmidt family of schemes.

    ``step()`` advances one column and returns the number of Hessenberg
    columns whose entries (including the subdiagonal) are now final; ICWY
    completes column j one step late because its normalization is deferred
    into the next merged reduction.  ``finish()`` flushes any deferred work.

    ``step_along(z)`` (direct schemes only) is a step that projects op(z)
    instead of op(v_j), so column j of H holds the coefficients of A z_j and
    the caller keeps the directions.  With droppable=True a step whose new
    column is rank-deficient (the breakdown test) is discarded instead of
    ending the process: H and V stay as they were, ``steps`` does not
    advance and step_along returns False, while the counter keeps the step's
    reductions and its per_step entry.

    weight, when given, replaces the Euclidean inner product with the
    D-inner product (u, v)_D = v^T D u throughout.

    A CGSP process given the private ``_shift`` theta runs pipelined GMRES
    (Ghysels, Ashby, Meerbergen & Vanroose): it keeps the companion basis
    W = (A - theta I) V, takes the merged batch over w_j, and issues the next
    product op(w_j) before the norm is resolved.
    """

    def __init__(self, A, r0, max_steps, scheme=OrthoScheme.MGS, *, weight=None,
                 counter=None, dtype=None, _shift=None):
        self.matvec, self.N = as_matvec(A, n=len(r0))
        self.scheme = OrthoScheme(scheme)
        if self.scheme is OrthoScheme.HOUSEHOLDER:
            raise ValueError("the householder scheme runs on HouseholderArnoldi")
        self.counter = counter if counter is not None else ReductionCounter()
        dtype = np.dtype(dtype) if dtype is not None else np.asarray(r0).dtype
        if dtype.kind != "f":
            dtype = np.dtype(np.float64)
        self.dtype = dtype
        # a pipelined cycle keeps its whole budget: its basis can lose enough
        # orthogonality that step N shows no breakdown
        if max_steps >= self.N + 1 and _shift is None:
            max_steps = self.N
        self.max_steps = max_steps
        self.weight = None if weight is None else np.asarray(weight, dtype=dtype)
        if self.weight is not None and np.any(self.weight <= 0):
            raise ValueError("weights must be positive")

        r0 = np.asarray(r0, dtype=dtype)
        self.beta = weighted_norm(r0, self.weight)
        self.counter.count()  # initial normalization
        if self.beta == 0.0:
            raise ValueError("starting vector must be nonzero")
        self.V = basis(self.N, max_steps + 1, dtype)
        self.H = np.zeros((max_steps + 1, max_steps), dtype=dtype)
        self.V[:, 0] = r0 / self.beta
        self.steps = 0          # steps started
        self.completed = 0      # final Hessenberg columns
        self.breakdown_at = None
        self.reorthogonalizations = 0
        # ICWY deferred state
        self.L = np.zeros((max_steps + 1, max_steps + 1), dtype=dtype) \
            if self.scheme is OrthoScheme.ICWY else None
        self._w_pending = None
        self._direction = None  # (z, droppable) of a step_along
        # pipelined state: the shift and the companion basis W = (A - shift I) V
        self.shift, self.W = _shift, None
        if _shift is not None:
            self.W = basis(self.N, max_steps + 1, dtype)
            self.W[:, 0] = self.matvec(self.V[:, 0]) - _shift * self.V[:, 0]

    # -- stepping ---------------------------------------------------------------
    def step(self):
        if self.breakdown_at is not None:
            raise RuntimeError("process already broke down")
        if self.steps >= self.max_steps:
            raise RuntimeError("max_steps exhausted")
        self.counter.begin_step()
        try:
            if self.scheme is OrthoScheme.ICWY:
                self._step_icwy()
            elif self.W is not None:
                self._step_pipelined()
            elif not self._step_direct():
                return self.completed
        finally:
            self.counter.end_step()
        self.steps += 1
        return self.completed

    def step_along(self, z, droppable=False):
        """step() expanding the basis with op(z); False when a droppable
        step was discarded (class docstring)."""
        if self.scheme is OrthoScheme.ICWY or self.W is not None:
            raise ValueError("only a direct Gram-Schmidt step takes a direction")
        # carried on the process: step() keeps the no-argument form wrappers call
        steps, self._direction = self.steps, (z, droppable)
        try:
            self.step()
        finally:
            self._direction = None
        return self.steps > steps

    def _column_scale(self, j, h_sub):
        col = self.H[: j + 1, j]
        return math.sqrt(float(col @ col) + h_sub * h_sub)

    def _cgsp_norm(self, j, V, w, h, sigma_sq):
        """(h, None, sqrt(sigma_sq - ||h||^2)) from the merged batch of w's
        projections h and squared norm, or a CGS2 retry's (h, w, h_sub)."""
        radicand = sigma_sq - float(h @ h)
        # the subtraction cannot resolve radicands near its rounding floor, and
        # the basis's orthogonality defect enters it squared: retry once
        eps = float(np.finfo(self.dtype).eps)
        if radicand < sigma_sq * max(64.0 * (j + 2) * eps, 1e-8):
            h, w, h_sub = cgs2_pass(V, w, self.counter, self.weight)
            self.reorthogonalizations += 1
            if not math.isfinite(h_sub):
                raise OrthogonalizationBreakdown(
                    f"CGS-P breakdown not recoverable at step {j + 1}")
            return h, w, h_sub
        return h, None, math.sqrt(radicand)

    def _commit(self, j, h, w, h_sub, droppable=False):
        """Store column j and, unless it breaks down, v_{j+1} = w / h_sub;
        False when a droppable column is discarded."""
        self.H[: j + 1, j] = h
        if h_sub <= BREAKDOWN_REL * self._column_scale(j, h_sub):
            if droppable:
                self.H[: j + 1, j] = 0.0
                return False
            self.H[j + 1, j] = 0.0
            self.breakdown_at = j + 1
        else:
            self.H[j + 1, j] = h_sub
            np.divide(w, h_sub, out=self.V[:, j + 1])
        self.completed = j + 1
        return True

    def _step_direct(self):
        j = self.steps
        V = self.V[:, : j + 1]
        z, droppable = self._direction or (self.V[:, j], False)
        w = np.asarray(self.matvec(z), dtype=self.dtype)
        if self.scheme is OrthoScheme.MGS:
            h, w, h_sub = mgs_pass(self.V, j + 1, w, self.counter, self.weight)
        elif self.scheme is OrthoScheme.CGS:
            h = _ip_block(V, w, self.weight)
            self.counter.count()
            w = w - V @ h
            h_sub = weighted_norm(w, self.weight)
            self.counter.count()
        elif self.scheme is OrthoScheme.CGS2:
            h, w, h_sub = cgs2_pass(V, w, self.counter, self.weight)
        elif self.scheme is OrthoScheme.CGSP:
            h = _ip_block(V, w, self.weight)
            sigma = weighted_norm(w, self.weight)  # shares the batch with the projections
            self.counter.count()
            h, w_retry, h_sub = self._cgsp_norm(j, V, w, h, sigma * sigma)
            w = w - V @ h if w_retry is None else w_retry
        else:  # pragma: no cover
            raise ValueError(f"unhandled scheme {self.scheme}")
        return self._commit(j, h, w, h_sub, droppable)

    def _step_pipelined(self):
        j = self.steps
        V = self.V[:, : j + 1]
        wj = self.W[:, j]
        c = _ip_block(V, wj, self.weight)
        sigma_sq = float(_ip_block(wj, wj, self.weight))
        self.counter.count()                # merged projections + squared norm
        u = np.asarray(self.matvec(wj), dtype=self.dtype)  # next product, overlappable
        # v_{j+1} comes from w_j and the combined coefficients, also after a retry
        c, _, h_sub = self._cgsp_norm(j, V, wj, c, sigma_sq)
        h = c.copy()
        h[j] += self.shift                  # undo the shift on the diagonal entry
        self._commit(j, h, wj - V @ c, h_sub)
        if self.breakdown_at is None:
            w_next = self.W[:, j + 1]
            np.subtract(u, self.W[:, : j + 1] @ self.H[: j + 1, j], out=w_next)
            w_next /= h_sub

    def _step_icwy(self):
        k = self.steps
        if k == 0:
            # inferred first step: w1 = A v1, projected against v1 only
            w = np.asarray(self.matvec(self.V[:, 0]), dtype=self.dtype)
            h00 = _ip_block(self.V[:, 0], w, self.weight)
            self.counter.count()
            self.H[0, 0] = h00
            self._w_pending = w - h00 * self.V[:, 0]
            self.completed = 0
            return
        wp = self._w_pending
        w_new = np.asarray(self.matvec(wp), dtype=self.dtype)
        # one merged reduction: the L-row for the incoming basis vector, the
        # projections of A w_pending, and the deferred normalization
        Vk = self.V[:, :k]
        l_row = _ip_block(Vk, wp, self.weight)
        u = np.empty(k + 1, dtype=self.dtype)
        u[:k] = _ip_block(Vk, w_new, self.weight)
        u[k] = _ip_block(wp, w_new, self.weight)
        h_sub = weighted_norm(wp, self.weight)
        self.counter.count()
        self._commit(k - 1, self.H[:k, k - 1], wp, h_sub)
        if self.breakdown_at is not None:
            return
        self.L[k, :k] = l_row / h_sub
        u = u / h_sub
        u[k] = u[k] / h_sub
        w_new = w_new / h_sub
        h_col = forward_substitute_unit(self.L[: k + 1, : k + 1], u)
        self.H[: k + 1, k] = h_col
        self._w_pending = w_new - self.V[:, : k + 1] @ h_col

    def finish(self):
        """Flush ICWY's deferred normalization of the last column."""
        if (self.scheme is OrthoScheme.ICWY and self.breakdown_at is None
                and self.steps > 0 and self.completed < self.steps):
            k = self.steps
            wp = self._w_pending
            h_sub = weighted_norm(wp, self.weight)
            self.counter.count()  # trailing batch of the deferred normalization
            self._commit(k - 1, self.H[:k, k - 1], wp, h_sub)

    def eval_basis_combination(self, y):
        """V_n y for the n = len(y) leading basis vectors."""
        return self.V[:, : len(y)] @ y

    def decomposition(self):
        cols = self.completed + 1 if self.breakdown_at is None else self.completed
        return _decomposition(self, self.V[:, :cols].copy(), self.counter.total)


def _decomposition(proc, V, reductions):
    """The ArnoldiDecomposition of proc's completed steps with the basis V."""
    n = proc.completed
    return ArnoldiDecomposition(V=V, Hbar=proc.H[: n + 1, :n].copy(), n=n,
                                reductions=reductions,
                                reduction_log=list(proc.counter.per_step),
                                breakdown_at=proc.breakdown_at)


def arnoldi(A, r0, n, scheme=OrthoScheme.MGS, *, weight=None, counter=None):
    """Run n Arnoldi steps of the requested scheme starting from r0.

    Parameters
    ----------
    A : CsrMatrix, ndarray or callable
        Square operator defining the Krylov space.
    r0 : ndarray
        Nonzero starting vector; v_1 = r0 / ||r0||.
    n : int
        Number of steps (capped at the space dimension).
    scheme : OrthoScheme or str
        mgs, cgs, cgs2, cgsp or icwy.
    weight : ndarray, optional
        Positive diagonal replacing the Euclidean inner product.
    counter : ReductionCounter, optional
        Receives the modeled global-reduction events.

    Returns
    -------
    ArnoldiDecomposition
        Basis V, Hessenberg factor Hbar, per-step reduction log, and
        breakdown_at set to the grade on early termination (a subdiagonal
        entry at most BREAKDOWN_REL times its column's norm).
    """
    proc = ArnoldiProcess(A, r0, n, scheme, weight=weight, counter=counter)
    while proc.steps < proc.max_steps and proc.breakdown_at is None:
        proc.step()
    proc.finish()
    return proc.decomposition()


def _sign(x):
    # sign(0) taken as +1 so the reflector convention is total
    return 1.0 if x >= 0.0 else -1.0


class HouseholderArnoldi:
    """Arnoldi factorization through Householder reflectors (stepwise).

    Reflector vectors w_1..w_{n+1} are stored instead of the v's; basis
    columns are recovered on demand from the recursive product of reflectors.
    Logical signs are normalized so the subdiagonal of Hbar is nonnegative and
    v_1 = r0 / ||r0||, matching the Gram-Schmidt schemes in exact arithmetic.
    """

    def __init__(self, A, r0, max_steps, *, counter=None):
        self.matvec, self.N = as_matvec(A, n=len(r0))
        self.counter = counter if counter is not None else ReductionCounter()
        self.max_steps = min(max_steps, self.N)
        r0 = np.asarray(r0, dtype=np.float64)
        self.beta = np.linalg.norm(r0)
        self.counter.count()
        if self.beta == 0.0:
            raise ValueError("starting vector must be nonzero")
        w1 = r0.copy()
        s = _sign(r0[0])
        w1[0] += s * self.beta
        self.reflectors = [self._reflector(w1)]  # P1 r0 = -s ||r0|| e1
        self.sign = [-s]                       # logical sign of v_1 -> beta = ||r0||
        self.H = np.zeros((self.max_steps + 1, self.max_steps))
        self.steps = 0
        self.completed = 0
        self.breakdown_at = None

    def _reflector(self, w):
        nrm2 = float(w @ w)
        self.counter.count()
        if nrm2 == 0.0:
            return None
        return (w, 2.0 / nrm2)

    def _apply(self, idx, x):
        item = self.reflectors[idx]
        if item is None:
            return x
        w, tau = item
        self.counter.count()
        return x - (tau * float(w @ x)) * w

    def basis_vector(self, j):
        """v_{j+1} = P_1 ... P_{j+1} e_{j+1} with the logical sign applied."""
        x = np.zeros(self.N)
        x[j] = 1.0
        for idx in range(j, -1, -1):
            x = self._apply(idx, x)
        return self.sign[j] * x

    def step(self):
        j = self.steps
        if self.breakdown_at is not None or j >= self.max_steps:
            raise RuntimeError("cannot step further")
        self.counter.begin_step()
        u = self.matvec(self.basis_vector(j))
        for idx in range(j + 1):
            u = self._apply(idx, u)
        tail = u[j + 1:]
        tail_norm = float(np.linalg.norm(tail))
        self.counter.count()
        col_scale = float(np.linalg.norm(u[: j + 2]))
        if tail_norm <= BREAKDOWN_REL * max(col_scale, tail_norm):
            # happy breakdown: the column's upper entries are still valid
            reflector, h_sub, sub_sign = None, 0.0, 1.0
            self.breakdown_at = j + 1
        else:
            w = np.zeros(self.N)
            s = _sign(u[j + 1])
            w[j + 1:] = tail
            w[j + 1] += s * tail_norm
            reflector = self._reflector(w)
            h_sub = -s * tail_norm
            sub_sign = _sign(h_sub)
        self.reflectors.append(reflector)
        self.sign.append(sub_sign)
        # u was formed from the sign-normalized basis vector, so the raw
        # Hessenberg column is sign[j] * u and the logical entries need only
        # the per-row signs.
        self.H[: j + 1, j] = np.array(self.sign[: j + 1]) * u[: j + 1]
        self.H[j + 1, j] = sub_sign * h_sub
        self.counter.end_step()
        self.steps += 1
        self.completed = j + 1
        return self.completed

    def eval_basis_combination(self, y):
        """V_n y by the recursive (Horner-style) product of reflectors."""
        y = np.asarray(y, dtype=np.float64)
        n = len(y)
        z = np.zeros(self.N)
        for j in range(n - 1, -1, -1):
            z[j] += self.sign[j] * y[j]
            z = self._apply(j, z)
        return z

    def decomposition(self):
        """The factorization so far; its reductions are the steps', not those
        of the reflector applications that rebuild V here."""
        reductions = self.counter.total
        cols = self.completed + 1 if self.breakdown_at is None else self.completed
        V = np.column_stack([self.basis_vector(j) for j in range(cols)]) \
            if cols else basis(self.N, 0)
        return _decomposition(self, V, reductions)


def householder_arnoldi(A, r0, n, *, counter=None):
    """Householder-reflector Arnoldi; returns the decomposition plus the reflector store."""
    proc = HouseholderArnoldi(A, r0, n, counter=counter)
    while proc.steps < proc.max_steps and proc.breakdown_at is None:
        proc.step()
    return proc.decomposition(), proc
