"""Communication-avoiding machinery: polynomial Krylov bases, TSQR, block
Gram-Schmidt, and the s-step / pipelined / low-sync GMRES variants.

Everything runs in one process; communication shows up only in the modeled
global-reduction counters (one reduction = one batch of simultaneously
computable inner products, one TSQR tree = one reduction).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .deflation import _check_conjugate_pairs, leja_order
from .linalg import HessenbergLsState, as_matvec, dense_eig_general
from .ortho import OrthogonalizationBreakdown, OrthoScheme, ReductionCounter, arnoldi, basis
from .solvers import _arnoldi_cycles, _check_count, _givens_cycle, _options, _restart_driver

__all__ = [
    "MonomialBasis",
    "NewtonBasis",
    "ChebyshevBasis",
    "BasisCollapseError",
    "SstepBlockError",
    "TsqrTree",
    "build_basis",
    "tsqr",
    "bgs_project",
    "warmup_ritz_values",
    "newton_basis_from_warmup",
    "chebyshev_basis_from_warmup",
    "sstep_gmres",
    "pipelined_gmres",
    "lowsync_gmres",
]


class BasisCollapseError(RuntimeError):
    """A polynomial basis column under/overflowed; use a smaller s or a
    better-conditioned basis."""


class SstepBlockError(RuntimeError):
    """The block triangular factor became singular away from convergence;
    use a smaller s or a better basis."""


_TSQR_BLOCKS = 4  # row partition of the s-step TSQR trees


@dataclass(frozen=True)
class MonomialBasis:
    """phi_j(z) = z^j."""

    def conversion(self, s):
        """The (s+1) x s conversion matrix Bbar, A W_s = W_{s+1} Bbar."""
        return np.eye(s + 1, s, -1)


@dataclass(frozen=True)
class NewtonBasis:
    """phi_j(z) = (z - theta_j) phi_{j-1}(z) with conjugate-closed shifts.

    Complex shifts must come in adjacent conjugate pairs (modified Leja order
    does this); each pair is realized in real arithmetic through its
    quadratic factor.
    """

    shifts: tuple

    def __post_init__(self):
        shifts = tuple(complex(s) for s in self.shifts)
        object.__setattr__(self, "shifts", shifts)
        _check_conjugate_pairs(shifts, "shifts")

    def conversion(self, s):
        """Bbar of the first s shifts; a pair cut by the end keeps its real part."""
        if len(self.shifts) < s:
            raise ValueError(f"need at least {s} shifts, got {len(self.shifts)}")
        B = np.eye(s + 1, s, -1)
        k = 0
        while k < s:
            a, bb = self.shifts[k].real, self.shifts[k].imag
            B[k, k] = a
            pair = bb != 0.0 and k < s - 1  # realized by its real quadratic factor
            if pair:
                B[k:k + 2, k + 1] = -bb * bb, a
            k += 1 + pair
        return B


@dataclass(frozen=True)
class ChebyshevBasis:
    """Three-term Chebyshev basis for a spectrum inside the rectangle
    |Re z - center| <= xi1, |Im z| <= xi2."""

    center: float
    xi1: float
    xi2: float

    def __post_init__(self):
        if max(self.xi1, self.xi2) <= 0:
            raise ValueError("rectangle half-widths must give gamma > 0")

    @property
    def gamma(self):
        return max(self.xi1, self.xi2)

    @property
    def tau_sq(self):
        return self.xi1 ** 2 - self.xi2 ** 2

    def conversion(self, s):
        """Bbar of the scaled three-term recurrence."""
        B = np.zeros((s + 1, s))
        np.fill_diagonal(B, self.center)
        np.fill_diagonal(B[1:], self.gamma)
        np.fill_diagonal(B[:, 1:], self.tau_sq / (4.0 * self.gamma))
        B[1, 0] = 2.0 * self.gamma
        return B


def _check_column(w, prev_mag, scale):
    # max-magnitude detector: squared 2-norms underflow long before entries do
    mag = float(np.max(np.abs(w))) if len(w) else 0.0
    if not np.isfinite(mag):
        raise BasisCollapseError(
            "basis column overflowed; use a smaller s or a scaled basis")
    # an exactly annihilated column out of a healthy one is a grade signal
    # handled downstream; a zero out of an already-denormal column is a
    # genuine underflow of the recurrence
    if mag == 0.0 and 0.0 < prev_mag < 1e-200 * max(scale, 1.0):
        raise BasisCollapseError(
            "basis column norm underflowed; use a smaller s or a scaled basis")
    return mag


def build_basis(A, start, s, spec=None):
    """Generate s+1 polynomial-basis vectors and the conversion matrix.

    The pair (W, Bbar = spec.conversion(s)) satisfies A W[:, :s] = W Bbar, by
    w_{k+1} = (A w_k - Bbar[k, k] w_k - Bbar[k-1, k] w_{k-1}) / Bbar[k+1, k].
    A term whose coefficient is exactly 0, and a division by exactly 1, is
    skipped, so each basis performs the numpy operations of its own recurrence
    and keeps its bytes: x - 0 w and x / 1 are x for finite w and a product x
    that is not -0.0 (CSR sums from +0.0).
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    spec = spec if spec is not None else MonomialBasis()
    matvec, N = as_matvec(A, n=len(start))
    W = basis(N, s + 1)
    W[:, 0] = np.asarray(start, dtype=np.float64)
    if not isinstance(spec, (MonomialBasis, NewtonBasis, ChebyshevBasis)):
        raise TypeError(f"unknown basis spec {type(spec).__name__}")
    B = spec.conversion(s)
    scale = prev = float(np.linalg.norm(W[:, 0]))
    for k in range(s):
        w = matvec(W[:, k])
        if B[k, k]:
            w = w - B[k, k] * W[:, k]
        if k and B[k - 1, k]:
            w = w - B[k - 1, k] * W[:, k - 1]
        W[:, k + 1] = w if B[k + 1, k] == 1.0 else w / B[k + 1, k]
        prev = _check_column(W[:, k + 1], prev, scale)
    return W, B


# ---------------------------------------------------------------------------
# TSQR


def _assemble(node, C):
    # node is (Q, children): a leaf's Q, or a pair's Q over its two children
    Q, children = node
    M = Q @ C
    if not children:
        return M
    s = C.shape[0]
    left, right = children
    return np.vstack([_assemble(left, M[:s]), _assemble(right, M[s:])])


@dataclass
class TsqrTree:
    """Tree-structured QR of a tall-skinny matrix.

    The final R carries a nonnegative diagonal (sign-fixed); the implicit Q
    is reconstructed on demand by walking the level factors.
    """

    root: tuple
    R: np.ndarray
    signs: np.ndarray

    def q_explicit(self):
        return _assemble(self.root, np.diag(self.signs))


def tsqr(W, nblocks):
    """TSQR with pairwise reduction of stacked triangular factors.

    Rows are split into nblocks contiguous blocks (each at least ncols rows);
    odd block counts pass the trailing factor through unchanged.  One call
    counts as a single global reduction regardless of the partition.
    """
    W = np.asarray(W, dtype=np.float64)
    mrows, ncols = W.shape
    if nblocks < 1:
        raise ValueError("need at least one block")
    base, rem = divmod(mrows, nblocks)
    sizes = [base + 1] * rem + [base] * (nblocks - rem)
    if min(sizes) < ncols:
        raise ValueError(f"block too short: {min(sizes)} rows for {ncols} columns")
    nodes = []
    rs = []
    offset = 0
    for sz in sizes:
        Q, R = np.linalg.qr(W[offset:offset + sz])
        nodes.append((Q, ()))
        rs.append(R)
        offset += sz
    while len(nodes) > 1:
        next_nodes = []
        next_rs = []
        for i in range(0, len(nodes) - 1, 2):
            Q, R = np.linalg.qr(np.vstack([rs[i], rs[i + 1]]))
            next_nodes.append((Q, (nodes[i], nodes[i + 1])))
            next_rs.append(R)
        if len(nodes) % 2:
            next_nodes.append(nodes[-1])
            next_rs.append(rs[-1])
        nodes, rs = next_nodes, next_rs
    R = rs[0]
    signs = np.where(np.diag(R) < 0.0, -1.0, 1.0)
    R = signs[:, None] * R
    return TsqrTree(root=nodes[0], R=R, signs=signs)


def bgs_project(Vprev, W, counter=None):
    """Block Gram-Schmidt: project W against the orthonormal columns of Vprev.

    Returns (coefficient block, updated W); the batched product counts as one
    global reduction.
    """
    W = np.asarray(W, dtype=np.float64)
    if Vprev is None or Vprev.size == 0:
        return np.zeros((0, W.shape[1])), W.copy()
    R = (counter or ReductionCounter()).dots(Vprev, W)
    return R, W - Vprev @ R


# ---------------------------------------------------------------------------
# Warmup estimates for basis parameters


def warmup_ritz_values(A, b, steps):
    """Ritz values from a few Arnoldi steps, for shift/rectangle estimation;
    [0] when there are none (a zero b or no steps)."""
    b = np.asarray(b, dtype=np.float64)
    dec = arnoldi(A, b, steps, OrthoScheme.MGS) if np.any(b) else None
    if dec is None or dec.n == 0:
        return np.array([0.0 + 0.0j])
    return dense_eig_general(dec.Hbar[:dec.n, :dec.n])


def newton_basis_from_warmup(A, b, s):
    """Newton shifts = Leja-ordered Ritz values of s warmup Arnoldi steps."""
    vals = list(warmup_ritz_values(A, b, s))
    pads = s - len(vals)
    while len(vals) < s:
        vals.append(vals[-1].conjugate() if vals[-1].imag else vals[-1])
    if pads % 2 and vals[-1].imag:  # an unpaired last pad keeps its real part
        vals[-1] = complex(vals[-1].real)
    return NewtonBasis(shifts=tuple(leja_order(vals)))


def chebyshev_basis_from_warmup(A, b, s):
    """Chebyshev rectangle from the bounding box of warmup Ritz values."""
    ritz = warmup_ritz_values(A, b, max(s, 2))
    re, im = ritz.real, ritz.imag
    center = float((re.max() + re.min()) / 2.0)
    xi1 = max(float((re.max() - re.min()) / 2.0), 1e-8)
    xi2 = max(float(np.abs(im).max()), 0.0)
    return ChebyshevBasis(center=center, xi1=xi1, xi2=xi2)


# name -> builder(A, b, s); late-bound, so wrappers installed on the functions see calls
_BASIS_BUILDERS = {"monomial": lambda A, b, s: MonomialBasis(),
                   "newton": lambda A, b, s: newton_basis_from_warmup(A, b, s),
                   "chebyshev": lambda A, b, s: chebyshev_basis_from_warmup(A, b, s)}


# ---------------------------------------------------------------------------
# s-step GMRES


def sstep_gmres(A, b, x0=None, s=4, t=5, spec=None, opts=None):
    """s-step GMRES: s basis vectors per communication phase.

    Each outer block generates s new polynomial-basis vectors from the last
    orthonormal column, block-Gram-Schmidts them against the accumulated
    basis, factors the block with TSQR, and splices the triangular factors
    into the running Hessenberg matrix, so a whole block costs two modeled
    reductions (the batched projection - or the entry normalization for the
    first block - plus one TSQR tree).  Mathematically equivalent to plain
    GMRES with restart length s*t.

    Parameters
    ----------
    s, t : int
        Block size and blocks per restart cycle (restart length s*t;
        opts.restart is ignored).
    spec : MonomialBasis, NewtonBasis, ChebyshevBasis or str, optional
        Polynomial basis, or the name "monomial", "newton" or "chebyshev" of
        one whose parameters come from s warmup Arnoldi steps on (A, b):
        Leja-ordered Ritz-value shifts, or the Ritz values' bounding
        rectangle.  Defaults to "newton" ("monomial" when s == 1).

    Returns
    -------
    SolveReport
        As for gmres; a vanishing block factor away from convergence raises
        SstepBlockError suggesting a smaller s.
    """
    opts = _options("sstep-gmres", opts)
    _check_count("s", s, 1)
    _check_count("t", t, 1)
    if spec is None:
        spec = "newton" if s > 1 else "monomial"
    if isinstance(spec, str) and spec not in _BASIS_BUILDERS:
        raise ValueError(f"spec: unknown basis {spec!r}; "
                         f"use one of {', '.join(_BASIS_BUILDERS)} or a basis object")
    diagnostics = {"basis": None, "s": s, "t": t}

    def make_cycle(run):
        basis = _BASIS_BUILDERS[spec](A, b, s) if isinstance(spec, str) else spec
        diagnostics["basis"] = type(basis).__name__
        return lambda r, budget: _sstep_cycle(run, r, s, t, basis, budget)

    return _restart_driver(A, b, x0, replace(opts, restart=s * t), make_cycle,
                           diagnostics=diagnostics)


def _sstep_cycle(run, r, s, t, spec, budget):
    counter = run.counter
    N = len(r)
    with counter.step():  # block 0's bucket, which holds the entry normalization
        beta = counter.norm(r)
    blocks = min(t, max(1, -(-budget // s)))
    fV = basis(N, s * blocks + 1)  # orthonormal basis, fH.shape[0] columns in use
    ls = HessenbergLsState(budget, beta)

    def diag_cut(T):
        d = np.abs(np.diag(T))
        cut = np.flatnonzero(d <= 1e-14 * d.max())
        return int(cut[0]) if len(cut) else None

    def steps():
        fH = Racc = None           # running Hessenberg, (n+1) x n
        for j in range(blocks):
            with counter if j == 0 else counter.step():
                nv = fH.shape[0] if j else 0  # basis vectors before the block
                W, Bbar = build_basis(run.op, fV[:, nv - 1] if j else r / beta, s, spec)
                if j:  # the block start already sits in the basis
                    Racc, W = bgs_project(fV[:, :nv], W[:, 1:], counter)
                with counter.batch():       # one TSQR tree
                    tree = tsqr(W, min(_TSQR_BLOCKS, max(1, N // W.shape[1])))
                # a vanishing diagonal at c means column c of W is dependent:
                # the block keeps c + 1 new basis vectors, and the assembled
                # columns end with a ~0 subdiagonal (the grade)
                cut = diag_cut(tree.R)
                kept = W.shape[1] if cut is None else cut + 1
                p = kept if j else kept - 1  # new Hessenberg columns
                if p == 0:
                    raise OrthogonalizationBreakdown("s-step block starts singular")
                grade_hit = cut is not None and cut < s
                fV[:, nv: nv + kept] = tree.q_explicit()[:, :kept]
                fH = _assemble_sstep_hessenberg(fH, Racc, tree.R[:kept, :kept],
                                                Bbar[: p + 1, :p])
            run.diagnostics["arnoldi"] = fH
            yield fH, fH.shape[1], False
            if grade_hit:
                raise SstepBlockError(
                    "block triangular factor singular away from convergence; "
                    "use a smaller s or a better-conditioned basis")

    rhos, status = _givens_cycle(run.emit, ls, steps())
    n = ls.ncols
    update = fV[:, :n] @ ls.solve(n)
    return update, rhos, status


def _assemble_sstep_hessenberg(fH, Racc, Tfull, Bblock):
    """Splice one block's factors into the running Hessenberg matrix.

    First block: Hbar = T_{p+1} Bbar T_p^{-1}.  Later blocks build the
    bordered conversion and triangular matrices from the leading p columns
    of the projection coefficients Racc and form T_{n+p+1} Bfrak T_{n+p}^{-1};
    the previously assembled columns are unchanged by construction.
    """
    p = Bblock.shape[1]
    if fH is None:
        Bfrak, Tbig, n_prev = Bblock, Tfull, 0
    else:
        n_prev = fH.shape[1]
        Bfrak = np.zeros((n_prev + p + 1, n_prev + p))
        Bfrak[:n_prev, :n_prev] = fH[:n_prev, :n_prev]
        Bfrak[n_prev, n_prev - 1] = fH[-1, -1]
        Bfrak[n_prev:, n_prev:] = Bblock
        Tbig = np.eye(n_prev + p + 1)
        Tbig[: n_prev + 1, n_prev + 1:] = Racc[:, :p]
        Tbig[n_prev + 1:, n_prev + 1:] = Tfull
    Tsub = Tbig[: n_prev + p, : n_prev + p]
    M = Tbig @ Bfrak
    H = np.linalg.solve(Tsub.T, M.T).T
    return np.triu(H, -1)  # structural zeros below the first subdiagonal


# ---------------------------------------------------------------------------
# Pipelined GMRES


def pipelined_gmres(A, b, x0=None, opts=None, theta=None):
    """Communication-hiding GMRES: one merged reduction per iteration, with
    the matrix-vector product ordered so it can overlap the reduction.

    Maintains the shifted companion sequence w_j = (A - theta I) v_j, so a
    degree-one Newton basis is built implicitly; theta defaults to the mean
    of a few warmup Ritz values.  Each cycle is a CGS-P ArnoldiProcess over
    the companion basis, whose reorthogonalizations the diagnostics sum.
    Each step issues the next one's product, so a cycle's last step makes one
    that is never used: m + 1 products per m-step cycle (perfbench: 313
    matvecs against 307 on sparse-krylov, 97 against 94 on catalogue).
    """
    opts = _options("pipelined-gmres", opts)
    diagnostics = {"theta": theta, "reorthogonalizations": 0}

    def make_cycle(run):
        if diagnostics["theta"] is None:
            ritz = warmup_ritz_values(A, b, min(5, max(2, len(b) - 1)))
            diagnostics["theta"] = float(np.mean(ritz).real)
        return _arnoldi_cycles(run, shift=diagnostics["theta"])

    return _restart_driver(A, b, x0, replace(opts, scheme=OrthoScheme.CGSP), make_cycle,
                           diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Low-sync GMRES


def lowsync_gmres(A, b, x0=None, opts=None):
    """GMRES over the inverse-compact-WY projector with lagged normalization:
    the merged batch of every iteration carries the correction row, the
    projections, and the deferred norm, so one reduction per iteration
    suffices.  A vanishing deferred norm surfaces as a breakdown exit.
    """
    opts = _options("lowsync-gmres", opts)
    return _restart_driver(A, b, x0, replace(opts, scheme=OrthoScheme.ICWY),
                           _arnoldi_cycles)
