import importlib.util
import itertools
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmreskit.harness import gen_convdiff
from gmreskit.linalg import CsrMatrix, HessenbergLsState, SingularMatrixError
from gmreskit.mixedprec import (
    _BLOCK,
    DESK_SCALE_LIMIT,
    _low_gmres,
    gmres_ir,
    gmres_two_precision,
    low_operator,
    lu_low,
)
from gmreskit.ortho import ReductionCounter, basis, mgs_pass
from gmreskit.solvers import DiagonalPreconditioner, GmresOptions, _givens_cycle, gmres_restarted


def _load_report_identity():
    path = Path(__file__).resolve().parents[1] / "tools" / "report_identity.py"
    spec = importlib.util.spec_from_file_location("report_identity", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


report_identity = _load_report_identity()


def conditioned_matrix(n, kappa, seed):
    rng = np.random.default_rng(seed)
    Q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sv = np.logspace(0, np.log10(kappa), n)
    return Q1 @ np.diag(sv) @ Q2.T


def reference_low_gmres(matvec, b, dtype, rtol, restart, max_iter):
    """The hand-written binary32 MGS-GMRES that _low_gmres replaced, kept as
    the oracle its results must match bit for bit."""
    dtype = np.dtype(dtype)
    b = np.asarray(b, dtype=dtype)
    N = len(b)
    x = np.zeros(N, dtype=dtype)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, 0, 0
    tol = rtol * bnorm
    total = 0
    matvecs = 0
    counter = ReductionCounter()

    def steps(V, m):
        nonlocal matvecs
        H = np.zeros((m + 1, m), dtype=dtype)
        for j in range(m):
            w = np.asarray(matvec(V[:, j]), dtype=dtype)
            matvecs += 1
            H[: j + 1, j], w, h_sub = mgs_pass(V, j + 1, w, counter)
            H[j + 1, j] = h_sub
            yield H, j + 1, h_sub <= 1e-7 * max(abs(H[: j + 2, j]).max(), 1e-30)
            V[:, j + 1] = w / h_sub

    while total < max_iter:
        r = b - np.asarray(matvec(x), dtype=dtype)
        matvecs += 1
        beta = float(np.linalg.norm(r))
        if beta <= tol:
            break
        m = min(restart, max_iter - total)
        V = basis(N, m + 1, dtype)
        V[:, 0] = r / beta
        ls = HessenbergLsState(m, beta, dtype=dtype)
        _givens_cycle(lambda rho: rho <= tol, ls, steps(V, m))
        n = ls.ncols
        x = x + V[:, :n] @ ls.solve(n)
        total += n
        if ls.rho <= tol:
            break
    return x, total, matvecs


@dataclass
class ReferenceLowLU:
    """LowLU as it was before its panels were factored in a transposed copy;
    its solve is kept verbatim as the oracle the new one must match bit for
    bit."""

    L: np.ndarray
    U: np.ndarray
    perm: np.ndarray
    growth: float

    def solve(self, rhs):
        """Triangular solves in the factors' own format, by blocks: substitution
        inside each diagonal block, one GEMV for the rest of the vector."""
        L, U = self.L, self.U
        y = np.asarray(rhs, dtype=L.dtype)[self.perm]
        n = len(y)
        starts = range(0, n, _BLOCK)
        for k0 in starts:
            k1 = min(k0 + _BLOCK, n)
            for k in range(k0, k1 - 1):
                y[k + 1:k1] -= L[k + 1:k1, k] * y[k]
            y[k1:] -= L[k1:, k0:k1] @ y[k0:k1]
        for k0 in reversed(starts):
            k1 = min(k0 + _BLOCK, n)
            for k in range(k1 - 1, k0 - 1, -1):
                y[k] = y[k] / U[k, k]
                y[k0:k] -= U[k0:k, k] * y[k]
            y[:k0] -= U[:k0, k0:k1] @ y[k0:k1]
        return y


def reference_lu_low(A, dtype=np.float32):
    """lu_low as it was before its panels were factored in a transposed copy,
    kept verbatim (but for densifying an ndarray only) as the oracle."""
    # L's multipliers below the diagonal, U on and above
    F = np.asarray(A, dtype=np.float64).astype(dtype)
    n = F.shape[0]
    if F.shape != (n, n):
        raise ValueError("matrix must be square")
    if n > DESK_SCALE_LIMIT:
        raise ValueError(f"dense factorization capped at n <= {DESK_SCALE_LIMIT}")
    amax = float(np.abs(F).max()) if n else 0.0
    perm = np.arange(n)
    for k0 in range(0, n, _BLOCK):
        k1 = min(k0 + _BLOCK, n)
        for k in range(k0, k1):
            p = k + int(np.argmax(np.abs(F[k:, k])))
            if F[p, k] == 0:
                raise SingularMatrixError(k, "matrix is singular in the low format")
            if p != k:
                F[[k, p]] = F[[p, k]]
                perm[[k, p]] = perm[[p, k]]
            F[k + 1:, k] /= F[k, k]
            F[k + 1:, k + 1:k1] -= np.outer(F[k + 1:, k], F[k, k + 1:k1])
        for k in range(k0 + 1, k1):
            F[k, k1:] -= F[k, k0:k] @ F[k0:k, k1:]
        F[k1:, k1:] -= F[k1:, k0:k1] @ F[k0:k1, k1:]
    L = np.tril(F, -1)
    np.fill_diagonal(L, 1)
    U = np.triu(F)
    growth = float(np.abs(U).max()) / amax if amax else 0.0
    return ReferenceLowLU(L=L, U=U, perm=perm, growth=growth)


@st.composite
def lu_inputs(draw):
    """(A, right-hand sides): a seeded matrix of order 1 to 3 panels + 5 whose
    rows are scaled by up to 1e+-20, of one of three kinds: dense Gaussian
    (a pivot search that swaps nearly every step), diagonally dominant with
    rows permuted past the first panel only (swaps forced into later panels),
    or Gaussian with a zero column past the first panel (singular)."""
    n = draw(st.integers(1, 3 * _BLOCK + 5))
    kind = draw(st.sampled_from(["gaussian", "later pivots", "zero column"]))
    decades = draw(st.sampled_from([0.0, 5.0, 20.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n))
    if kind == "later pivots":
        A = A / n + 2.0 * np.diag(rng.choice([-1.0, 1.0], n))
        A[_BLOCK:] = A[_BLOCK + rng.permutation(max(n - _BLOCK, 0))]
    elif kind == "zero column" and n > _BLOCK:
        A[:, draw(st.integers(_BLOCK, n - 1))] = 0.0
    A *= 10.0 ** rng.uniform(-decades, decades, n)[:, None]
    rhs = [rng.standard_normal(n), rng.standard_normal(n).astype(np.float32),
           A @ np.ones(n), np.zeros(n)]
    return A, rhs


def _stored(A, csr):
    """A as a CsrMatrix storing every entry that is not +0.0 (a -0.0 too), or
    A itself."""
    if not csr:
        return A
    rows, cols = np.nonzero((A != 0) | np.signbit(A))
    return CsrMatrix.from_coo(*A.shape, rows, cols, A[rows, cols])


def overflow_band():
    """A 200^2 band of width 10 with unit diagonal whose first panel overflows:
    step 61 makes an inf of 3e38 + 3e38 in column 63.  A[73, 61:63] give every
    row up to the panel's last, 73, a nonzero multiplier in columns 61 and 62,
    so at step 63 those rows hold infs while inf x 0 has made the rows past
    them NaN, and the full-width pivot search picks row 74."""
    n = 200
    rng = np.random.default_rng(5)
    offsets = np.subtract.outer(np.arange(n), np.arange(n))
    A = np.where(np.abs(offsets) <= 10, 0.1 * rng.standard_normal((n, n)), 0.0)
    np.fill_diagonal(A, 1.0)
    A[61, 61] = A[62, 61] = 1.0
    A[61, 63], A[62, 63] = 3e38, -3e38
    A[73, 61:63] = 1.0
    return A


@st.composite
def banded_lu_inputs(draw):
    """(A, A as given to lu_low, right-hand sides): a seeded band matrix of
    order 1 to 3 panels + 5, lower and upper bandwidths 0 to past one panel,
    Gaussian entries (so pivots of both signs) on a diagonal of 0 or +-2,
    given as a CsrMatrix or an ndarray.  It may hold a stored -0.0 just past
    the band, a dense last row, a zero column past the first panel
    (singular) or entries of +-3e38 whose updates overflow."""
    n = draw(st.integers(1, 3 * _BLOCK + 5))
    lower, upper = draw(st.integers(0, _BLOCK + 8)), draw(st.integers(0, _BLOCK + 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = np.subtract.outer(np.arange(n), np.arange(n))
    A = np.where((offsets <= lower) & (-offsets <= upper), rng.standard_normal((n, n)), 0.0)
    A += draw(st.sampled_from([0.0, 2.0])) * np.diag(rng.choice([-1.0, 1.0], n))
    k0 = draw(st.integers(0, (n - 1) // _BLOCK)) * _BLOCK
    if draw(st.booleans()) and min(k0 + _BLOCK, n) + lower < n:
        # in the first column of a panel, one row past its last band row
        A[min(k0 + _BLOCK, n) + lower, k0] = -0.0
    if draw(st.booleans()):
        A[-1] = rng.standard_normal(n)
    if draw(st.booleans()) and n > _BLOCK:
        A[:, draw(st.integers(_BLOCK, n - 1))] = 0.0
    if draw(st.booleans()):
        i, j = rng.integers(0, n, (2, 3))
        keep = np.abs(i - j) <= min(lower, upper)
        A[i[keep], j[keep]] = 3e38 * rng.choice([-1.0, 1.0], keep.sum())
    rhs = [rng.standard_normal(n), rng.standard_normal(n).astype(np.float32),
           A @ np.ones(n), np.zeros(n)]
    return A, _stored(A, draw(st.booleans())), rhs


def _criterion_13_matrix():
    rng = np.random.default_rng(133)
    Q1, _ = np.linalg.qr(rng.standard_normal((200, 200)))
    Q2, _ = np.linalg.qr(rng.standard_normal((200, 200)))
    return Q1 @ np.diag(np.logspace(0.0, 3.0, 200)) @ Q2.T


INNER_OPERATORS = {
    "convdiff 16^2 Peclet 3": lambda: gen_convdiff(16, 16, peclet=3.0),
    "kappa~1e3": _criterion_13_matrix,
    "identity 5": lambda: np.eye(5),
}


@pytest.fixture(scope="module", params=sorted(INNER_OPERATORS))
def inner_systems(request):
    """(matvec, rhs) of one operator in binary32, by form: M^{-1} A with its
    binary32 LU as GMRES-IR builds it, and A itself."""
    A = INNER_OPERATORS[request.param]()
    b = np.random.default_rng(1).standard_normal(A.shape[0])
    lu = lu_low(A)
    low = low_operator(A, np.float32)
    return {"M^-1 A": (lambda v: lu.solve(low(v)), lu.solve(b.astype(np.float32))),
            "A": (low, b.astype(np.float32))}


class TestLowGmres:
    def test_matches_hand_written_reference(self, inner_systems):
        for form, restart, max_iter, rtol in itertools.product(
                inner_systems, (1, 5, 50), (3, 200), (1e-2, 1e-4, 1e-6)):
            matvec, rhs = inner_systems[form]
            x, iters, mv = _low_gmres(matvec, rhs, np.float32, rtol, restart, max_iter)
            x_ref, iters_ref, mv_ref = reference_low_gmres(
                matvec, rhs, np.float32, rtol, restart, max_iter)
            case = (form, restart, max_iter, rtol)
            assert x.dtype == x_ref.dtype == np.float32, case
            assert x.tobytes() == x_ref.tobytes(), case
            assert (iters, mv) == (iters_ref, mv_ref), case

    def test_zero_rhs(self):
        x, iters, mv = _low_gmres(lambda v: v, np.zeros(4), np.float32, 1e-4, 5, 10)
        assert x.dtype == np.float32 and not x.any()
        assert (iters, mv) == (0, 0)


class TestLuLow:
    def test_identity(self):
        lu = lu_low(np.eye(3))
        assert np.array_equal(lu.L, np.eye(3, dtype=np.float32))
        assert np.array_equal(lu.U, np.eye(3, dtype=np.float32))
        assert np.array_equal(lu.perm, [0, 1, 2])

    def test_forced_pivot(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        lu = lu_low(A)
        assert np.array_equal(lu.perm, [1, 0])
        assert np.array_equal(lu.L, np.eye(2, dtype=np.float32))
        assert np.array_equal(lu.U, np.eye(2, dtype=np.float32))

    def test_residual_at_low_precision_scale(self, rng):
        A = rng.standard_normal((100, 100))
        lu = lu_low(A)
        P = np.eye(100)[lu.perm]
        res = np.linalg.norm(P @ A - lu.L.astype(float) @ lu.U.astype(float))
        assert res <= 1e-5 * np.linalg.norm(A)
        assert lu.growth >= 1.0

    def test_solve_in_low_format(self, rng):
        A = rng.standard_normal((30, 30)) + 6.0 * np.eye(30)
        b = rng.standard_normal(30)
        lu = lu_low(A)
        x = lu.solve(b.astype(np.float32))
        assert x.dtype == np.float32
        assert np.linalg.norm(b - A @ x.astype(float)) <= 1e-4 * np.linalg.norm(b)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            lu_low(np.zeros((3, 3)))

    def test_rejects_complex(self):
        # even with a zero imaginary part: its real part would be factored
        A = gen_convdiff(4, 4, peclet=1.0)
        for C in (replace(A, values=A.values + 0j), A.to_dense() + 0j):
            with pytest.raises(ValueError, match="operator must be real"):
                lu_low(C)

    @pytest.mark.parametrize("n", [1, 2, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 3])
    def test_blocked_factorization_across_panels(self, rng, n):
        A = rng.standard_normal((n, n))
        lu = lu_low(A)
        assert lu.L.dtype == lu.U.dtype == np.float32
        assert np.array_equal(lu.L, np.tril(lu.L)) and np.all(np.diag(lu.L) == 1)
        assert np.array_equal(lu.U, np.triu(lu.U))
        assert np.all(np.abs(lu.L) <= 1)
        assert sorted(lu.perm) == list(range(n))
        res = np.linalg.norm(A[lu.perm] - lu.L.astype(float) @ lu.U.astype(float))
        assert res <= 1e-5 * np.linalg.norm(A)

    def test_exact_factors_with_pivots_in_later_panels(self, rng):
        # A[perm] = L U with dyadic multipliers |l| <= 1/2 and small integer U:
        # partial pivoting must find exactly this perm, and every operation
        # of the factorization is exact in binary32
        n = 2 * _BLOCK + 3
        L = np.tril(rng.integers(-1, 2, (n, n)) * 0.5, -1) + np.eye(n)
        U = np.triu(rng.integers(-3, 4, (n, n)).astype(float), 1) + \
            np.diag(rng.choice([-2.0, -1.0, 1.0, 2.0, 4.0], n))
        perm = np.arange(n)
        perm[[_BLOCK + 2, n - 1]] = perm[[n - 1, _BLOCK + 2]]
        perm[[1, 2 * _BLOCK]] = perm[[2 * _BLOCK, 1]]
        A = np.empty((n, n))
        A[perm] = L @ U
        lu = lu_low(A)
        assert np.array_equal(lu.perm, perm)
        assert np.array_equal(lu.L, L.astype(np.float32))
        assert np.array_equal(lu.U, U.astype(np.float32))

    def test_singular_index_past_first_panel(self, rng):
        n, j = 2 * _BLOCK + 3, _BLOCK + 5
        A = rng.standard_normal((n, n))
        A[:, j] = 0.0
        with pytest.raises(SingularMatrixError) as err:
            lu_low(A)
        assert err.value.index == j

    def test_blocked_solve_matches_direct_oracle(self, rng):
        n = 2 * _BLOCK + 3
        A = rng.standard_normal((n, n)) / np.sqrt(n) + 3.0 * np.eye(n)
        b = rng.standard_normal(n)
        x = lu_low(A).solve(b.astype(np.float32))
        x_star = np.linalg.solve(A, b)
        assert x.dtype == np.float32
        assert np.linalg.norm(x - x_star) <= 1e-5 * np.linalg.norm(x_star)


class TestLuLowMemory:
    """The factors are one packed n x n binary32 array: CSR input is densified
    straight into it and factoring it adds about one more."""

    @pytest.fixture(scope="class")
    def traced(self):
        """(peak, kept) of lu_low on convdiff 32^2, in n x n binary32 arrays."""
        A = gen_convdiff(32, 32, peclet=10.0)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            lu = lu_low(A)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix = A.nrows ** 2 * 4
        return (peak - base) / matrix, (kept - base) / matrix

    def test_peak_of_the_factorization(self, traced):
        # the matrix and its densified copy's transient; the trailing GEMM's
        # product is band-sized.  1.97 matrices when that product spanned the
        # whole trailing matrix, 3.07 when densified in binary64 and stored
        # as separate L and U
        assert traced[0] <= 1.4

    def test_memory_kept_by_the_factors(self, traced):
        assert traced[1] <= 1.4

    def test_factor_arrays_are_copies(self, rng):
        n = 2 * _BLOCK + 3
        lu = lu_low(rng.standard_normal((n, n)) + 4.0 * np.eye(n))
        b = rng.standard_normal(n).astype(np.float32)
        x = lu.solve(b)
        lu.L[:] = 2.0
        lu.U[:] = 3.0
        assert lu.solve(b).tobytes() == x.tobytes()
        assert np.all(np.diag(lu.L) == 1) and not np.triu(lu.L, 1).any()


class TestLowLuSolveInput:
    @pytest.fixture(scope="class")
    def lu(self):
        return lu_low(np.random.default_rng(4).standard_normal((16, 16)))

    @pytest.mark.parametrize("rhs", [np.ones(20), np.ones(15), np.ones((16, 1)),
                                     np.ones((2, 16)), np.float32(1.0)],
                             ids=["longer", "shorter", "column", "2-D", "scalar"])
    def test_rejects_all_but_a_vector_of_length_n(self, lu, rhs):
        with pytest.raises(ValueError, match="rhs must be a 1-D vector of length 16"):
            lu.solve(rhs)


class TestLuLowMatchesReference:
    """The transposed-panel factorization and the transposed-block solve
    give the bytes of the column-wise originals."""

    @settings(max_examples=120, deadline=None)
    @given(lu_inputs())
    def test_same_bytes_as_reference(self, case):
        A, rhs = case
        try:
            ref = reference_lu_low(A)
        except SingularMatrixError as err:
            with pytest.raises(SingularMatrixError) as got:
                lu_low(A)
            assert got.value.index == err.index
            return
        lu = lu_low(A)
        for name in ("L", "U", "perm"):
            a, b = getattr(lu, name), getattr(ref, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        assert np.float64(lu.growth).tobytes() == np.float64(ref.growth).tobytes()
        for r in rhs:
            # rows scaled by 1e+-20 can overflow a binary32 solve: the infs
            # and NaNs are compared too
            with np.errstate(over="ignore", invalid="ignore"):
                x, x_ref = lu.solve(r), ref.solve(r)
            assert x.dtype == x_ref.dtype == np.float32
            assert x.tobytes() == x_ref.tobytes()

    def test_zero_order(self):
        lu = lu_low(np.zeros((0, 0)))
        assert lu.L.shape == lu.U.shape == (0, 0) and lu.growth == 0.0
        assert lu.solve(np.zeros(0)).shape == (0,)


class TestBandedLuMatchesReference:
    """Each panel's row-by-row work stops at its reach, the last row not +0.0
    in its columns, and rows past it get the signed zeros of the full-width
    scaling; the U-row GEMVs, the trailing GEMM and the solve's GEMVs run at
    band shape.  BLAS rounds those sub-shapes differently, so on a general
    band matrix the factors keep the column-wise original's error bounds,
    not its bytes; on convdiff 32^2 and where a panel overflows they keep
    the bytes too."""

    @staticmethod
    def check(dense, A, rhs):
        # overflowing entries make infs and NaNs, which are compared too
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                ref = reference_lu_low(dense)
            except SingularMatrixError as err:
                with pytest.raises(SingularMatrixError) as got:
                    lu_low(A)
                assert got.value.index == err.index
                return
            lu = lu_low(A)
            for name in ("L", "U", "perm"):
                a, b = getattr(lu, name), getattr(ref, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), name
                assert a.tobytes() == b.tobytes(), name
            assert np.float64(lu.growth).tobytes() == np.float64(ref.growth).tobytes()
            for r in rhs:
                x, x_ref = lu.solve(r), ref.solve(r)
                assert x.dtype == x_ref.dtype == np.float32
                assert x.tobytes() == x_ref.tobytes()

    @staticmethod
    def factor(lu, A):
        """(factors, None), or (None, index) when a pivot vanishes."""
        try:
            return lu(A), None
        except SingularMatrixError as err:
            return None, err.index

    @settings(max_examples=150, deadline=None)
    @given(banded_lu_inputs())
    def test_within_the_bounds_of_reference(self, case):
        # the singular index of the reference; else report_identity's
        # envelope against it, and the reference's sign wherever both hold a
        # zero, in L in the columns whose pivots agree in sign (the +0.0 /
        # pivot past each panel's reach)
        dense, A, rhs = case
        with np.errstate(over="ignore", invalid="ignore"):
            (ref, ref_index), (lu, index) = self.factor(reference_lu_low, dense), \
                self.factor(lu_low, A)
            if ref_index is not None or index is not None:
                if ref_index != index:
                    # a matrix singular to working precision: the pivot that
                    # vanished on one side is zero to within rounding on the
                    # other
                    j, other = (ref_index, lu) if index is None else (index, ref)
                    assert other is not None
                    scale = (np.abs(other.L) @ np.abs(other.U)).max()
                    assert abs(other.U[j, j]) <= report_identity._gamma(len(dense)) * scale
                return
            before, after = ({"L": f.L, "U": f.U, "perm": f.perm, "growth": f.growth,
                              **{f"solve {k}": f.solve(r) for k, r in enumerate(rhs)}}
                             for f in (ref, lu))
        finite = [np.isfinite(f.L).all() and np.isfinite(f.U).all() for f in (ref, lu)]
        if not finite[0]:
            assert not finite[1]
            return
        ratios = report_identity.lu_envelope(dense, rhs, before, after)
        assert all(r <= 1 for r in ratios.values()), ratios
        zeros = {name: (before[name] == 0) & (after[name] == 0) for name in ("L", "U")}
        zeros["L"] &= np.signbit(np.diag(ref.U)) == np.signbit(np.diag(lu.U))
        for name, zero in zeros.items():
            assert np.array_equal(np.signbit(before[name][zero]),
                                  np.signbit(after[name][zero])), name

    @pytest.mark.parametrize("csr", [True, False], ids=["csr", "ndarray"])
    def test_convdiff(self, csr):
        A = gen_convdiff(32, 32, peclet=10.0)
        rhs = [np.random.default_rng(3).standard_normal(A.nrows)]
        self.check(A.to_dense(), A if csr else A.to_dense(), rhs)

    @pytest.mark.parametrize("csr", [True, False], ids=["csr", "ndarray"])
    def test_overflow_needs_the_full_width_panel(self, csr):
        A = overflow_band()
        self.check(A, _stored(A, csr), [np.ones(len(A))])

    def test_overflowing_solve_keeps_the_full_shapes(self):
        # L = A, U = I exactly; the forward substitution overflows at the
        # first block's last row only, the band row past it turns inf, and
        # inf x +0.0 makes the full-shape GEMVs' rows outside the band NaN,
        # where band-shape GEMVs would leave them finite until they turn inf
        n = 2 * _BLOCK + 3
        A = np.eye(n) - np.eye(n, k=-1)
        rhs = np.zeros(n)
        rhs[_BLOCK - 2:_BLOCK] = 3e38
        self.check(A, A, [rhs])


class TestEnvelope:
    """report_identity's compare --envelope --moves lu holds moved LU arrays
    to their error bounds, on two dumps of one small factored matrix."""

    PREFIX = "lu convdiff 5^2"

    @pytest.fixture()
    def compare(self, tmp_path, monkeypatch, capsys):
        """compare(L, moves): the exit status of comparing the dump of
        convdiff 5^2's LU with a copy whose L is replaced, and its output."""
        A = gen_convdiff(5, 5, peclet=10.0)
        monkeypatch.setattr(report_identity, "factored", lambda: [(self.PREFIX, A)])
        before = report_identity.lu_arrays(self.PREFIX, A)
        np.savez(tmp_path / "before.npz", **before)

        def run(L, moves):
            np.savez(tmp_path / "after.npz", **dict(before, **{f"{self.PREFIX}|L": L}))
            status = report_identity.compare(tmp_path / "before.npz", tmp_path / "after.npz",
                                             exact=True, moves=moves)
            return status, capsys.readouterr().out

        return before[f"{self.PREFIX}|L"], run

    @staticmethod
    def largest_multiplier(L):
        return np.unravel_index(np.argmax(np.abs(np.tril(L, -1))), L.shape)

    def test_accepts_an_ulp(self, compare):
        L, run = compare
        L = L.copy()
        ij = self.largest_multiplier(L)
        L[ij] = np.nextafter(L[ij], np.float32(np.inf))
        status, out = run(L, ["lu"])
        assert status == 0 and f"moved: {self.PREFIX}|L: " in out
        # without --moves the moved bytes fail it
        assert run(L, [])[0] == 1

    def test_rejects_a_dropped_multiplier(self, compare):
        L, run = compare
        L = L.copy()
        L[self.largest_multiplier(L)] = 0.0
        status, out = run(L, ["lu"])
        assert status == 1 and "outside the envelope" in out


class TestLowOperator:
    def test_csr_product_in_low_format(self, convdiff100, rhs100):
        y = low_operator(convdiff100, np.float32)(rhs100)
        exact = convdiff100.matvec(rhs100.astype(np.float32).astype(float))
        assert y.dtype == np.float32
        # five stored entries per row: a few binary32 roundings per row sum
        scale = np.abs(convdiff100.to_dense()) @ np.abs(rhs100)
        assert np.all(np.abs(y - exact) <= 8 * np.finfo(np.float32).eps * scale)

    def test_csr_empty_rows_and_no_entries(self):
        A = CsrMatrix(4, 4, np.array([0, 0, 2, 2, 3]), np.array([0, 3, 1]),
                      np.array([1.0, 2.0, 3.0]))
        y = low_operator(A, np.float32)(np.array([1.0, 10.0, 100.0, 1000.0]))
        assert np.array_equal(y, [0.0, 2001.0, 0.0, 30.0])
        empty = CsrMatrix(3, 3, np.zeros(4, dtype=int), np.array([], dtype=int),
                          np.array([]))
        y = low_operator(empty, np.float32)(np.ones(3))
        assert y.dtype == np.float32 and np.array_equal(y, np.zeros(3))


class TestDensification:
    @pytest.fixture()
    def to_dense_calls(self, monkeypatch):
        calls = []
        original = CsrMatrix.to_dense

        def counting(self):
            calls.append(self.shape)
            return original(self)

        monkeypatch.setattr(CsrMatrix, "to_dense", counting)
        return calls

    def test_two_precision_keeps_csr_sparse(self, to_dense_calls, convdiff100, rhs100):
        gmres_two_precision(convdiff100, rhs100, opts=GmresOptions(restart=20, max_iter=40))
        assert to_dense_calls == []

    def test_lu_checks_the_shape_before_densifying(self, to_dense_calls):
        # convdiff 48^2 is of order 2304, past the desk-scale cap
        with pytest.raises(ValueError, match=f"capped at n <= {DESK_SCALE_LIMIT}"):
            lu_low(gen_convdiff(48, 48, peclet=10.0))
        wide = CsrMatrix(2, 3, np.array([0, 1, 2]), np.array([0, 2]), np.ones(2))
        with pytest.raises(ValueError, match="matrix must be square"):
            lu_low(wide)
        assert to_dense_calls == []

    def test_ir_densifies_once_for_the_factorization(self, to_dense_calls):
        A = gen_convdiff(8, 8, peclet=10.0)
        rep = gmres_ir(A, np.ones(64))
        assert rep.converged
        assert to_dense_calls == [(64, 64)]


class TestGmresIr:
    def test_identity_one_step(self):
        rep = gmres_ir(np.eye(5), np.ones(5))
        assert rep.converged
        assert np.allclose(rep.x, np.ones(5))

    def test_forward_error_vs_direct_oracle(self):
        A = conditioned_matrix(200, 1e3, seed=11)
        b = np.random.default_rng(12).standard_normal(200)
        x_star = np.linalg.solve(A, b)
        rep = gmres_ir(A, b)
        assert rep.converged
        assert rep.iterations <= 10
        fwd = np.linalg.norm(rep.x - x_star) / np.linalg.norm(x_star)
        assert fwd <= 1e-12
        # the plain low-precision solve on the same factors cannot get there
        from gmreskit.mixedprec import lu_low as _lu
        x_low = _lu(A).solve(b.astype(np.float32)).astype(np.float64)
        fwd_low = np.linalg.norm(x_low - x_star) / np.linalg.norm(x_star)
        assert fwd_low > 1e-12

    def test_succeeds_where_low_lu_is_poor(self):
        # kappa_2 ~ 1e8 through diagonal scaling: the float32 factorization is
        # of low quality, but the componentwise conditioning stays benign so
        # refinement recovers full double accuracy
        rng = np.random.default_rng(13)
        n = 120
        B = rng.standard_normal((n, n)) / np.sqrt(n) + 3.0 * np.eye(n)
        D = np.diag(np.logspace(0, 4, n))
        A = D @ B @ D
        assert np.linalg.cond(A) > 1e7
        b = rng.standard_normal(n)
        x_star = np.linalg.solve(A, b)
        x_low = lu_low(A).solve(b.astype(np.float32)).astype(np.float64)
        fwd_low = np.linalg.norm(x_low - x_star) / np.linalg.norm(x_star)
        rep = gmres_ir(A, b, max_refinements=60)
        fwd = np.linalg.norm(rep.x - x_star) / np.linalg.norm(x_star)
        assert fwd_low > 1e-12
        assert fwd <= 1e-12

    def test_monotone_contraction(self):
        A = conditioned_matrix(80, 1e2, seed=15)
        b = np.random.default_rng(16).standard_normal(80)
        rep = gmres_ir(A, b)
        h = rep.residual_history
        assert all(h[i + 1] <= h[i] for i in range(len(h) - 1))

    def test_zero_inner_budget_runs_no_inner_iteration(self):
        A = conditioned_matrix(40, 1e2, seed=18)
        rep = gmres_ir(A, np.ones(40), inner_opts=GmresOptions(rtol=1e-4, max_iter=0))
        assert rep.diagnostics["inner_iterations"]
        assert set(rep.diagnostics["inner_iterations"]) == {0}
        assert rep.termination in ("stagnation", "maxiter", "converged")

    def test_growth_factor_reported(self):
        A = conditioned_matrix(40, 1e2, seed=17)
        rep = gmres_ir(A, np.ones(40))
        assert rep.diagnostics["growth_factor"] >= 1.0


class TestGmresIrArguments:
    @pytest.mark.parametrize("rtol", [np.nan, -1.0, 0.0, np.inf])
    def test_rejects_rtol(self, rtol):
        with pytest.raises(ValueError, match="rtol must be positive and finite"):
            gmres_ir(np.eye(5), np.ones(5), rtol=rtol)

    def test_rejects_negative_max_refinements(self):
        with pytest.raises(ValueError, match="max_refinements must be at least 0"):
            gmres_ir(np.eye(5), np.ones(5), max_refinements=-1)

    @pytest.mark.parametrize("field, value", [
        ("scheme", "cgs2"),
        ("precond_side", "left"),
        ("preconditioner", DiagonalPreconditioner(np.full(5, 2.0))),
        ("weight", np.full(5, 7.0)),
        ("iteration_callback", lambda *args: None),
        ("simpler_omega", 0.9),
    ])
    def test_rejects_inner_option_it_would_ignore(self, field, value):
        kw = {field: value}
        if field == "precond_side":
            kw["preconditioner"] = DiagonalPreconditioner(np.full(5, 2.0))
        with pytest.raises(ValueError, match=f"inner_opts.{field}$"):
            gmres_ir(np.eye(5), np.ones(5), inner_opts=GmresOptions(rtol=1e-4, **kw))

    def test_zero_refinements_reports_the_lu_solve(self):
        rep = gmres_ir(_criterion_13_matrix(), np.ones(200), max_refinements=0)
        assert rep.termination == "maxiter" and rep.iterations == 0
        assert rep.diagnostics["inner_iterations"] == []


class TestTwoPrecision:
    def test_low_cycles_reach_comparable_accuracy(self, convdiff100, rhs100):
        opts = GmresOptions(rtol=1e-8, restart=20, max_iter=600)
        rep_low = gmres_two_precision(convdiff100, rhs100, opts=opts)
        rep_high = gmres_restarted(convdiff100, rhs100,
                                   opts=GmresOptions(rtol=1e-8, restart=20,
                                                     max_iter=600))
        assert rep_low.converged and rep_high.converged
        assert rep_low.iterations <= 1.5 * rep_high.iterations
        dense = convdiff100.to_dense()
        res_low = np.linalg.norm(rhs100 - dense @ rep_low.x)
        res_high = np.linalg.norm(rhs100 - dense @ rep_high.x)
        assert res_low <= 10.0 * res_high

    def test_inner_arithmetic_is_low(self, convdiff100, rhs100):
        # the recorded Hessenberg factor of the last cycle is binary32
        rep = gmres_two_precision(convdiff100, rhs100,
                                  opts=GmresOptions(rtol=1e-8, restart=20))
        Hbar = rep.diagnostics["arnoldi"]
        assert Hbar.dtype == np.float32 and Hbar.shape[0] == Hbar.shape[1] + 1
        assert rep.x.dtype == np.float64


class TestTwoPrecisionRule:
    """Residuals and solution updates stay binary64 in both solvers."""

    def test_ir_history_is_binary64_residual(self):
        for A in (_criterion_13_matrix(), gen_convdiff(16, 16, peclet=3.0)):
            b = np.random.default_rng(2).standard_normal(A.shape[0])
            rep = gmres_ir(A, b)
            assert rep.x.dtype == np.float64
            Ax = A.matvec(rep.x) if isinstance(A, CsrMatrix) else A @ rep.x
            assert rep.residual_history[-1] == np.linalg.norm(b - Ax)
            assert rep.true_residual_checkpoints[-1][1] == rep.residual_history[-1]

    def test_two_precision_checkpoint_is_binary64_residual(self, convdiff100, rhs100):
        rep = gmres_two_precision(convdiff100, rhs100,
                                  opts=GmresOptions(rtol=1e-6, restart=20))
        assert rep.x.dtype == np.float64
        assert rep.true_residual_checkpoints[-1][1] == \
            np.linalg.norm(rhs100 - convdiff100.matvec(rep.x))


class TestIrNonConvergence:
    def test_reported_not_raised_at_extreme_kappa(self):
        # kappa * u_low >> 1: refinement cannot contract; it must report,
        # not crash
        A = conditioned_matrix(60, 1e9, seed=19)
        b = np.random.default_rng(20).standard_normal(60)
        rep = gmres_ir(A, b, max_refinements=8)
        assert rep.termination in ("stagnation", "maxiter", "converged")
