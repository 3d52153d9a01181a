import io
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmreskit import linalg
from gmreskit.harness import gen_convdiff
from gmreskit.linalg import (
    CsrMatrix,
    MatrixMarketError,
    SingularMatrixError,
    back_substitute,
    dense_eig_general,
    dense_eig_symmetric,
    HessenbergLsState,
    make_givens,
    mm_read,
    mm_write,
)


def random_csr(rng, n, m=None, density=0.4):
    m = m if m is not None else n
    dense = rng.standard_normal((n, m))
    dense[rng.random((n, m)) > density] = 0.0
    return CsrMatrix.from_dense(dense), dense


class TestSpmv:
    def test_identity(self):
        A = CsrMatrix.from_dense(np.eye(3))
        assert np.array_equal(A.matvec(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_diagonal(self):
        A = CsrMatrix.from_dense(np.diag([2.0, 3.0]))
        assert np.array_equal(A.matvec(np.array([1.0, 1.0])), [2.0, 3.0])

    def test_matches_dense_accumulation_oracle(self, rng):
        # oracle: per-row left-to-right accumulation over the dense matrix
        A, dense = random_csr(rng, 50)
        v = rng.standard_normal(50)
        expected = np.zeros(50)
        for i in range(50):
            acc = 0.0
            for j in range(50):
                acc += dense[i, j] * v[j]
            expected[i] = acc
        got = A.matvec(v)
        assert np.allclose(got, expected, rtol=1e-14, atol=0)

    def test_exact_match_in_storage_order(self, rng):
        # summing the stored entries in storage order reproduces matvec exactly
        A, _ = random_csr(rng, 23)
        v = rng.standard_normal(23)
        expected = np.zeros(23)
        for i in range(A.nrows):
            acc = 0.0
            for k in range(A.row_ptr[i], A.row_ptr[i + 1]):
                acc += A.values[k] * v[A.col_idx[k]]
            expected[i] = acc
        assert np.array_equal(A.matvec(v), expected)

    def test_dimension_mismatch(self):
        A = CsrMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError, match="dimension"):
            A.matvec(np.ones(4))

    def test_empty_rows(self):
        dense = np.zeros((4, 4))
        dense[1, 2] = 5.0
        A = CsrMatrix.from_dense(dense)
        assert np.array_equal(A.matvec(np.ones(4)), [0.0, 5.0, 0.0, 0.0])


def bincount_matvec(A, v):
    """The product as a bincount over the stored entries' row indices: the
    kernel CsrMatrix.matvec runs for every row outside its band."""
    v = np.asarray(v)
    rows = np.repeat(np.arange(A.nrows), np.diff(A.row_ptr))
    return np.bincount(rows, weights=A.values * v[A.col_idx], minlength=A.nrows)


@st.composite
def sparse_products(draw):
    """(A, v) over random patterns: empty rows, most rows empty, one dense row
    among sparse ones, rectangular shapes and nnz = 0; int64 values and
    float32 or int64 v; zeros of both signs in v and among the values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nrows, ncols = draw(st.integers(0, 12)), draw(st.integers(1, 12))
    stored = rng.random((nrows, ncols)) < draw(st.sampled_from([0.0, 0.15, 0.5, 0.9]))
    if nrows and draw(st.booleans()):
        stored[rng.integers(nrows)] = True
    rows, cols = np.nonzero(stored)
    if draw(st.booleans()):
        values = rng.integers(-4, 5, len(rows))
    else:
        values = rng.standard_normal(len(rows))
        values[rng.random(len(rows)) < 0.2] = 0.0
        values[rng.random(len(rows)) < 0.2] = -0.0
    v = rng.standard_normal(ncols) * 10
    v[rng.random(ncols) < 0.3] = 0.0
    v[rng.random(ncols) < 0.3] = -0.0
    v = v.astype(draw(st.sampled_from([np.float64, np.float32, np.int64])))
    return CsrMatrix.from_coo(nrows, ncols, rows, cols, values), v


class TestSlotMajorProduct:
    @settings(max_examples=300, deadline=None)
    @given(sparse_products())
    def test_same_bytes_as_bincount(self, case):
        A, v = case
        got = A.matvec(v)
        assert got.dtype == np.float64
        # (bincount returns int64 zeros when nnz = 0: the same bytes)
        assert got.tobytes() == bincount_matvec(A, v).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(sparse_products(), st.data())
    def test_same_nonfinite_entries_as_bincount(self, case, data):
        A, v = case
        v = v.astype(np.float64)
        v[data.draw(st.integers(0, len(v) - 1))] = data.draw(
            st.sampled_from([np.inf, -np.inf, np.nan]))
        with np.errstate(invalid="ignore"):
            got, expected = A.matvec(v), bincount_matvec(A, v)
        assert np.array_equal(np.isfinite(got), np.isfinite(expected))

    def test_arrow_row_stays_out_of_the_slots(self, rng):
        # one dense row over a diagonal and a dense first column
        n = 4096
        rows = np.concatenate((np.zeros(n, dtype=np.int64), np.arange(1, n), np.arange(1, n)))
        cols = np.concatenate((np.arange(n), np.zeros(n - 1, dtype=np.int64), np.arange(1, n)))
        A = CsrMatrix.from_coo(n, n, rows, cols, rng.standard_normal(len(rows)))
        v = rng.standard_normal(n)
        assert A.matvec(v).tobytes() == bincount_matvec(A, v).tobytes()
        # no row stores only the diagonal, so there is no band: every row
        # gathers, and its entries are cached in storage order
        layout = A._slots()
        assert not layout.spans
        assert layout.gather.tolist() == list(range(n))
        assert layout.entry_rows.tolist() == A._nnz_rows().tolist()
        assert layout.entry_cols.tolist() == A.col_idx.tolist()
        cached = sum(part.nbytes for part in layout if isinstance(part, np.ndarray))
        assert cached <= 2 * (A.values.nbytes + A.col_idx.nbytes)

    # one full row of four: no band; three: a band and two gather rows
    @pytest.mark.parametrize("dense_rows", [1, 3])
    def test_complex_vector_raises(self, dense_rows):
        dense = np.zeros((4, 4))
        dense[:dense_rows] = 1.0
        with pytest.raises(TypeError):
            CsrMatrix.from_dense(dense).matvec(np.ones(4, dtype=complex))


@st.composite
def banded_products(draw):
    """(A, v) over banded patterns: up to five offsets near the diagonal with
    random holes, stray entries before or after the band in some rows,
    rectangular shapes, int64 values and float32 or int64 v, and zeros of
    both signs in v and among the values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nrows, ncols = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    reach = draw(st.integers(1, 8))
    offsets = rng.choice(np.arange(-reach, reach + 1), draw(st.integers(2, 5)))
    i, j = np.indices((nrows, ncols))
    stored = np.isin(j - i, offsets)
    stored &= rng.random(stored.shape) >= draw(st.sampled_from([0.1, 0.0, 0.3]))
    stored |= rng.random(stored.shape) < draw(st.sampled_from([0.0, 0.03, 0.15]))
    rows, cols = np.nonzero(stored)
    if draw(st.booleans()):
        values = rng.integers(-4, 5, len(rows))
    else:
        values = rng.standard_normal(len(rows))
        values[rng.random(len(rows)) < 0.1] = -0.0
    v = rng.standard_normal(ncols) * 10
    v[rng.random(ncols) < 0.3] = -0.0
    v[rng.random(ncols) < 0.1] = 0.0
    v = v.astype(draw(st.sampled_from([np.float64, np.float32, np.int64])))
    return CsrMatrix.from_coo(nrows, ncols, rows, cols, values), v


def padded_columns(A):
    """Columns a padded row reads through a zero band value."""
    stored = set(zip(A._nnz_rows().tolist(), A.col_idx.tolist()))
    layout = A._slots()
    return sorted({i + d for i in layout.padded.tolist()
                   for _, d, lo, hi in layout.spans
                   if lo <= i < hi and (i, i + d) not in stored})


class TestBandedProduct:
    @settings(max_examples=300, deadline=None)
    @given(banded_products())
    def test_same_bytes_as_bincount(self, case):
        A, v = case
        got = A.matvec(v)
        assert got.dtype == np.float64
        assert got.tobytes() == bincount_matvec(A, v).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(banded_products(), st.data())
    def test_nonfinite_at_padded_columns(self, case, data):
        A, v = case
        v = v.astype(np.float64)
        cols = padded_columns(A) or list(range(len(v)))
        for c in data.draw(st.lists(st.sampled_from(cols), min_size=1, max_size=3)):
            v[c] = data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
        with np.errstate(invalid="ignore"):
            got, expected = A.matvec(v), bincount_matvec(A, v)
        assert np.array_equal(np.isfinite(got), np.isfinite(expected))
        assert got[np.isfinite(got)].tobytes() == expected[np.isfinite(expected)].tobytes()

    def test_stencil_is_all_band(self):
        A = gen_convdiff(6, 5, peclet=3.0)
        layout = A._slots()
        assert [d for _, d, _, _ in layout.spans] == [-6, -1, 0, 1, 6]
        assert len(layout.gather) == len(layout.entry_rows) == 0
        # inner rows at the right and left edges lack 1 or -1 in range
        assert layout.padded.tolist() == [5, 6, 11, 12, 17, 18, 23, 24]
        v = np.arange(30.0)
        v[6] = np.inf                   # read through a zero by row 5 only
        got = A.matvec(v)
        assert np.flatnonzero(~np.isfinite(got)).tolist() == [0, 6, 7, 12]
        assert got.tobytes() == bincount_matvec(A, v).tobytes()

    def test_entry_before_the_band_makes_a_gather_row(self):
        # tridiagonal, and row 3 also holds column 0 before its band
        n = 8
        rows, cols = np.nonzero(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 1)
        A = CsrMatrix.from_coo(n, n, np.append(rows, 3), np.append(cols, 0),
                               np.arange(len(rows) + 1.0) - 7.5)
        layout = A._slots()
        assert layout.gather.tolist() == [3]
        assert not layout.band[:, 3].any()
        v = np.linspace(-1.0, 2.0, n)
        assert A.matvec(v).tobytes() == bincount_matvec(A, v).tobytes()


def same_product_as_bincount(A, v):
    """matvec has bincount's non-finite entries and the bytes of its finite ones."""
    got, expected = A.matvec(v), bincount_matvec(A, v)
    finite = np.isfinite(expected)
    return (np.array_equal(np.isfinite(got), finite)
            and got[finite].tobytes() == expected[finite].tobytes())


class TestOneClassPerRow:
    def test_dense_pattern_has_no_band(self):
        A = CsrMatrix.from_dense(np.random.default_rng(60).standard_normal((60, 60)))
        layout = A._slots()
        assert not layout.spans and layout.band.shape == (0, 60)
        assert layout.gather.tolist() == list(range(60))
        assert layout.entry_vals.tobytes() == A.values.tobytes()
        v = np.random.default_rng(61).standard_normal(60)
        assert A.matvec(v).tobytes() == bincount_matvec(A, v).tobytes()

    # tridiagonal of order 12, and rows 2, 3, ... also hold column 0
    @pytest.mark.parametrize("strays, band", [(6, True), (7, False)])
    def test_band_needs_half_the_rows(self, strays, band):
        n = 12
        rows, cols = np.nonzero(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 1)
        stray = np.arange(2, 2 + strays)
        rows, cols = np.append(rows, stray), np.append(cols, np.zeros(strays, dtype=int))
        A = CsrMatrix.from_coo(n, n, rows, cols, np.linspace(-3.0, 2.0, len(rows)))
        layout = A._slots()
        if band:
            assert [d for _, d, _, _ in layout.spans] == [-1, 0, 1]
            assert layout.gather.tolist() == stray.tolist()
            assert not layout.band[:, stray].any()
        else:
            assert not layout.spans
            assert layout.gather.tolist() == list(range(n))
        v = np.random.default_rng(12).standard_normal(n)
        assert A.matvec(v).tobytes() == bincount_matvec(A, v).tobytes()

    @pytest.mark.parametrize("band", [True, False])
    def test_empty_rows_read_a_zero(self, band):
        rng = np.random.default_rng(5)
        n = 10
        if band:
            # tridiagonal without rows 0, 4 and 9
            stored = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 1
        else:
            stored = rng.random((n, n)) < 0.25
        stored[[0, 4, 9]] = False
        rows, cols = np.nonzero(stored)
        A = CsrMatrix.from_coo(n, n, rows, cols, rng.standard_normal(len(rows)))
        layout = A._slots()
        assert bool(layout.spans) == band
        if band:
            assert {0, 4, 9} <= set(layout.padded.tolist())
        else:
            # bincount sums every row, so no row reads a column through a zero
            assert not len(layout.padded) and not len(layout.zero_cols)
        base = rng.standard_normal(n)
        assert A.matvec(base).tobytes() == bincount_matvec(A, base).tobytes()
        for c in range(n):
            for value in (np.inf, -np.inf, np.nan):
                v = base.copy()
                v[c] = value
                assert same_product_as_bincount(A, v), (c, value)

    def test_infinities_of_both_signs_raise_no_warning(self):
        import warnings
        A = gen_convdiff(6, 5, peclet=3.0)
        v = np.arange(30.0)
        v[6], v[29] = np.inf, -np.inf   # row 5 reads column 6 through a zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert same_product_as_bincount(A, v)
        got = A.matvec(v)
        assert np.isposinf(got).any() and np.isneginf(got).any()

    def test_a_stored_invalid_operation_keeps_the_callers_errstate(self):
        # a tridiagonal band that pads no row; row 1 itself sums inf - inf
        A = CsrMatrix.from_dense(np.array([[2.0, 1, 0], [1, 0.5, -1], [0, 1, 2]]))
        assert len(A._slots().spans) == 3 and not len(A._slots().zero_cols)
        v = np.array([np.inf, 1.0, np.inf])
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            A.matvec(v)
        with np.errstate(invalid="ignore"):
            assert same_product_as_bincount(A, v)


class TestCsrInvariants:
    def test_rejects_bad_row_ptr(self):
        with pytest.raises(ValueError):
            CsrMatrix(2, 2, np.array([0, 2, 1]), np.array([0, 1]),
                      np.array([1.0, 2.0]))

    def test_rejects_column_out_of_range(self):
        with pytest.raises(ValueError):
            CsrMatrix(2, 2, np.array([0, 1, 2]), np.array([0, 5]),
                      np.array([1.0, 2.0]))

    def test_rejects_unsorted_columns(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CsrMatrix(1, 3, np.array([0, 2]), np.array([2, 0]),
                      np.array([1.0, 2.0]))

    def test_rejects_unsorted_columns_in_later_row(self):
        # rows 0 and 2 are fine, row 1 is empty, row 3 repeats a column; the
        # drop from column 3 to 0 between rows 0 and 2 is a row boundary
        row_ptr = np.array([0, 2, 2, 4, 6])
        col_idx = np.array([1, 3, 0, 2, 1, 1])
        with pytest.raises(ValueError, match="in row 3$"):
            CsrMatrix(4, 4, row_ptr, col_idx, np.ones(6))
        col_idx[5] = 2
        assert CsrMatrix(4, 4, row_ptr, col_idx, np.ones(6)).nnz == 6

    def test_empty_rows(self):
        A = CsrMatrix(4, 3, np.array([0, 0, 2, 2, 2]), np.array([0, 2]),
                      np.array([1.0, 2.0]))
        assert np.array_equal(A.to_dense(), [[0, 0, 0], [1, 0, 2], [0, 0, 0], [0, 0, 0]])
        empty = CsrMatrix(2, 2, np.zeros(3, dtype=int), np.array([], dtype=int),
                          np.array([]))
        assert np.array_equal(empty.to_dense(), np.zeros((2, 2)))

    def test_round_trip_dense(self, rng):
        _, dense = random_csr(rng, 9)
        assert np.array_equal(CsrMatrix.from_dense(dense).to_dense(), dense)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_round_trip_matches_row_scan(self, rng, dtype):
        _, dense = random_csr(rng, 9)
        dense[[0, 4, 8]] = 0.0      # empty first, middle and last rows
        dense = dense.astype(dtype)
        A = CsrMatrix.from_dense(dense)
        # oracle: a row-major scan of the dense entries
        nz = [(i, j) for i in range(9) for j in range(9) if dense[i, j] != 0]
        assert A.col_idx.tolist() == [j for _, j in nz]
        assert A.row_ptr.tolist() == [sum(i < r for i, _ in nz) for r in range(10)]
        assert A.values.dtype == dtype
        assert np.array_equal(A.to_dense(), dense)
        assert A.to_dense().dtype == dtype

    def test_from_dense_drop_tol(self):
        A = CsrMatrix.from_dense(np.array([[0.5, -2.0], [1.0, 0.0]]), drop_tol=1.0)
        assert (A.row_ptr.tolist(), A.col_idx.tolist(), A.values.tolist()) == \
            ([0, 1, 1], [1], [-2.0])


class TestMakeGivens:
    def test_no_rotation(self):
        rot, r = make_givens(1.0, 0.0)
        assert (rot.c, rot.s, r) == (1.0, 0.0, 1.0)

    def test_quarter_turn(self):
        rot, r = make_givens(0.0, 1.0)
        assert (rot.c, rot.s, r) == (0.0, 1.0, 1.0)

    def test_pythagorean(self):
        rot, r = make_givens(3.0, 4.0)
        assert abs(rot.c - 0.6) < 1e-15
        assert abs(rot.s - 0.8) < 1e-15
        assert abs(r - 5.0) < 1e-15

    def test_zero_zero(self):
        rot, r = make_givens(0.0, 0.0)
        assert (rot.c, rot.s, r) == (1.0, 0.0, 0.0)

    def test_properties_random(self, rng):
        for _ in range(200):
            a, b = rng.standard_normal(2) * 10.0 ** rng.integers(-150, 150)
            rot, r = make_givens(a, b)
            assert abs(rot.c ** 2 + rot.s ** 2 - 1.0) <= 1e-14
            assert r >= 0.0
            assert abs(-rot.s * a + rot.c * b) <= 1e-14 * max(r, 1.0)
            assert abs(rot.c * a + rot.s * b - r) <= 1e-13 * max(r, 1.0)

    def test_overflow_safe(self):
        rot, r = make_givens(1e300, 1e300)
        assert math.isfinite(r)
        assert abs(rot.c - rot.s) < 1e-15


def reference_push_column(ls, col):
    """HessenbergLsState.push_column as it was before it rotated scalars,
    kept verbatim (but for self) as the oracle its bytes must match."""
    j = ls.ncols
    col = np.asarray(col, dtype=ls.R.dtype).copy()
    if col.shape != (j + 2,):
        raise ValueError(f"column {j} must have {j + 2} leading entries")
    for i, rot in enumerate(ls.rotations):
        col[i], col[i + 1] = rot.apply(col[i], col[i + 1])
    rot, r = make_givens(col[j], col[j + 1])
    col[j] = r
    col[j + 1] = 0.0
    gj, gj1 = rot.apply(ls.g[j], ls.g[j + 1])
    ls.g[j] = gj
    ls.g[j + 1] = gj1
    ls.rotations.append(rot)
    ls.R[: j + 2, j] = col
    ls.ncols = j + 1
    ls.rho = abs(float(gj1))
    return ls.rho


_SIGNED_ZERO = st.sampled_from([0.0, -0.0])


@st.composite
def hessenberg_columns(draw):
    """(dtype, beta, columns): up to 12 Hessenberg columns whose entries
    include zeros of both signs, some columns all zero."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    entry = st.one_of(_SIGNED_ZERO, st.floats(-1e6, 1e6, width=32))
    beta = draw(st.one_of(_SIGNED_ZERO, st.floats(1e-6, 1e6)))
    cols = []
    for j in range(draw(st.integers(1, 12))):
        values = _SIGNED_ZERO if draw(st.integers(0, 3)) == 0 else entry
        cols.append(draw(st.lists(values, min_size=j + 2, max_size=j + 2)))
    return dtype, beta, cols


class TestHessenbergLsq:
    @settings(max_examples=200, deadline=None)
    @given(hessenberg_columns())
    def test_same_bytes_as_array_rotations(self, case):
        dtype, beta, cols = case
        ls, ref = HessenbergLsState(len(cols), beta, dtype), \
            HessenbergLsState(len(cols), beta, dtype)
        for col in cols:
            rho = ls.push_column(np.array(col))
            rho_ref = reference_push_column(ref, np.array(col))
            assert np.float64(rho).tobytes() == np.float64(rho_ref).tobytes()
            assert ls.R.dtype == ref.R.dtype == dtype
            assert ls.R.tobytes() == ref.R.tobytes()
            assert ls.g.tobytes() == ref.g.tobytes()
            assert [(r.c, r.s) for r in ls.rotations] == [(r.c, r.s) for r in ref.rotations]

    def test_consistent_one_step(self):
        state = HessenbergLsState(1, beta=4.0)
        state.push_column(np.array([2.0, 0.0]))
        assert state.rho == 0.0
        assert np.allclose(state.solve(), [2.0])

    def test_hand_checked_inconsistent(self):
        # normal-equations oracle: H^T H y = H^T (beta e1) with H = [1; 1]
        # gives y = 1/2 and residual sqrt(2)/2
        state = HessenbergLsState(1, beta=1.0)
        state.push_column(np.array([1.0, 1.0]))
        assert abs(state.rho - math.sqrt(2.0) / 2.0) < 1e-15
        assert np.allclose(state.solve(), [0.5])

    def test_random_against_lstsq_oracle(self, rng):
        n = 6
        H = np.triu(rng.standard_normal((n + 1, n)), -1)
        state = HessenbergLsState(n, beta=1.0)
        for j in range(n):
            state.push_column(H[: j + 2, j])
        e1 = np.zeros(n + 1)
        e1[0] = 1.0
        y_star, *_ = np.linalg.lstsq(H, e1, rcond=None)
        rho_star = np.linalg.norm(e1 - H @ y_star)
        assert abs(state.rho - rho_star) <= 1e-13 * max(rho_star, 1.0)
        assert np.allclose(state.solve(), y_star, atol=1e-12)

    def test_rho_matches_qr_oracle_large(self, rng):
        # spec invariant: up to 30x29, 1e-12 relative against dense QR
        for n in (10, 20, 29):
            H = np.triu(rng.standard_normal((n + 1, n)), -1)
            beta = float(rng.random() + 0.5)
            state = HessenbergLsState(n, beta=beta)
            for j in range(n):
                state.push_column(H[: j + 2, j])
            e1 = np.zeros(n + 1)
            e1[0] = beta
            Q, R = np.linalg.qr(H, mode="complete")
            rho_star = abs((Q.T @ e1)[n])
            assert abs(state.rho - rho_star) <= 1e-12 * max(rho_star, beta)

    def test_rejects_wrong_position(self):
        # column j carries j + 2 leading entries: after one column, a length-2
        # column is the wrong position
        state = HessenbergLsState(2, beta=1.0)
        state.push_column(np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="column 1 must have 3"):
            state.push_column(np.array([1.0, 1.0]))


class TestBackSubstitute:
    def test_identity(self):
        assert np.array_equal(back_substitute(np.eye(2), np.array([1.0, 2.0])),
                              [1.0, 2.0])

    def test_hand_checked(self):
        R = np.array([[2.0, 1.0], [0.0, 4.0]])
        assert np.allclose(back_substitute(R, np.array([4.0, 8.0])), [1.0, 2.0])

    def test_against_solve_oracle(self, rng):
        R = np.triu(rng.standard_normal((10, 10))) + 5.0 * np.eye(10)
        g = rng.standard_normal(10)
        y = back_substitute(R, g)
        assert np.allclose(y, np.linalg.solve(R, g), rtol=1e-13)

    def test_singular_reports_index(self):
        R = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(SingularMatrixError) as err:
            back_substitute(R, np.array([1.0, 1.0]))
        assert err.value.index == 1


class TestMatrixMarket:
    def test_read_general(self, tmp_path):
        path = tmp_path / "d.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 2.0\n2 2 3.0\n")
        A = mm_read(path)
        assert np.array_equal(A.to_dense(), np.diag([2.0, 3.0]))

    def test_symmetric_expansion(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "2 2 3\n1 1 2.0\n2 1 1.0\n2 2 2.0\n")
        A = mm_read(path)
        assert A.nnz == 4
        assert np.array_equal(A.to_dense(), np.array([[2.0, 1.0], [1.0, 2.0]]))

    def test_round_trip_bit_identical(self, tmp_path, rng):
        dense = rng.standard_normal((20, 20))
        dense[rng.random((20, 20)) > 0.3] = 0.0
        A = CsrMatrix.from_dense(dense)
        path = tmp_path / "r.mtx"
        mm_write(path, A)
        B = mm_read(path)
        assert np.array_equal(A.values, B.values)
        assert np.array_equal(A.col_idx, B.col_idx)
        assert np.array_equal(A.row_ptr, B.row_ptr)

    def test_rejects_missing_banner(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("2 2 1\n1 1 1.0\n")
        with pytest.raises(MatrixMarketError, match="header"):
            mm_read(path)

    def test_rejects_duplicates(self, tmp_path):
        path = tmp_path / "dup.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 1.0\n1 1 2.0\n")
        with pytest.raises(MatrixMarketError, match="duplicate"):
            mm_read(path)

    def test_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "oor.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n3 1 1.0\n")
        with pytest.raises(MatrixMarketError, match="range"):
            mm_read(path)

    def test_rejects_complex_field(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n"
                        "1 1 1\n1 1 1.0 0.0\n")
        with pytest.raises(MatrixMarketError, match="field"):
            mm_read(path)

    def test_rejects_upper_entry_in_symmetric(self, tmp_path):
        path = tmp_path / "up.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "2 2 1\n1 2 1.0\n")
        with pytest.raises(MatrixMarketError, match="diagonal"):
            mm_read(path)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "cm.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "% a comment\n2 2 1\n1 1 1.0\n")
        assert mm_read(path).nnz == 1


class TestDenseEigSymmetric:
    def test_diagonal(self):
        vals = dense_eig_symmetric(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(vals, [1.0, 2.0, 3.0])

    def test_known_2x2(self):
        vals = dense_eig_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(vals, [-1.0, 1.0])

    def test_trace_identity(self, rng):
        S = rng.standard_normal((12, 12))
        S = S + S.T
        vals = dense_eig_symmetric(S)
        assert abs(vals.sum() - np.trace(S)) <= 1e-12 * np.linalg.norm(S)

    def test_eigenvector_residuals(self, rng):
        S = rng.standard_normal((10, 10))
        S = S + S.T
        vals, vecs = dense_eig_symmetric(S, vectors=True)
        for i in range(10):
            res = np.linalg.norm(S @ vecs[:, i] - vals[i] * vecs[:, i])
            assert res <= 1e-10 * np.linalg.norm(S)

    def test_matches_numpy_oracle(self, rng):
        S = rng.standard_normal((15, 15))
        S = S + S.T
        assert np.allclose(dense_eig_symmetric(S), np.linalg.eigvalsh(S),
                           atol=1e-10 * np.linalg.norm(S))

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            dense_eig_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_complex_hermitian_matches_numpy_oracle(self, rng):
        X = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        H = X + X.conj().T
        assert np.allclose(dense_eig_symmetric(H), np.linalg.eigvalsh(H),
                           atol=1e-12 * np.linalg.norm(H))

    def test_rejects_complex_non_hermitian(self):
        # complex symmetric but not Hermitian
        with pytest.raises(ValueError, match="symmetric"):
            dense_eig_symmetric(np.array([[1.0, 1j], [1j, 1.0]]))


class TestDenseEigGeneral:
    def test_diagonal(self):
        vals = dense_eig_general(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(sorted(vals.real), [1.0, 2.0, 3.0])
        assert np.allclose(vals.imag, 0.0)

    def test_rotation_matrix(self):
        vals = dense_eig_general(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert np.allclose(sorted(vals.imag), [-1.0, 1.0])
        assert np.allclose(vals.real, 0.0, atol=1e-14)

    def test_companion_roots(self):
        # companion matrix of z^2 - 3z + 2 has roots {1, 2}
        C = np.array([[0.0, -2.0], [1.0, 3.0]])
        vals = dense_eig_general(C)
        assert np.allclose(sorted(vals.real), [1.0, 2.0])
        assert np.allclose(vals.imag, 0.0, atol=1e-12)

    def test_eigenvector_residuals(self, rng):
        M = rng.standard_normal((12, 12))
        vals, vecs = dense_eig_general(M, vectors=True)
        res = np.linalg.norm(M @ vecs - vecs @ np.diag(vals))
        assert res <= 1e-8 * np.linalg.norm(M)


class TestHessenbergSweep:
    def test_rho_oracle_across_sizes(self):
        # the Givens estimate tracks the dense QR minimum for sizes up to 30x29
        rng = np.random.default_rng(7)
        for n in range(2, 30, 4):
            H = np.triu(rng.standard_normal((n + 1, n)), -1)
            beta = float(rng.random() + 0.5)
            state = HessenbergLsState(n, beta=beta)
            for j in range(n):
                state.push_column(H[: j + 2, j])
            e1 = np.zeros(n + 1)
            e1[0] = beta
            Q, _ = np.linalg.qr(H, mode="complete")
            rho_star = abs((Q.T @ e1)[n])
            assert abs(state.rho - rho_star) <= 1e-12 * max(rho_star, beta), n


class TestFromCoo:
    def test_shuffled_entries_match_from_dense(self, rng):
        A, dense = random_csr(rng, 12, 9)
        rows, cols = np.nonzero(dense)
        perm = rng.permutation(len(rows))
        B = CsrMatrix.from_coo(12, 9, rows[perm], cols[perm], dense[rows, cols][perm])
        for name in ("row_ptr", "col_idx", "values"):
            got, want = getattr(B, name), getattr(A, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_empty(self):
        A = CsrMatrix.from_coo(3, 2, [], [], np.array([]))
        assert A.nnz == 0 and A.row_ptr.tolist() == [0, 0, 0, 0]

    def test_repeated_position_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing in row 1"):
            CsrMatrix.from_coo(3, 3, [1, 0, 1], [2, 0, 2], [1.0, 2.0, 3.0])


class TestDiagonal:
    def test_unstored_entries_are_zero(self):
        dense = np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 3.0], [4.0, 0.0, -5.0]])
        d = CsrMatrix.from_dense(dense).diagonal()
        assert d.tolist() == [2.0, 0.0, -5.0] and d.dtype == np.float64

    def test_rectangular(self):
        A = CsrMatrix.from_dense(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        assert A.diagonal().tolist() == [1.0, 5.0]


GENERAL = "%%MatrixMarket matrix coordinate real general\n"
SYMMETRIC = "%%MatrixMarket matrix coordinate real symmetric\n"


class TestMatrixMarketInput:
    @pytest.mark.parametrize("line", [
        "1 1", "1 1 1.0 2.0",          # wrong field count
        "1 1 x", "2 2 1.0.0",          # a value that does not parse
        "1.5 1 1.0", "1.0 1 1.0",      # a non-integer index
        "1 1 1.0 % note",              # an inline comment
    ])
    def test_malformed_entry_line(self, tmp_path, line):
        path = tmp_path / "bad.mtx"
        path.write_text(GENERAL + f"2 2 2\n2 2 1.0\n{line}\n")
        with pytest.raises(MatrixMarketError, match=r"^malformed entry line: ") as err:
            mm_read(path)
        assert repr(line) in str(err.value)

    @pytest.mark.parametrize("size", ["-1 2 0", "2 -3 0", "2 2 -1"])
    def test_negative_size_is_malformed(self, tmp_path, size):
        path = tmp_path / "neg.mtx"
        path.write_text(GENERAL + f"{size}\n")
        with pytest.raises(MatrixMarketError,
                           match=rf"^malformed size line: '{size}'$"):
            mm_read(path)

    @pytest.mark.parametrize("body", ["5 2 1.0\n", "2 2 1.0\n", "2 9 1.0\n"])
    def test_symmetric_file_must_be_square(self, tmp_path, body):
        # the mirror of (5,2) would be column 5 of 3; the check comes first
        path = tmp_path / "rect.mtx"
        path.write_text(SYMMETRIC + "5 3 1\n" + body)
        with pytest.raises(MatrixMarketError,
                           match=r"^symmetric matrix must be square: '5 3 1'$"):
            mm_read(path)

    def test_empty_body_loads_without_warning(self, tmp_path):
        import warnings
        path = tmp_path / "empty.mtx"
        path.write_text(GENERAL + "3 2 0\n% nothing stored\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            A = mm_read(path)
        assert (A.shape, A.nnz, A.row_ptr.tolist()) == ((3, 2), 0, [0, 0, 0, 0])

    def test_duplicate_before_out_of_range_names_duplicate(self, tmp_path):
        path = tmp_path / "d.mtx"
        path.write_text(GENERAL + "3 3 3\n2 1 1.0\n2 1 2.0\n4 1 1.0\n")
        with pytest.raises(MatrixMarketError, match=r"^duplicate entry at \(2,1\)$"):
            mm_read(path)

    def test_out_of_range_before_duplicate_names_out_of_range(self, tmp_path):
        path = tmp_path / "o.mtx"
        path.write_text(GENERAL + "3 3 3\n4 1 1.0\n2 1 1.0\n2 1 2.0\n")
        with pytest.raises(MatrixMarketError, match=r"^entry \(4,1\) out of range$"):
            mm_read(path)

    def test_comments_and_blank_lines_between_entries(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text(GENERAL + "2 2 2\n% a\n\n2 1 -1.5\n  % b\n1 2 0.25\n")
        assert mm_read(path).to_dense().tolist() == [[0.0, 0.25], [-1.5, 0.0]]


def _assert_same_csr(A, B):
    for name in ("row_ptr", "col_idx", "values"):
        got, want = getattr(A, name), getattr(B, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


finite_or_inf = st.floats(allow_nan=False, width=64)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), m=st.integers(1, 12))
def test_mm_general_round_trip_bit_for_bit(tmp_path_factory, data, n, m):
    values = data.draw(st.lists(finite_or_inf, min_size=n * m, max_size=n * m))
    mask = data.draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))
    dense = np.where(np.reshape(mask, (n, m)), np.reshape(values, (n, m)), 0.0)
    A = CsrMatrix.from_dense(dense)
    path = tmp_path_factory.mktemp("mm") / "g.mtx"
    mm_write(path, A)
    _assert_same_csr(mm_read(path), A)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 12))
def test_mm_symmetric_round_trip_bit_for_bit(tmp_path_factory, data, n):
    values = data.draw(st.lists(finite_or_inf, min_size=n * n, max_size=n * n))
    mask = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    lower = np.tril(np.where(np.reshape(mask, (n, n)), np.reshape(values, (n, n)), 0.0))
    A = CsrMatrix.from_dense(lower + np.tril(lower, -1).T)
    rows, cols = np.nonzero(lower)
    path = tmp_path_factory.mktemp("mm") / "s.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    f"{n} {n} {len(rows)}\n"
                    + "".join(f"{i + 1} {j + 1} {float(lower[i, j])!r}\n"
                              for i, j in zip(rows, cols)))
    _assert_same_csr(mm_read(path), A)
    mm_write(path, A)
    _assert_same_csr(mm_read(path), A)


# ---------------------------------------------------------------------------
# from_coo and mm_read against their forms before the key sort and the path
# reader, kept here as references

def reference_from_coo(nrows, ncols, rows, cols, values):
    """CsrMatrix.from_coo as it was before the key sort: a two-key lexsort."""
    rows = np.asarray(rows, dtype=np.int64)
    order = np.lexsort((cols, rows))  # row-major, columns ascending in a row
    row_ptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=nrows))))
    return CsrMatrix(nrows, ncols, row_ptr, np.asarray(cols)[order], np.asarray(values)[order])


def reference_mm_read(path):
    """mm_read as it was before the path reader and the key sort: the body
    parsed from a StringIO, and two-key lexsorts here and in from_coo.

    Read a Matrix Market coordinate file into CSR form.

    Symmetric storage (lower triangle on disk) is expanded to full.
    Duplicate entries are rejected rather than summed so that corpus errors
    surface instead of silently changing the operator.  The first offending
    entry in file order is named (out of range, above the diagonal, repeated).
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise MatrixMarketError("missing %%MatrixMarket header")
        parts = header.strip().split()
        if len(parts) != 5:
            raise MatrixMarketError(f"malformed header: {header.strip()!r}")
        _, obj, fmt, fieldtype, symmetry = (p.lower() for p in parts)
        if obj != "matrix" or fmt != "coordinate":
            raise MatrixMarketError(f"unsupported object/format: {obj} {fmt}")
        if fieldtype != "real":
            raise MatrixMarketError(f"unsupported field type: {fieldtype}")
        if symmetry not in ("general", "symmetric"):
            raise MatrixMarketError(f"unsupported symmetry: {symmetry}")
        line = fh.readline()
        while line.strip().startswith("%") or line.strip() == "":
            line = fh.readline()
            if line == "":
                raise MatrixMarketError("missing size line")
        try:
            nrows, ncols, nnz = (int(t) for t in line.split())
        except ValueError as exc:
            raise MatrixMarketError(f"malformed size line: {line.strip()!r}") from exc
        if min(nrows, ncols, nnz) < 0:
            raise MatrixMarketError(f"malformed size line: {line.strip()!r}")
        # (added since: a symmetric file must declare a square matrix)
        if symmetry == "symmetric" and nrows != ncols:
            raise MatrixMarketError(f"symmetric matrix must be square: {line.strip()!r}")
        body = fh.read()
    if "%" in body:
        # whole comment lines only: an inline % leaves too many fields
        body = linalg._COMMENT_LINE.sub("", body)
    entries = np.empty(0, dtype=linalg._ENTRY_DTYPE)
    if body.strip():
        try:
            entries = np.loadtxt(io.StringIO(body), dtype=linalg._ENTRY_DTYPE, comments=None,
                                 ndmin=1)
        except ValueError as exc:
            line = linalg._BAD_ENTRY_LINE.search(body)
            raise MatrixMarketError("malformed entry line: "
                                    + (repr(line.group().strip()) if line else str(exc))) from exc
    i, j, v = entries["i"] - 1, entries["j"] - 1, entries["v"]
    out_of_range = (i < 0) | (i >= nrows) | (j < 0) | (j >= ncols)
    upper = (j > i) & (symmetry == "symmetric")
    order = np.lexsort((j, i))  # stable: the first of equal positions is the earliest
    repeated = np.zeros(len(i), dtype=bool)
    repeated[order[1:]] = (np.diff(i[order]) == 0) & (np.diff(j[order]) == 0)
    bad = out_of_range | upper | repeated
    if bad.any():
        k = int(np.argmax(bad))
        where = f"({i[k] + 1},{j[k] + 1})"
        if out_of_range[k]:
            raise MatrixMarketError(f"entry {where} out of range")
        if upper[k]:
            raise MatrixMarketError(f"entry {where} above the diagonal in a symmetric file")
        raise MatrixMarketError(f"duplicate entry at {where}")
    if len(v) != nnz:
        raise MatrixMarketError(f"expected {nnz} entries, found {len(v)}")
    if symmetry == "symmetric":
        off = i != j
        i, j, v = (np.concatenate((i, j[off])), np.concatenate((j, i[off])),
                   np.concatenate((v, v[off])))
    return reference_from_coo(nrows, ncols, i, j, v)


def _csr_outcome(call):
    """The shape and the CSR arrays' dtypes and bytes, or the exception's type
    and message; a warning counts as an exception."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            A = call()
        except Exception as exc:
            return type(exc), str(exc)
    return A.shape, [(getattr(A, name).dtype.str, getattr(A, name).tobytes())
                     for name in ("row_ptr", "col_idx", "values")]


@st.composite
def coo_entries(draw):
    """(nrows, ncols, rows, cols, values): a rectangular shape with empty
    rows, positions in any order or row-major, at times repeated or with an
    index out of range, and indices as int32, int64 or a list."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    grid = [(i, j) for i in range(nrows) for j in range(ncols)]
    positions = draw(st.lists(st.sampled_from(grid), max_size=25,
                              unique=draw(st.booleans()))) if grid else []
    fault = draw(st.sampled_from([None, None, None, "row", "col"]))
    if fault and positions:
        k = draw(st.integers(0, len(positions) - 1))
        bad = draw(st.sampled_from([-1, nrows if fault == "row" else ncols]))
        i, j = positions[k]
        positions[k] = (bad, j) if fault == "row" else (i, bad)
    if draw(st.booleans()):
        positions.sort()
    rows, cols = [p[0] for p in positions], [p[1] for p in positions]
    kind = draw(st.sampled_from([np.int32, np.int64, list]))
    if kind is not list:
        rows, cols = np.array(rows, dtype=kind), np.array(cols, dtype=kind)
    values = np.array(draw(st.lists(st.floats(width=64), min_size=len(positions),
                                    max_size=len(positions))), dtype=np.float64)
    return nrows, ncols, rows, cols, values


FILLER_LINES = ["% a comment", "%", "", "   ", "\t", "  % indented", " \x0c "]
MALFORMED_LINES = ["1 1", "1 1 1.0 2.0", "1 1 x", "1 1 1.0 % note", "1.5 1 1.0", "# 1 1",
                   "1 1 1.0 # note"]
RARELY = st.sampled_from([False] * 9 + [True])  # hypothesis favours a low integer


@st.composite
def mm_files(draw):
    """The bytes of a Matrix Market file, general or symmetric, its entries in
    any order.  At times it holds comment and blank lines, a malformed line,
    a repeated position, an index out of range (one past the last column
    shares its key with the next row's first entry), an entry above the
    diagonal, a size line that declares one entry more or fewer, CRLF line
    ends or a non-ASCII byte."""
    symmetric = draw(st.booleans())
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    grid = [(i, j) for i in range(1, nrows + 1) for j in range(1, ncols + 1)
            if j <= i or not symmetric]
    positions = draw(st.lists(st.sampled_from(grid), unique=True, max_size=15)) if grid else []
    fault = draw(st.sampled_from([None, None, None, None, "repeat", "row", "col", "upper"]))
    if fault == "repeat" and positions:
        positions.insert(draw(st.integers(0, len(positions))), draw(st.sampled_from(positions)))
    elif fault in ("row", "col", "upper"):
        i, j = draw(st.sampled_from(grid)) if grid else (1, 1)
        bad = draw(st.sampled_from([0, -1, (nrows if fault == "row" else ncols) + 1]))
        wrong = {"row": (bad, j), "col": (i, bad), "upper": (1, 2)}[fault]
        positions.insert(draw(st.integers(0, len(positions))), wrong)
    sep = draw(st.sampled_from([" ", "\t", "   "]))
    values = draw(st.lists(st.floats(width=64), min_size=len(positions),
                           max_size=len(positions)))
    lines = [f"{i}{sep}{j}{sep}{v!r}" for (i, j), v in zip(positions, values)]
    nnz = max(len(lines) + draw(st.sampled_from([0, 0, 0, -1, 1])), 0)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 3]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(FILLER_LINES)))
    if draw(RARELY):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(MALFORMED_LINES)))
    head = ["%%MatrixMarket matrix coordinate real " + ("symmetric" if symmetric else "general"),
            *draw(st.sampled_from([[], [], ["% a comment"], ["", "%"]])),
            f"{nrows} {ncols} {nnz}"]
    text = "\n".join(head + lines) + draw(st.sampled_from(["\n", ""]))
    data = text.replace("\n", draw(st.sampled_from(["\n", "\r\n"]))).encode("ascii")
    if draw(RARELY):
        k = draw(st.integers(0, len(data)))
        data = data[:k] + b"\xe9" + data[k:]
    return data


class TestFromCooMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(coo_entries())
    def test_same_arrays_or_the_same_error(self, case):
        assert _csr_outcome(lambda: CsrMatrix.from_coo(*case)) == \
            _csr_outcome(lambda: reference_from_coo(*case))

    @pytest.mark.parametrize("rows, cols", [([0, 1], [0]), ([0], [0, 1]), ([0, 1], [1, 0, 1])])
    def test_rows_and_cols_of_another_length_are_a_value_error(self, rows, cols):
        values = np.ones(max(len(rows), len(cols)))
        with pytest.raises(ValueError, match="all keys need to be the same shape"):
            reference_from_coo(2, 2, rows, cols, values)
        with pytest.raises(ValueError, match=r"^rows and cols differ in shape: "):
            CsrMatrix.from_coo(2, 2, rows, cols, values)

    def test_stencil_runs_merge_to_the_reference(self):
        A = gen_convdiff(9, 7, 10.0)
        rows = np.repeat(np.arange(A.nrows), np.diff(A.row_ptr))
        # entries grouped by diagonal, each group row-major, as gen_convdiff makes them
        by_diagonal = np.argsort(A.col_idx - rows, kind="stable")
        case = (A.nrows, A.ncols, rows[by_diagonal], A.col_idx[by_diagonal],
                A.values[by_diagonal])
        assert _csr_outcome(lambda: CsrMatrix.from_coo(*case)) == \
            _csr_outcome(lambda: reference_from_coo(*case)) == _csr_outcome(lambda: A)


class TestRowMajorKeyRange:
    """Shapes with nrows * ncols >= 2**63, whose row-major key would overflow
    int64, are sorted by lexsort; past that no shape reaches the key."""

    NCOLS = 2**62  # four rows: the key of row 2 would wrap

    def test_from_coo_of_a_shape_past_the_key_range(self):
        rows = [3, 2, 3, 0, 2, 1]
        cols = [self.NCOLS - 1, 5, 0, self.NCOLS - 1, self.NCOLS - 2, 7]
        values = np.arange(1.0, 7.0)
        A = CsrMatrix.from_coo(4, self.NCOLS, rows, cols, values)
        assert A.row_ptr.tolist() == [0, 1, 2, 4, 6]
        assert A.col_idx.tolist() == [self.NCOLS - 1, 7, 5, self.NCOLS - 2, 0, self.NCOLS - 1]
        assert A.values.tolist() == [4.0, 6.0, 2.0, 5.0, 3.0, 1.0]
        assert _csr_outcome(lambda: A) == \
            _csr_outcome(lambda: reference_from_coo(4, self.NCOLS, rows, cols, values))

    @pytest.mark.parametrize("shape", [(2, 2**62), (1, 2**63), (2**31, 2**32), (1, 2**63 - 1)])
    def test_the_boundary_shapes_sort_like_lexsort(self, shape):
        nrows, ncols = shape
        rows = np.array([0, nrows - 1, 0, nrows - 1], dtype=np.int64)
        cols = np.array([ncols - 1, 0, 0, ncols - 1], dtype=np.int64)
        assert linalg._row_major(nrows, ncols, rows, cols).tolist() == \
            np.lexsort((cols, rows)).tolist()

    def test_mm_read_of_a_shape_past_the_key_range(self, tmp_path):
        path = tmp_path / "wide.mtx"
        path.write_text(GENERAL + f"4 {self.NCOLS} 4\n4 {self.NCOLS} 1.0\n"
                        f"3 1 2.0\n2 5 4.0\n3 {self.NCOLS} 3.0\n")
        A = mm_read(path)
        assert A.row_ptr.tolist() == [0, 0, 1, 3, 4]
        assert A.col_idx.tolist() == [4, 0, self.NCOLS - 1, self.NCOLS - 1]
        assert A.values.tolist() == [4.0, 2.0, 3.0, 1.0]
        assert _csr_outcome(lambda: A) == _csr_outcome(lambda: reference_mm_read(path))
        path.write_text(GENERAL + f"4 {self.NCOLS} 3\n4 {self.NCOLS} 1.0\n"
                        f"3 1 2.0\n4 {self.NCOLS} 3.0\n")
        with pytest.raises(MatrixMarketError, match=rf"^duplicate entry at \(4,{self.NCOLS}\)$"):
            mm_read(path)
        # with five rows, the keys of (1,1) and (5,1) would wrap to the same
        path.write_text(GENERAL + f"5 {self.NCOLS} 2\n5 1 2.0\n1 1 1.0\n")
        A = mm_read(path)
        assert A.row_ptr.tolist() == [0, 1, 1, 1, 1, 2] and A.values.tolist() == [1.0, 2.0]
        path.write_text(GENERAL + f"5 {self.NCOLS} 3\n1 1 1.0\n5 1 2.0\n1 1 3.0\n")
        with pytest.raises(MatrixMarketError, match=r"^duplicate entry at \(1,1\)$"):
            mm_read(path)


class TestMatrixMarketMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(mm_files())
    def test_same_arrays_or_the_same_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("mm") / "a.mtx"
        path.write_bytes(data)
        assert _csr_outcome(lambda: mm_read(path)) == \
            _csr_outcome(lambda: reference_mm_read(path))

    @pytest.mark.parametrize("entries", [
        ["2 1 1.0", "1 4 2.0"], ["1 4 2.0", "2 1 1.0"],  # (1,4) shares (2,1)'s key
        ["1 4 2.0", "2 1 1.0", "2 1 3.0"], ["2 1 1.0", "1 4 2.0", "2 1 3.0"],
        ["1 2 1.0", "4611686018427387905 2 2.0"],  # its key wraps round to (1,2)'s
        ["4611686018427387905 2 2.0", "1 2 1.0"],
    ])
    def test_a_key_shared_with_an_out_of_range_entry_names_it(self, tmp_path, entries):
        path = tmp_path / "k.mtx"
        path.write_text(GENERAL + f"3 3 {len(entries)}\n" + "".join(e + "\n" for e in entries))
        wrong = next(e for e in entries if e.startswith(("1 4", "46")))
        row, col, _ = wrong.split()
        with pytest.raises(MatrixMarketError, match=rf"^entry \({row},{col}\) out of range$"):
            mm_read(path)
        assert _csr_outcome(lambda: mm_read(path)) == \
            _csr_outcome(lambda: reference_mm_read(path))

    def test_a_duplicate_before_a_colliding_out_of_range_entry_is_named(self, tmp_path):
        path = tmp_path / "d.mtx"
        path.write_text(GENERAL + "3 3 3\n2 1 1.0\n2 1 3.0\n1 4 2.0\n")
        with pytest.raises(MatrixMarketError, match=r"^duplicate entry at \(2,1\)$"):
            mm_read(path)


class TestMatrixMarketPathReader:
    """mm_read's first read, np.loadtxt on the path, and the cases it refuses."""

    def test_a_written_file_is_read_from_its_path(self, tmp_path):
        A = gen_convdiff(6, 5, 10.0)
        path = tmp_path / "a.mtx"
        mm_write(path, A)
        entries = linalg._loadtxt_path(path, 2, A.nnz)
        assert entries is not None
        assert entries["j"].tolist() == (A.col_idx + 1).tolist()
        assert entries["v"].tobytes() == A.values.tobytes()
        _assert_same_csr(mm_read(path), A)

    def test_the_lines_before_the_body_are_skipped(self, tmp_path, monkeypatch):
        read = []
        monkeypatch.setattr(linalg, "_loadtxt_path",
                            lambda *args: read.append(self.path_reader(*args)) or read[-1])
        path = tmp_path / "h.mtx"
        path.write_text(GENERAL + "% a comment\n\n  \n2 3 2\n2 3 -1.5\n1 1 0.25\n")
        assert mm_read(path).to_dense().tolist() == [[0.25, 0.0, 0.0], [0.0, 0.0, -1.5]]
        assert len(read) == 1 and read[0]["v"].tolist() == [-1.5, 0.25]

    path_reader = staticmethod(linalg._loadtxt_path)

    @pytest.mark.parametrize("body, nnz", [
        ("1 1 1.0\n% a comment\n2 2 2.0\n", 2),
        ("1 1 1.0\n2 2 2.0 % note\n", 2),
        ("1 1 1.0\n# note\n2 2 2.0\n", 2),
        ("1 1 1.0\n2 2\n", 2),
        ("1 1 1.0\n2 2 2.0\n", 1),
        ("1 1 1.0\n", 2),
        ("", 1),
        ("\n  \n", 1),
    ])
    def test_the_path_reader_refuses(self, tmp_path, body, nnz):
        path = tmp_path / "r.mtx"
        path.write_text(GENERAL + f"2 2 {nnz}\n" + body)
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            assert linalg._loadtxt_path(path, 2, nnz) is None
        assert not shown
        assert _csr_outcome(lambda: mm_read(path)) == \
            _csr_outcome(lambda: reference_mm_read(path))

    @pytest.mark.parametrize("body", ["", "\n\n", "% none\n"])
    def test_declared_entries_missing_are_named_without_a_warning(self, tmp_path, body):
        path = tmp_path / "m.mtx"
        path.write_text(GENERAL + "3 3 2\n" + body)
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            with pytest.raises(MatrixMarketError, match=r"^expected 2 entries, found 0$"):
                mm_read(path)
        assert not shown

    @pytest.mark.parametrize("name", ["a.mtx.gz", "a.bz2", "a.xz", "a.lzma", b"a.mtx"])
    def test_a_compressed_suffix_or_a_bytes_name_is_read_as_text(self, tmp_path, name):
        A = gen_convdiff(4, 4, 1.0)
        path = os.path.join(os.fsencode(tmp_path) if isinstance(name, bytes) else tmp_path, name)
        mm_write(path, A)
        _assert_same_csr(mm_read(path), A)

    def test_a_non_ascii_byte_past_the_first_buffer(self, tmp_path):
        # the header's readline decodes the first 8 KiB; the byte lies beyond
        lines = "".join(f"{k} {k} {k}.5\n" for k in range(1, 2001))
        path = tmp_path / "u.mtx"
        path.write_bytes((GENERAL + "2000 2000 2000\n" + lines).encode("ascii")[:-3]
                         + b"\xe9\n")
        with pytest.raises(UnicodeDecodeError) as got:
            mm_read(path)
        with pytest.raises(UnicodeDecodeError) as want:
            reference_mm_read(path)
        assert str(got.value) == str(want.value)
