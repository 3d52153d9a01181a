import math

import numpy as np
import pytest

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

    def test_round_trip_dense(self, rng):
        _, dense = random_csr(rng, 9)
        assert np.array_equal(CsrMatrix.from_dense(dense).to_dense(), dense)


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


class TestHessenbergLsq:
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
