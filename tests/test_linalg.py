import numpy as np
import pytest

from agsdmm import (
    LUFactorization,
    SingularMatrixError,
    all_square_submatrices_invertible,
    matmul_mod,
    rank,
    select_information_columns,
)


def test_rank_examples():
    assert rank(np.eye(3, dtype=int), 7) == 3
    assert rank(np.zeros((3, 4), dtype=int), 7) == 0
    assert rank([[1, 1, 1], [1, 2, 4]], 7) == 2


def test_rank_handles_unreduced_entries():
    assert rank([[8, 15], [1, 1]], 7) == 1  # both rows reduce to (1, 1)


def test_rank_equals_rank_of_transpose():
    rng = np.random.default_rng(42)
    for _ in range(25):
        rows, cols = rng.integers(1, 7, size=2)
        m = rng.integers(0, 13, size=(rows, cols))
        assert rank(m, 13) == rank(m.T, 13)


def _random_invertible(rng, q, n):
    while True:
        v = rng.integers(0, q, size=(n, n))
        if rank(v, q) == n:
            return v


def test_inverse_rows_identity():
    lu = LUFactorization(np.eye(3, dtype=int), 11)
    assert np.array_equal(lu.inverse_rows([2, 0]), np.eye(3, dtype=int)[[2, 0]])
    assert lu.inverse_rows([]).shape == (0, 3)


def test_inverse_rows_scalar_example():
    assert LUFactorization([[3]], 7).inverse_rows([0]).item() == 5  # 3 * 5 = 15 = 1 mod 7


def test_inverse_rows_roundtrip_random():
    # inverse_rows(rows) @ V is the identity restricted to rows, in any row order
    q = 13
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        v = _random_invertible(rng, q, n)
        rows = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        got = LUFactorization(v, q).inverse_rows(rows)
        assert np.array_equal(got @ v % q, np.eye(n, dtype=np.int64)[rows])


def test_lu_reusable_across_right_hand_sides():
    q = 11
    v = np.array([[0, 2, 3], [1, 1, 4], [5, 6, 0]])  # zero corner forces a row swap
    lu = LUFactorization(v, q)
    full = lu.inverse_rows(range(3))
    assert np.array_equal(full @ v % q, np.eye(3, dtype=np.int64))
    for rows in ([2], [1, 0], [2, 0, 1]):
        assert np.array_equal(lu.inverse_rows(rows), full[rows])


def test_singular_matrix_error_names_rank():
    with pytest.raises(SingularMatrixError) as err:
        LUFactorization([[1, 2], [2, 4]], 5)
    assert err.value.rank == 1
    assert "rank 1" in str(err.value)


def test_inverse_rows_rejects_bad_input():
    lu = LUFactorization(np.eye(2, dtype=int), 7)
    with pytest.raises(ValueError):
        lu.inverse_rows([2])
    with pytest.raises(ValueError):
        lu.inverse_rows([-1])
    with pytest.raises(ValueError):
        LUFactorization(np.zeros((2, 3), dtype=int), 7)


def test_select_information_columns_examples():
    assert select_information_columns(np.eye(4, dtype=int), 7) == [0, 1, 2, 3]
    assert select_information_columns([[0, 5]], 7) == [1]
    vandermonde = [[pow(a, j, 11) for a in (1, 2, 3, 4, 5)] for j in range(3)]
    assert select_information_columns(vandermonde, 11) == [0, 1, 2]


def test_select_information_columns_skips_dependent_columns():
    # column 1 = 2 * column 0, so the greedy pick must jump to column 2
    m = [[1, 2, 0], [2, 4, 1]]
    cols = select_information_columns(m, 5)
    assert cols == [0, 2]
    sub = np.array(m)[:, cols]
    assert rank(sub, 5) == 2


def test_select_information_columns_output_invertible_random():
    rng = np.random.default_rng(11)
    q = 7
    for _ in range(25):
        k = int(rng.integers(1, 5))
        m = rng.integers(0, q, size=(k, k + int(rng.integers(1, 5))))
        if rank(m, q) < k:
            with pytest.raises(ValueError):
                select_information_columns(m, q)
            continue
        cols = select_information_columns(m, q)
        assert len(cols) == k and cols == sorted(cols)
        assert rank(m[:, cols], q) == k


def test_all_square_submatrices_invertible_examples():
    vandermonde = [[pow(a, j, 13) for a in (1, 2, 3, 5, 8)] for j in range(2)]
    assert all_square_submatrices_invertible(vandermonde, 13)
    assert not all_square_submatrices_invertible([[0, 1, 2]], 7)  # zero column, X = 1
    repeated = [[1, 1, 2], [3, 3, 4]]  # two equal columns, X = 2
    assert not all_square_submatrices_invertible(repeated, 5)


def test_all_square_submatrices_cap():
    wide = np.ones((2, 50), dtype=int)
    with pytest.raises(ValueError):
        all_square_submatrices_invertible(wide, 7, cap=100)
    with pytest.raises(ValueError):
        all_square_submatrices_invertible(np.ones((3, 2), dtype=int), 7)


def test_matmul_mod_small():
    a = np.array([[1, 2], [3, 4]])
    b = np.array([[5], [6]])
    assert np.array_equal(matmul_mod(a, b, 7), np.array([[3], [4]]))  # 17, 39 mod 7


def test_matmul_mod_bigint_fallback():
    q = 2147483647  # int64 would overflow on a length-3 inner product of squares
    a = np.full((2, 3), q - 1, dtype=np.int64)
    b = np.full((3, 2), q - 1, dtype=np.int64)
    got = matmul_mod(a, b, q)
    expect = 3 * (q - 1) * (q - 1) % q
    assert np.all(got == expect)


@pytest.mark.parametrize("limit,q", [
    (2**53, 2999693), (2**53, 2999707),      # largest prime below, smallest above
    (2**63, 95990387), (2**63, 95990429),
])
@pytest.mark.parametrize("offset", [1, 2])
def test_matmul_mod_tier_boundaries(limit, q, offset):
    # all entries q - offset make every dot product inner * (q - offset)^2, on
    # the same side of the limit for both offsets; the odd sums of offset 2
    # are the ones float64 would round past 2^53
    inner = 1001
    assert abs(inner * (q - offset) ** 2 / limit - 1) < 1e-5
    a = np.full((2, inner), q - offset, dtype=np.int64)
    b = np.full((inner, 3), q - offset, dtype=np.int64)
    got = matmul_mod(a, b, q)
    assert got.dtype == np.int64
    assert np.array_equal(got, (a.astype(object) @ b.astype(object)) % q)


def test_matmul_mod_reduces_negative_and_unreduced_entries():
    rng = np.random.default_rng(5)
    a = rng.integers(-1000, 1000, size=(4, 6))
    b = rng.integers(-1000, 1000, size=(6, 5))
    assert np.array_equal(matmul_mod(a, b, 97), a @ b % 97)
