import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agsdmm import (
    LUFactorization,
    SingularMatrixError,
    all_square_submatrices_invertible,
    linalg,
    matmul_mod,
    rank,
)
from agsdmm.linalg import PANEL_WIDTH, echelon

# one prime per tier of the products mod q inside the elimination and the
# triangular solves, whose inner lengths run from 1 to PANEL_WIDTH and beyond:
# float64 BLAS, int64 (one term already exceeds 2^53), and Python integers
# (two terms exceed 2^63), which includes the largest supported field
TIER_PRIMES = (13, 1009, 134217689, 2**31 - 1)


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


def _exact(m):
    return np.asarray(m).astype(object)


def _reference_echelon(a, q):
    """Unblocked greedy elimination in Python integers: cols, perm and the compact k x r LU."""
    a = _exact(a) % q
    k, n = a.shape
    cols, perm = [], list(range(k))
    for c in range(n):
        r = len(cols)
        if r == k:
            break
        below = [i for i in range(r, k) if a[i, c]]
        if not below:
            continue
        p = below[0]
        a[[r, p]] = a[[p, r]]
        perm[r], perm[p] = perm[p], perm[r]
        factors = a[r + 1:, c] * pow(int(a[r, c]), -1, q) % q
        a[r + 1:, c + 1:] = (a[r + 1:, c + 1:] - np.outer(factors, a[r, c + 1:])) % q
        a[r + 1:, c] = factors  # multipliers stored where the zeros would be
        cols.append(c)
    return cols, perm, a[:, cols]


@st.composite
def _rank_deficient(draw):
    """(A, q, width): a k x n matrix of bounded rank with dependent and zero
    columns mixed in, its prime, and a panel width; n sits one below, at or
    one above a panel boundary."""
    width = draw(st.sampled_from([3, PANEL_WIDTH]))
    n = draw(st.sampled_from([w + d for w in (width, 2 * width) for d in (-1, 0, 1)]))
    k = draw(st.integers(1, 2 * width + 2))
    r = draw(st.integers(0, min(k, n)))
    q = draw(st.sampled_from(TIER_PRIMES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = _exact(rng.integers(0, q, size=(k, r))) @ _exact(rng.integers(0, q, size=(r, n))) % q
    for j in range(1, n):
        kind = rng.integers(0, 4)
        if kind == 0:
            a[:, j] = 0
        elif kind == 1:
            a[:, j] = a[:, int(rng.integers(0, j))] * int(rng.integers(1, q)) % q
    return a.astype(np.int64), q, width


def test_inverse_columns_identity():
    lu = LUFactorization(np.eye(3, dtype=int), 11)
    assert np.array_equal(lu.inverse_columns([2, 0]), np.eye(3, dtype=int)[:, [2, 0]])
    assert lu.inverse_columns([]).shape == (3, 0)


def test_inverse_columns_scalar_example():
    assert LUFactorization([[3]], 7).inverse_columns([0]).item() == 5  # 3 * 5 = 15 = 1 mod 7


@pytest.mark.parametrize("q", TIER_PRIMES)
def test_inverse_columns_roundtrip_random(q):
    # V @ inverse_columns(cols) is the identity restricted to cols, in any
    # column order; sizes reach past two blocks of the triangular solves
    rng = np.random.default_rng(7)
    sizes = [int(s) for s in rng.integers(1, 7, size=20)]
    sizes += [PANEL_WIDTH - 1, PANEL_WIDTH, PANEL_WIDTH + 1, 2 * PANEL_WIDTH + 1]
    for n in sizes:
        v = _random_invertible(rng, q, n)
        cols = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        got = LUFactorization(v, q).inverse_columns(cols)
        assert np.array_equal(_exact(v) @ _exact(got) % q, np.eye(n, dtype=np.int64)[:, cols])


def test_lu_reusable_across_right_hand_sides():
    q = 11
    v = np.array([[0, 2, 3], [1, 1, 4], [5, 6, 0]])  # zero corner forces a row swap
    lu = LUFactorization(v, q)
    full = lu.inverse_columns(range(3))
    assert np.array_equal(v @ full % q, np.eye(3, dtype=np.int64))
    for cols in ([2], [1, 0], [2, 0, 1]):
        assert np.array_equal(lu.inverse_columns(cols), full[:, cols])


def test_lu_of_a_wide_matrix_factors_its_information_set():
    q = 5
    m = np.array([[1, 2, 0, 3], [2, 4, 1, 1]])  # column 1 = 2 * column 0
    lu = LUFactorization(m, q)
    assert lu.columns == [0, 2]
    inv = lu.inverse_columns(range(2))
    assert np.array_equal(m[:, lu.columns] @ inv % q, np.eye(2, dtype=np.int64))


def test_singular_matrix_error_names_rank():
    with pytest.raises(SingularMatrixError) as err:
        LUFactorization([[1, 2], [2, 4]], 5)
    assert err.value.rank == 1
    assert "rank 1" in str(err.value)


def test_inverse_columns_rejects_bad_input():
    lu = LUFactorization(np.eye(2, dtype=int), 7)
    with pytest.raises(ValueError):
        lu.inverse_columns([2])
    with pytest.raises(ValueError):
        lu.inverse_columns([-1])
    with pytest.raises(ValueError):
        LUFactorization(np.zeros((2, 3), dtype=int), 7)
    with pytest.raises(ValueError):
        LUFactorization(np.ones((3, 2), dtype=int), 7)


def test_select_information_columns_examples():
    assert LUFactorization(np.eye(4, dtype=int), 7).columns == [0, 1, 2, 3]
    assert LUFactorization([[0, 5]], 7).columns == [1]
    vandermonde = [[pow(a, j, 11) for a in (1, 2, 3, 4, 5)] for j in range(3)]
    assert LUFactorization(vandermonde, 11).columns == [0, 1, 2]


def test_select_information_columns_skips_dependent_columns():
    # column 1 = 2 * column 0, so the greedy pick must jump to column 2
    m = [[1, 2, 0], [2, 4, 1]]
    cols = LUFactorization(m, 5).columns
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
                LUFactorization(m, q)
            continue
        cols = LUFactorization(m, q).columns
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


def test_matmul_mod_reduces_only_out_of_range_operands():
    q = 97
    a = np.array([[0, 96], [5, 7]], dtype=np.int64)
    b = a.copy()
    assert np.array_equal(matmul_mod(a, b, q), a @ b % q)
    assert np.array_equal(a, b)  # a reduced operand is used as is, never written
    for edge in (q, -1, -q):  # one entry just outside [0, q) forces the remainder
        c = a.copy()
        c[1, 1] = edge
        assert np.array_equal(matmul_mod(c, a, q), c @ a % q)
        assert np.array_equal(matmul_mod(a, c, q), a @ c % q)
    assert matmul_mod(np.zeros((0, 2), dtype=np.int64), a, q).shape == (0, 2)


def test_matmul_mod_reduces_entries_equal_to_q():
    # 53 (q-1)^2 < 2^53 <= 53 q^2 and the sum is odd: were entries equal to q
    # left unreduced, the float64 tier would round a sum past 2^53
    inner, q = 53, 13036379
    a = np.full((1, inner), q, dtype=np.int64)
    assert np.array_equal(matmul_mod(a, a.T, q), [[0]])


def test_matmul_mod_reduces_negative_and_unreduced_entries():
    rng = np.random.default_rng(5)
    a = rng.integers(-1000, 1000, size=(4, 6))
    b = rng.integers(-1000, 1000, size=(6, 5))
    assert np.array_equal(matmul_mod(a, b, 97), a @ b % 97)


@pytest.mark.parametrize("q", TIER_PRIMES)
@pytest.mark.parametrize("rows,inner,cols", [
    (4, 3, 10), (4, 3, 12), (1, 40, 7), (0, 3, 10), (4, 0, 10), (4, 3, 0), (0, 0, 0),
])
@pytest.mark.parametrize("chunk_bytes", [None, 96])
def test_matmul_reduced_in_column_chunks(q, rows, inner, cols, chunk_bytes, monkeypatch):
    # at 96 bytes a float64 product takes 96 // (8 max(rows, inner)) columns
    # per chunk: 3 of 10 leaves a ragged chunk of 1, 3 of 12 none, and a
    # 40-long inner product one column at a time; zero-size operands must
    # neither divide by zero nor change shape
    if chunk_bytes is not None:
        monkeypatch.setattr(linalg, "CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(rows * 100 + cols)
    a = rng.integers(0, q, size=(rows, inner))
    b = rng.integers(0, q, size=(inner, cols))
    got = linalg._matmul_reduced(a, b, q)
    assert got.dtype == np.int64 and got.shape == (rows, cols)
    assert np.array_equal(got, (a.astype(object) @ b.astype(object)) % q)


def test_matmul_reduced_never_copies_a_wide_operand_to_float64():
    # numpy reports its buffers to tracemalloc: past the int64 result, a wide
    # float64-tier product holds one column chunk of b and one of the result
    # in float64, not float64 copies of the whole of b (6.4 MB) and of the
    # result (12.8 MB)
    rng = np.random.default_rng(0)
    a = rng.integers(0, 97, size=(8, 4))
    b = rng.integers(0, 97, size=(4, 200_000))
    tracemalloc.start()
    try:
        out = linalg._matmul_reduced(a, b, 97)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 2 * linalg.CHUNK_BYTES
    assert np.array_equal(out, a @ b % 97)


def _assert_matches_reference(a, q):
    cols, perm, lu = echelon(a, q)
    assert rank(a, q) == len(cols)
    ref_cols, ref_perm, ref_lu = _reference_echelon(a, q)
    assert cols == ref_cols
    assert perm.tolist() == ref_perm
    assert np.array_equal(lu, ref_lu.astype(np.int64))
    # P A[:, cols] = L U with L unit lower trapezoidal (k x r) and U upper (r x r)
    r = len(cols)
    low = np.tril(_exact(lu), -1) + np.eye(*lu.shape, dtype=np.int64)
    up = np.triu(_exact(lu[:r]))
    assert np.array_equal(_exact(a)[perm][:, cols] % q, low @ up % q)


@settings(max_examples=60, deadline=None)
@given(case=_rank_deficient())
def test_echelon_matches_unblocked_reference(case):
    a, q, width = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "PANEL_WIDTH", width)
        _assert_matches_reference(a, q)


@pytest.mark.parametrize("q", TIER_PRIMES)
@pytest.mark.parametrize("width", [3, PANEL_WIDTH])
def test_echelon_trailing_update_in_every_tier(q, width, monkeypatch):
    # k = width + 2 rows leave rows below a full panel of pivots, so a panel's
    # product has inner length width: float64 for the two small primes, int64
    # for 134217689 and Python integers for 2^31 - 1
    inner = []
    product = linalg._matmul_reduced
    monkeypatch.setattr(linalg, "PANEL_WIDTH", width)
    monkeypatch.setattr(linalg, "_matmul_reduced",
                        lambda a, b, q: inner.append(a.shape[-1]) or product(a, b, q))
    rng = np.random.default_rng(width)
    for n in (width - 1, width, width + 1, 2 * width + 1):
        a = rng.integers(0, q, size=(width + 2, n))
        _assert_matches_reference(a, q)
        a[:, 1] = a[:, 0] * 3 % q  # a skipped column inside the first panel
        _assert_matches_reference(a, q)
    assert max(inner) == width
