import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agsdmm import (
    LUFactorization,
    SingularMatrixError,
    linalg,
    matmul_mod,
    rank,
    write_matrix_csv,
)
from agsdmm.linalg import PANEL_WIDTH
from conftest import all_square_submatrices_invertible

# one prime per tier of the products mod q inside the elimination and the
# triangular solves, whose inner lengths run from 1 to PANEL_WIDTH and beyond:
# float32 BLAS at every inner length (13), float32 up to inner length 16 and
# float64 BLAS from 17 on (1009; both reduce as int32 where a result is large
# enough), int64 (one term already exceeds 2^53), and int64 in 16-bit limbs
# (two terms exceed 2^63), which includes the largest supported field; and
# per reduction interval of the elimination's trailing block: PANEL_WIDTH
# pivots up to 134217689, 9 at 1000000007 and 2 at 2^31 - 1
TIER_PRIMES = (13, 1009, 134217689, 1000000007, 2**31 - 1)


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


def _echelon(a, q):
    """The library's elimination of a: cols, perm and the compact k x r LU, as _reference_echelon."""
    a = linalg.as_matrix(a, q)
    cols, perm, _ = linalg._eliminate(a, q)
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


def _recorded_eliminations(monkeypatch):
    shapes = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda a, q: shapes.append(a.shape) or eliminate(a, q))
    return shapes


@pytest.mark.parametrize("q", TIER_PRIMES)
def test_lu_of_a_wide_matrix_eliminates_it_once(q, monkeypatch):
    # one elimination of the whole matrix, panel by panel from the left: with a
    # leading k x k square of rank k the pivots are that square's columns, and
    # with a singular one they reach past it; both agree with the unblocked reference
    shapes = _recorded_eliminations(monkeypatch)
    rng = np.random.default_rng(11)
    k = PANEL_WIDTH + 5
    for singular in (False, True):
        a = rng.integers(0, q, size=(k, 2 * k + 3))
        a[:, :k] = _random_invertible(rng, q, k)
        if singular:
            a[:, k - 3] = (a[:, 0] + 2 * a[:, 1]) % q
        shapes.clear()
        lu = LUFactorization(a, q)
        assert shapes == [a.shape]
        cols, perm, factors = _reference_echelon(a, q)
        assert lu.columns == cols == (list(range(k)) if not singular
                                      else [c for c in range(k + 1) if c != k - 3])
        assert lu._perm.tolist() == perm and np.array_equal(lu._lu, factors.astype(np.int64))
        got = lu.inverse_columns(range(k))
        assert np.array_equal(_exact(a[:, cols]) @ _exact(got) % q, np.eye(k, dtype=np.int64))


@pytest.mark.parametrize("q,n", [
    (q, n) for q in TIER_PRIMES for n in (1, 2, 5, PANEL_WIDTH, PANEL_WIDTH + 1, 2 * PANEL_WIDTH + 7)
    if n <= q])
def test_inverse_vandermonde_rows_match_the_exact_inverse(q, n):
    # the root polynomial's product tree, its blocks' products and the blocked
    # quotient recurrence, ragged last block included, against Python integers
    rng = np.random.default_rng(n)
    xs = rng.choice(q, size=n, replace=False).astype(np.int64)
    coeffs = [1]  # prod (t - x), lowest degree first
    for x in xs.tolist():
        coeffs = [(lo - x * hi) % q for lo, hi in zip([0] + coeffs, coeffs + [0])]
    assert linalg._root_polynomial(xs, q).tolist() == coeffs
    rows = rng.permutation(n)
    got = linalg._inverse_vandermonde(xs, rows, q)
    w = np.array([[pow(x, k, q) for k in range(n)] for x in xs.tolist()], dtype=object)
    identity = _exact(got) @ w % q
    assert np.array_equal(identity, np.eye(n, dtype=np.int64)[rows])
    assert np.array_equal(linalg._inverse_vandermonde(xs, rows[:2], q), got[:2])


def test_inverse_vandermonde_refuses_repeated_points_and_rows():
    with pytest.raises(ValueError, match="points must be distinct"):
        linalg._inverse_vandermonde(np.array([3, 5, 3 + 11]), [0], 11)
    with pytest.raises(ValueError, match="rows asked for must be distinct"):
        linalg._inverse_vandermonde(np.array([3, 5, 7]), [1, 1], 11)


def test_lu_keeps_the_elimination_block_inverses(monkeypatch):
    # the L solve of inverse_columns reuses every panel's L11 inverse: only
    # the last panel's, which the elimination had no use for, is made there,
    # and the U solve makes one per block of U; the L solve skips the panels
    # above the first row where P E is not zero
    q, n = 1009, 3 * PANEL_WIDTH + 5
    v = _random_invertible(np.random.default_rng(4), q, n)
    lu = LUFactorization(v, q)
    assert [(r0, r1, inv is None) for r0, r1, inv in lu._panels] == [
        (0, PANEL_WIDTH, False), (PANEL_WIDTH, 2 * PANEL_WIDTH, False),
        (2 * PANEL_WIDTH, 3 * PANEL_WIDTH, False), (3 * PANEL_WIDTH, n, True)]
    made = []
    inverse = linalg._triangular_inverse
    monkeypatch.setattr(linalg, "_triangular_inverse",
                        lambda t, q: made.append(t.shape[0]) or inverse(t, q))
    sizes = []
    solve = linalg._solve_lower
    monkeypatch.setattr(linalg, "_solve_lower",
                        lambda t, x, q, blocks=None: sizes.append(len(t)) or solve(t, x, q, blocks))
    for columns in ([0, n - 1], lu._perm[-3:].tolist()):
        made.clear()
        sizes.clear()
        got = lu.inverse_columns(columns)
        assert made == [5] + [PANEL_WIDTH, PANEL_WIDTH, PANEL_WIDTH, 5]
        assert np.array_equal(_exact(v) @ _exact(got) % q, np.eye(n, dtype=np.int64)[:, columns])
    # P E is zero above its last 3 rows, and so is L^-1 P E: the L solve
    # starts at the last panel
    assert sizes == [5, n]


def test_as_matrix_copies_reduced_input_without_a_remainder():
    rows = np.arange(12, dtype=np.int64).reshape(3, 4)
    out = linalg.as_matrix(rows, 13)
    assert np.array_equal(out, rows) and not np.shares_memory(out, rows)
    out[0, 0] = 5
    assert rows[0, 0] == 0
    assert linalg.as_matrix(rows.astype(np.int32), 13).dtype == np.int64
    assert linalg.as_matrix(rows - 13, 13).tolist() == rows.tolist()


def test_reduced_takes_a_reduced_int32_array_as_it_is():
    # every share is a native int32 array in [0, q): no cast, no copy
    share = np.arange(12, dtype=np.int32).reshape(3, 4)
    assert linalg._reduced(share, 13) is share
    assert linalg._reduced(share[:, 1:], 13).dtype == np.int32


@pytest.mark.parametrize("q", [13, 2**31 - 1])
def test_reduced_reduces_int32_entries_outside_the_field(q):
    # a negative int32 entry reads as at least 2^31 > q when viewed unsigned
    for edge in (-1, -q, -2**31, q, 2**31 - 1):
        m = np.array([[0, 1], [2, edge]], dtype=np.int32)
        got = linalg._reduced(m, q)
        assert got.dtype == np.int32 and got.tolist() == [[0, 1], [2, edge % q]]
        assert m[1, 1] == edge  # the caller's array is left as it was


def test_int32_input_eliminates_exactly_as_int64():
    # at q = 2^31 - 1 a single update (q - 1)^2 overflows int32, so the
    # elimination must widen int32 input to int64 first
    q = 2**31 - 1
    rng = np.random.default_rng(8)
    rows = np.full((6, 9), q - 1, dtype=np.int32)
    rows[1:] -= rng.integers(0, 3, size=(5, 9), dtype=np.int32)
    assert linalg.as_matrix(rows, q).dtype == np.int64
    cols, perm, lu = _echelon(rows, q)
    expect_cols, expect_perm, expect_lu = _reference_echelon(rows, q)
    assert (cols, perm) == (expect_cols, expect_perm) and np.array_equal(lu, expect_lu)
    assert rank(rows, q) == len(cols) == 6
    square = rows[:, cols]
    inv = LUFactorization(square, q).inverse_columns(range(6))
    assert inv.dtype == np.int64
    assert np.array_equal(_exact(square) @ _exact(inv) % q, np.eye(6, dtype=np.int64))


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



@pytest.mark.parametrize("q", TIER_PRIMES)
def test_inverse_columns_at_a_narrow_panel(q, monkeypatch):
    # width 3 puts several blocks, and a ragged last one, into both solves
    monkeypatch.setattr(linalg, "PANEL_WIDTH", 3)
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4, 7, 10):
        v = _random_invertible(rng, q, n)
        cols = rng.permutation(n)
        got = LUFactorization(v, q).inverse_columns(cols)
        assert np.array_equal(_exact(v) @ _exact(got) % q, np.eye(n, dtype=np.int64)[:, cols])


def _random_lower(rng, q, n):
    t = np.tril(rng.integers(0, q, size=(n, n)))
    np.fill_diagonal(t, rng.integers(1, q, size=n))
    return t


@pytest.mark.parametrize("q", TIER_PRIMES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 17, 31, 32, 33])
def test_triangular_inverse_inverts_lower_and_upper_blocks(n, q):
    # n sits on both sides of each doubling of the squarings' span
    rng = np.random.default_rng(n)
    lower = _random_lower(rng, q, n)
    for t in (lower, _random_lower(rng, q, n).T):
        inv = linalg._triangular_inverse(t, q)
        assert inv.dtype == np.int64 and inv.min() >= 0 and inv.max() < q
        assert np.array_equal(_exact(inv) @ _exact(t) % q, np.eye(n, dtype=np.int64))


@pytest.mark.parametrize("q", TIER_PRIMES)
def test_solve_lower_writes_through_a_reversed_view(q):
    # the back solve of inverse_columns: U X = Y as a lower solve on U with
    # its rows and columns reversed and on X's rows reversed, in place
    rng = np.random.default_rng(5)
    n = 2 * PANEL_WIDTH + 3
    upper = _random_lower(rng, q, n).T
    y = rng.integers(0, q, size=(n, 4))
    x = y.copy()
    linalg._solve_lower(upper[::-1, ::-1], x[::-1], q)
    assert np.array_equal(_exact(upper) @ _exact(x) % q, y)


@pytest.mark.parametrize("q", [-7, 0, 1, 2.5, 7.0, "7", None, 2**31, 8589934609, 2**63])
def test_every_public_entry_refuses_a_bad_modulus(q, tmp_path):
    # one check: an integer in [2, 2^31), before any arithmetic (q = 0 would
    # otherwise divide by zero, 2^63 overflow int64, -7 give negative entries,
    # and from q^2 >= 2^63 on, as at 8589934609, the elimination's int64
    # updates would overflow silently and give a wrong rank)
    calls = (
        lambda: matmul_mod([[3]], [[4]], q),
        lambda: rank([[3, 1]], q),
        lambda: LUFactorization([[3]], q),
        lambda: write_matrix_csv(tmp_path / "m.csv", [[1, 2]], q),
    )
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"field order {q!r} must be an integer in [2, 2^31)")):
            call()
    assert not (tmp_path / "m.csv").exists()


def test_modulus_check_takes_numpy_integers():
    # the largest tier prime as np.int64: pow() refuses it as a modulus, and
    # the tier bound k (q - 1)^2 would overflow in it
    q = TIER_PRIMES[-1]
    v = _random_invertible(np.random.default_rng(2), q, 40)
    assert matmul_mod(v, v, np.int64(q)).tolist() == matmul_mod(v, v, q).tolist()
    assert rank(v, np.int64(q)) == 40
    lu = LUFactorization(v, np.int64(q))
    assert type(lu.q) is int
    assert np.array_equal(lu._lu, LUFactorization(v, q)._lu)
    assert np.array_equal(lu.inverse_columns([0, 39]), LUFactorization(v, q).inverse_columns([0, 39]))
    assert matmul_mod([[1]], [[1]], 2**31 - 1).tolist() == [[1]]


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
    with pytest.raises(ValueError, match="row count 3 exceeds column count 2"):
        all_square_submatrices_invertible(np.ones((3, 2), dtype=int), 7)


def test_matmul_mod_small():
    a = np.array([[1, 2], [3, 4]])
    b = np.array([[5], [6]])
    assert np.array_equal(matmul_mod(a, b, 7), np.array([[3], [4]]))  # 17, 39 mod 7


def test_matmul_mod_bigint_fallback():
    q = 2147483647  # int64 would overflow on a length-3 inner product of squares, limbs do not
    a = np.full((2, 3), q - 1, dtype=np.int64)
    b = np.full((3, 2), q - 1, dtype=np.int64)
    got = matmul_mod(a, b, q)
    expect = 3 * (q - 1) * (q - 1) % q
    assert np.all(got == expect)


# per tier limit: the inner length and column count of its boundary products,
# and how close to the limit their sums must come. Primes are sparse relative
# to q^2 at the small q of the two lower limits, so those sums sit further
# from them; their 2 x 1024 results are large enough to be reduced as int32.
BOUNDARY_PRODUCTS = {
    2**24: (7, 1024, 1e-2), 2**31: (17, 1024, 1e-3),
    2**53: (1001, 3, 1e-5), 2**63: (1001, 3, 1e-5),
}


@pytest.mark.parametrize("limit,q", [
    (2**24, 1549), (2**24, 1553),            # largest prime below, smallest above
    (2**31, 11239), (2**31, 11243),
    (2**53, 2999693), (2**53, 2999707),
    (2**63, 95990387), (2**63, 95990429),
])
@pytest.mark.parametrize("offset", [1, 2])
def test_matmul_mod_tier_boundaries(limit, q, offset):
    # all entries q - offset make every dot product inner * (q - offset)^2, on
    # the same side of the limit for both offsets; the odd sums of offset 2
    # are the ones float32 would round past 2^24, int32 wrap past 2^31 and
    # float64 round past 2^53
    inner, cols, near = BOUNDARY_PRODUCTS[limit]
    assert (inner * (q - 1) ** 2 < limit) == (inner * (q - 2) ** 2 < limit)
    assert abs(inner * (q - offset) ** 2 / limit - 1) < near
    a = np.full((2, inner), q - offset, dtype=np.int64)
    b = np.full((inner, cols), q - offset, dtype=np.int64)
    got = matmul_mod(a, b, q)
    assert got.dtype == np.int64
    assert np.array_equal(got, (a.astype(object) @ b.astype(object)) % q)


@pytest.mark.parametrize("inner", [2, 3])
@pytest.mark.parametrize("offset", [1, 2])
def test_matmul_mod_limb_boundary(inner, offset):
    # at q = 2^31 - 1, 2 (q - 1)^2 < 2^63 <= 3 (q - 2)^2: inner length 2 runs
    # in plain int64 and 3 in 16-bit limbs of b
    q = 2**31 - 1
    assert (inner * (q - offset) ** 2 < 2**63) == (inner == 2)
    a = np.full((2, inner), q - offset, dtype=np.int64)
    b = np.full((inner, 5), q - offset, dtype=np.int64)
    assert np.array_equal(matmul_mod(a, b, q), _exact(a) @ _exact(b) % q)


@pytest.mark.parametrize("inner", [2**16, 2**16 + 1, 2**17 + 1])
@pytest.mark.parametrize("a_entry,b_entry", [
    (2**31 - 2, 2**31 - 3), (2**31 - 3, 2**31 - 2), (2**31 - 2, 2**31 - 2**16 - 1),
])
def test_matmul_mod_limb_chunk_boundary(inner, a_entry, b_entry):
    # the limb split sums 2^16 terms at a time: 2^16 fills one piece, 2^16 + 1
    # spills one term into a second, and 2^17 + 1 (three pieces) would wrap
    # int64 in pieces twice as long; q - 1, q - 2 and 2^31 - 2^16 - 1 (low
    # limb 0xFFFF) bring each piece's low-limb sums within 2^49 of 2^63
    q = 2**31 - 1
    a = np.full((1, inner), a_entry, dtype=np.int64)
    b = np.full((inner, 1), b_entry, dtype=np.int64)
    assert np.array_equal(matmul_mod(a, b, q), _exact(a) @ _exact(b) % q)


@pytest.mark.parametrize("q", [2, 3, 2**31 - 1])
@pytest.mark.parametrize("inner", [1, 2, 3, 2**16, 2**16 + 1, 10**6])
def test_tiers_are_numpy_dtypes(inner, q):
    for size in (1, linalg.FLOOR_REDUCE_MIN):
        product, reduce = linalg._tiers(inner, q, size)
        assert product in (np.float32, np.float64, np.int64)
        assert reduce in (np.int32, np.int64)


# the bounds of the product tiers: float32, the int32 reduction, float64 and plain int64
TIER_LIMITS = (linalg.FLOAT32_EXACT, linalg.INT32_EXACT, linalg.FLOAT64_EXACT, linalg.INT64_EXACT)


@st.composite
def _products(draw):
    # (a, b, q): the result's size on both sides of FLOOR_REDUCE_MIN and, with
    # an inner length near CHUNK_BYTES / 8 per column, b on both sides of one
    # chunk; q one side or the other of a tier limit for the inner length;
    # entries reduced, all q - 1, or any int64 with negative and >= q ones
    # strewn in; int64, int32, uint8 or bool operands, as plain, reversed or
    # transposed views
    cut, chunk = linalg.FLOOR_REDUCE_MIN, linalg.CHUNK_BYTES // 8
    kind = draw(st.sampled_from(["small", "reduction", "chunk"]))
    if kind == "small":
        rows, inner, cols = draw(st.integers(0, 5)), draw(st.integers(1, 40)), draw(st.integers(0, 6))
    elif kind == "reduction":
        rows, inner = draw(st.integers(1, 3)), draw(st.integers(1, 4))
        cols = -(-cut // rows) - draw(st.integers(0, 1))
    else:
        rows, cols = draw(st.integers(1, 2)), draw(st.sampled_from([1, 2, 16]))
        inner = chunk // cols + draw(st.integers(0, 1))
    limit = draw(st.sampled_from(TIER_LIMITS))
    # the largest q with inner (q - 1)^2 < limit, or the next one, within the modulus range
    q = min(max(2, 1 + math.isqrt((limit - 1) // inner) + draw(st.integers(0, 1))), 2**31 - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fill = draw(st.sampled_from(["residues", "top", "any"]))

    def operand(shape):
        view = draw(st.sampled_from(["plain", "reversed", "transposed"]))
        base = shape[::-1] if view == "transposed" else shape
        if fill == "residues":
            m = rng.integers(0, q, size=base)
        elif fill == "top":
            m = np.full(base, q - 1, dtype=np.int64)
        else:
            m = rng.integers(-2**63, 2**63 - 1, size=base, endpoint=True)
        if m.size:
            edges = [-2**63, -q, -1, q, 2**63 - 1]
            for value in draw(st.lists(st.sampled_from(edges), max_size=4)):
                m.flat[rng.integers(m.size)] = value
        m = m.astype(draw(st.sampled_from([np.int64, np.int32, np.uint8, np.bool_])))
        return {"plain": m, "reversed": m[::-1, ::-1], "transposed": m.T}[view]

    return operand((rows, inner)), operand((inner, cols)), q


@settings(max_examples=120, deadline=None)
@given(case=_products())
def test_matmul_mod_is_the_python_integer_product(case):
    a, b, q = case
    got = matmul_mod(a, b, q)
    assert got.dtype == np.int64 and got.shape == (a.shape[0], b.shape[1])
    assert got.tolist() == ((_exact(a) @ _exact(b)) % q).tolist()


def test_matmul_mod_refuses_input_int64_cannot_hold():
    # refused from the dtype alone: a uint64 2^64 - 1 would wrap to -1 and
    # give 6 where the product mod 7 is 1, a float would be truncated, and a
    # Python int past int64 makes an object array
    one = np.ones((1, 1), dtype=np.int64)
    cases = [
        (np.array([[2**64 - 1]], dtype=np.uint64), "uint64"),
        (np.array([[1]], dtype=np.uint64), "uint64"),
        ([[2**64]], "object"),
        ([[-2**63 - 1]], "object"),
        ([[1.7]], "float64"),
        (np.array([[1.0]], dtype=np.float32), "float32"),
        ([[1j]], "complex128"),
    ]
    for bad, dtype in cases:
        message = rf"^expected integer entries in the int64 range \[-2\^63, 2\^63\), got {dtype} input$"
        with pytest.raises(ValueError, match=message):
            matmul_mod(bad, one, 7)
        with pytest.raises(ValueError, match=message):
            matmul_mod(one, bad, 7)
        with pytest.raises(ValueError, match=message):
            rank(bad, 7)


def test_matmul_mod_takes_every_integer_dtype_int64_holds():
    a = [[3, 1], [2, 5]]
    expect = np.array(a) @ np.array(a) % 7
    for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32):
        got = matmul_mod(np.array(a, dtype=dtype), np.array(a, dtype=dtype), 7)
        assert got.dtype == np.int64 and np.array_equal(got, expect)
    assert np.array_equal(matmul_mod(a, a, 7), expect)
    assert np.array_equal(matmul_mod(np.eye(2, dtype=bool), a, 7), np.array(a))
    assert np.array_equal(matmul_mod([[2**63 - 1]], [[1]], 7), [[(2**63 - 1) % 7]])


def test_matmul_mod_reduces_only_out_of_range_operands():
    q = 97
    a = np.array([[0, 96], [5, 7]], dtype=np.int64)
    b = a.copy()
    assert np.array_equal(matmul_mod(a, b, q), a @ b % q)
    assert np.array_equal(a, b)  # a reduced operand is used as is, never written
    # one entry outside [0, q) forces the exact remainder, also at the int64
    # extremes, which lie outside the floor-division reduction's stated range
    for edge in (q, -1, -q, -2**63, 2**63 - 1):
        c = a.copy()
        c[1, 1] = edge
        assert np.array_equal(matmul_mod(c, a, q), _exact(c) @ _exact(a) % q)
        assert np.array_equal(matmul_mod(a, c, q), _exact(a) @ _exact(c) % q)
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
    (6, 3, 343),
])
@pytest.mark.parametrize("chunk_bytes", [None, 96])
def test_matmul_reduced_in_column_chunks(q, rows, inner, cols, chunk_bytes, monkeypatch):
    # at 96 bytes a product takes 96 // (8 max(rows, inner)) columns per chunk
    # whatever its dtype, 96 // (16 max(rows, inner)) in limbs (2^31 - 1): 3 of 10
    # leaves a ragged chunk of 1, 3 of 12 none, and a 40-long inner product
    # one column at a time; 6 x 343 has FLOOR_REDUCE_MIN entries or more, so
    # the two small primes reduce it as int32, 2 columns at a time with a
    # ragged chunk of 1; zero-size operands must neither divide by zero nor
    # change shape
    if chunk_bytes is not None:
        monkeypatch.setattr(linalg, "CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(rows * 100 + cols)
    a = rng.integers(0, q, size=(rows, inner))
    b = rng.integers(0, q, size=(inner, cols))
    got = linalg._matmul_reduced(a, b, q)
    assert got.dtype == np.int64 and got.shape == (rows, cols)
    assert np.array_equal(got, (a.astype(object) @ b.astype(object)) % q)


@pytest.mark.parametrize("q", TIER_PRIMES)
@pytest.mark.parametrize("chunk_bytes", [None, 96])
def test_matmul_reduced_stores_an_int32_result_in_every_tier(q, chunk_bytes, monkeypatch):
    # encode's int32 shares: a chunk reduced as int32 in the result itself,
    # or as int64 (wide sums, the limbs at 2^31 - 1) and then stored, in one
    # chunk or in ragged ones, and a result below FLOOR_REDUCE_MIN entries
    if chunk_bytes is not None:
        monkeypatch.setattr(linalg, "CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(q)
    for rows, inner, cols in ((4, 3, 10), (6, 3, 343), (2, 40, 7)):
        a = rng.integers(q - 3, q, size=(rows, inner))
        b = rng.integers(q - 3, q, size=(inner, cols))
        got = linalg._matmul_reduced(a, b, q, np.int32)
        assert got.dtype == np.int32 and got.shape == (rows, cols)
        assert np.array_equal(got, (_exact(a) @ _exact(b)) % q)


def test_matmul_reduced_never_copies_a_wide_operand_to_float64():
    # numpy reports its buffers to tracemalloc: past the int64 result, a wide
    # BLAS-tier product holds one column chunk of b and one of the result in
    # float, not float copies of the whole of b (6.4 MB) and of the result
    # (12.8 MB); in every tier the reduction's temporary is one chunk, not the
    # size of the result, and the limb split's temporaries fit the same bound
    rng = np.random.default_rng(0)
    tiers = [
        (97, (np.float32, np.int32)),
        (2053, (np.float64, np.int32)),
        (23173, (np.float64, np.int64)),
        (134217689, (np.int64, np.int64)),
        (2**31 - 1, (np.int64, np.int64)),
    ]
    for q, tier in tiers:
        a = rng.integers(0, q, size=(8, 4))
        b = rng.integers(0, q, size=(4, 200_000))
        assert linalg._tiers(4, q, a.shape[0] * b.shape[1]) == tier
        # a @ b would wrap int64 at 2^31 - 1, the limb tier, so that one takes Python ints
        expect = _exact(a) @ _exact(b) % q if q == 2**31 - 1 else a @ b % q
        # the int64 result of matmul_mod, and encode's int32 shares
        for out_dtype in (np.int64, np.int32):
            tracemalloc.start()
            try:
                out = linalg._matmul_reduced(a, b, q, out_dtype)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < out.nbytes + 2 * linalg.CHUNK_BYTES
            assert out.dtype == out_dtype and np.array_equal(out, expect)


@st.composite
def _column_chunks(draw):
    # a strided column chunk of a wider int32 or int64 matrix of w bits, with
    # the chunk's size on either side of FLOOR_REDUCE_MIN, filled across
    # [-2^(w-1) + q, 2^(w-1)) with drawn entries (multiples of q and the
    # range's ends among them) on top
    q = draw(st.sampled_from(TIER_PRIMES))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    rows = draw(st.integers(1, 8))
    cut = linalg.FLOOR_REDUCE_MIN
    width = draw(st.sampled_from([1, (cut - 1) // rows, -(-cut // rows), 3 * cut // rows]))
    half = 2 ** (np.iinfo(dtype).bits - 1)
    lo, hi = -half + q, half - 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    full = rng.integers(lo, hi, size=(rows, width + 3), dtype=dtype, endpoint=True)
    edges = st.sampled_from([v for v in (lo, hi, -q, -1, 0, q - 1, q, q * (hi // q), q * -(-lo // q))
                             if lo <= v <= hi])
    for value in draw(st.lists(st.one_of(edges, st.integers(lo, hi)), max_size=12)):
        full[rng.integers(rows), rng.integers(1, width + 1)] = value
    return full, q


@settings(max_examples=80, deadline=None)
@given(case=_column_chunks())
def test_reduce_in_place_matches_python_mod(case):
    full, q = case
    before = full.copy()
    chunk = full[:, 1:-2]
    linalg._reduce_in_place(chunk, q)
    assert chunk.tolist() == [[v % q for v in row] for row in before[:, 1:-2].tolist()]
    # the columns around the chunk are not written
    assert np.array_equal(full[:, [0, -2, -1]], before[:, [0, -2, -1]])


def _assert_matches_reference(a, q):
    cols, perm, lu = _echelon(a, q)
    assert rank(a, q) == len(cols)
    ref_cols, ref_perm, ref_lu = _reference_echelon(a, q)
    assert cols == ref_cols
    assert perm == ref_perm
    assert np.array_equal(lu, ref_lu.astype(np.int64))
    # P A[:, cols] = L U with L unit lower trapezoidal (k x r) and U upper (r x r)
    r = len(cols)
    low = np.tril(_exact(lu), -1) + np.eye(*lu.shape, dtype=np.int64)
    up = np.triu(_exact(lu[:r]))
    assert np.array_equal(_exact(a)[perm][:, cols] % q, low @ up % q)


@pytest.mark.parametrize("q,interval", [
    (13, PANEL_WIDTH), (1009, PANEL_WIDTH), (134217689, PANEL_WIDTH), (617, PANEL_WIDTH),
    (3203, PANEL_WIDTH), (1000000007, 9), (2**31 - 19, 2), (2**31 - 1, 2),
])
def test_reduction_interval_is_the_largest_exact_one(q, interval):
    # k pivots subtract at most k (q - 1)^2 from entries in [0, q), which must
    # stay in [-2^63 + q, 2^63) for _reduce_in_place; one more would not
    k = linalg._reduction_interval(q)
    assert k == interval
    assert k * (q - 1) ** 2 <= 2**63 - q
    assert k == PANEL_WIDTH or (k + 1) * (q - 1) ** 2 > 2**63 - q


@pytest.mark.parametrize("q", TIER_PRIMES)
@pytest.mark.parametrize("extra", [0, 5])
def test_echelon_at_the_largest_trailing_updates(q, extra):
    # A = L U with every multiplier of L and every entry of U above its unit
    # diagonal q - 1: each pivot subtracts the most a pivot can, (q - 1)^2,
    # from every entry of its trailing block, so one pivot past the reduction
    # interval would wrap int64 at 2^31 - 1; extra columns of zeros make A wide
    n = 2 * PANEL_WIDTH + 3
    low = np.tril(np.full((n, n), q - 1, dtype=object), -1) + np.eye(n, dtype=object)
    up = np.triu(np.full((n, n), q - 1, dtype=object), 1) + np.eye(n, dtype=object)
    a = np.zeros((n, n + extra), dtype=np.int64)
    a[:, :n] = (low @ up % q).astype(np.int64)
    cols, perm, lu = _echelon(a, q)
    assert cols == list(range(n)) and perm == list(range(n))
    assert np.array_equal(lu, (low + up - np.eye(n, dtype=object)).astype(np.int64))
    _assert_matches_reference(a, q)


@settings(max_examples=60, deadline=None)
@given(case=_rank_deficient())
def test_echelon_matches_unblocked_reference(case):
    # q comes from every reduction interval: PANEL_WIDTH, 9 (an intermediate
    # one when the width is PANEL_WIDTH) and 2
    a, q, width = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "PANEL_WIDTH", width)
        _assert_matches_reference(a, q)


@pytest.mark.parametrize("q", TIER_PRIMES)
@pytest.mark.parametrize("width", [3, PANEL_WIDTH])
def test_echelon_trailing_update_in_every_tier(q, width, monkeypatch):
    # k = width + 2 rows leave rows below a full panel of pivots, so a panel's
    # product has inner length width: float32 for 13, float32 at width 3 and
    # float64 at width 32 for 1009, int64 for 134217689, and int64 in limbs
    # for 1000000007 (int64 at width 3) and 2^31 - 1; at width 32 a full
    # panel reduces its trailing block after 9 pivots at 1000000007 and after
    # every 2 at 2^31 - 1
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
