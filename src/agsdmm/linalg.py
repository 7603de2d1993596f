"""Dense exact linear algebra modulo a prime.

Matrices are 2-D numpy integer arrays with entries reduced into [0, q).
Elimination uses first-nonzero pivoting: over a finite field there is no
pivot-magnitude concern, so this keeps results deterministic. Products mod q
run in the narrowest dtype that is still exact for their inner length and q:
float32 or float64 (BLAS), or int64, in 16-bit limbs of b past 2^63. Their
results are reduced as int32 where every sum lies below 2^31 and the result
has at least FLOOR_REDUCE_MIN entries, and as int64 otherwise; the output is
int64, or int32 for encode's shares. Those reductions, and the elimination's
and the solves' block updates, run in place as x - q (x // q) from
FLOOR_REDUCE_MIN entries on, since numpy divides by a scalar through
libdivide and np.remainder does not; smaller arrays keep np.remainder. A
product whose b and result fit one chunk of CHUNK_BYTES, at 4 bytes an
entry where it and its result are 32-bit and 8 otherwise, as every small
product of a run does, takes no chunk or limb bookkeeping: one cast per
operand, one np.dot, then a cast and a reduction only where they change
anything. Inside a panel of the
elimination the reduction is delayed: a panel's trailing block is reduced
once every k pivots, k the largest number of products of two residues that
int64 can take on top of a residue, at most PANEL_WIDTH (2 at q = 2^31 - 1).
Every triangular solve, the elimination's and both of an LU's, is one
blocked lower solve; U is solved with its rows and columns reversed, L on
the elimination's panels with the diagonal-block inverses the elimination
made. Rows of the inverse of a Vandermonde matrix have a closed form and
take no elimination (_inverse_vandermonde). Operands are reduced only where
an entry lies outside [0, q). The modulus is checked once, at the public
entries, to be an integer in [2, 2^31); input enters through one int64
intake that refuses float, complex and out-of-int64 input from its dtype
alone. A native int32 or int64 ndarray, as every share (int32) and response
(int64) is, passes the intake as it is, and its range check is one argmax
over its unsigned view. The elimination takes int64, where its updates
cannot overflow.
"""

from __future__ import annotations

import operator

import numpy as np

from .field import _MODULUS_CAP, _power_table

# a product's sums below these bounds are exact in float32, int32, float64 and int64
FLOAT32_EXACT = 2**24
INT32_EXACT = 2**31
FLOAT64_EXACT = 2**53
INT64_EXACT = 2**63
# columns eliminated per step of the blocked elimination and its triangular solves
PANEL_WIDTH = 32
# bytes of b and of the int64 result per column chunk of a wide product in a
# BLAS or int64 tier, which never copies a whole operand or result to float
# nor reduces it through a temporary of its full size
CHUNK_BYTES = 2**20
# entries from which an in-place reduction takes x - q (x // q) rather than
# np.remainder, the two cross over at 1-2 K entries, and from which a product
# is reduced as int32 where that is exact: below it the extra cast costs more
# than the narrower division saves
FLOOR_REDUCE_MIN = 2048
# the dtypes _reduced takes as they are, and their unsigned views
_UNSIGNED = {np.dtype(np.int32): np.uint32, np.dtype(np.int64): np.uint64}


class SingularMatrixError(ValueError):
    """Raised when a matrix's rank is below its row count; carries the actual rank."""

    def __init__(self, rank: int, size: int):
        super().__init__(
            f"matrix rank {rank} is below its row count {size}; "
            "no invertible square column submatrix exists"
        )
        self.rank = rank
        self.size = size


def as_matrix(rows, q: int) -> np.ndarray:
    """Copy input into an int64 matrix with entries reduced mod q.

    The remainder, itself a copy, runs only where an entry lies outside
    [0, q); input already reduced is copied once, and only when no cast made
    a new array of it.
    """
    q = _check_modulus(q)
    given = np.asarray(rows)
    m = _reduced(given, q).astype(np.int64, copy=False)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return m.copy() if m is given else m


def matmul_mod(a, b, q: int) -> np.ndarray:
    """Exact (a @ b) mod q for integer matrices with int64 entries of any sign."""
    q = _check_modulus(q)
    a, b = _reduced(a, q), _reduced(b, q)
    for m in (a, b):
        if m.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return _matmul_reduced(a, b, q)


def _check_modulus(q) -> int:
    # q as a Python int in [2, 2^31), where int64 holds the product of two
    # residues, as the elimination's updates need; anything else, a float or a
    # string included, is refused before any arithmetic. A numpy integer is
    # taken and converted, since pow() refuses it as a modulus and the tier
    # bound k (q - 1)^2 would overflow in it.
    try:
        value = operator.index(q)
    except TypeError:
        value = None
    if value is None or not 2 <= value < _MODULUS_CAP:
        raise ValueError(f"field order {q!r} must be an integer in [2, 2^31)")
    return value


def _as_int64(m) -> np.ndarray:
    # m as an int64 array, decided from its dtype alone: float, complex,
    # uint64 and the object arrays numpy makes of Python ints outside int64
    # are refused rather than cast, since the cast would round or wrap
    m = np.asarray(m)
    kind = m.dtype.kind
    if kind != "i" and (kind not in "bu" or m.dtype == np.uint64):
        raise ValueError(
            f"expected integer entries in the int64 range [-2^63, 2^63), got {m.dtype} input")
    return m.astype(np.int64, copy=False)


def _reduced(m, q: int) -> np.ndarray:
    # m in [0, q), as int32 for a native int32 ndarray (a share), else as int64;
    # the remainder pass runs only when a check finds an entry outside, as it
    # does not for shares fresh from encode. Read as unsigned, a negative entry
    # is at least 2^31 > q, so one largest entry covers both ends; argmax finds
    # it in a third of the time of a max reduction on a small operand. A native
    # int32 or int64 ndarray skips _as_int64's conversion and dtype tests.
    unsigned = _UNSIGNED.get(m.dtype) if type(m) is np.ndarray else None
    if unsigned is None:
        m, unsigned = _as_int64(m), np.uint64
    unsigned = m.view(unsigned)
    if m.size and unsigned.item(unsigned.argmax()) >= q:
        m = m % q
    return m


def _reduce_in_place(x: np.ndarray, q: int) -> None:
    # x mod q for an int32 or int64 array or view of w bits, in place. Exact
    # for entries in [-2^(w-1) + q, 2^(w-1)), where q (x // q) lies in
    # [x - q + 1, x] and cannot overflow: [-2^31 + q, 2^31) for int32 and
    # [-2^63 + q, 2^63) for int64. Every kernel result and block update lies
    # well inside its dtype's range. The temporary is the size of x.
    if x.size < FLOOR_REDUCE_MIN:
        x %= q
        return
    t = x // q
    t *= q
    x -= t


def _tiers(inner: int, q: int, size: int):
    """(product dtype, reduction dtype) of a product mod q of this inner length and result size.

    A dot product of length k is at most k (q-1)^2. Below 2^24 float32 BLAS
    is exact, below 2^53 float64 BLAS (every partial sum is an integer the
    float holds exactly), and past that int64, taken in limbs (_limb_matmul)
    from 2^63 on. The result is reduced as int32 when that bound is below
    2^31 and it has at least FLOOR_REDUCE_MIN entries.
    """
    bound = inner * (q - 1) ** 2
    if bound < FLOAT32_EXACT:
        product = np.float32
    elif bound < FLOAT64_EXACT:
        product = np.float64
    else:
        product = np.int64
    narrow = bound < INT32_EXACT and size >= FLOOR_REDUCE_MIN
    return product, np.int32 if narrow else np.int64


def _limb_matmul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    # a @ b mod q as a sum of residues, one per 2^16 terms: a b_lo + 2^16 (a b_hi mod q)
    # for b's 16-bit limbs, where a b_lo <= 2^16 (q - 1)(2^16 - 1) < 2^63 - 2^47 at q < 2^31
    out = 0
    for i in range(0, a.shape[1], 2**16):
        ai, bi = a[:, i:i + 2**16], b[i:i + 2**16]
        out += (ai @ (bi & 0xFFFF) + (ai @ (bi >> 16) % q << 16)) % q
    return out


def _matmul_reduced(a: np.ndarray, b: np.ndarray, q: int, out_dtype=np.int64) -> np.ndarray:
    """Exact (a @ b) mod q as int64, or as out_dtype, for integer operands reduced into [0, q).

    The product runs in the dtype _tiers picks: float32 or float64 BLAS, or
    int64, in limbs where its sums could pass 2^63. b's columns are taken
    CHUNK_BYTES at a time (half that where there are twice the temporaries),
    an entry of b and of the result counted at 4 bytes where the product,
    reduction and result are 32-bit and at 8 otherwise, so the reduction's
    temporary and any float copy stay within one chunk. A reduction in the
    result's dtype runs in the result's own chunk, so no second chunk is
    held; any other in a chunk of its own dtype, which is then stored into
    the result.
    """
    rows, inner, cols = a.shape[0], a.shape[-1], b.shape[-1]
    size = rows * cols
    dtype, reduce = _tiers(inner, q, size)
    limbs = dtype is np.int64 and inner * (q - 1) ** 2 >= INT64_EXACT
    width = 4 if dtype is np.float32 and reduce is np.int32 and out_dtype is np.int32 else 8
    if not limbs and width * cols * max(rows, inner) <= CHUNK_BYTES:
        # one chunk: one np.dot, a cast only where the dtype changes, and the
        # reduction as integers, an order of magnitude faster than np.fmod
        out = np.dot(a.astype(dtype, copy=False), b.astype(dtype, copy=False))
        if dtype is not reduce:
            out = out.astype(reduce)
        if size < FLOOR_REDUCE_MIN:
            out %= q
        else:
            _reduce_in_place(out, q)
        return out if reduce is out_dtype else out.astype(out_dtype)
    a = a.astype(dtype, copy=False)
    # limbs, and an int64 reduction stored into an int32 result, hold two temporaries per entry
    doubled = limbs or (reduce is np.int64 and out_dtype is not np.int64)
    step = max(1, CHUNK_BYTES // ((2 * width if doubled else width) * max(rows, inner, 1)))
    out = np.empty((rows, cols), dtype=out_dtype)
    for c0 in range(0, cols, step):
        chunk, bc = out[:, c0:c0 + step], b[:, c0:c0 + step]
        part = _limb_matmul(a, bc, q) if limbs else a @ bc.astype(dtype, copy=False)
        if out.dtype == reduce:
            chunk[:] = part
            part = chunk  # the product is freed before the reduction takes its temporary
        else:
            part = part.astype(reduce, copy=False)
        _reduce_in_place(part, q)
        if part is not chunk:
            chunk[:] = part
        # no reduction chunk is held while the next chunk's product is computed
        del part
    return out


def rank(rows, q: int) -> int:
    """Rank over F_q by Gaussian elimination."""
    q = _check_modulus(q)
    return len(_eliminate(as_matrix(rows, q), q)[0])


def _reduction_interval(q: int) -> int:
    """Pivots between reductions of a panel's trailing block.

    That is the largest k <= PANEL_WIDTH with k (q - 1)^2 <= 2^63 - q: 9 at
    q = 1000000007, 2 at q = 2^31 - 1, and PANEL_WIDTH below q = 2^29.

    Each pivot subtracts a product of two residues, at most (q - 1)^2, from
    entries in [0, q), so k of them leave every entry in [-2^63 + q, 2^63),
    where _reduce_in_place is exact.
    """
    return min(PANEL_WIDTH, (INT64_EXACT - q) // (q - 1) ** 2)


def _eliminate(a: np.ndarray, q: int) -> tuple[list[int], list[int], list]:
    """Blocked first-nonzero-pivot elimination of a reduced int64 matrix, in place.

    Columns are taken PANEL_WIDTH at a time. Inside a panel each pivot
    updates only the panel, storing its multipliers below the pivot as in
    LAPACK's getrf. The panel's trailing block is reduced only every
    _reduction_interval(q) pivots, which below q = 2^29 is PANEL_WIDTH, so
    never inside a panel; a pivot reduces just its own column and its row's
    segment, before it uses them. Each panel then updates every column to
    its right with its L11 inverse on its pivot rows and one product mod q
    for the rows below them. The pivots are those of the unblocked greedy
    elimination.

    Returns (cols, perm, panels): panels lists (r0, r1, inverse) per panel
    with pivots, for its pivot rows r0:r1 and the inverse of their unit
    lower L11, None for the last panel, which has no columns to its right to
    update. The panels tile the rows 0:rank.
    """
    k, n = a.shape
    cols: list[int] = []
    perm = list(range(k))
    panels = []
    interval = _reduction_interval(q)
    for j0 in range(0, n, PANEL_WIDTH):
        r0 = len(cols)
        if r0 == k:
            break
        j1 = min(j0 + PANEL_WIDTH, n)
        pending = 0
        for c in range(j0, j1):
            r = len(cols)
            column = a[r:, c]
            _reduce_in_place(column, q)
            if not column[0]:
                nz = np.flatnonzero(column)
                if nz.size == 0:
                    continue
                p = r + int(nz[0])
                a[[r, p]] = a[[p, r]]
                perm[r], perm[p] = perm[p], perm[r]
            cols.append(c)
            if r + 1 == k:
                break
            factors = column[1:]
            factors *= pow(int(column[0]), -1, q)
            _reduce_in_place(factors, q)
            if c + 1 == j1:
                break
            row = a[r, c + 1:j1]
            _reduce_in_place(row, q)
            trail = a[r + 1:, c + 1:j1]
            trail -= factors[:, None] * row
            pending += 1
            if pending == interval:
                _reduce_in_place(trail, q)
                pending = 0
        r1 = len(cols)
        if r1 == r0:
            continue
        if r1 == k or j1 == n:
            panels.append((r0, r1, None))
            continue
        # U12 = L11^-1 A12 on the panel's pivot rows, then A22 -= L21 U12
        pivots = cols[r0:r1]
        inverse = _triangular_inverse(_unit_lower(a[r0:r1, pivots]), q)
        panels.append((r0, r1, inverse))
        u = a[r0:r1, j1:]
        u[:] = _matmul_reduced(inverse, u, q)
        below = a[r1:, j1:]
        below -= _matmul_reduced(a[r1:, pivots], u, q)
        _reduce_in_place(below, q)
    return cols, perm, panels


class LUFactorization:
    """Compact P S = L U over F_q, reusable across right-hand sides.

    S is the square submatrix on the greedy leftmost information set
    (columns) of a full-row-rank k x n matrix; for an invertible square
    matrix, S is the matrix itself. L is unit lower triangular and stored
    below the diagonal of U in a single array; the row permutation P comes
    from first-nonzero pivoting. One elimination of the matrix gives both the
    columns and the factors; it stops at the panel where the rank reaches k.
    The elimination's L11 block inverses are kept for the L solves.
    """

    def __init__(self, rows, q: int):
        q = _check_modulus(q)
        a = as_matrix(rows, q)
        k = a.shape[0]
        cols, perm, panels = _eliminate(a, q)
        if len(cols) < k:
            raise SingularMatrixError(len(cols), k)
        self.q = q
        self.size = k
        self.columns = cols
        self._lu = a[:, cols]
        self._perm = np.array(perm, dtype=np.int64)
        self._panels = panels

    def inverse_columns(self, columns) -> np.ndarray:
        """The listed columns of S^-1, in the order given (size x len(columns)).

        With P S = L U, the columns X of S^-1 solve S X = E for E the matching
        columns of the identity: first L Y = P E, then U X = Y. Both are
        blocked lower solves: L Y = P E on the elimination's panels, with
        their L11 inverses, and U X = Y with the rows and columns of U and the
        rows of X reversed.
        """
        n, q, lu = self.size, self.q, self._lu
        columns = [int(c) for c in columns]
        if any(not 0 <= c < n for c in columns):
            raise ValueError(f"column indices must lie in [0, {n}), got {columns}")
        where = np.empty(n, dtype=np.int64)
        where[self._perm] = np.arange(n)
        rows = where[columns]
        x = np.zeros((n, len(columns)), dtype=np.int64)
        x[rows, np.arange(len(columns))] = 1
        # Y stays zero above the first row where P E is not, so the L solve
        # starts at the panel that holds that row
        first = int(rows.min(initial=n))
        s = next((r0 for r0, r1, _ in self._panels if r1 > first), n)
        _solve_lower(_unit_lower(lu[s:, s:]), x[s:], q,
                     [(r0 - s, r1 - s, inverse) for r0, r1, inverse in self._panels if r0 >= s])
        _solve_lower(np.triu(lu)[::-1, ::-1], x[::-1], q)
        return x


def _unit_lower(lu: np.ndarray) -> np.ndarray:
    # L of a square compact LU: its entries below the diagonal, ones on it;
    # made inside a call, so that this copy is freed before U's is made
    lower = np.tril(lu, -1)
    np.fill_diagonal(lower, 1)
    return lower


def _solve_lower(t: np.ndarray, x: np.ndarray, q: int, blocks=None) -> None:
    """x <- t^-1 x mod q in place, for t lower triangular with a nonzero diagonal.

    Rows are taken a block at a time: one product mod q removes the rows
    already solved, and one more applies the inverse of the diagonal block.
    blocks lists (i0, i1, inverse) tiling the rows, where an inverse already
    made may be given, as _eliminate's panels give theirs, and None has it
    computed here; by default the blocks are PANEL_WIDTH rows, all None.
    x may be a view, a reversed one included; it is written through.
    """
    n = t.shape[0]
    if blocks is None:
        blocks = [(i0, min(i0 + PANEL_WIDTH, n), None) for i0 in range(0, n, PANEL_WIDTH)]
    for i0, i1, inverse in blocks:
        block = x[i0:i1]
        if i0:
            block -= _matmul_reduced(t[i0:i1, :i0], x[:i0], q)
            _reduce_in_place(block, q)
        if inverse is None:
            inverse = _triangular_inverse(t[i0:i1, i0:i1], q)
        block[:] = _matmul_reduced(inverse, block, q)


def _triangular_inverse(t: np.ndarray, q: int) -> np.ndarray:
    """Inverse mod q of a lower or upper triangular n x n block with a nonzero diagonal.

    With t = D (I - M) for D its diagonal, M is strictly triangular, so M^n = 0
    and t^-1 = (I + M)(I + M^2)(I + M^4)... D^-1, one factor per 2^j < n:
    ceil(log2 n) - 1 squarings and as many products. Every entry stays below
    q^2 < 2^62, so int64 is exact.
    """
    n = t.shape[0]
    diag_inv = np.array([pow(int(v), -1, q) for v in np.diagonal(t)], dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    power = -(diag_inv[:, None] * t) % q  # M = I - D^-1 t, off the diagonal
    np.fill_diagonal(power, 0)
    inv = power + eye
    span = 2
    while span < n:
        power = _matmul_reduced(power, power, q)
        inv = _matmul_reduced(inv, power + eye, q)
        span *= 2
    return inv * diag_inv % q


def _root_polynomial(xs: np.ndarray, q: int) -> np.ndarray:
    """Coefficients of prod_i (t - xs[i]) mod q for n >= 1 roots, lowest degree first.

    A product tree, one numpy pass per level, over blocks of at most
    PANEL_WIDTH roots (padded with factors 1); then one product mod q per
    block, of a sliding window over the running product.
    """
    n = len(xs)
    s = min(PANEL_WIDTH, 1 << (n - 1).bit_length())
    count = -(-n // s)
    polys = np.zeros((count * s, 2), dtype=np.int64)
    polys[:, 0] = 1
    polys[:n, 0] = -xs % q
    polys[:n, 1] = 1
    while len(polys) > count:
        pairs, w = len(polys) // 2, polys.shape[1]
        outer = polys[0::2, :, None] * polys[1::2, None, :]
        _reduce_in_place(outer, q)
        shifted = np.zeros((pairs, w, 2 * w), dtype=np.int64)
        shifted[:, :, :w] = outer
        shifted = shifted.reshape(pairs, -1)[:, :w * (2 * w - 1)].reshape(pairs, w, 2 * w - 1)
        polys = shifted.sum(axis=1) % q
    if count == 1:
        return polys[0, :n + 1]
    # window k over buffer[s:s + length] is entries k - s..k of the running product
    buffer = np.zeros((count + 1) * s + 1, dtype=np.int64)
    buffer[s:2 * s + 1] = polys[0]
    windows = np.lib.stride_tricks.sliding_window_view(buffer, s + 1)
    length = s + 1
    for block in polys[1:]:
        length += s
        buffer[s:s + length] = _matmul_reduced(windows[:length], block[::-1, None], q)[:, 0]
    return buffer[s:s + n + 1].copy()


def _inverse_vandermonde(xs: np.ndarray, rows, q: int) -> np.ndarray:
    """The listed distinct rows of W^-1 mod q, in the order given, for W[i, k] = xs[i]^k, n x n.

    Column i is the Lagrange polynomial L(t) / ((t - x_i) L'(x_i)), L = prod
    (t - x_j) = sum l_k t^k: W^-1[k, i] = U[k, i] / L'(x_i), U[n - 1] = 1 and
    U[k - 1] = l_k + x_i U[k]. PANEL_WIDTH steps of that recurrence, and of
    Horner's rule for L', are one product mod q of a Toeplitz block of l with
    powers of x. O(n^2) work, no n x n temporary; refuses repeated xs.
    """
    xs = _reduced(xs, q)
    n = len(xs)
    rows = np.asarray(rows, dtype=np.int64)
    coeffs = _root_polynomial(xs, q)
    slope = np.arange(1, n + 1) * coeffs[1:] % q  # L' = sum_k slope[k] t^k
    # position of each row of U in the output, -1 where it is not asked for
    where = np.full(n, -1, dtype=np.int64)
    where[rows] = np.arange(len(rows))
    if np.count_nonzero(where >= 0) != len(rows):
        raise ValueError("the rows asked for must be distinct")
    out = np.empty((len(rows), n), dtype=np.int64)
    steps = max(1, min(PANEL_WIDTH, n - 1))
    powers = _power_table(xs, steps + 1, q)
    lag = np.subtract.outer(np.arange(steps), np.arange(steps))
    u = np.ones(n, dtype=np.int64)
    derivative = np.full(n, slope[-1], dtype=np.int64)
    if where[n - 1] >= 0:
        out[where[n - 1]] = u
    for k in range(n - 1, 0, -steps):
        s = min(steps, k)
        # row j - 1 is l_{k-j+e+1} at e < j, for U[k - j]; row s is slope[k - s + e]
        factors = np.empty((s + 1, s), dtype=np.int64)
        factors[:s] = np.where(lag[:s, :s] >= 0, coeffs[k - lag[:s, :s].clip(0)], 0)
        factors[s] = slope[k - s:k]
        block = _matmul_reduced(factors, powers[:s], q)
        quotients = block[:s]
        quotients += powers[1:s + 1] * u
        _reduce_in_place(quotients, q)
        place = where[k - 1:k - s - 1 if k > s else None:-1]
        wanted = place >= 0
        out[place[wanted]] = quotients[wanted]
        derivative *= powers[s]
        derivative += block[s]
        derivative %= q
        u = quotients[-1]
    if not derivative.all():
        raise ValueError("the Vandermonde points must be distinct mod q")
    out *= np.array([pow(v, -1, q) for v in derivative.tolist()], dtype=np.int64)
    _reduce_in_place(out, q)
    return out

