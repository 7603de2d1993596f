"""Dense exact linear algebra modulo a prime.

Matrices are 2-D numpy integer arrays with entries reduced into [0, q).
Elimination uses first-nonzero pivoting: over a finite field there is no
pivot-magnitude concern, so this keeps results deterministic. Products mod q
run in the cheapest dtype that is still exact for their inner length and q:
float64 (BLAS), int64, or Python integers.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

SUBMATRIX_CHECK_CAP = 10**6
FLOAT64_EXACT = 2**53
INT64_EXACT = 2**63
# columns eliminated per step of the blocked elimination and its triangular solves
PANEL_WIDTH = 32
# float64 bytes of b and of the result per column chunk of a wide product in
# the float64 tier, which never copies a whole operand or result to float64
CHUNK_BYTES = 2**20


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
    """Copy input into an int64 matrix with entries reduced mod q."""
    m = np.array(rows, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return m % q


def matmul_mod(a, b, q: int) -> np.ndarray:
    """Exact (a @ b) mod q for integer matrices with entries of any sign or size."""
    return _matmul_reduced(_reduced(a, q), _reduced(b, q), q)


def _reduced(m, q: int) -> np.ndarray:
    # m as int64 in [0, q); the remainder pass runs only when a check finds an
    # entry outside, as it does not for shares fresh from encode. Read as
    # unsigned, a negative entry is at least 2^63, so one max covers both ends.
    m = np.asarray(m, dtype=np.int64)
    if m.size and m.view(np.uint64).max() >= q:
        m = m % q
    return m


def _matmul_reduced(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Exact (a @ b) mod q for integer operands already reduced into [0, q).

    A dot product of length k is at most k (q-1)^2, so float64 BLAS is exact
    below 2^53 (every partial sum is an integer a double holds exactly) and
    int64 below 2^63; past that the sum is taken in Python integers. The
    float64 tier takes the columns of b CHUNK_BYTES at a time when the
    product does not fit in one chunk.
    """
    rows, inner, cols = a.shape[0], a.shape[-1], b.shape[-1]
    bound = inner * (q - 1) ** 2
    if bound < FLOAT64_EXACT:
        # the float64 sums are exact integers; reducing them as int64 is an
        # order of magnitude faster than np.fmod
        a64 = a.astype(np.float64)
        step = max(1, CHUNK_BYTES // (8 * max(rows, inner, 1)))
        if cols <= step:
            # the chunk loop would add microseconds to each of the hundreds
            # of small products a run makes
            out = (a64 @ b.astype(np.float64)).astype(np.int64)
        else:
            out = np.empty((rows, cols), dtype=np.int64)
            for c0 in range(0, cols, step):
                chunk = out[:, c0:c0 + step]
                chunk[:] = a64 @ b[:, c0:c0 + step].astype(np.float64)
                np.remainder(chunk, q, out=chunk)
            return out
    elif bound < INT64_EXACT:
        out = a @ b
    else:
        return np.asarray((a.astype(object) @ b.astype(object)) % q, dtype=np.int64)
    np.remainder(out, q, out=out)
    return out


def rank(rows, q: int) -> int:
    """Rank over F_q by Gaussian elimination."""
    return len(_eliminate(as_matrix(rows, q), q)[0])


def echelon(rows, q: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Greedy leftmost pivot columns of a k x n matrix A over F_q, with their LU factors.

    Returns (cols, perm, lu). cols is the lexicographically first set of
    columns that spans the column space, one per unit of rank r. perm lists
    the rows of A in pivot order, so that A[perm][:, cols] = L U. lu is the
    k x r compact factor: unit lower trapezoidal L below its diagonal and the
    r x r upper triangular U on and above it.
    """
    a = as_matrix(rows, q)
    cols, perm = _eliminate(a, q)
    return cols, np.array(perm, dtype=np.int64), a[:, cols]


def _eliminate(a: np.ndarray, q: int) -> tuple[list[int], list[int]]:
    """Blocked first-nonzero-pivot elimination of a reduced int64 matrix, in place.

    Columns are taken PANEL_WIDTH at a time. Inside a panel each pivot
    updates only the panel, storing its multipliers below the pivot as in
    LAPACK's getrf; each panel then updates every column to its right with a
    triangular solve on its pivot rows and one product mod q for the rows
    below them. The pivots are those of the unblocked greedy elimination.
    """
    k, n = a.shape
    cols: list[int] = []
    perm = list(range(k))
    for j0 in range(0, n, PANEL_WIDTH):
        r0 = len(cols)
        if r0 == k:
            break
        j1 = min(j0 + PANEL_WIDTH, n)
        for c in range(j0, j1):
            r = len(cols)
            if not a[r, c]:
                nz = np.flatnonzero(a[r:, c])
                if nz.size == 0:
                    continue
                p = r + int(nz[0])
                a[[r, p]] = a[[p, r]]
                perm[r], perm[p] = perm[p], perm[r]
            cols.append(c)
            if r + 1 == k:
                break
            factors = a[r + 1:, c] * pow(int(a[r, c]), -1, q) % q
            a[r + 1:, c] = factors
            trail = a[r + 1:, c + 1:j1]
            trail -= factors[:, None] * a[r, c + 1:j1]
            trail %= q
        r1 = len(cols)
        if r1 == r0 or r1 == k or j1 == n:
            continue
        # U12 = L11^-1 A12 on the panel's pivot rows, then A22 -= L21 U12
        pivots = cols[r0:r1]
        u = a[r0:r1, j1:]
        u[:] = _matmul_reduced(_unit_lower_inverse(a[r0:r1, pivots], q), u, q)
        below = a[r1:, j1:]
        below -= _matmul_reduced(a[r1:, pivots], u, q)
        below %= q
    return cols, perm


class LUFactorization:
    """Compact P S = L U over F_q, reusable across right-hand sides.

    S is the square submatrix on the greedy leftmost information set
    (columns) of a full-row-rank k x n matrix; for an invertible square
    matrix, S is the matrix itself. L is unit lower triangular and stored
    below the diagonal of U in a single array; the row permutation P comes
    from first-nonzero pivoting. One elimination gives both the columns and
    the factors.
    """

    def __init__(self, rows, q: int):
        cols, perm, lu = echelon(rows, q)
        k = lu.shape[0]
        if len(cols) < k:
            raise SingularMatrixError(len(cols), k)
        self.q = q
        self.size = k
        self.columns = cols
        self._lu = lu
        self._perm = perm
        self._diag_inv = np.array([pow(int(v), -1, q) for v in np.diagonal(lu)], dtype=np.int64)

    def inverse_columns(self, columns) -> np.ndarray:
        """The listed columns of S^-1, in the order given (size x len(columns)).

        With P S = L U, the columns X of S^-1 solve S X = E for E the matching
        columns of the identity: first L Y = P E, then U X = Y. Each solve
        takes PANEL_WIDTH rows at a time: one product mod q removes the rows
        already solved, and one more applies the inverse of the diagonal block.
        """
        n, q, lu = self.size, self.q, self._lu
        columns = [int(c) for c in columns]
        if any(not 0 <= c < n for c in columns):
            raise ValueError(f"column indices must lie in [0, {n}), got {columns}")
        where = np.empty(n, dtype=np.int64)
        where[self._perm] = np.arange(n)
        x = np.zeros((n, len(columns)), dtype=np.int64)
        x[where[columns], np.arange(len(columns))] = 1
        for i0 in range(0, n, PANEL_WIDTH):
            i1 = min(i0 + PANEL_WIDTH, n)
            block = x[i0:i1]
            if i0:
                block -= _matmul_reduced(lu[i0:i1, :i0], x[:i0], q)
                block %= q
            block[:] = _matmul_reduced(_unit_lower_inverse(lu[i0:i1, i0:i1], q), block, q)
        for i1 in range(n, 0, -PANEL_WIDTH):
            i0 = max(i1 - PANEL_WIDTH, 0)
            block = x[i0:i1]
            if i1 < n:
                block -= _matmul_reduced(lu[i0:i1, i1:], x[i1:], q)
                block %= q
            upper = _upper_inverse(lu[i0:i1, i0:i1], self._diag_inv[i0:i1], q)
            block[:] = _matmul_reduced(upper, block, q)
        return x


def _unit_lower_inverse(lower: np.ndarray, q: int) -> np.ndarray:
    """Inverse of the unit lower triangular matrix stored below the diagonal of a square array."""
    inv = np.eye(lower.shape[0], dtype=np.int64)
    for i in range(lower.shape[0] - 1):
        inv[i + 1:] -= lower[i + 1:, i, None] * inv[i]
        inv[i + 1:] %= q
    return inv


def _upper_inverse(upper: np.ndarray, diag_inv: np.ndarray, q: int) -> np.ndarray:
    """Inverse of the upper triangular matrix on and above the diagonal of a square array."""
    inv = np.eye(upper.shape[0], dtype=np.int64)
    for i in reversed(range(upper.shape[0])):
        inv[i] = inv[i] * diag_inv[i] % q
        inv[:i] -= upper[:i, i, None] * inv[i]
        inv[:i] %= q
    return inv


def all_square_submatrices_invertible(rows, q: int, cap: int = SUBMATRIX_CHECK_CAP) -> bool:
    """Exhaustively check that every X x X column submatrix of an X x N matrix is invertible."""
    m = as_matrix(rows, q)
    x, n_cols = m.shape
    if x > n_cols:
        raise ValueError(f"row count {x} exceeds column count {n_cols}")
    total = math.comb(n_cols, x)
    if total > cap:
        raise ValueError(
            f"{total} submatrices to check exceeds the cap {cap}; "
            "raise the cap explicitly if this is intended"
        )
    for cols in combinations(range(n_cols), x):
        if rank(m[:, cols], q) < x:
            return False
    return True
