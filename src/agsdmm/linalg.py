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


class SingularMatrixError(ValueError):
    """Raised when a square system is rank deficient; carries the actual rank."""

    def __init__(self, rank: int, size: int):
        super().__init__(f"matrix is singular: rank {rank} < {size}")
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
    a = np.asarray(a, dtype=np.int64) % q
    b = np.asarray(b, dtype=np.int64) % q
    return _matmul_reduced(a, b, q)


def _matmul_reduced(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Exact (a @ b) mod q for integer operands already reduced into [0, q).

    A dot product of length k is at most k (q-1)^2, so float64 BLAS is exact
    below 2^53 (every partial sum is an integer a double holds exactly) and
    int64 below 2^63; past that the sum is taken in Python integers.
    """
    bound = a.shape[-1] * (q - 1) ** 2
    if bound < FLOAT64_EXACT:
        # the float64 sums are exact integers; reducing them as int64 is an
        # order of magnitude faster than np.fmod
        out = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    elif bound < INT64_EXACT:
        out = a @ b
    else:
        return np.asarray((a.astype(object) @ b.astype(object)) % q, dtype=np.int64)
    np.remainder(out, q, out=out)
    return out


def rank(rows, q: int) -> int:
    """Rank over F_q by Gaussian elimination."""
    return len(_pivot_columns(rows, q))


def _first_nonzero(col: np.ndarray, start: int):
    nz = np.nonzero(col[start:])[0]
    return None if nz.size == 0 else start + int(nz[0])


def _pivot_columns(rows, q: int) -> list[int]:
    """The greedy leftmost pivot columns of a matrix over F_q; one per unit of rank."""
    m = as_matrix(rows, q)
    n_rows, n_cols = m.shape
    cols: list[int] = []
    for c in range(n_cols):
        r = len(cols)
        if r == n_rows:
            break
        pivot = _first_nonzero(m[:, c], r)
        if pivot is None:
            continue
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        factors = m[r + 1:, c] * pow(int(m[r, c]), -1, q) % q
        m[r + 1:] = (m[r + 1:] - factors[:, None] * m[r]) % q
        cols.append(c)
    return cols


def select_information_columns(rows, q: int) -> list[int]:
    """Greedy leftmost pivot columns of a full-row-rank k x n matrix.

    Returns the lexicographically first set of k column indices whose square
    submatrix is invertible; raises if the matrix has rank below k.
    """
    cols = _pivot_columns(rows, q)
    k = np.shape(rows)[0]
    if len(cols) < k:
        raise ValueError(
            f"matrix rank {len(cols)} is below its row count {k}; no information set exists"
        )
    return cols


class LUFactorization:
    """Compact PA = LU of an invertible matrix over F_q, reusable across right-hand sides.

    L is unit lower triangular and stored below the diagonal of U in a single
    array; the row permutation comes from first-nonzero pivoting.
    """

    def __init__(self, rows, q: int):
        a = as_matrix(rows, q)
        n, n_cols = a.shape
        if n != n_cols:
            raise ValueError(f"LU factorization needs a square matrix, got {a.shape}")
        perm = list(range(n))
        for k in range(n):
            pivot = _first_nonzero(a[:, k], k)
            if pivot is None:
                raise SingularMatrixError(rank(rows, q), n)
            if pivot != k:
                a[[k, pivot]] = a[[pivot, k]]
                perm[k], perm[pivot] = perm[pivot], perm[k]
            inv = pow(int(a[k, k]), -1, q)
            factors = a[k + 1:, k] * inv % q
            a[k + 1:, k] = factors
            a[k + 1:, k + 1:] = (a[k + 1:, k + 1:] - factors[:, None] * a[k, k + 1:]) % q
        self.q = q
        self.size = n
        self._lu = a
        self._perm = perm
        self._diag_inv = [pow(int(a[i, i]), -1, q) for i in range(n)]

    def inverse_rows(self, rows) -> np.ndarray:
        """The listed rows of the inverse matrix, in the order given (len(rows) x size).

        With PV = LU, the rows Z of V^-1 solve Z V = E for E the matching rows
        of the identity: first Y U = E, then W L = Y, one column per numpy
        step, and Z is W with its columns moved back through P.
        """
        n, q, lu = self.size, self.q, self._lu
        rows = [int(r) for r in rows]
        if any(not 0 <= r < n for r in rows):
            raise ValueError(f"row indices must lie in [0, {n}), got {rows}")
        z = np.zeros((len(rows), n), dtype=np.int64)
        z[np.arange(len(rows)), rows] = 1
        for j in range(n):
            acc = _matmul_reduced(z[:, :j], lu[:j, j], q)
            z[:, j] = (z[:, j] - acc) * self._diag_inv[j] % q
        for j in reversed(range(n - 1)):
            acc = _matmul_reduced(z[:, j + 1:], lu[j + 1:, j], q)
            z[:, j] = (z[:, j] - acc) % q
        out = np.empty_like(z)
        out[:, self._perm] = z
        return out


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
