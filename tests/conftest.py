"""Helpers shared by the test modules."""

from itertools import combinations

from agsdmm import rank
from agsdmm.linalg import as_matrix


def all_square_submatrices_invertible(rows, q: int) -> bool:
    """Whether every X x X column submatrix of an X x N matrix is invertible mod q.

    Exhaustive over all C(N, X) column subsets: the oracle that the library's
    Vandermonde certificate (scheme._mask_code_is_mds) is checked against, so
    callers keep C(N, X) small.
    """
    m = as_matrix(rows, q)
    x, n_cols = m.shape
    if x > n_cols:
        raise ValueError(f"row count {x} exceeds column count {n_cols}")
    return all(rank(m[:, cols], q) == x for cols in combinations(range(n_cols), x))
