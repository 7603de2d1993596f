"""Helpers shared by the test modules."""

from itertools import combinations, product

import numpy as np

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


def joint_view_audit(a_eval, b_eval, x: int, q: int) -> tuple[bool, str | None]:
    """(views_uniform, failure) of the secrecy audit, from the colluders' joint views.

    a_eval and b_eval are the two sides' coefficient matrices: x mask rows, then
    one row per data block, one column per worker. For every plaintext pair, in
    (A, B) order, the histogram of every x-subset's joint (A, B) view over all
    q^(2x) mask assignments is compared with the all-zero pair's: the oracle
    that protocol.empirical_secrecy_audit's per-side count is checked against.
    A view's x shares of each side are one base-q code, a joint view one code
    below q^(2x), and a subset's histogram one row of a bincount.
    """
    subsets = list(combinations(range(a_eval.shape[1]), x))
    side = q ** x
    weights = q ** np.arange(x)
    offsets = np.arange(len(subsets))[:, None, None] * side * side

    def codes(data, eval_rows):
        # (subset, mask assignment) -> the code of the subset's shares
        shares = np.array([masks + data for masks in product(range(q), repeat=x)]) @ eval_rows % q
        return np.stack([shares[:, sub] @ weights for sub in subsets])

    def histograms(a_data, b_data):
        joint = codes(a_data, a_eval)[:, :, None] * side + codes(b_data, b_eval)[:, None, :]
        return np.bincount((joint + offsets).ravel(),
                           minlength=len(subsets) * side * side).reshape(len(subsets), -1)

    pairs = list(product(product(range(q), repeat=a_eval.shape[0] - x),
                         product(range(q), repeat=b_eval.shape[0] - x)))
    reference = histograms(*pairs[0])
    failure = None
    for pair in pairs[1:]:
        bad = np.flatnonzero((histograms(*pair) != reference).any(axis=1))
        if bad.size:
            failure = (f"view distribution of subset {subsets[bad[0]]} differs between "
                       f"plaintexts {pair} and {pairs[0]}")
            break
    # q^(2x) joint views over q^(2x) mask assignments are uniform iff each occurs once
    return bool((reference == 1).all()), failure
