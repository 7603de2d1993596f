"""The hyperelliptic curve y^2 = f(x) = x(x - 1)...(x - (d - 1)) over an odd prime field.

The scheme builds one curve per odd degree d <= q: f is squarefree and split
over F_q, with the roots 0, 1, ..., d - 1. The key facts used throughout:

  * genus g = (d - 1) / 2,
  * x has a double pole and y a pole of order d at the single point at
    infinity, so the pole orders realized there are the sums of 2s and ds:
    the even numbers and the odd ones >= d, missing the g gaps 1, ..., 2g - 1,
  * the functions x^a * y^b with b in {0, 1} are a canonical basis for the
    spaces of functions with poles only at infinity, indexed by their pole
    order 2a + d*b.

The curve is (q, d) alone, taken as arguments, and a set of places is one
(k, 2) int64 array of (x, y) rows, so a subset of places is one index.
"""

from __future__ import annotations

import numpy as np

from .field import _power, _power_table, _square_roots

# x-coordinates examined per numpy step of the place scan
SCAN_CHUNK = 4096


def scan_run_x(q: int, d: int, limit: int | None = None) -> np.ndarray:
    """The x in 0, 1, 2, ... at which y^2 = x(x - 1)...(x - (d - 1)) has a point over F_q.

    Stops after limit such x, or scans all of F_q when limit is None, and
    returns them as an int64 array; no curve is built. f(x) is zero for x < d.
    For x >= d it is the product of the d nonzero residues x - d + 1, ..., x,
    and the Legendre symbol is multiplicative, so f(x) is a square iff that
    window holds an even number of non-residues. One Euler pass over the
    residues the scan reaches and a running count of the non-residues among
    them decide every x; no f(x) is computed. Each chunk of SCAN_CHUNK residues
    carries the count's parity at the d residues before it, so memory stays
    O(SCAN_CHUNK + d) whatever q is.
    """
    if not 1 <= d <= q:
        raise ValueError(f"need 1 <= d <= q for the roots 0, ..., d - 1, got d={d}, q={q}")
    want = q if limit is None else limit
    xs, found = [], 0
    # parity of the non-residue count over 1..r, for the d residues r before the chunk
    # (those before 0 are placeholders: x < d is a root and a hit whatever they hold)
    before = np.zeros(d, dtype=np.int64)
    for start in range(0, q, SCAN_CHUNK):
        x = np.arange(start, min(start + SCAN_CHUNK, q), dtype=np.int64)
        parity = (np.cumsum(_power(x, (q - 1) // 2, q) == q - 1) + before[-1]) & 1
        window = np.concatenate((before, parity))
        # window[d + i] is the parity at x[i], window[i] the parity at x[i] - d
        xs.append(x[(x < d) | (window[d:] == window[:-d])])
        found += len(xs[-1])
        if found >= want:
            break
        before = window[-d:]
    return np.concatenate(xs)[:want]


def evaluation_matrix(q: int, d: int, pole_orders, places) -> np.ndarray:
    """M[t, i] = value at places[i] of the monomial with pole order pole_orders[t].

    places is a (k, 2) int64 array of (x, y) rows. Pole order w is that of
    x^a * y^b with b = w mod 2 and a = (w - d*b) / 2, and a gap exactly when
    a < 0. Rows are a power table of the places' x gathered at a, times y where
    b = 1; products stay below q^2 < 2^62, so int64 is exact.
    """
    w = np.array(pole_orders, dtype=np.int64).reshape(-1)
    b = w % 2
    a = (w - d * b) // 2
    if (a < 0).any():
        gap = w[a < 0][0]
        raise ValueError(f"{gap} is a gap for d={d}; no function has that pole order")
    xs, ys = places[:, 0], places[:, 1]
    rows = _power_table(xs, a.max(initial=0) + 1, q)[a]
    rows[b == 1] = rows[b == 1] * ys % q
    return rows


def f_values(q: int, d: int, xs) -> np.ndarray:
    """f at each entry of xs, as an int64 array in [0, q).

    A running product over the roots 0, ..., d - 1 on int64; q < 2^31 keeps
    every product below q^2 < 2^62.
    """
    xs = np.asarray(xs, dtype=np.int64)
    f = np.ones_like(xs)
    for r in range(d):
        f *= xs - r
        f %= q
    return f


def select_distinct_x_places(q: int, d: int, limit: int | None = None) -> np.ndarray:
    """One place per x-coordinate that carries a point (smallest y kept), as (x, y) rows.

    Refuses an even d, or one outside [1, q]. The x are scan_run_x's, so only
    the first limit of them are taken when limit is given; f and its square
    roots are computed at those x only. Returns a (k, 2) int64 array.
    """
    if d % 2 == 0 or not 1 <= d <= q:
        raise ValueError(f"d must be odd and lie in [1, q = {q}], got {d}")
    xs = scan_run_x(q, d, limit)
    f = f_values(q, d, xs)
    ys = _square_roots(f, q)
    if (ys * ys % q != f).any():
        raise RuntimeError(f"the place scan kept an x where f is not a square (q={q}, d={d})")
    return np.stack((xs, ys), axis=1)
