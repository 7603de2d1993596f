"""The hyperelliptic curve y^2 = f(x) = x(x - 1)...(x - (d - 1)) over an odd prime field.

The scheme builds one curve per odd degree d <= q: f is squarefree and split
over F_q, with the roots 0, 1, ..., d - 1. The key facts used throughout:

  * genus g = (d - 1) / 2,
  * x has a double pole and y a pole of order d at the single point at
    infinity, so the pole orders realized there form the numerical
    semigroup generated by 2 and d,
  * the functions x^a * y^b with b in {0, 1} are a canonical basis for the
    spaces of functions with poles only at infinity, indexed by their pole
    order 2a + d*b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import PrimeField

# x-coordinates examined per numpy step of the place scan
SCAN_CHUNK = 4096


def _euler(v: np.ndarray, q: int) -> np.ndarray:
    """v^((q-1)/2) mod q for each v in [0, q): 1 on a nonzero square, q - 1 on a non-square, 0 on 0.

    Square-and-multiply on int64; q < 2^31 keeps every product below 2^62.
    """
    out, base, e = np.ones_like(v), v.copy(), (q - 1) // 2
    while e:
        if e & 1:
            out *= base
            out %= q
        base *= base
        base %= q
        e >>= 1
    return out


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
        parity = (np.cumsum(_euler(x, q) == q - 1) + before[-1]) & 1
        window = np.concatenate((before, parity))
        # window[d + i] is the parity at x[i], window[i] the parity at x[i] - d
        xs.append(x[(x < d) | (window[d:] == window[:-d])])
        found += len(xs[-1])
        if found >= want:
            break
        before = window[-d:]
    return np.concatenate(xs)[:want]


@dataclass(frozen=True)
class Monomial:
    """The function x^a * y^b with b in {0, 1}."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 0 or self.b not in (0, 1):
            raise ValueError(f"invalid monomial exponents (a={self.a}, b={self.b})")

    def pole_number(self, d: int) -> int:
        return 2 * self.a + d * self.b


class WeierstrassSemigroup:
    """Pole orders at the point at infinity: the semigroup generated by 2 and d."""

    __slots__ = ("d", "g")

    def __init__(self, d: int):
        if d < 1 or d % 2 == 0:
            raise ValueError(f"d must be an odd positive integer, got {d}")
        self.d = d
        self.g = (d - 1) // 2

    def gaps(self) -> list[int]:
        """The g missing pole orders: the odd numbers 1, 3, ..., 2g - 1."""
        return list(range(1, 2 * self.g, 2))

    def is_pole_number(self, w: int) -> bool:
        return w >= 0 and (w % 2 == 0 or w >= self.d)

    def __repr__(self):
        return f"WeierstrassSemigroup(2, {self.d})"


@dataclass(frozen=True)
class Place:
    """A rational affine place: the point (x, y) with y^2 = f(x)."""

    x: int
    y: int


class HyperellipticCurve:
    """The curve y^2 = x(x - 1)...(x - (d - 1)) over F_q, for an odd d <= q."""

    def __init__(self, field: PrimeField, d: int):
        if d % 2 == 0 or not 1 <= d <= field.q:
            raise ValueError(f"d must be odd and lie in [1, q = {field.q}], got {d}")
        self.field = field
        self.d = d
        self.roots = tuple(range(d))

    @property
    def genus(self) -> int:
        return (self.d - 1) // 2

    def semigroup(self) -> WeierstrassSemigroup:
        return WeierstrassSemigroup(self.d)

    def monomial_for_pole_number(self, w: int) -> Monomial:
        """The unique canonical monomial with pole order w at infinity."""
        if not self.semigroup().is_pole_number(w):
            raise ValueError(f"{w} is a gap for d={self.d}; no function has that pole order")
        if w % 2 == 0:
            return Monomial(w // 2, 0)
        return Monomial((w - self.d) // 2, 1)

    def evaluation_matrix(self, pole_orders, places) -> np.ndarray:
        """M[t, i] = value at places[i] of the monomial with pole order pole_orders[t].

        Rows come from a power table of the places' x, times y where the
        monomial has it; products stay below q^2 < 2^62, so int64 is exact.
        """
        monos = [self.monomial_for_pole_number(w) for w in pole_orders]
        q = self.field.q
        xs = np.array([p.x for p in places], dtype=np.int64)
        ys = np.array([p.y for p in places], dtype=np.int64)
        powers = [np.ones_like(xs)]
        for _ in range(max((mono.a for mono in monos), default=0)):
            powers.append(powers[-1] * xs % q)
        rows = [powers[mono.a] * ys % q if mono.b else powers[mono.a] for mono in monos]
        return np.array(rows, dtype=np.int64).reshape(len(monos), len(xs))

    def f_values(self, xs) -> np.ndarray:
        """f at each entry of xs, as an int64 array in [0, q).

        A running product over the roots on int64; q < 2^31 keeps every
        product below q^2 < 2^62.
        """
        q = self.field.q
        xs = np.asarray(xs, dtype=np.int64)
        f = np.ones_like(xs)
        for r in self.roots:
            f *= xs - r
            f %= q
        return f

    def select_distinct_x_places(self, limit: int | None = None) -> list[Place]:
        """One place per x-coordinate that carries a point (smallest y kept).

        The x are scan_run_x's, so only the first limit of them are taken when
        limit is given; f and its square roots are computed at those x only.
        """
        xs = scan_run_x(self.field.q, self.d, limit)
        square_roots = self.field.square_roots
        return [Place(a, square_roots(fa)[0])
                for a, fa in zip(xs.tolist(), self.f_values(xs).tolist())]

    def __repr__(self):
        return f"HyperellipticCurve(q={self.field.q}, d={self.d}, genus={self.genus})"

