"""Hyperelliptic function fields y^2 = f(x) over odd prime fields.

A curve here is determined by a squarefree f(x) = (x - a_1)...(x - a_d) with
d odd, split over the base field. The key facts used throughout:

  * genus g = (d - 1) / 2,
  * x has a double pole and y a pole of order d at the single point at
    infinity, so the pole orders realized there form the numerical
    semigroup generated by 2 and d,
  * the functions x^a * y^b with b in {0, 1} are a canonical basis for the
    spaces of functions with poles only at infinity, indexed by their pole
    order 2a + d*b.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

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
    """HyperellipticCurve.scan_x for the roots 0, 1, ..., d - 1, without building the curve.

    f(x) = x(x - 1)...(x - (d - 1)) is zero for x < d. For x >= d it is the
    product of the d nonzero residues x - d + 1, ..., x, and the Legendre
    symbol is multiplicative, so f(x) is a square iff that window holds an
    even number of non-residues. One Euler pass over the residues the scan
    reaches and a running count of the non-residues among them decide every x;
    no f(x) is computed. Each chunk of SCAN_CHUNK residues carries the count's
    parity at the d residues before it, so memory stays O(SCAN_CHUNK + d)
    whatever q is.
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

    def __mul__(self, other: "Monomial") -> "Monomial":
        # closed only while the product stays in y-degree <= 1
        if self.b and other.b:
            raise ValueError("product leaves the canonical form (needs y^2 reduction)")
        return Monomial(self.a + other.a, self.b + other.b)

    def __str__(self):
        parts = []
        if self.a == 1:
            parts.append("x")
        elif self.a > 1:
            parts.append(f"x^{self.a}")
        if self.b:
            parts.append("y")
        return " ".join(parts) if parts else "1"


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

    def __contains__(self, w: int) -> bool:
        return self.is_pole_number(w)

    def __repr__(self):
        return f"WeierstrassSemigroup(2, {self.d})"


@dataclass(frozen=True)
class Place:
    """A rational place: an affine point (x, y) with y^2 = f(x), or the point at infinity."""

    x: int | None
    y: int | None

    @classmethod
    def at_infinity(cls) -> "Place":
        return cls(None, None)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def coords(self) -> tuple[int, int]:
        if self.is_infinity:
            raise ValueError("the place at infinity has no affine coordinates")
        return (self.x, self.y)


class HyperellipticCurve:
    """The curve y^2 = f(x) with f squarefree of odd degree, split over F_q."""

    def __init__(self, field: PrimeField, roots):
        self.field = field
        self.roots = tuple(int(r) % field.q for r in roots)
        if len(self.roots) % 2 == 0:
            raise ValueError(f"f must have odd degree, got {len(self.roots)} roots")
        if len(set(self.roots)) != len(self.roots):
            raise ValueError("roots must be pairwise distinct (f must be squarefree)")
        self.d = len(self.roots)

    @cached_property
    def f_coeffs(self) -> tuple[int, ...]:
        """Ascending coefficients of the monic f(x) = prod (x - r)."""
        q = self.field.q
        coeffs = [1]
        for r in self.roots:
            # c(x) * (x - r): coefficient i is c[i-1] - r * c[i]
            coeffs = [(lo - r * hi) % q for lo, hi in zip([0] + coeffs, coeffs + [0])]
        return tuple(coeffs)

    @property
    def genus(self) -> int:
        return (self.d - 1) // 2

    def semigroup(self) -> WeierstrassSemigroup:
        return WeierstrassSemigroup(self.d)

    def f_at(self, x: int) -> int:
        q, x = self.field.q, int(x)
        v = 1
        for r in self.roots:
            v = v * (x - r) % q
        return v

    def affine_place(self, x: int, y: int) -> Place:
        """Validated affine place; raises if (x, y) is not on the curve."""
        q = self.field.q
        x, y = int(x) % q, int(y) % q
        if y * y % q != self.f_at(x):
            raise ValueError(f"({x}, {y}) does not satisfy y^2 = f(x)")
        return Place(x, y)

    def monomial_for_pole_number(self, w: int) -> Monomial:
        """The unique canonical monomial with pole order w at infinity."""
        if not self.semigroup().is_pole_number(w):
            raise ValueError(f"{w} is a gap for d={self.d}; no function has that pole order")
        if w % 2 == 0:
            return Monomial(w // 2, 0)
        return Monomial((w - self.d) // 2, 1)

    def riemann_roch_basis(self, k: int) -> list[Monomial]:
        """Canonical monomials with pole order <= k, sorted by pole order."""
        sg = self.semigroup()
        return [
            self.monomial_for_pole_number(w) for w in range(max(k, -1) + 1)
            if sg.is_pole_number(w)
        ]

    def evaluate(self, mono: Monomial, place: Place) -> int:
        if place.is_infinity:
            raise ValueError("cannot evaluate at the place at infinity (it is the pole)")
        q = self.field.q
        v = pow(place.x, mono.a, q)
        if mono.b:
            v = v * place.y % q
        return v

    def evaluation_matrix(self, pole_orders, places) -> np.ndarray:
        """M[t, i] = value at places[i] of the monomial with pole order pole_orders[t].

        Rows come from a power table of the places' x, times y where the
        monomial has it; products stay below q^2 < 2^62, so int64 is exact.
        """
        monos = [self.monomial_for_pole_number(w) for w in pole_orders]
        if any(p.is_infinity for p in places):
            raise ValueError("cannot evaluate at the place at infinity (it is the pole)")
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

    def scan_x(self, limit: int | None = None) -> np.ndarray:
        """The x in 0, 1, 2, ... at which the curve has a point: f(x) zero or a square.

        Stops after limit such x, or scans all of F_q when limit is None, and
        returns them as an int64 array. When the roots are 0, ..., d - 1 this is
        scan_run_x, a Legendre-symbol window that evaluates no f(x). Any other
        roots take the general path: f(x) by f_values and Euler's criterion,
        both on chunks of SCAN_CHUNK x. Callers that need y compute f_values at
        the returned x only.
        """
        q = self.field.q
        # d distinct residues whose largest is d - 1 are exactly 0, ..., d - 1
        if max(self.roots) == self.d - 1:
            return scan_run_x(q, self.d, limit)
        want = q if limit is None else limit
        xs, found = [], 0
        for start in range(0, q, SCAN_CHUNK):
            x = np.arange(start, min(start + SCAN_CHUNK, q), dtype=np.int64)
            xs.append(x[_euler(self.f_values(x), q) != q - 1])
            found += len(xs[-1])
            if found >= want:
                break
        return np.concatenate(xs)[:want]

    def _scanned(self, limit: int | None) -> Iterator[tuple[int, int]]:
        # (x, f(x)) for the x that scan_x returns, as Python ints
        xs = self.scan_x(limit)
        return zip(xs.tolist(), self.f_values(xs).tolist())

    def enumerate_places(self) -> list[Place]:
        """All rational places: affine points sorted by (x, y), then infinity."""
        square_roots = self.field.square_roots
        places = [Place(a, y) for a, fa in self._scanned(None) for y in square_roots(fa)]
        places.append(Place.at_infinity())
        return places

    def select_distinct_x_places(self, limit: int | None = None) -> list[Place]:
        """One affine place per x-coordinate that carries a point (smallest y kept).

        Only the first limit such x-coordinates are taken when limit is given.
        """
        square_roots = self.field.square_roots
        return [Place(a, square_roots(fa)[0]) for a, fa in self._scanned(limit)]

    def __repr__(self):
        return f"HyperellipticCurve(q={self.field.q}, d={self.d}, genus={self.genus})"

