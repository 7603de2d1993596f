"""Odd prime fields: primality and square roots.

A field value is a plain Python int in [0, q), and a vector of them an int64
numpy array; PrimeField validates q and takes the square roots that give the
places their y-coordinates. Arithmetic is ordinary integer arithmetic mod q.
"""

from __future__ import annotations

from functools import lru_cache

_MODULUS_CAP = 2**31  # the package's one modulus range is [2, 2^31), linalg's too


# memoized so that a field built on an order just tested does not divide again
@lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (supported range n < 2**31)."""
    if n >= _MODULUS_CAP:
        raise ValueError(f"field order {n} exceeds supported cap {_MODULUS_CAP}")
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


class PrimeField:
    """The prime field of odd order q, whose values are the ints 0, ..., q - 1."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if q % 2 == 0 or q < 3:
            raise ValueError(f"field order must be an odd prime >= 3, got {q}")
        if not is_prime(q):
            raise ValueError(f"field order {q} is not prime")
        self.q = q

    def __repr__(self):
        return f"PrimeField({self.q})"

    def square_roots(self, a: int) -> tuple[int, ...]:
        """Both square roots of a, ascending, or (0,) for zero.

        Raises ValueError if a is not a square.
        """
        v = int(a) % self.q
        if v == 0:
            return (0,)
        r = self._sqrt_tonelli_shanks(v)
        if r * r % self.q != v:
            raise ValueError(f"{v} is not a square mod {self.q}")
        lo, hi = sorted((r, self.q - r))
        return (lo, hi)

    def _sqrt_tonelli_shanks(self, v: int) -> int:
        q = self.q
        if q % 4 == 3:
            return pow(v, (q + 1) // 4, q)
        # q = 1 (mod 4): write q - 1 = s * 2^e with s odd
        s, e = q - 1, 0
        while s % 2 == 0:
            s //= 2
            e += 1
        z = 2
        while pow(z, (q - 1) // 2, q) != q - 1:
            z += 1
        x = pow(v, (s + 1) // 2, q)
        b = pow(v, s, q)
        g = pow(z, s, q)
        r = e
        while b != 1:
            t, m = b, 0
            while t != 1:
                t = t * t % q
                m += 1
            gs = pow(g, 1 << (r - m - 1), q)
            g = gs * gs % q
            x = x * gs % q
            b = b * g % q
            r = m
        return x
