"""Odd prime fields: primality and square roots.

A field is its order q alone, validated by check_odd_prime. A field value is a
plain Python int in [0, q), and a vector of them an int64 numpy array;
_square_roots takes in one array pass the square roots that give the places
their y-coordinates. Arithmetic is ordinary integer arithmetic mod q.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_MODULUS_CAP = 2**31  # the package's one modulus range is [2, 2^31), linalg's too


# memoized so that repeated builds do not divide the same candidates again
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


def check_odd_prime(q: int) -> None:
    """Refuse a field order that is not an odd prime, with the package's one message."""
    if q % 2 == 0 or q < 3 or not is_prime(q):
        raise ValueError(f"field order must be an odd prime >= 3, got {q}")


def _power(v: np.ndarray, e: int, q: int) -> np.ndarray:
    """v^e mod q for each v in [0, q), by square-and-multiply on int64.

    q < 2^31 keeps every product below 2^62.
    """
    out, base = np.ones_like(v), v.copy()
    while e:
        if e & 1:
            out *= base
            out %= q
        base *= base
        base %= q
        e >>= 1
    return out


def _power_table(v: np.ndarray, count: int, q: int) -> np.ndarray:
    """T[k, i] = v[i]^k mod q for k < count, by doubling: rows [s, 2s) are rows [0, s) times v^s."""
    table = np.empty((count, len(v)), dtype=np.int64)
    table[:1] = 1
    filled = 1
    while filled < count:
        step = min(filled, count - filled)
        block = table[filled:filled + step]
        np.multiply(table[:step], table[filled - 1] * v % q, out=block)
        block %= q
        filled += step
    return table


def _square_roots(v: np.ndarray, q: int) -> np.ndarray:
    """The smallest square root of each square in v, by constant-time Tonelli-Shanks.

    With q - 1 = s * 2^e, s odd, r = v^((s+1)/2) and t = v^s satisfy r^2 = v*t,
    and c = z^s for a non-residue z has order 2^e. Each of the e - 1 masked steps
    takes r to r*c and t to t*c^2 where t^(2^(k-2)) = -1, then squares c; that
    leaves t = 1. A non-square entry gets an r with r^2 != v; callers check.
    """
    s, e = q - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    r = _power(v, (s + 1) // 2, q)
    if e > 1:
        t = _power(v, s, q)
        z = next(z for z in range(2, q) if pow(z, (q - 1) // 2, q) == q - 1)
        c = pow(z, s, q)
        for k in range(e, 1, -1):
            # here t^(2^(k-1)) = 1 and c has order 2^k
            flip = _power(t, 1 << (k - 2), q) == q - 1
            r = np.where(flip, r * c % q, r)
            t = np.where(flip, t * (c * c % q) % q, t)
            c = c * c % q
    return np.minimum(r, q - r)
