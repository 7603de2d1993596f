"""Exact arithmetic in odd prime fields, with residue tests and square roots."""

from __future__ import annotations

from functools import lru_cache

_PRIME_CAP = 2**31


# memoized so that a field built on an order just tested does not divide again
@lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (supported range n < 2**31)."""
    if n >= _PRIME_CAP:
        raise ValueError(f"field order {n} exceeds supported cap {_PRIME_CAP}")
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
    """The prime field of odd order q; a factory and namespace for its elements."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if q % 2 == 0 or q < 3:
            raise ValueError(f"field order must be an odd prime >= 3, got {q}")
        if not is_prime(q):
            raise ValueError(f"field order {q} is not prime")
        self.q = q

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"PrimeField({self.q})"

    def element(self, value: int) -> FieldElement:
        return FieldElement(value, self)

    @property
    def zero(self) -> FieldElement:
        return FieldElement(0, self)

    @property
    def one(self) -> FieldElement:
        return FieldElement(1, self)

    def elements(self):
        """Iterator over all q elements, in residue order."""
        return (FieldElement(v, self) for v in range(self.q))

    def is_square(self, a) -> bool:
        """True iff a is a square in the field; zero counts as a square."""
        v = self._residue(a)
        if v == 0:
            return True
        return pow(v, (self.q - 1) // 2, self.q) == 1

    def sqrt(self, a):
        """Both square roots of a as a tuple, ({0},) for zero, or None if a is a non-residue."""
        if not self.is_square(a):
            return None
        return self.square_roots(a)

    def square_roots(self, a):
        """sqrt for an a already known to be zero or a square, without the residue test.

        Raises ValueError if a turns out not to be a square.
        """
        v = self._residue(a)
        if v == 0:
            return (self.zero,)
        r = self._sqrt_tonelli_shanks(v)
        if r * r % self.q != v:
            raise ValueError(f"{v} is not a square mod {self.q}")
        lo, hi = sorted((r, self.q - r))
        return (FieldElement(lo, self), FieldElement(hi, self))

    def _residue(self, a) -> int:
        if isinstance(a, FieldElement):
            if a.field != self:
                raise ValueError(f"element of {a.field!r} used with {self!r}")
            return a.value
        return int(a) % self.q

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


class FieldElement:
    """An immutable residue in a PrimeField, with operator overloads."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: PrimeField):
        object.__setattr__(self, "value", int(value) % field.q)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, val):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError(
                    f"cannot mix elements of {self.field!r} and {other.field!r}"
                )
            return other
        if isinstance(other, int):
            return FieldElement(other, self.field)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.value + o.value, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.value - o.value, self.field)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(o.value - self.value, self.field)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.value * o.value, self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return FieldElement(-self.value, self.field)

    def __pow__(self, exponent: int):
        if self.value == 0 and exponent < 0:
            raise ZeroDivisionError("cannot invert zero")
        return FieldElement(pow(self.value, exponent, self.field.q), self.field)

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroDivisionError("cannot invert zero")
        return FieldElement(pow(self.value, -1, self.field.q), self.field)

    def is_square(self) -> bool:
        return self.field.is_square(self)

    def sqrt(self):
        return self.field.sqrt(self)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.q
        return NotImplemented

    def __hash__(self):
        return hash((self.field.q, self.value))

    def __int__(self):
        return self.value

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} (mod {self.field.q})"
