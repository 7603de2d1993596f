import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from agsdmm import is_prime
from agsdmm.field import _square_roots, check_odd_prime

SMALL_PRIMES = [q for q in range(3, 201, 2) if is_prime(q)]


def _roots(v, q):
    # both square roots of v mod q, ascending, or (0,) for zero, or None for a
    # non-square: _square_roots' smallest root, kept only if it squares back to v
    v %= q
    r = int(_square_roots(np.array([v], dtype=np.int64), q)[0])
    if r * r % q != v:
        return None
    return (0,) if v == 0 else (r, q - r)


def _is_square(v, q):
    return _roots(v, q) is not None


@pytest.mark.parametrize("q", [1, 2, 4, 9, 15, 2**31])
def test_bad_field_orders_rejected(q):
    with pytest.raises(ValueError):
        check_odd_prime(q)



def test_is_prime_outside_its_range():
    # below 2 nothing is prime; from the cap on the trial division is refused
    assert is_prime(1) is False and is_prime(0) is False
    with pytest.raises(ValueError, match=r"^field order 2147483648 exceeds supported cap 2147483648$"):
        is_prime(2**31)

def test_is_square_examples():
    assert _is_square(2, 7) is True  # 3^2 = 2 mod 7
    assert _is_square(6, 7) is False
    assert _is_square(0, 7) is True


@pytest.mark.parametrize("q", SMALL_PRIMES)
def test_is_square_matches_brute_force(q):
    squares = {b * b % q for b in range(q)}
    for v in range(q):
        assert _is_square(v, q) == (v in squares)


@pytest.mark.parametrize("q", SMALL_PRIMES)
def test_nonzero_square_count(q):
    assert sum(1 for v in range(1, q) if _is_square(v, q)) == (q - 1) // 2


def test_sqrt_examples():
    assert _roots(4, 13) == (2, 11)
    assert _roots(0, 13) == (0,)
    assert not any(b * b % 7 == 5 for b in range(7))  # independent check
    r = _square_roots(np.array([5]), 7)[0]
    assert r * r % 7 != 5  # a non-square's root fails the residue check
    assert _roots(5, 7) is None


@pytest.mark.parametrize("q", [7, 13, 101, 199])
def test_sqrt_roundtrip_small(q):
    squares = {b * b % q for b in range(q)}
    for v in squares:
        roots = _roots(v, q)
        assert len(roots) == (1 if v == 0 else 2)
        for r in roots:
            assert r * r % q == v


@pytest.mark.parametrize("q", [1009, 10007, 1019])  # 1009, 10007 = 1 mod 4; 1019 = 3 mod 4
def test_sqrt_roundtrip_tonelli_shanks(q):
    square_count = 0
    for v in range(0, q, 7):
        if not _is_square(v, q):
            continue
        square_count += 1
        for r in _roots(v, q):
            assert r * r % q == v
    assert square_count > 0


def test_sqrt_returns_both_roots_ordered():
    lo, hi = _roots(4, 13)
    assert lo < hi and lo + hi == 13


def test_field_order_repr_and_unreduced_values():
    # an odd prime passes the check; any other order gets the one message
    check_odd_prime(5)
    with pytest.raises(ValueError, match="^field order must be an odd prime >= 3, got 9$"):
        check_odd_prime(9)
    # values read mod q have the same roots
    assert _roots(9, 5) == _roots(4, 5) == _roots(-1, 5) == (2, 3)


# q - 1 = s * 2^e with e = 1, 2, 1, 4, 2, 3, 9, 16, 23, 1: every number of masked steps
@settings(max_examples=50, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("q", [3, 5, 7, 17, 197, 617, 7681, 65537, 998244353, 2**31 - 1])
def test_vectorized_square_roots_are_the_smallest(q, data):
    v = data.draw(hnp.arrays(np.int64, st.integers(0, 40), elements=st.integers(0, q - 1)))
    roots = _square_roots(v * v % q, q)
    assert roots.dtype == np.int64
    assert np.array_equal(roots, np.minimum(v, q - v))
