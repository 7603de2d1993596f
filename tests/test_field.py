import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from agsdmm import PrimeField, is_prime
from agsdmm.field import _square_roots

SMALL_PRIMES = [q for q in range(3, 201, 2) if is_prime(q)]


def _is_square(field, v):
    # the residue test is square_roots' refusal of a non-square
    try:
        field.square_roots(v)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("q", [1, 2, 4, 9, 15, 2**31])
def test_bad_field_orders_rejected(q):
    with pytest.raises(ValueError):
        PrimeField(q)


def test_is_square_examples():
    f = PrimeField(7)
    assert _is_square(f, 2) is True  # 3^2 = 2 mod 7
    assert _is_square(f, 6) is False
    assert _is_square(f, 0) is True


@pytest.mark.parametrize("q", SMALL_PRIMES)
def test_is_square_matches_brute_force(q):
    f = PrimeField(q)
    squares = {b * b % q for b in range(q)}
    for v in range(q):
        assert _is_square(f, v) == (v in squares)


@pytest.mark.parametrize("q", SMALL_PRIMES)
def test_nonzero_square_count(q):
    f = PrimeField(q)
    assert sum(1 for v in range(1, q) if _is_square(f, v)) == (q - 1) // 2


def test_sqrt_examples():
    f13 = PrimeField(13)
    assert f13.square_roots(4) == (2, 11)
    assert f13.square_roots(0) == (0,)
    f7 = PrimeField(7)
    assert not any(b * b % 7 == 5 for b in range(7))  # independent check
    with pytest.raises(ValueError, match="not a square"):
        f7.square_roots(5)


@pytest.mark.parametrize("q", [7, 13, 101, 199])
def test_sqrt_roundtrip_small(q):
    f = PrimeField(q)
    squares = {b * b % q for b in range(q)}
    for v in squares:
        roots = f.square_roots(v)
        assert len(roots) == (1 if v == 0 else 2)
        for r in roots:
            assert r * r % q == v


@pytest.mark.parametrize("q", [1009, 10007, 1019])  # 1009, 10007 = 1 mod 4; 1019 = 3 mod 4
def test_sqrt_roundtrip_tonelli_shanks(q):
    f = PrimeField(q)
    square_count = 0
    for v in range(0, q, 7):
        if not _is_square(f, v):
            continue
        square_count += 1
        for r in f.square_roots(v):
            assert r * r % q == v
    assert square_count > 0


def test_sqrt_returns_both_roots_ordered():
    f = PrimeField(13)
    lo, hi = f.square_roots(4)
    assert lo < hi and lo + hi == 13


def test_field_order_repr_and_unreduced_values():
    f = PrimeField(5)
    assert f.q == 5 and repr(f) == "PrimeField(5)"
    # values are ints read mod q
    assert f.square_roots(9) == f.square_roots(4) == f.square_roots(-1) == (2, 3)


# q - 1 = s * 2^e with e = 1, 2, 1, 4, 2, 3, 9, 16, 23, 1: every number of masked steps
@settings(max_examples=50, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("q", [3, 5, 7, 17, 197, 617, 7681, 65537, 998244353, 2**31 - 1])
def test_vectorized_square_roots_are_the_smallest(q, data):
    v = data.draw(hnp.arrays(np.int64, st.integers(0, 40), elements=st.integers(0, q - 1)))
    roots = _square_roots(v * v % q, q)
    assert roots.dtype == np.int64
    assert np.array_equal(roots, np.minimum(v, q - v))
