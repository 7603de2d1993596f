import pytest

from agsdmm import PrimeField, is_prime

SMALL_PRIMES = [q for q in range(3, 201, 2) if is_prime(q)]


@pytest.mark.parametrize("q", [1, 2, 4, 9, 15, 2**31])
def test_bad_field_orders_rejected(q):
    with pytest.raises(ValueError):
        PrimeField(q)


def test_is_square_examples():
    f = PrimeField(7)
    assert f.is_square(2) is True  # 3^2 = 2 mod 7
    assert f.is_square(6) is False
    assert f.is_square(0) is True


@pytest.mark.parametrize("q", SMALL_PRIMES)
def test_is_square_matches_brute_force(q):
    f = PrimeField(q)
    squares = {b * b % q for b in range(q)}
    for v in range(q):
        assert f.is_square(v) == (v in squares)


@pytest.mark.parametrize("q", SMALL_PRIMES)
def test_nonzero_square_count(q):
    f = PrimeField(q)
    assert sum(1 for v in range(1, q) if f.is_square(v)) == (q - 1) // 2


def test_sqrt_examples():
    f13 = PrimeField(13)
    assert f13.sqrt(4) == (2, 11)
    assert f13.sqrt(0) == (0,)
    f7 = PrimeField(7)
    assert not any(b * b % 7 == 5 for b in range(7))  # independent check
    assert f7.sqrt(5) is None


@pytest.mark.parametrize("q", [7, 13, 101, 199])
def test_sqrt_roundtrip_small(q):
    f = PrimeField(q)
    for v in range(q):
        roots = f.sqrt(v)
        if roots is None:
            assert not f.is_square(v)
            continue
        for r in roots:
            assert r * r % q == v


@pytest.mark.parametrize("q", [1009, 10007, 1019])  # 1009, 10007 = 1 mod 4; 1019 = 3 mod 4
def test_sqrt_roundtrip_tonelli_shanks(q):
    f = PrimeField(q)
    square_count = 0
    for v in range(0, q, 7):
        roots = f.sqrt(v)
        if roots is None:
            continue
        square_count += 1
        for r in roots:
            assert r * r % q == v
    assert square_count > 0


def test_sqrt_returns_both_roots_ordered():
    f = PrimeField(13)
    lo, hi = f.sqrt(4)
    assert lo < hi and lo + hi == 13


def test_field_order_repr_and_unreduced_values():
    f = PrimeField(5)
    assert f.q == 5 and repr(f) == "PrimeField(5)"
    # values are ints read mod q
    assert f.sqrt(9) == f.sqrt(4) == f.sqrt(-1) == (2, 3)
