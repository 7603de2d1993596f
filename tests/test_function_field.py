import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agsdmm import (
    HyperellipticCurve,
    Place,
    PrimeField,
    SchemeParams,
    build_scheme,
    is_prime,
)
from agsdmm import function_field
from agsdmm.function_field import SCAN_CHUNK, scan_run_x


@pytest.fixture
def curve7():
    return HyperellipticCurve(PrimeField(7), 3)


def _brute_force_x_scan(q, d):
    # reference without the library: f(x) = x(x-1)...(x-(d-1)) as a scalar
    # product and the squares of F_q by squaring every element; the x that carry
    # a point, f at those x, and the smallest square root of each f
    smallest_root = {}
    for b in range(q):
        smallest_root.setdefault(b * b % q, b)
    xs, fs, ys = [], [], []
    for a in range(q):
        fa = 1
        for r in range(d):
            fa = fa * (a - r) % q
        if fa in smallest_root:
            xs.append(a)
            fs.append(fa)
            ys.append(smallest_root[fa])
    return xs, fs, ys


def _exponents(w, d):
    # reference for the canonical basis without the library: the (a, b) with
    # b in {0, 1}, a >= 0 and 2a + d*b = w, found by search; None for a gap
    found = [(a, b) for b in (0, 1) for a in range(w // 2 + 1) if 2 * a + d * b == w]
    assert len(found) <= 1  # d is odd, so b is the parity of w
    return found[0] if found else None


def _place_count(curve):
    # rational places: two over each x where f(x) is a nonzero square, one where
    # f(x) = 0, and the place at infinity
    f = curve.f_values([p.x for p in curve.select_distinct_x_places()])
    return 2 * len(f) - int(np.count_nonzero(f == 0)) + 1


def _riemann_roch_basis(curve, k):
    # the exponents (a, b) of the canonical monomials with pole order <= k, by pole order
    return [e for e in (_exponents(w, curve.d) for w in range(k + 1)) if e is not None]


def _evaluate(exponents, place, q):
    # scalar reference: x^a y^b at one affine place
    a, b = exponents
    return pow(place.x, a, q) * (place.y if b else 1) % q


def _refused(d, pole_orders):
    # the pole orders that evaluation_matrix refuses, each with the gap message
    curve = HyperellipticCurve(PrimeField(17), d)
    places = curve.select_distinct_x_places()
    refused = []
    for w in pole_orders:
        try:
            curve.evaluation_matrix([w], places)
        except ValueError as err:
            assert str(err) == f"{w} is a gap for d={d}; no function has that pole order"
            refused.append(w)
    return refused


def test_curve_expands_f(curve7):
    # x(x-1)(x-2) = x^3 - 3x^2 + 2x = x^3 + 4x^2 + 2x over F_7
    assert curve7.d == 3
    assert curve7.genus == 1
    assert curve7.roots == (0, 1, 2)
    xs = np.arange(7)
    assert curve7.f_values(xs).tolist() == ((xs**3 + 4 * xs**2 + 2 * xs) % 7).tolist()


@pytest.mark.parametrize("d,genus", [(3, 1), (5, 2), (7, 3), (1, 0)])
def test_genus_formula(d, genus):
    curve = HyperellipticCurve(PrimeField(11), d)
    assert curve.genus == genus


def test_curve_rejects_bad_inputs():
    f = PrimeField(7)
    for d in (4, 0, 9, -1):  # even, zero, above q, negative
        with pytest.raises(ValueError, match="d must be odd"):
            HyperellipticCurve(f, d)
    assert HyperellipticCurve(f, 7).roots == tuple(range(7))  # d = q: f = x^7 - x
    with pytest.raises(ValueError):
        PrimeField(4)  # even field order is impossible to construct


@pytest.mark.parametrize("d,expected", [(3, [1]), (5, [1, 3]), (1, [])])
def test_gap_examples(d, expected):
    assert _refused(d, range(4 * d)) == expected


@pytest.mark.parametrize("d", [1, 3, 5, 7, 9, 11, 13, 15])
def test_gaps_complement_pole_numbers(d):
    # among w in [-2, 4g + 2] exactly the negatives and the g gaps 1, 3, ..., 2g - 1 are refused
    g = (d - 1) // 2
    assert _refused(d, range(-2, 4 * g + 3)) == [-2, -1, *range(1, 2 * g, 2)]


def test_is_pole_number_examples():
    assert _refused(5, [4, 3, 7, -2]) == [3, -2]  # 7 = 2 + 5


def test_monomial_for_pole_number_examples():
    assert _exponents(3, 3) == (0, 1)  # y
    assert _exponents(4, 3) == (2, 0)  # x^2
    assert _exponents(7, 5) == (1, 1)  # x y
    assert _exponents(1, 3) is None  # gap
    # the library's rows are those monomials: (5, 2) lies on y^2 = x(x - 1)(x - 2) over F_7
    c3 = HyperellipticCurve(PrimeField(7), 3)
    assert c3.evaluation_matrix([3, 4], [Place(5, 2)]).tolist() == [[2], [4]]
    c5 = HyperellipticCurve(PrimeField(11), 5)
    place = next(p for p in c5.select_distinct_x_places() if p.y > 1)  # (6, 4)
    assert c5.evaluation_matrix([7], [place]).tolist() == [[place.x * place.y % 11]]


@pytest.mark.parametrize("d", [3, 5, 7, 9])
def test_monomials_biject_with_pole_numbers(d):
    curve = HyperellipticCurve(PrimeField(23), d)
    g = curve.genus
    k = 4 * g + 5
    basis = _riemann_roch_basis(curve, k)
    poles = [2 * a + d * b for a, b in basis]
    assert poles == [w for w in range(k + 1) if w not in range(1, 2 * g, 2)]
    assert len(set(basis)) == len(basis)


def test_riemann_roch_basis_examples():
    c3 = HyperellipticCurve(PrimeField(7), 3)
    assert _riemann_roch_basis(c3, 1) == [(0, 0)]
    assert _riemann_roch_basis(c3, 3) == [(0, 0), (1, 0), (0, 1)]
    c5 = HyperellipticCurve(PrimeField(11), 5)
    basis = _riemann_roch_basis(c5, 5)
    assert basis == [(0, 0), (1, 0), (2, 0), (0, 1)]
    assert len(basis) == 5 + 1 - 2


@pytest.mark.parametrize("d", [3, 5, 7])
def test_riemann_roch_dimension_beyond_gaps(d):
    curve = HyperellipticCurve(PrimeField(29), d)
    g = curve.genus
    for k in range(2 * g - 1, 2 * g + 6):
        assert len(_riemann_roch_basis(curve, k)) == k + 1 - g
    assert _riemann_roch_basis(curve, -1) == []


def test_evaluate_examples(curve7):
    assert curve7.f_values([6]).tolist() == [1]  # f(6) = 120 = 1 mod 7: (6, 1) is on the curve
    # x and 1, of pole orders 2 and 0
    assert curve7.evaluation_matrix([2, 0], [Place(6, 1)]).tolist() == [[6], [1]]


def test_evaluate_xy_example(curve7):
    # f(5) = 5*4*3 = 60 = 4 mod 7 and 2^2 = 4, so (5, 2) is on the curve
    assert curve7.f_values([5]).tolist() == [4]
    # x y, of pole order 2 + 3
    assert curve7.evaluation_matrix([5], [Place(5, 2)]).tolist() == [[3]]  # 5*2 = 10 = 3


def test_enumerate_places_example(curve7):
    # both square roots of f over each x the scan keeps are every affine point, sorted
    places = curve7.select_distinct_x_places()
    fs = curve7.f_values([p.x for p in places]).tolist()
    affine = [(p.x, y) for p, fa in zip(places, fs) for y in curve7.field.square_roots(fa)]
    assert affine == [(a, b) for a in range(7) for b in range(7)
                      if b * b % 7 == a * (a - 1) * (a - 2) % 7]
    assert _place_count(curve7) == len(affine) + 1 == 8  # 7 affine + infinity
    for root in curve7.roots:
        assert (root, 0) in affine


@pytest.mark.parametrize("q", [7, 11, 13, 17, 23, 101])
@pytest.mark.parametrize("d", [3, 5])
def test_hasse_weil_bound(q, d):
    curve = HyperellipticCurve(PrimeField(q), d)
    count = _place_count(curve)
    assert abs(count - (q + 1)) <= math.isqrt(4 * curve.genus**2 * q)


def test_select_distinct_x_example(curve7):
    places = curve7.select_distinct_x_places()
    assert [p.x for p in places] == [0, 1, 2, 5, 6]
    assert [p.y for p in places] == [0, 0, 0, 2, 1]  # smallest y representative


@pytest.mark.parametrize("q,d", [(11, 3), (17, 3), (23, 5)])
def test_select_distinct_x_properties(q, d):
    curve = HyperellipticCurve(PrimeField(q), d)
    places = curve.select_distinct_x_places()
    xs = [p.x for p in places]
    assert len(set(xs)) == len(xs)
    ref_x, ref_f, _ = _brute_force_x_scan(q, d)
    affine = 2 * len(ref_x) - ref_f.count(0)
    assert 2 * len(places) >= affine
    for root in curve.roots:
        assert (root, 0) in [(p.x, p.y) for p in places]


# q = 1 and q = 3 (mod 4), which take different Tonelli-Shanks branches, small and large
@pytest.mark.parametrize("q", [13, 19, 1009, 1019])
@pytest.mark.parametrize("roots", [(0, 1, 2), (0, 1, 2, 3, 4), tuple(range(7))])
def test_scan_matches_brute_force_reference(q, roots):
    curve = HyperellipticCurve(PrimeField(q), len(roots))
    assert curve.roots == roots
    xs, fs, ys = _brute_force_x_scan(q, len(roots))
    got_x = scan_run_x(q, len(roots))
    assert got_x.dtype == np.int64
    assert got_x.tolist() == xs and curve.f_values(got_x).tolist() == fs
    assert [(p.x, p.y) for p in curve.select_distinct_x_places()] == list(zip(xs, ys))


_PRIMES = {r: [p for p in range(5, 700) if is_prime(p) and p % 4 == r] for r in (1, 3)}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("residue", [1, 3])
def test_scan_window_matches_brute_force_property(residue, data):
    # the Legendre-symbol window against the scalar reference, with chunks of a
    # few x so that windows cross chunk boundaries and d - 1 often exceeds the chunk
    q = data.draw(st.sampled_from(_PRIMES[residue]), label="q")
    d = 2 * data.draw(st.integers(0, min(25, (q - 1) // 2)), label="(d - 1) / 2") + 1
    chunk = data.draw(st.integers(1, 6), label="SCAN_CHUNK")
    curve = HyperellipticCurve(PrimeField(q), d)
    xs, _, ys = _brute_force_x_scan(q, d)
    limit = data.draw(st.sampled_from([None, 0, len(xs), len(xs) + 1, len(xs) + 9])
                      | st.integers(1, len(xs)), label="limit")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(function_field, "SCAN_CHUNK", chunk)
        got = scan_run_x(q, d, limit)
        places = curve.select_distinct_x_places(limit)
    k = len(xs) if limit is None else limit
    assert got.tolist() == xs[:k]
    assert [(p.x, p.y) for p in places] == list(zip(xs[:k], ys[:k]))


def test_places_refuse_an_x_without_a_point(curve7, monkeypatch):
    # f(3) = 6 is not a square mod 7, so a scan that kept x = 3 is refused
    monkeypatch.setattr(function_field, "scan_run_x", lambda q, d, limit: np.array([5, 3]))
    with pytest.raises(RuntimeError, match="not a square"):
        curve7.select_distinct_x_places()


def test_window_carries_more_than_a_chunk(monkeypatch):
    # d - 1 = 20 flags carried across chunks of 3: every window spans several chunks
    monkeypatch.setattr(function_field, "SCAN_CHUNK", 3)
    xs, _, _ = _brute_force_x_scan(1019, 21)
    assert scan_run_x(1019, 21).tolist() == xs
    for k in (0, 20, 21, 22, len(xs) // 2, len(xs), len(xs) + 1):
        assert scan_run_x(1019, 21, k).tolist() == xs[:k]


def test_window_scan_needs_the_run_to_fit_the_field():
    assert scan_run_x(7, 7).tolist() == list(range(7))  # f = x^7 - x vanishes on F_7
    with pytest.raises(ValueError):
        scan_run_x(7, 9)
    with pytest.raises(ValueError):
        scan_run_x(7, 0)


def test_scan_limit_returns_prefix():
    # q = 8209 > 2 SCAN_CHUNK, so some limits stop inside the second chunk
    q = next(p for p in range(2 * SCAN_CHUNK + 1, 3 * SCAN_CHUNK, 2) if is_prime(p))
    for d in (5, 21):
        curve = HyperellipticCurve(PrimeField(q), d)
        full_x = scan_run_x(q, d)
        assert SCAN_CHUNK // 2 < len(full_x) < 2 * SCAN_CHUNK
        every = curve.select_distinct_x_places()
        assert [p.x for p in every] == full_x.tolist()
        for k in (0, 1, 7, SCAN_CHUNK // 2, SCAN_CHUNK, len(full_x), len(full_x) + 5):
            assert scan_run_x(q, d, k).tolist() == full_x[:k].tolist()
            assert curve.select_distinct_x_places(k) == every[:k]


@pytest.mark.parametrize("q,d", [(7, 3), (23, 5), (101, 7), (1009, 3)])
def test_evaluation_matrix_matches_scalar_evaluate(q, d):
    curve = HyperellipticCurve(PrimeField(q), d)
    # every affine place: both y over each x the scan keeps
    places = [Place(p.x, y) for p in curve.select_distinct_x_places()
              for y in sorted({p.y, -p.y % q})]
    poles = [w for w in range(3 * d + 4) if _exponents(w, d) is not None]
    mat = curve.evaluation_matrix(poles, places)
    assert mat.dtype == np.int64 and mat.shape == (len(poles), len(places))
    for t, w in enumerate(poles):
        assert mat[t].tolist() == [_evaluate(_exponents(w, d), p, q) for p in places]
    assert curve.evaluation_matrix([], places).shape == (0, len(places))
    with pytest.raises(ValueError):
        curve.evaluation_matrix([1], places)  # 1 is a gap


def test_field_values_are_plain_ints():
    # numpy ints must not leak out: json.dumps refuses np.int64
    inst = build_scheme(SchemeParams(2, 2, 1))
    curve = inst.curve
    places = curve.select_distinct_x_places() + inst.places
    coords = [v for p in places for v in (p.x, p.y)]
    assert coords and all(type(v) is int for v in coords)
    json.dumps(coords)
    field = curve.field
    values = [*field.square_roots(np.int64(4)), *field.square_roots(0),
              *field.square_roots(np.int64(13)), *curve.roots]
    assert all(type(v) is int for v in values)
    json.dumps(values)


def test_small_primes_helper_agrees():
    sieve = {2, 3, 5, 7, 11, 13}
    for n in range(2, 14):
        assert is_prime(n) == (n in sieve)
