import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agsdmm import (
    HyperellipticCurve,
    Monomial,
    Place,
    PrimeField,
    SchemeParams,
    WeierstrassSemigroup,
    build_scheme,
    is_prime,
)
from agsdmm import function_field
from agsdmm.function_field import SCAN_CHUNK, scan_run_x


@pytest.fixture
def curve7():
    return HyperellipticCurve(PrimeField(7), (0, 1, 2))


def test_curve_expands_f(curve7):
    # (x)(x-1)(x-2) = x^3 - 3x^2 + 2x = x^3 + 4x^2 + 2x over F_7
    assert curve7.d == 3
    assert curve7.genus == 1
    assert curve7.f_coeffs == (0, 2, 4, 1)


@pytest.mark.parametrize("d,genus", [(3, 1), (5, 2), (7, 3), (1, 0)])
def test_genus_formula(d, genus):
    curve = HyperellipticCurve(PrimeField(11), range(d))
    assert curve.genus == genus


def test_curve_rejects_bad_inputs():
    f = PrimeField(7)
    with pytest.raises(ValueError):
        HyperellipticCurve(f, (0, 1, 1))  # repeated root
    with pytest.raises(ValueError):
        HyperellipticCurve(f, (0, 1, 2, 3))  # even degree
    with pytest.raises(ValueError):
        PrimeField(4)  # even field order is impossible to construct


@pytest.mark.parametrize("d,expected", [(3, [1]), (5, [1, 3]), (1, [])])
def test_gap_examples(d, expected):
    assert WeierstrassSemigroup(d).gaps() == expected


@pytest.mark.parametrize("d", [1, 3, 5, 7, 9, 11, 13, 15])
def test_gaps_complement_pole_numbers(d):
    sg = WeierstrassSemigroup(d)
    gaps = set(sg.gaps())
    assert len(gaps) == sg.g
    for w in range(4 * sg.g + 3):
        assert sg.is_pole_number(w) == (w not in gaps)
        assert (w in sg) == sg.is_pole_number(w)


def test_is_pole_number_examples():
    sg = WeierstrassSemigroup(5)
    assert sg.is_pole_number(4)
    assert not sg.is_pole_number(3)
    assert sg.is_pole_number(7)  # 7 = 2 + 5
    assert not sg.is_pole_number(-2)


def test_semigroup_rejects_even_d():
    with pytest.raises(ValueError):
        WeierstrassSemigroup(4)


def test_monomial_for_pole_number_examples():
    c3 = HyperellipticCurve(PrimeField(7), (0, 1, 2))
    assert c3.monomial_for_pole_number(3) == Monomial(0, 1)  # y
    assert c3.monomial_for_pole_number(4) == Monomial(2, 0)  # x^2
    c5 = HyperellipticCurve(PrimeField(11), range(5))
    assert c5.monomial_for_pole_number(7) == Monomial(1, 1)  # x y
    with pytest.raises(ValueError):
        c3.monomial_for_pole_number(1)  # gap


@pytest.mark.parametrize("d", [3, 5, 7, 9])
def test_monomials_biject_with_pole_numbers(d):
    curve = HyperellipticCurve(PrimeField(23), range(d))
    sg = curve.semigroup()
    k = 4 * curve.genus + 5
    basis = curve.riemann_roch_basis(k)
    poles = [mono.pole_number(d) for mono in basis]
    assert poles == sorted(w for w in range(k + 1) if sg.is_pole_number(w))
    assert len(set(basis)) == len(basis)


def test_riemann_roch_basis_examples():
    c3 = HyperellipticCurve(PrimeField(7), (0, 1, 2))
    assert c3.riemann_roch_basis(1) == [Monomial(0, 0)]
    assert c3.riemann_roch_basis(3) == [Monomial(0, 0), Monomial(1, 0), Monomial(0, 1)]
    c5 = HyperellipticCurve(PrimeField(11), range(5))
    basis = c5.riemann_roch_basis(5)
    assert basis == [Monomial(0, 0), Monomial(1, 0), Monomial(2, 0), Monomial(0, 1)]
    assert len(basis) == 5 + 1 - 2


@pytest.mark.parametrize("d", [3, 5, 7])
def test_riemann_roch_dimension_beyond_gaps(d):
    curve = HyperellipticCurve(PrimeField(29), range(d))
    g = curve.genus
    for k in range(2 * g - 1, 2 * g + 6):
        assert len(curve.riemann_roch_basis(k)) == k + 1 - g
    assert curve.riemann_roch_basis(-1) == []


def test_evaluate_examples(curve7):
    place = curve7.affine_place(6, 1)  # f(6) = 120 = 1 mod 7
    assert curve7.evaluate(Monomial(1, 0), place) == 6
    assert curve7.evaluate(Monomial(0, 0), place) == 1


def test_evaluate_xy_example(curve7):
    # f(5) = 5*4*3 = 60 = 4 mod 7 and 2^2 = 4, so (5, 2) is on the curve
    assert curve7.f_at(5) == 4
    place = curve7.affine_place(5, 2)
    assert curve7.evaluate(Monomial(1, 1), place) == 3  # 5*2 = 10 = 3


def test_affine_place_validates(curve7):
    with pytest.raises(ValueError):
        curve7.affine_place(3, 1)  # f(3) = 6, not 1


def test_evaluate_at_infinity_raises(curve7):
    with pytest.raises(ValueError):
        curve7.evaluate(Monomial(1, 0), Place.at_infinity())
    with pytest.raises(ValueError):
        Place.at_infinity().coords()


def test_enumerate_places_example(curve7):
    places = curve7.enumerate_places()
    assert len(places) == 8  # 7 affine + infinity
    assert places[-1].is_infinity
    affine = places[:-1]
    for p in affine:
        assert p.y * p.y % 7 == curve7.f_at(p.x)
    coords = [p.coords() for p in affine]
    assert coords == sorted(coords)
    for root in curve7.roots:
        assert (root, 0) in coords


@pytest.mark.parametrize("q", [7, 11, 13, 17, 23, 101])
@pytest.mark.parametrize("d", [3, 5])
def test_hasse_weil_bound(q, d):
    curve = HyperellipticCurve(PrimeField(q), range(d))
    count = len(curve.enumerate_places())
    assert abs(count - (q + 1)) <= math.isqrt(4 * curve.genus**2 * q)


def test_select_distinct_x_example(curve7):
    places = curve7.select_distinct_x_places()
    assert [p.x for p in places] == [0, 1, 2, 5, 6]
    assert [p.y for p in places] == [0, 0, 0, 2, 1]  # smallest y representative


@pytest.mark.parametrize("q,d", [(11, 3), (17, 3), (23, 5)])
def test_select_distinct_x_properties(q, d):
    curve = HyperellipticCurve(PrimeField(q), range(d))
    places = curve.select_distinct_x_places()
    xs = [p.x for p in places]
    assert len(set(xs)) == len(xs)
    affine = len(curve.enumerate_places()) - 1
    assert 2 * len(places) >= affine
    for root in curve.roots:
        assert (root, 0) in [p.coords() for p in places]


def _brute_force_x_scan(curve):
    # reference: scalar f_at and the field's square root at every x
    xs, fs = [], []
    for a in range(curve.field.q):
        fa = curve.f_at(a)
        if curve.field.sqrt(fa) is not None:
            xs.append(a)
            fs.append(fa)
    return xs, fs


# q = 1 and q = 3 (mod 4), which take different Tonelli-Shanks branches, small and large
@pytest.mark.parametrize("q", [13, 19, 1009, 1019])
@pytest.mark.parametrize("roots", [(0, 1, 2), (0, 1, 2, 3, 4), (3, 7, 11)])
def test_scan_matches_brute_force_reference(q, roots):
    curve = HyperellipticCurve(PrimeField(q), roots)
    xs, fs = _brute_force_x_scan(curve)
    got_x = curve.scan_x()
    assert got_x.dtype == np.int64
    assert got_x.tolist() == xs and curve.f_values(got_x).tolist() == fs
    places = curve.select_distinct_x_places()
    assert [p.coords() for p in places] == [
        (a, curve.field.sqrt(fa)[0]) for a, fa in zip(xs, fs)
    ]
    expected = [(a, y) for a, fa in zip(xs, fs) for y in curve.field.sqrt(fa)]
    assert [p.coords() for p in curve.enumerate_places()[:-1]] == expected


_PRIMES = {r: [p for p in range(5, 700) if is_prime(p) and p % 4 == r] for r in (1, 3)}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("residue", [1, 3])
@pytest.mark.parametrize("run", [True, False], ids=["run-roots", "scattered-roots"])
def test_scan_window_matches_brute_force_property(residue, run, data):
    # the Legendre-symbol window (roots 0..d-1) and the general path (any
    # other roots) against the scalar reference, with chunks of a few x so
    # that windows cross chunk boundaries and d - 1 often exceeds the chunk
    q = data.draw(st.sampled_from(_PRIMES[residue]), label="q")
    d = 2 * data.draw(st.integers(0, min(25, (q - 1) // 2)), label="(d - 1) / 2") + 1
    if run:
        roots = tuple(range(d))
    else:
        roots = tuple(data.draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d, unique=True)
                                .filter(lambda r: max(r) != d - 1), label="roots"))
    chunk = data.draw(st.integers(1, 6), label="SCAN_CHUNK")
    curve = HyperellipticCurve(PrimeField(q), roots)
    xs, fs = _brute_force_x_scan(curve)
    limit = data.draw(st.sampled_from([None, 0, len(xs), len(xs) + 1, len(xs) + 9])
                      | st.integers(1, len(xs)), label="limit")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(function_field, "SCAN_CHUNK", chunk)
        got = curve.scan_x(limit)
        places = curve.select_distinct_x_places(limit)
    k = len(xs) if limit is None else limit
    assert got.tolist() == xs[:k]
    assert [p.coords() for p in places] == [
        (a, curve.field.sqrt(fa)[0]) for a, fa in zip(xs[:k], fs[:k])
    ]


def test_window_carries_more_than_a_chunk(monkeypatch):
    # d - 1 = 20 flags carried across chunks of 3: every window spans several chunks
    monkeypatch.setattr(function_field, "SCAN_CHUNK", 3)
    curve = HyperellipticCurve(PrimeField(1019), range(21))
    xs, _ = _brute_force_x_scan(curve)
    assert curve.scan_x().tolist() == xs
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
    for roots in (range(5), (3, 7, 11, 12, 20)):
        curve = HyperellipticCurve(PrimeField(q), roots)
        full_x = curve.scan_x()
        assert SCAN_CHUNK // 2 < len(full_x) < 2 * SCAN_CHUNK
        for k in (0, 1, 7, SCAN_CHUNK // 2, SCAN_CHUNK, len(full_x), len(full_x) + 5):
            assert curve.scan_x(k).tolist() == full_x[:k].tolist()
        places = curve.select_distinct_x_places(10)
        assert places == curve.select_distinct_x_places()[:10]


@pytest.mark.parametrize("q,d", [(7, 3), (23, 5), (101, 7), (1009, 3)])
def test_evaluation_matrix_matches_scalar_evaluate(q, d):
    curve = HyperellipticCurve(PrimeField(q), range(d))
    places = curve.enumerate_places()[:-1]
    poles = [w for w in range(3 * d + 4) if curve.semigroup().is_pole_number(w)]
    mat = curve.evaluation_matrix(poles, places)
    assert mat.dtype == np.int64 and mat.shape == (len(poles), len(places))
    for t, w in enumerate(poles):
        mono = curve.monomial_for_pole_number(w)
        assert mat[t].tolist() == [curve.evaluate(mono, p) for p in places]
    assert curve.evaluation_matrix([], places).shape == (0, len(places))
    with pytest.raises(ValueError):
        curve.evaluation_matrix([0], [Place.at_infinity()])
    with pytest.raises(ValueError):
        curve.evaluation_matrix([1], places)  # 1 is a gap


def test_monomial_products_and_str():
    assert Monomial(1, 0) * Monomial(0, 1) == Monomial(1, 1)
    assert str(Monomial(0, 0)) == "1"
    assert str(Monomial(2, 1)) == "x^2 y"
    assert str(Monomial(1, 0)) == "x"
    with pytest.raises(ValueError):
        Monomial(0, 1) * Monomial(0, 1)
    with pytest.raises(ValueError):
        Monomial(-1, 0)
    with pytest.raises(ValueError):
        Monomial(1, 2)


def test_field_values_are_plain_ints():
    # numpy ints must not leak out: json.dumps refuses np.int64
    inst = build_scheme(SchemeParams(2, 2, 1))
    curve = inst.curve
    places = curve.select_distinct_x_places() + curve.enumerate_places()[:-1] + inst.places
    coords = [v for p in places for v in (p.x, p.y)]
    assert coords and all(type(v) is int for v in coords)
    json.dumps(coords)
    field = curve.field
    values = [*field.sqrt(np.int64(4)), *field.sqrt(0), *field.square_roots(np.int64(13)),
              curve.f_at(np.int64(5)), *curve.f_coeffs, *curve.roots]
    values += [curve.evaluate(Monomial(a, b), p) for a, b in ((0, 0), (2, 1)) for p in places]
    assert all(type(v) is int for v in values)
    json.dumps(values)


def test_pole_number_of_monomial():
    assert Monomial(2, 1).pole_number(5) == 9
    assert Monomial(3, 0).pole_number(5) == 6


def test_small_primes_helper_agrees():
    sieve = {2, 3, 5, 7, 11, 13}
    for n in range(2, 14):
        assert is_prime(n) == (n in sieve)
