import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agsdmm import SchemeParams, build_scheme, empirical_secrecy_audit, is_prime, run_protocol
from agsdmm import function_field
from agsdmm.field import check_odd_prime
from agsdmm.function_field import (
    SCAN_CHUNK,
    evaluation_matrix,
    f_values,
    scan_run_x,
    select_distinct_x_places,
)
from test_field import _roots


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


def _place_count(q, d):
    # rational places: two over each x where f(x) is a nonzero square, one where
    # f(x) = 0, and the place at infinity
    f = f_values(q, d, select_distinct_x_places(q, d)[:, 0])
    return 2 * len(f) - int(np.count_nonzero(f == 0)) + 1


def _riemann_roch_basis(d, k):
    # the exponents (a, b) of the canonical monomials with pole order <= k, by pole order
    return [e for e in (_exponents(w, d) for w in range(k + 1)) if e is not None]


def _evaluate(exponents, place, q):
    # scalar reference: x^a y^b at one affine place (x, y)
    a, b = exponents
    x, y = (int(v) for v in place)
    return pow(x, a, q) * (y if b else 1) % q


def _refused(d, pole_orders):
    # the pole orders that evaluation_matrix refuses, each with the gap message
    places = select_distinct_x_places(17, d)
    refused = []
    for w in pole_orders:
        try:
            evaluation_matrix(17, d, [w], places)
        except ValueError as err:
            assert str(err) == f"{w} is a gap for d={d}; no function has that pole order"
            refused.append(w)
    return refused


def test_curve_expands_f():
    # x(x-1)(x-2) = x^3 - 3x^2 + 2x = x^3 + 4x^2 + 2x over F_7, with the roots 0, 1, 2
    xs = np.arange(7)
    assert f_values(7, 3, xs).tolist() == ((xs**3 + 4 * xs**2 + 2 * xs) % 7).tolist()
    assert f_values(7, 3, xs).dtype == np.int64
    assert np.flatnonzero(f_values(7, 3, xs) == 0).tolist() == [0, 1, 2]


@pytest.mark.parametrize("d,genus", [(3, 1), (5, 2), (7, 3), (1, 0)])
def test_genus_formula(d, genus):
    # the genus (d - 1) / 2 counts the gaps of the semigroup <2, d>
    assert len(_refused(d, range(4 * d))) == genus == (d - 1) // 2


def test_curve_rejects_bad_inputs():
    for d in (4, 0, 9, -1):  # even, zero, above q, negative
        with pytest.raises(ValueError, match="d must be odd"):
            select_distinct_x_places(7, d)
    # d = q: f = x^7 - x vanishes on F_7, so every x carries the one place (x, 0)
    assert select_distinct_x_places(7, 7).tolist() == [[x, 0] for x in range(7)]
    with pytest.raises(ValueError, match="odd prime"):
        check_odd_prime(4)  # an even field order is refused


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
    assert evaluation_matrix(7, 3, [3, 4], np.array([[5, 2]])).tolist() == [[2], [4]]
    place = next(p for p in select_distinct_x_places(11, 5).tolist() if p[1] > 1)
    assert place == [6, 4]
    assert evaluation_matrix(11, 5, [7], np.array([place])).tolist() == [[6 * 4 % 11]]


@pytest.mark.parametrize("d", [3, 5, 7, 9])
def test_monomials_biject_with_pole_numbers(d):
    g = (d - 1) // 2
    k = 4 * g + 5
    basis = _riemann_roch_basis(d, k)
    poles = [2 * a + d * b for a, b in basis]
    assert poles == [w for w in range(k + 1) if w not in range(1, 2 * g, 2)]
    assert len(set(basis)) == len(basis)


def test_riemann_roch_basis_examples():
    assert _riemann_roch_basis(3, 1) == [(0, 0)]
    assert _riemann_roch_basis(3, 3) == [(0, 0), (1, 0), (0, 1)]
    basis = _riemann_roch_basis(5, 5)
    assert basis == [(0, 0), (1, 0), (2, 0), (0, 1)]
    assert len(basis) == 5 + 1 - 2


@pytest.mark.parametrize("d", [3, 5, 7])
def test_riemann_roch_dimension_beyond_gaps(d):
    g = (d - 1) // 2
    for k in range(2 * g - 1, 2 * g + 6):
        assert len(_riemann_roch_basis(d, k)) == k + 1 - g
    assert _riemann_roch_basis(d, -1) == []


def test_evaluate_examples():
    assert f_values(7, 3, [6]).tolist() == [1]  # f(6) = 120 = 1 mod 7: (6, 1) is on the curve
    # x and 1, of pole orders 2 and 0
    assert evaluation_matrix(7, 3, [2, 0], np.array([[6, 1]])).tolist() == [[6], [1]]


def test_evaluate_xy_example():
    # f(5) = 5*4*3 = 60 = 4 mod 7 and 2^2 = 4, so (5, 2) is on the curve
    assert f_values(7, 3, [5]).tolist() == [4]
    # x y, of pole order 2 + 3
    assert evaluation_matrix(7, 3, [5], np.array([[5, 2]])).tolist() == [[3]]  # 5*2 = 10 = 3


def test_enumerate_places_example():
    # both square roots of f over each x the scan keeps are every affine point, sorted
    xs = select_distinct_x_places(7, 3)[:, 0].tolist()
    fs = f_values(7, 3, xs).tolist()
    affine = [(x, y) for x, fa in zip(xs, fs) for y in _roots(fa, 7)]
    assert affine == [(a, b) for a in range(7) for b in range(7)
                      if b * b % 7 == a * (a - 1) * (a - 2) % 7]
    assert _place_count(7, 3) == len(affine) + 1 == 8  # 7 affine + infinity
    for root in range(3):
        assert (root, 0) in affine


@pytest.mark.parametrize("q", [7, 11, 13, 17, 23, 101])
@pytest.mark.parametrize("d", [3, 5])
def test_hasse_weil_bound(q, d):
    count = _place_count(q, d)
    genus = (d - 1) // 2
    assert abs(count - (q + 1)) <= math.isqrt(4 * genus**2 * q)


def test_select_distinct_x_example():
    places = select_distinct_x_places(7, 3)
    assert places.dtype == np.int64 and places.shape == (5, 2)
    assert places[:, 0].tolist() == [0, 1, 2, 5, 6]
    assert places[:, 1].tolist() == [0, 0, 0, 2, 1]  # smallest y representative


@pytest.mark.parametrize("q,d", [(11, 3), (17, 3), (23, 5)])
def test_select_distinct_x_properties(q, d):
    places = select_distinct_x_places(q, d)
    xs = places[:, 0].tolist()
    assert len(set(xs)) == len(xs)
    ref_x, ref_f, _ = _brute_force_x_scan(q, d)
    affine = 2 * len(ref_x) - ref_f.count(0)
    assert 2 * len(places) >= affine
    for root in range(d):
        assert [root, 0] in places.tolist()


# q = 1 and q = 3 (mod 4), which take different Tonelli-Shanks branches, small and large
@pytest.mark.parametrize("q", [13, 19, 1009, 1019])
@pytest.mark.parametrize("roots", [(0, 1, 2), (0, 1, 2, 3, 4), tuple(range(7))])
def test_scan_matches_brute_force_reference(q, roots):
    d = len(roots)
    assert not f_values(q, d, roots).any()
    xs, fs, ys = _brute_force_x_scan(q, d)
    got_x = scan_run_x(q, d)
    assert got_x.dtype == np.int64
    assert got_x.tolist() == xs and f_values(q, d, got_x).tolist() == fs
    assert select_distinct_x_places(q, d).tolist() == [list(p) for p in zip(xs, ys)]


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
    xs, _, ys = _brute_force_x_scan(q, d)
    limit = data.draw(st.sampled_from([None, 0, len(xs), len(xs) + 1, len(xs) + 9])
                      | st.integers(1, len(xs)), label="limit")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(function_field, "SCAN_CHUNK", chunk)
        got = scan_run_x(q, d, limit)
        places = select_distinct_x_places(q, d, limit)
    k = len(xs) if limit is None else limit
    assert got.tolist() == xs[:k]
    assert places.shape == (len(got), 2)
    assert places.tolist() == [list(p) for p in zip(xs[:k], ys[:k])]


def test_places_refuse_an_x_without_a_point(monkeypatch):
    # f(3) = 6 is not a square mod 7, so a scan that kept x = 3 is refused
    monkeypatch.setattr(function_field, "scan_run_x", lambda q, d, limit: np.array([5, 3]))
    with pytest.raises(RuntimeError, match="not a square"):
        select_distinct_x_places(7, 3)


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
        full_x = scan_run_x(q, d)
        assert SCAN_CHUNK // 2 < len(full_x) < 2 * SCAN_CHUNK
        every = select_distinct_x_places(q, d)
        assert every[:, 0].tolist() == full_x.tolist()
        for k in (0, 1, 7, SCAN_CHUNK // 2, SCAN_CHUNK, len(full_x), len(full_x) + 5):
            assert scan_run_x(q, d, k).tolist() == full_x[:k].tolist()
            assert np.array_equal(select_distinct_x_places(q, d, k), every[:k])


@pytest.mark.parametrize("q,d", [(7, 3), (23, 5), (101, 7), (1009, 3)])
def test_evaluation_matrix_matches_scalar_evaluate(q, d):
    # every affine place: both y over each x the scan keeps
    places = np.array([(x, y) for x, y0 in select_distinct_x_places(q, d).tolist()
                       for y in sorted({y0, -y0 % q})])
    poles = [w for w in range(3 * d + 4) if _exponents(w, d) is not None]
    mat = evaluation_matrix(q, d, poles, places)
    assert mat.dtype == np.int64 and mat.shape == (len(poles), len(places))
    for t, w in enumerate(poles):
        assert mat[t].tolist() == [_evaluate(_exponents(w, d), p, q) for p in places]
    assert evaluation_matrix(q, d, [], places).shape == (0, len(places))
    with pytest.raises(ValueError):
        evaluation_matrix(q, d, [1], places)  # 1 is a gap


_SCAN_PRIMES = [p for p in range(5, 300) if is_prime(p)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_place_subsets_index_the_evaluation_columns(data):
    # evaluating at a subset of the place rows is the same subset of the columns,
    # for any subset, order and repetition of the rows
    q = data.draw(st.sampled_from(_SCAN_PRIMES), label="q")
    d = 2 * data.draw(st.integers(0, min(10, (q - 1) // 2)), label="(d - 1) / 2") + 1
    places = select_distinct_x_places(q, d)
    idx = np.array(data.draw(st.lists(st.integers(0, len(places) - 1), max_size=30),
                             label="idx"), dtype=np.int64)
    w = data.draw(st.lists(st.integers(0, 3 * d + 4).filter(lambda w: w % 2 == 0 or w >= d),
                           max_size=12), label="pole orders")
    assert np.array_equal(evaluation_matrix(q, d, w, places[idx]),
                          evaluation_matrix(q, d, w, places)[:, idx])


def test_field_values_are_plain_ints():
    # numpy ints must not leak out: json.dumps refuses np.int64, so every place
    # and root the descriptor, the transcript and the audit hand out is an int
    inst = build_scheme(SchemeParams(2, 2, 1))
    desc = inst.to_dict()
    _, transcript = run_protocol(np.eye(2, dtype=np.int64), np.eye(2, dtype=np.int64), inst)
    audit = empirical_secrecy_audit(2, 2, 1, 5)
    values = [*(v for p in desc["places"] for v in (p["x"], p["y"])), *desc["curve"]["roots"],
              *(v for rec in transcript.records for v in rec.place), *audit.place_xs,
              *(v for row in audit.mask_generator for v in row)]
    assert values and all(type(v) is int for v in values)
    assert [tuple(p.values()) for p in desc["places"]] == [rec.place for rec in transcript.records]
    json.dumps(values)


def test_small_primes_helper_agrees():
    sieve = {2, 3, 5, 7, 11, 13}
    for n in range(2, 14):
        assert is_prime(n) == (n in sieve)
