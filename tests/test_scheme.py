import copy
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import agsdmm
from agsdmm import (
    SchemeParams,
    all_square_submatrices_invertible,
    build_scheme,
    derive_parameters,
    distinct_sums,
    linalg,
    load_scheme,
    rank,
    read_matrix_csv,
    save_scheme,
    smallest_admissible_field,
    write_matrix_csv,
)
from agsdmm.field import is_prime
from agsdmm.function_field import HyperellipticCurve
from agsdmm.linalg import LUFactorization
from agsdmm.scheme import orient

SWEEP = [
    (m, n, x)
    for m in (2, 4, 6)
    for n in range(1, 6)
    for x in range(1, 5)
    if m * (n - 1) + 2 * x - 1 >= 3
]


@pytest.fixture(scope="module")
def inst221():
    return build_scheme(SchemeParams(2, 2, 1))


@pytest.fixture(scope="module")
def inst432():
    return build_scheme(SchemeParams(4, 3, 2))


def test_derive_parameters_2_2_1():
    p = derive_parameters(2, 2, 1)
    assert (p.d, p.g) == (3, 1)
    assert p.phi == (0, 3, 4)
    assert p.gamma == (0, 2, 4)
    assert p.distinct_poles == (0, 2, 3, 4, 5, 6, 7, 8)
    assert p.n_workers == 8
    assert p.worker_bound == 8
    assert p.recovery_poles == (5, 6, 7, 8)
    assert p.code_degree == 8 and p.interference_degree == 4


def test_derive_parameters_4_3_2():
    p = derive_parameters(4, 3, 2)
    assert (p.d, p.g) == (11, 5)
    assert p.phi == (0, 2, 11, 12, 13, 14)
    assert p.gamma == (0, 2, 6, 10, 14)
    assert p.n_workers == 24 and p.worker_bound == 24


def test_derive_parameters_2_1_2():
    p = derive_parameters(2, 1, 2)
    assert p.d == 3
    assert p.phi == (0, 2, 3, 4)
    assert p.gamma == (0, 2, 4)


def test_derive_parameters_rejects_degenerate():
    with pytest.raises(ValueError):
        derive_parameters(2, 1, 1)  # d = 1
    with pytest.raises(ValueError):
        derive_parameters(3, 3, 1)  # no partition count is even
    with pytest.raises(ValueError):
        derive_parameters(2, 0, 1)


def test_structural_checks_survive_python_O():
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from agsdmm import SchemeParams, build_scheme, derive_parameters, run_protocol
        from agsdmm import scheme

        if sys.flags.optimize < 1:
            sys.exit("not running under -O")
        if derive_parameters(4, 3, 2).n_workers != 24:
            sys.exit("wrong worker count")
        inst = build_scheme(SchemeParams(4, 3, 2))
        rng = np.random.default_rng(3)
        a = rng.integers(0, inst.q, size=(8, 5))
        b = rng.integers(0, inst.q, size=(5, 6))
        product, _ = run_protocol(a, b, inst, rng)
        if not np.array_equal(product, a @ b % inst.q):
            sys.exit("wrong product")
        # a sequence choice with a repeated pole order must still be refused
        d, phi, gamma = scheme.pole_sequences(4, 3, 2)
        scheme.pole_sequences = lambda m, n, x: (d, phi[:1] + phi[:-1], gamma)
        try:
            derive_parameters(4, 3, 2)
        except RuntimeError as exc:
            print(exc)
        else:
            sys.exit("broken pole structure accepted")
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(agsdmm.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "distinct entries" in out.stdout


def test_resolve_orientation():
    assert orient(2, 3, 1) == (2, 3, False)
    assert orient(3, 2, 1) == (2, 3, True)
    assert orient(4, 6, 2) == (4, 6, False)
    with pytest.raises(ValueError):
        orient(3, 3, 1)
    # checked before any swap, so the message names the user's values
    for m, n, x in ((-1, 2, 1), (3, 0, 1), (2, 3, 0)):
        with pytest.raises(ValueError, match=re.escape(f"m, n, x must be positive, got ({m}, {n}, {x})")):
            orient(m, n, x)


def test_derive_parameters_orients_odd_m():
    # (3, 4) gets the pole structure of (4, 3), with only swapped set
    p = derive_parameters(3, 4, 2)
    assert p.swapped and (p.m, p.n) == (4, 3)
    assert p == dataclasses.replace(derive_parameters(4, 3, 2), swapped=True)
    assert p.to_dict()["swapped"] is True


def test_pole_structure_sides():
    # phi encodes the side with the even partition count; A is always cut
    # into the user's m row blocks and B into the user's n column blocks
    p = derive_parameters(4, 3, 2)
    assert p.sides == {"A": (p.phi, 4, 0), "B": (p.gamma, 3, 1)}
    s = derive_parameters(3, 4, 2)
    assert s.sides == {"A": (s.gamma, 3, 0), "B": (s.phi, 4, 1)}


def test_distinct_sums_examples():
    assert len(distinct_sums((0, 1, 2, 9, 12), (0, 3, 6, 9, 10))) == 18
    assert distinct_sums((0,), (0,)) == (0,)
    assert distinct_sums((0, 3, 4), (0, 2, 4)) == (0, 2, 3, 4, 5, 6, 7, 8)


@pytest.mark.parametrize("m,n,x", SWEEP)
def test_pole_structure_invariants(m, n, x):
    p = derive_parameters(m, n, x)
    # sequences are distinct pole numbers of the semigroup <2, d>
    for seq in (p.phi, p.gamma):
        assert len(set(seq)) == len(seq)
        assert all(w % 2 == 0 or w >= p.d for w in seq)
    # the recovery quadrant is disjoint from and above everything else
    cutoff = m * n + 4 * x - 4
    others = {
        p.table[j][jp]
        for j in range(m + x) for jp in range(n + x)
        if j < x or jp < x
    }
    assert set(p.recovery_poles).isdisjoint(others)
    assert min(p.recovery_poles) == cutoff + 1
    assert max(others) <= cutoff
    assert len(p.recovery_poles) == m * n
    assert p.n_workers <= p.worker_bound


def test_build_auto_field_2_2_1(inst221):
    assert inst221.q == 17
    assert inst221.n_workers == 8
    assert not inst221.poles.swapped
    assert len(inst221.candidate_places) >= inst221.poles.code_degree + 1
    assert rank(inst221.v_matrix, inst221.q) == 8
    poles = [inst221.curve.monomial_for_pole_number(w).pole_number(inst221.poles.d)
             for w in inst221.poles.distinct_poles]
    assert tuple(poles) == inst221.poles.distinct_poles


def test_build_auto_field_4_3_2(inst432):
    assert inst432.q == 47
    assert inst432.n_workers == 24
    assert rank(inst432.v_matrix, inst432.q) == 24


def test_smallest_admissible_field_search():
    # d = 3 needs 9 distinct-x places: 5, 7, 11, 13 are all too small
    assert smallest_admissible_field(3, 9) == 17
    assert smallest_admissible_field(3, 1) == 5


# SHA-256 of json.dumps(to_dict(), sort_keys=True), recorded before the curve
# layer was vectorized; a changed digest means a changed field, place choice or curve
DESCRIPTOR_DIGESTS = {
    (2, 2, 1): "2d10b5bbd7d0ba483143486828e18602250fdec4fba30a21b408d0ca6d94a17e",
    (4, 3, 2): "84481e73f35614cf4ce07278128a0595e12b44d0cbac0bf47b88b7eec54d733e",
    (3, 4, 2): "40e425ab3ddf2cdb019a3d5895bd489f76044c4e860ba0802ffb99a486e02d51",
    (8, 8, 4): "07e3d5a308edab8394fac88a67810f93425f5afc1847944677e19612ea76e98b",
}


@pytest.mark.parametrize("params", sorted(DESCRIPTOR_DIGESTS))
def test_descriptor_digest_is_pinned(params):
    text = json.dumps(build_scheme(SchemeParams(*params)).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DESCRIPTOR_DIGESTS[params]


# SHA-256 of the int64 bytes of column_indices and of the decoder, recorded
# while the columns and the decoder's LU came from two separate unblocked
# eliminations; the inverse is unique, so one blocked elimination must agree
DECODER_DIGESTS = {
    (2, 2, 1): ("fece8d601cd4c9020e24f9e4a47feedefb2bceff5e9798d8056aea8700052eaa",
                "e7db7cbd3624fdb8a555fc5f003c81877d1f6dcfb77a2df42134331a95e2a8a1"),
    (4, 3, 2): ("088889b8071756d3559dc2172e525644f0be09d4b3fb26a697070bddcb805338",
                "76e221ba6f336b76a70783469c0bfab4e306fa6dc691b46ffeefe12fee7eadea"),
    (3, 4, 2): ("088889b8071756d3559dc2172e525644f0be09d4b3fb26a697070bddcb805338",
                "76e221ba6f336b76a70783469c0bfab4e306fa6dc691b46ffeefe12fee7eadea"),
    (8, 8, 4): ("0c8c4e49a549ad4e2bb5a3a52e12373e64b028244339310684f348384a3efae5",
                "567ab91bb96dd3afb0a7ef8ea73ce35dd130a10e2976750e950f54e35db69db1"),
    (14, 14, 10): ("5b6e4556859582ca34c7017b4c6bfa3ac56273c782bc75b57eae8cdc99c949e1",
                   "3d592e39bb8d35b4c1fe503475071532f4329d205f15d6f1fe3b47e97bae8709"),
}


@pytest.mark.parametrize("params", sorted(DECODER_DIGESTS))
def test_decoder_and_columns_digests_are_pinned(params):
    inst = build_scheme(SchemeParams(*params))
    columns = np.asarray(inst.column_indices, dtype=np.int64).tobytes()
    decoder = np.ascontiguousarray(inst._decoder, dtype=np.int64).tobytes()
    digests = tuple(hashlib.sha256(b).hexdigest() for b in (columns, decoder))
    assert digests == DECODER_DIGESTS[params]


# SHA-256 of the int64 bytes of every worker's a_share, b_share and response,
# in worker order, for one seeded run_protocol; recorded while each side had
# its own encode routine
SHARE_DIGESTS = {
    (2, 2, 1): ("f0aa05a09b86ce566560239aec7b55cc9dada41d52b7d3bf612f02a36325793f",
                "bd3f726eb09413573f93ef71c108f3ac51060eb6c573a3ae93949d23b5de26c5",
                "16b88fe0215a9331372e8c7a0ef4675165bd67d72420f21af49c6fb6d318d744"),
    (4, 3, 2): ("266a52c4baa676c5efcf673006accb5d130a9a8da3612960fa93a3ef32293c24",
                "010edc52941bd65936a5ea3922d304438bf881c843ac30a63bce8e9113bb99b0",
                "513e74365bbd539e6f7843f1eb07571d23e3de71ba4468d8ad444ab8f414e3e3"),
    (8, 8, 4): ("e9b17825ba02d08bce23191d54e9ac1c32f8c6edb56f52d105d10779ec0ec8bd",
                "549f456f46f5ddad6432584e6511e75d1d93dec18b46d198e0d06637662457ac",
                "c974da24c70e26ae525702bfc27e1fbe4e92e20fcf5f0683bd217f899158a8ed"),
}


def _seeded_transcript(params):
    m, n, _ = params
    inst = build_scheme(SchemeParams(*params))
    rng = np.random.default_rng(2024)
    a = rng.integers(0, inst.q, size=(2 * m, 3))
    b = rng.integers(0, inst.q, size=(3, 2 * n))
    product, transcript = agsdmm.run_protocol(a, b, inst, rng)
    assert np.array_equal(product, a @ b % inst.q)
    return transcript


def _share_digests(transcript):
    digests = []
    for name in ("a_share", "b_share", "response"):
        h = hashlib.sha256()
        for rec in transcript.records:
            h.update(np.ascontiguousarray(getattr(rec, name), dtype=np.int64).tobytes())
        digests.append(h.hexdigest())
    return tuple(digests)


@pytest.mark.parametrize("params", sorted(SHARE_DIGESTS))
def test_share_and_response_digests_are_pinned(params):
    assert _share_digests(_seeded_transcript(params)) == SHARE_DIGESTS[params]


# SHA-256 of the JSONL text of _seeded_transcript, place coordinates included;
# recorded while places held their coordinates as field-element objects
TRANSCRIPT_DIGESTS = {
    (2, 2, 1): "b48b5318baef7ca42c9712625464c25f4c5b9ab64ac7b0d2595298d0d95e8827",
    (4, 3, 2): "1a268cd48e6bade5c0af582a220f903d4ee9738e1ac1a33f38070c70f1ec3db9",
    (3, 4, 2): "b9dbe24b2961dd2e4d77f7dcba140f638a019af3d3e5a36947a4a82e96cffcbf",
}


def _transcript_digest(transcript):
    text = "\n".join(transcript.to_jsonl_lines())
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("params", sorted(TRANSCRIPT_DIGESTS))
def test_transcript_digest_is_pinned(params):
    assert _transcript_digest(_seeded_transcript(params)) == TRANSCRIPT_DIGESTS[params]


@pytest.mark.parametrize("params", sorted(set(SHARE_DIGESTS) | set(TRANSCRIPT_DIGESTS)))
def test_pinned_digests_hold_with_ragged_encode_chunks(params, monkeypatch):
    # an encode product has N rows and fewer inner terms, so at 32 N bytes it
    # takes 4 columns per chunk, and the 6 columns of every block of
    # _seeded_transcript end in a ragged chunk of 2
    monkeypatch.setattr(linalg, "CHUNK_BYTES", 32 * derive_parameters(*params).n_workers)
    transcript = _seeded_transcript(params)
    if params in SHARE_DIGESTS:
        assert _share_digests(transcript) == SHARE_DIGESTS[params]
    if params in TRANSCRIPT_DIGESTS:
        assert _transcript_digest(transcript) == TRANSCRIPT_DIGESTS[params]


def test_build_runs_one_elimination(monkeypatch):
    # the information set and the decoder's factorization share one elimination
    # of the one evaluation of the basis at the candidate places
    calls, evaluations = [], []
    eliminate = agsdmm.linalg._eliminate
    monkeypatch.setattr(agsdmm.linalg, "_eliminate",
                        lambda a, q: calls.append(a.shape) or eliminate(a, q))
    evaluate = HyperellipticCurve.evaluation_matrix

    def counted(curve, pole_orders, places):
        out = evaluate(curve, pole_orders, places)
        evaluations.append(out.shape)
        return out

    monkeypatch.setattr(HyperellipticCurve, "evaluation_matrix", counted)
    for params in ((4, 3, 2), (3, 4, 2)):
        calls.clear()
        evaluations.clear()
        inst = build_scheme(SchemeParams(*params))
        assert calls == evaluations == [(inst.n_workers, inst.poles.code_degree + 1)]


def _usable_x_reference(d, q):
    # every x of F_q with f(x) = x(x-1)...(x-(d-1)) zero or a square: f as a
    # running product over the roots and Euler's criterion, independent of
    # the library's place scan
    x = np.arange(q, dtype=np.int64)
    f = np.ones_like(x)
    for r in range(d):
        f = f * (x - r) % q
    euler, base, e = np.ones_like(f), f.copy(), (q - 1) // 2
    while e:
        if e & 1:
            euler = euler * base % q
        base = base * base % q
        e >>= 1
    return int(np.count_nonzero((f == 0) | (euler == 1)))


def _field_search_from_d_plus_2(d, required):
    # counts every x of F_q, not only the first required ones
    q = d + 2
    while True:
        if is_prime(q) and _usable_x_reference(d, q) >= required:
            return q
        q += 2


@pytest.mark.parametrize("m,n,x", [(2, 2, 1), (2, 1, 2), (4, 3, 2), (2, 5, 4), (6, 5, 3), (8, 8, 4),
                                   (14, 14, 10)])
def test_field_search_starts_late_without_changing_q(m, n, x):
    # the search skips odd primes below the number of places it needs, since a
    # curve over F_q has at most q distinct x-coordinates
    poles = derive_parameters(m, n, x)
    d, required = poles.d, poles.code_degree + 1
    q = smallest_admissible_field(d, required)
    assert q == _field_search_from_d_plus_2(d, required)
    if (m, n, x) == (14, 14, 10):
        assert q == 617


def test_field_search_builds_no_curve(monkeypatch):
    # candidates are counted by the Legendre-symbol window alone: no curve, no f(x)
    def refuse(*args, **kwargs):
        raise AssertionError("the field search built a curve or evaluated f")

    monkeypatch.setattr(HyperellipticCurve, "__init__", refuse)
    monkeypatch.setattr(HyperellipticCurve, "f_values", refuse)
    poles = derive_parameters(14, 14, 10)
    assert smallest_admissible_field(poles.d, poles.code_degree + 1) == 617


def test_field_search_can_stop_at_its_first_candidate():
    # over F_5 every x carries a point of y^2 = x(x-1)(x-2), so q = required passes
    assert _field_search_from_d_plus_2(3, 5) == smallest_admissible_field(3, 5) == 5


@pytest.mark.parametrize("m,n,x,q", [(2, 2, 1, 101), (4, 3, 2, 149), (3, 4, 2, 101), (6, 5, 3, 211)])
def test_candidate_prefix_gives_the_same_information_set(m, n, x, q):
    # build scans only the first code_degree + 1 places; every place of F_q
    # must give the same pivot columns and star-product dimension
    inst = build_scheme(SchemeParams(m, n, x, q=q))
    every = inst.curve.select_distinct_x_places()
    assert len(inst.candidate_places) == inst.poles.code_degree + 1 < len(every)
    assert inst.candidate_places == every[:len(inst.candidate_places)]
    evals = inst.curve.evaluation_matrix(inst.poles.distinct_poles, every)
    assert LUFactorization(evals, inst.q).columns == inst.column_indices
    full = copy.copy(inst)
    full.candidate_places = every
    assert full.star_product_dimension() == inst.star_product_dimension()


def test_build_with_explicit_field():
    inst = build_scheme(SchemeParams(2, 2, 1, q=19))
    assert inst.q == 19 and inst.n_workers == 8


def test_build_rejects_bad_fields():
    with pytest.raises(ValueError, match="usable places"):
        build_scheme(SchemeParams(2, 2, 1, q=13))
    with pytest.raises(ValueError, match="odd prime"):
        build_scheme(SchemeParams(2, 2, 1, q=15))
    with pytest.raises(ValueError, match="odd prime"):
        build_scheme(SchemeParams(2, 2, 1, q=16))
    with pytest.raises(ValueError, match="q > d"):
        build_scheme(SchemeParams(4, 3, 2, q=11))
    with pytest.raises(ValueError):
        build_scheme(SchemeParams(3, 3, 1))  # both odd
    with pytest.raises(ValueError):
        SchemeParams(0, 1, 1)


def test_places_have_distinct_x(inst221):
    xs = [p.x for p in inst221.places]
    assert len(set(xs)) == len(xs) == 8


def test_encode_zero_matrix_single_mask(inst221):
    rng = np.random.default_rng(0)
    enc = inst221.encode("A", np.zeros((4, 2), dtype=int), rng)
    # with x = 1 the first mask function is the constant 1, so every share is R_1
    first = enc.shares[0]
    for share in enc.shares[1:]:
        assert np.array_equal(share, first)
    assert len(enc) == 8 and enc.side == "A"


def test_encode_scalar_oracle(inst221):
    q = inst221.q
    curve = inst221.curve
    a = np.array([[3], [5]])  # two 1x1 row blocks
    enc = inst221.encode("A", a, np.random.default_rng(9))
    mask = np.random.default_rng(9).integers(0, q, size=(1, 1), dtype=np.int64)
    f2, f3 = (curve.monomial_for_pole_number(w) for w in inst221.poles.phi[1:3])
    for i, place in enumerate(inst221.places):
        expected = (
            int(mask[0, 0])
            + 3 * curve.evaluate(f2, place)
            + 5 * curve.evaluate(f3, place)
        ) % q
        assert enc.shares[i][0, 0] == expected


def test_encode_linearity_via_mask_cancellation(inst221):
    # encode(M, seed) - encode(0, seed) isolates the data part; it must be additive
    q = inst221.q
    rng = np.random.default_rng(31)
    a1 = rng.integers(0, q, size=(4, 3))
    a2 = rng.integers(0, q, size=(4, 3))

    def data_part(mat, seed):
        enc = inst221.encode("A", mat, np.random.default_rng(seed))
        zero = inst221.encode("A", np.zeros_like(mat), np.random.default_rng(seed))
        return [(s - z) % q for s, z in zip(enc.shares, zero.shares)]

    lhs = data_part((a1 + a2) % q, seed=1)
    rhs = [(u + v) % q for u, v in zip(data_part(a1, seed=2), data_part(a2, seed=3))]
    for u, v in zip(lhs, rhs):
        assert np.array_equal(u, v)


@pytest.mark.parametrize("limit,q", [
    (2**53, 54794149), (2**53, 54794197),      # largest prime below, smallest above
    (2**63, 1753413037), (2**63, 1753413059),
])
def test_encode_matches_reference_at_tier_boundaries(limit, q):
    # at (2, 2, 1) each side has T = 3 terms (one mask, two blocks), so
    # T (q-1)^2 lies just on either side of the limit for these primes
    inst = build_scheme(SchemeParams(2, 2, 1, q=q))
    rng = np.random.default_rng(q)
    for side, shape in (("A", (4, 3)), ("B", (3, 4))):
        coeff, count, axis = inst._sides[side]
        assert abs(len(coeff) * (q - 1) ** 2 / limit - 1) < 1e-5
        mat = rng.integers(q - 3, q, size=shape)
        enc = inst.encode(side, mat, np.random.default_rng(7))
        blocks = np.split(mat.astype(object), count, axis=axis)
        mask_rng = np.random.default_rng(7)
        masks = [mask_rng.integers(0, q, size=blocks[0].shape, dtype=np.int64).astype(object)
                 for _ in range(inst.poles.x)]
        terms = masks + blocks
        for i, share in enumerate(enc.shares):
            expect = sum(int(c) * t for c, t in zip(coeff[:, i], terms)) % q
            assert np.array_equal(share, expect.astype(np.int64))


def test_encode_validation(inst221):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        inst221.encode("C", np.zeros((4, 2), dtype=int), rng)
    with pytest.raises(ValueError):
        inst221.encode("A", np.zeros((3, 2), dtype=int), rng)  # rows not divisible by m
    with pytest.raises(ValueError):
        inst221.encode("B", np.zeros((2, 3), dtype=int), rng)  # cols not divisible by n
    with pytest.raises(ValueError):
        inst221.encode("A", np.zeros(4, dtype=int), rng)


def _roundtrip(inst, a, b, seed):
    rng = np.random.default_rng(seed)
    enc_a = inst.encode("A", a, rng)
    enc_b = inst.encode("B", b, rng)
    responses = inst.worker_products(enc_a, enc_b)
    return inst.decode(responses)


def test_decode_zero_inputs(inst221):
    a = np.zeros((4, 2), dtype=int)
    b = np.zeros((2, 6), dtype=int)
    assert not _roundtrip(inst221, a, b, seed=4).any()


def test_decode_matches_plain_product_2_2_1(inst221):
    rng = np.random.default_rng(12)
    a = rng.integers(0, inst221.q, size=(4, 2))
    b = rng.integers(0, inst221.q, size=(2, 6))
    assert np.array_equal(_roundtrip(inst221, a, b, seed=12), a @ b % inst221.q)


def test_decode_matches_plain_product_4_3_2(inst432):
    rng = np.random.default_rng(34)
    a = rng.integers(0, inst432.q, size=(8, 3))
    b = rng.integers(0, inst432.q, size=(3, 9))
    assert np.array_equal(_roundtrip(inst432, a, b, seed=34), a @ b % inst432.q)


def test_swapped_orientation_roundtrip():
    inst = build_scheme(SchemeParams(3, 4, 2))
    assert inst.poles.swapped and inst.poles.m == 4 and inst.poles.n == 3
    rng = np.random.default_rng(56)
    a = rng.integers(0, inst.q, size=(9, 4))  # rows divisible by m = 3
    b = rng.integers(0, inst.q, size=(4, 8))  # cols divisible by n = 4
    assert np.array_equal(_roundtrip(inst, a, b, seed=56), a @ b % inst.q)


def test_decode_validation(inst221):
    rng = np.random.default_rng(0)
    enc_a = inst221.encode("A", np.zeros((4, 2), dtype=int), rng)
    enc_b = inst221.encode("B", np.zeros((2, 6), dtype=int), rng)
    responses = inst221.worker_products(enc_a, enc_b)
    with pytest.raises(ValueError):
        inst221.decode(responses[:-1])
    with pytest.raises(ValueError):
        inst221.decode(responses[:-1] + [np.zeros((1, 1), dtype=int)])  # mismatched shapes
    with pytest.raises(ValueError):
        inst221.decode([r[0] for r in responses])  # 1-D responses
    with pytest.raises(ValueError):
        inst221.worker_products(enc_b, enc_a)


def test_star_product_dimension(inst221, inst432):
    assert inst221.star_product_dimension() == 8
    assert inst432.star_product_dimension() == 24


def test_canonical_monomial_closure(inst432):
    # products of the chosen functions never need a y^2 reduction and land
    # exactly on the canonical monomial of the summed pole order
    d = inst432.poles.d
    monomial = inst432.curve.monomial_for_pole_number
    for wf in inst432.poles.phi:
        for wg in inst432.poles.gamma:
            prod = monomial(wf) * monomial(wg)
            w = wf + wg
            assert prod == monomial(w)
            assert prod.pole_number(d) == w


def test_security_generator_is_vandermonde(inst432):
    q = inst432.q
    for side in ("A", "B"):
        gen = inst432.security_generator(side)
        assert gen.shape == (2, 24)
        xs = [p.x for p in inst432.places]
        expected = np.array([[pow(xv, k, q) for xv in xs] for k in range(2)])
        assert np.array_equal(gen, expected)
        assert all_square_submatrices_invertible(gen, q)
    with pytest.raises(ValueError):
        inst432.security_generator("C")


def test_scheme_descriptor_roundtrip(tmp_path, inst221):
    path = tmp_path / "scheme.json"
    save_scheme(inst221, path)
    data = json.loads(path.read_text())
    assert data["m"] == 2 and data["n"] == 2 and data["X"] == 1
    assert data["q"] == 17 and data["N"] == 8
    assert data["curve"]["roots"] == [0, 1, 2]
    assert len(data["places"]) == 8
    rebuilt = load_scheme(path)
    assert rebuilt.to_dict() == inst221.to_dict()


def test_scheme_descriptor_tamper_detected(tmp_path, inst221):
    path = tmp_path / "scheme.json"
    save_scheme(inst221, path)
    data = json.loads(path.read_text())
    data["places"][0]["x"] = (data["places"][0]["x"] + 1) % 17
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="does not match"):
        load_scheme(path)


@pytest.mark.parametrize("text,message", [
    ('{"n": 2, "X": 1, "q": 17}', "missing key(s) m"),
    ('{"m": 2, "n": 2, "q": 17, "seed": 0}', "missing key(s) X"),
    ('[2, 2, 1]', "must be a JSON object"),
    ('{"m": "2", "n": 2, "X": 1, "q": 17}', "key(s) m must be integers"),
])
def test_load_scheme_rejects_malformed_descriptor(tmp_path, text, message):
    path = tmp_path / "scheme.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(message)):
        load_scheme(path)


def test_matrix_csv_roundtrip(tmp_path):
    path = tmp_path / "m.csv"
    for shape in ((3, 4), (0, 3), (3, 0)):
        mat = np.arange(math.prod(shape)).reshape(shape)
        write_matrix_csv(path, mat, 7)
        got, q = read_matrix_csv(path)
        assert q == 7
        assert got.dtype == np.int64 and got.shape == shape
        assert np.array_equal(got, mat % 7)
        assert path.read_text().splitlines()[0] == f"{shape[0]},{shape[1]},7"


def test_matrix_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,header,line\n1,2\n")
    with pytest.raises(ValueError):
        read_matrix_csv(bad)
    for text in ("2,2,7\n1,2\n", "0,3,7\n1,2,3\n", "3,0,7\n1\n", "-1,0,7\n"):
        bad.write_text(text)
        with pytest.raises(ValueError, match="promises"):
            read_matrix_csv(bad)
    bad.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_matrix_csv(bad)
    for q in (0, 1, -7, 2**63):
        bad.write_text(f"1,2,{q}\n1,2\n")
        with pytest.raises(ValueError, match=re.escape(f"{bad}: field order {q}")):
            read_matrix_csv(bad)
    for entry in (2**63, -2**63 - 1, 10**20):
        bad.write_text(f"1,2,7\n1,{entry}\n")
        with pytest.raises(ValueError, match=re.escape(f"{bad}: an entry lies outside the int64")):
            read_matrix_csv(bad)
    bad.write_text("2,2,7\n1,2\n3,x\n")
    with pytest.raises(ValueError, match=re.escape(f"{bad}: malformed body")):
        read_matrix_csv(bad)
    # the int64 extremes themselves are accepted and reduced
    bad.write_text(f"1,2,7\n{2**63 - 1},{-2**63}\n")
    got, q = read_matrix_csv(bad)
    assert q == 7 and got.tolist() == [[(2**63 - 1) % 7, -2**63 % 7]]


@pytest.mark.parametrize("m,n,x", [(2, 2, 1), (2, 1, 2), (4, 3, 2)])
def test_built_instance_consistency(m, n, x):
    inst = build_scheme(SchemeParams(m, n, x))
    assert inst.n_workers == len(inst.poles.distinct_poles)
    assert inst.v_matrix.shape == (inst.n_workers, inst.n_workers)
    assert len(inst.places) == inst.n_workers
    assert len(inst.candidate_places) > inst.poles.code_degree
    # Hasse-Weil check on the chosen curve
    count = len(inst.curve.enumerate_places())
    g, q = inst.poles.g, inst.q
    assert abs(count - (q + 1)) <= math.isqrt(4 * g * g * q)
