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
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import agsdmm
from agsdmm import (
    SchemeParams,
    build_scheme,
    derive_parameters,
    distinct_sums,
    linalg,
    load_scheme,
    rank,
    read_matrix_csv,
    save_scheme,
    scheme,
    smallest_admissible_field,
    write_matrix_csv,
)
from agsdmm import function_field
from agsdmm.field import is_prime
from agsdmm.function_field import evaluation_matrix, select_distinct_x_places
from agsdmm.linalg import LUFactorization
from agsdmm.scheme import EncodedShares, orient, pole_sequences, worker_bound, worker_count
from conftest import all_square_submatrices_invertible
from test_function_field import _evaluate, _exponents, _place_count

SWEEP = [
    (m, n, x)
    for m in (2, 4, 6)
    for n in range(1, 6)
    for x in range(1, 5)
    if m * (n - 1) + 2 * x - 1 >= 3
]


def _candidates(inst):
    # the code_degree + 1 places the build evaluates the basis at
    return select_distinct_x_places(inst.q, inst.poles.d, inst.poles.code_degree + 1)


def _v_matrix(inst):
    # V[i][t] = basis_t(P_i) at the information-set places
    return evaluation_matrix(inst.q, inst.poles.d, inst.poles.distinct_poles, inst.places).T


def _star_product_dimension(inst, places):
    # rank of all pairwise products of the two sides' codeword generators at places
    fa = evaluation_matrix(inst.q, inst.poles.d, inst.poles.phi, places)
    gb = evaluation_matrix(inst.q, inst.poles.d, inst.poles.gamma, places)
    return rank((fa[:, None] * gb[None] % inst.q).reshape(-1, len(places)), inst.q)


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
        # so must sequences whose table count differs from the closed form
        scheme.pole_sequences = lambda m, n, x: (d, phi[:-1] + (phi[-1] + 2,), gamma)
        try:
            derive_parameters(4, 3, 2)
        except RuntimeError as exc:
            print(exc)
        else:
            sys.exit("table count off its closed form accepted")
        # and masks other than 1, x, ..., x^(X-1)
        scheme.pole_sequences = lambda m, n, x: (d, phi, (0, 4) + gamma[2:])
        try:
            derive_parameters(4, 3, 2)
        except RuntimeError as exc:
            print(exc)
        else:
            sys.exit("mask orders other than 0, 2 accepted")
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(agsdmm.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "distinct entries" in out.stdout
    assert "worker count equals its closed form" in out.stdout
    assert "both sides' mask orders are 0, 2, ..., 2X - 2" in out.stdout


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



@pytest.mark.parametrize("bad", [2.5, 2.0, "2", None])
def test_non_integer_parameters_are_refused(bad):
    # one check before any arithmetic, which would otherwise give a float
    # worker count or a TypeError from inside range
    calls = (
        lambda: orient(2, bad, 1),
        lambda: derive_parameters(4, bad, 1),
        lambda: build_scheme(SchemeParams(2, bad, 1)),
        lambda: worker_count(2, bad, 1),
        lambda: pole_sequences(2, bad, 1),
    )
    for call in calls:
        with pytest.raises(ValueError, match=re.escape("m, n, x must be integers, got ")):
            call()
    with pytest.raises(ValueError, match=re.escape(f"must be integers, got (4, 3, {bad!r})")):
        derive_parameters(4, 3, bad)
    # numpy integers are integers
    assert worker_count(np.int64(2), 2, 1) == 8
    assert orient(np.int64(3), 2, 1) == (2, 3, True)


@pytest.mark.parametrize("bad", [17.0, "17", 2**31, 2**31 + 1, 0])
def test_scheme_params_refuse_a_bad_field_order(bad):
    # a given q meets linalg's one modulus check as the params are made, and
    # the field rule meets it first too, where 17.0 and '17' would otherwise
    # raise a raw TypeError and 2^31 + 1 is_prime's own cap message
    message = re.escape(f"field order {bad!r} must be an integer in [2, 2^31)")
    with pytest.raises(ValueError, match=message):
        SchemeParams(2, 2, 1, q=bad)
    poles = derive_parameters(2, 2, 1)
    with pytest.raises(ValueError, match=message):
        smallest_admissible_field(poles.d, poles.code_degree + 1, bad)
    # a numpy integer is kept as the Python int the build's pow() takes
    params = SchemeParams(2, 2, 1, q=np.int64(17))
    assert type(params.q) is int and build_scheme(params).q == 17


@pytest.mark.parametrize("bad", [-1, 1.5, "3", None])
def test_scheme_params_refuse_a_bad_seed(bad):
    message = re.escape(f"seed must be a non-negative integer, got {bad!r}")
    with pytest.raises(ValueError, match=message):
        SchemeParams(2, 2, 1, seed=bad)
    assert SchemeParams(2, 2, 1, seed=np.int64(7)).seed == 7


def test_load_scheme_refuses_a_negative_seed(tmp_path):
    # refused on load, not later when a run draws its masks from the seed
    path = tmp_path / "scheme.json"
    save_scheme(build_scheme(SchemeParams(2, 2, 1)), path)
    path.write_text(json.dumps({**json.loads(path.read_text()), "seed": -1}))
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        load_scheme(path)


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


# every supported even-m point with m, n, x <= 20
FULL_GRID = [
    (m, n, x)
    for m in range(2, 21, 2)
    for n in range(1, 21)
    for x in range(1, 21)
    if m * (n - 1) + 2 * x - 1 >= 3
]


def _check_worker_count(m, n, x):
    _, phi, gamma = pole_sequences(m, n, x)
    count = worker_count(m, n, x)
    assert count == len(distinct_sums(phi, gamma)) == derive_parameters(m, n, x).n_workers
    assert count <= worker_bound(m, n, x)
    assert (count == worker_bound(m, n, x)) == (x >= m // 2 or n == 1)


def test_worker_count_is_the_table_count_on_the_full_grid():
    for point in FULL_GRID:
        _check_worker_count(*point)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 100).map(lambda h: 2 * h), n=st.integers(1, 200), x=st.integers(1, 200))
def test_worker_count_is_the_table_count(m, n, x):
    assume(m * (n - 1) + 2 * x - 1 >= 3)
    _check_worker_count(m, n, x)


@pytest.mark.parametrize("m,n,x", [(3, 2, 1), (1, 4, 2), (0, 2, 1), (-2, 2, 1), (2, 0, 1),
                                   (2, 2, 0), (2, -1, 3), (2, 1, 1), (4, 1, 1)])
def test_worker_count_refuses_what_pole_sequences_refuses(m, n, x):
    with pytest.raises(ValueError) as expected:
        pole_sequences(m, n, x)
    with pytest.raises(ValueError) as got:
        worker_count(m, n, x)
    assert str(got.value) == str(expected.value)


def test_derive_parameters_checks_the_closed_form(monkeypatch):
    monkeypatch.setattr(scheme, "worker_count", lambda m, n, x: 0)
    with pytest.raises(RuntimeError, match="breaks: worker count equals its closed form$"):
        derive_parameters(4, 3, 2)


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
    candidates = _candidates(inst221)
    assert len(candidates) == inst221.poles.code_degree + 1
    assert np.array_equal(inst221.places, candidates[inst221.column_indices])
    v, d, q = _v_matrix(inst221), inst221.poles.d, inst221.q
    assert rank(v, q) == 8
    for t, w in enumerate(inst221.poles.distinct_poles):
        assert v[:, t].tolist() == [_evaluate(_exponents(w, d), p, q) for p in inst221.places]


def test_build_auto_field_4_3_2(inst432):
    assert inst432.q == 47
    assert inst432.n_workers == 24
    assert rank(_v_matrix(inst432), inst432.q) == 24


def test_caps_sit_above_every_documented_build(monkeypatch):
    # (32, 32, 16) is the largest build on record; one entry or byte less
    # than it needs is refused, before any field search
    poles = derive_parameters(32, 32, 16)
    entries, size = 48 * 48, poles.n_workers * (poles.code_degree + 1)
    assert entries < scheme.POLE_TABLE_CAP and 8 * size < scheme.EVALUATION_BYTES_CAP
    monkeypatch.setattr(scheme, "POLE_TABLE_CAP", entries - 1)
    with pytest.raises(ValueError, match=f"^pole table of {entries} entries exceeds the cap of "):
        derive_parameters(32, 32, 16)
    monkeypatch.undo()
    monkeypatch.setattr(scheme, "EVALUATION_BYTES_CAP", 8 * size - 1)
    monkeypatch.setattr(scheme, "smallest_admissible_field", None)
    with pytest.raises(ValueError, match=r"^evaluation matrix of 1598 x 2109 int64 entries "):
        build_scheme(SchemeParams(32, 32, 16))


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
    (14, 14, 10): "f4519914782738429c1b1a1653d2879d39d163376f62d5b2f42cbe823e09cf7d",
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
    # the leading N candidates are not an information set at these two, so the
    # decoder comes from the elimination of all code_degree + 1 of them;
    # recorded while every build eliminated all of them
    (4, 6, 1): ("25e31bcf90e3c2b15cac8da1c1520be26727b1506461b02d2b5fd09d0390fa72",
                "edd751bf5ccfec43ad32b48da3493f8c5afffd2d14dc2516698135c81159ae6a"),
    (6, 6, 1): ("15a7aa8f8ce822f8633f938dba16dfcb1ca908acebfd541e5dcff3b4cad4c4a4",
                "544f5ef5cce70f2388f40f41e34a64eb7a5b4d6046eec03e0687dba4d5135a0b"),
    # recorded while the decoder came from an elimination of the leading
    # square: (10, 3, 2), q = 107, N = 48, whose x exponents have gaps (x < m/2),
    # and (2, 5, 6), q = 61, N = 32, whose leading square is singular though
    # it has more x exponents than roots of f among its places
    (10, 3, 2): ("852c80a269cfde9f6b8cc6c4f19f4e92c636218d0620fedda0d379e77abc224b",
                 "b1616eb656dffb9b8c3c2e0c30f921ccfd2b6a10981b709939bc9921e0ee45e4"),
    (2, 5, 6): ("f09b2af12cdcd6911f0e06cf3ea09cec2bff1c8c38b2310e6a7386cc46a4b0df",
                "5ab79ff5f319acb19dde6ba91f08b89ac5da5740d63f80c2d9c61950427ccc17"),
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
    # the benchmark's decode-bound point, q = 617, N = 329: ten masks a side
    # and float64 worker products; recorded while each mask had its own draw
    (14, 14, 10): ("b9331eac40044448c112a40c21715d6b89c00aae985b326d1eb3f4a3d229b793",
                   "18aa6d76a3a2dac04d4dc829214e4122fc8e270ec77ba5b4661278af982eb28c",
                   "477694aec84fc8e0df08d779b25aa4d73c40d96046c0ffd8ecbb84b6ec30f055"),
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
    # an encode product has N rows and fewer inner terms; with every product
    # reduced as int32 where that is exact, its float32 product and int32
    # shares count 4 bytes an entry, so at 16 N bytes the 6 columns of every
    # block of _seeded_transcript take the chunk loop, 4 columns and a ragged 2
    n = derive_parameters(*params).n_workers
    monkeypatch.setattr(linalg, "CHUNK_BYTES", 16 * n)
    monkeypatch.setattr(linalg, "FLOOR_REDUCE_MIN", 1)
    chunks = []
    reduce_in_place = linalg._reduce_in_place

    def recorded(x, q):
        # the build's int32 reductions of N rows come first; the run's last
        # ones are encode's, whole or a chunk at a time, since the worker
        # products and the decode have fewer rows
        if x.dtype == np.int32 and x.shape[0] == n:
            chunks.append(x.shape[1])
        reduce_in_place(x, q)

    monkeypatch.setattr(linalg, "_reduce_in_place", recorded)
    transcript = _seeded_transcript(params)
    assert chunks[-4:] == [4, 2, 4, 2]
    if params in SHARE_DIGESTS:
        assert _share_digests(transcript) == SHARE_DIGESTS[params]
    if params in TRANSCRIPT_DIGESTS:
        assert _transcript_digest(transcript) == TRANSCRIPT_DIGESTS[params]


def _recorded_builds(monkeypatch):
    # the shapes of every elimination and every basis evaluation the builds make
    eliminations, evaluations = [], []
    eliminate = agsdmm.linalg._eliminate
    monkeypatch.setattr(agsdmm.linalg, "_eliminate",
                        lambda a, q: eliminations.append(a.shape) or eliminate(a, q))
    evaluate = scheme.evaluation_matrix

    def counted(q, d, pole_orders, places):
        out = evaluate(q, d, pole_orders, places)
        evaluations.append(out.shape)
        return out

    monkeypatch.setattr(scheme, "evaluation_matrix", counted)
    return eliminations, evaluations


def _y_count(poles):
    # B, the number of basis functions y x^j
    return sum(w % 2 for w in poles.distinct_poles)


def test_build_runs_one_elimination(monkeypatch):
    # with the leading N candidates an information set, the decoder takes one
    # elimination, of the B x B system G[C], and the basis is never evaluated
    # in full: only its B functions y x^j at the N places, then the sides'
    eliminations, evaluations = _recorded_builds(monkeypatch)
    for params in ((4, 3, 2), (3, 4, 2)):
        eliminations.clear()
        evaluations.clear()
        inst = build_scheme(SchemeParams(*params))
        n, b = inst.n_workers, _y_count(inst.poles)
        assert inst.column_indices == list(range(n))
        assert eliminations == [(b, b)]
        sides = len(inst.poles.phi) + len(inst.poles.gamma)
        assert evaluations == [(b, n), (sides, n)]


@pytest.mark.parametrize("params", [(4, 6, 1), (6, 6, 1), (2, 5, 6)])
def test_build_falls_back_to_the_wide_elimination(params, monkeypatch):
    # the leading N candidates are not an information set here, so the build
    # eliminates the basis evaluated at all code_degree + 1 of them, once. At
    # (4, 6, 1) and (6, 6, 1) the places with y = 0 outnumber the x exponents,
    # so it goes there directly; at (2, 5, 6) G[C] is eliminated first and
    # found singular
    eliminations, evaluations = _recorded_builds(monkeypatch)
    inst = build_scheme(SchemeParams(*params))
    n, b = inst.n_workers, _y_count(inst.poles)
    wide = (n, inst.poles.code_degree + 1)
    assert eliminations == ([(b, b), wide] if params == (2, 5, 6) else [wide])
    assert wide in evaluations
    assert inst.column_indices[-1] >= n


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 12), n=st.integers(1, 10), x=st.integers(1, 6))
@example(m=10, n=3, x=2)  # x exponents with gaps
@example(m=3, n=4, x=2)  # phi encodes B
@example(m=4, n=6, x=1)  # singular by the count of places with y = 0
@example(m=2, n=5, x=6)  # singular G[C]
def test_decoder_equals_the_wide_elimination(m, n, x):
    assume(m % 2 == 0 or n % 2 == 0)
    even, other, _ = orient(m, n, x)
    assume(even * (other - 1) + 2 * x - 1 >= 3)
    _check_decoder_against_the_wide_elimination(build_scheme(SchemeParams(m, n, x)))


# explicit fields whose products fall in the float64, int64 and limb tiers
@pytest.mark.parametrize("params,q", [((2, 2, 1), 2**31 - 1), ((4, 3, 2), 2**31 - 1),
                                      ((3, 4, 2), 1000000007), ((6, 5, 3), 134217689)])
def test_decoder_equals_the_wide_elimination_at_large_fields(params, q):
    _check_decoder_against_the_wide_elimination(build_scheme(SchemeParams(*params, q=q)))


def _check_decoder_against_the_wide_elimination(inst):
    # the structured decoder and information set are those of one greedy
    # elimination of the basis evaluated at every candidate
    poles = inst.poles
    evals = evaluation_matrix(inst.q, poles.d, poles.distinct_poles, _candidates(inst))
    lu = LUFactorization(evals, inst.q)
    index = {w: t for t, w in enumerate(poles.distinct_poles)}
    recovery = [index[poles.recovery_pole(j, jp)] for j in range(poles.m) for jp in range(poles.n)]
    assert lu.columns == inst.column_indices
    assert np.array_equal(lu.inverse_columns(recovery).T, inst._decoder)


def test_structured_decoder_checks_the_shape_of_the_basis():
    # a gap among the y functions breaks the split of V into W and G
    inst = build_scheme(SchemeParams(4, 3, 2))
    odd = [w for w in inst.poles.distinct_poles if w % 2]
    broken = dataclasses.replace(
        inst.poles, distinct_poles=tuple(w for w in inst.poles.distinct_poles if w != odd[1]))
    with pytest.raises(RuntimeError, match="the basis is not x"):
        scheme._leading_square_decoder(inst.q, broken, inst.places, [0])


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
    # candidates are counted by the Legendre-symbol window alone: no places, no f(x)
    def refuse(*args, **kwargs):
        raise AssertionError("the field search took places or evaluated f")

    monkeypatch.setattr(scheme, "select_distinct_x_places", refuse)
    monkeypatch.setattr(function_field, "f_values", refuse)
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
    every = select_distinct_x_places(inst.q, inst.poles.d)
    candidates = _candidates(inst)
    assert len(candidates) == inst.poles.code_degree + 1 < len(every)
    assert np.array_equal(candidates, every[:len(candidates)])
    assert np.array_equal(inst.places, candidates[inst.column_indices])
    evals = evaluation_matrix(inst.q, inst.poles.d, inst.poles.distinct_poles, every)
    assert LUFactorization(evals, inst.q).columns == inst.column_indices
    assert _star_product_dimension(inst, every) == _star_product_dimension(inst, candidates)


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
    assert inst221.places.dtype == np.int64 and inst221.places.shape == (8, 2)
    xs = inst221.places[:, 0].tolist()
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
    a = np.array([[3], [5]])  # two 1x1 row blocks
    enc = inst221.encode("A", a, np.random.default_rng(9))
    mask = np.random.default_rng(9).integers(0, q, size=(1, 1), dtype=np.int64)
    f2, f3 = (_exponents(w, inst221.poles.d) for w in inst221.poles.phi[1:3])
    for i, place in enumerate(inst221.places):
        expected = int(mask[0, 0]) + 3 * _evaluate(f2, place, q) + 5 * _evaluate(f3, place, q)
        assert enc.shares[i][0, 0] == expected % q


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


@pytest.mark.parametrize("params,q", [((2, 2, 1), None), ((4, 3, 2), None), ((8, 8, 4), None),
                                      ((14, 14, 10), None), ((4, 3, 2), 2**31 - 1)])
def test_encode_masks_are_x_draws_of_the_block_shape(params, q):
    # the one draw of all X masks takes from the generator what X draws of one
    # block each would, so every share is the sum over those masks and the
    # blocks np.split cuts, at q = 47, 197, 617 and 2^31 - 1
    inst = build_scheme(SchemeParams(*params, q=q))
    q, (m, n, _) = inst.q, params
    rng = np.random.default_rng(q)
    for side, shape in (("A", (2 * m, 3)), ("B", (3, 2 * n))):
        coeff, count, axis = inst._sides[side]
        mat = rng.integers(0, q, size=shape)
        enc = inst.encode(side, mat, np.random.default_rng(8))
        mask_rng = np.random.default_rng(8)
        blocks = np.split(mat, count, axis=axis)
        masks = [mask_rng.integers(0, q, size=blocks[0].shape, dtype=np.int64)
                 for _ in range(inst.poles.x)]
        terms = np.stack(masks + blocks).astype(object)
        expect = np.tensordot(coeff.T.astype(object), terms, axes=1) % q
        assert len(enc) == inst.n_workers
        for share, want in zip(enc.shares, expect, strict=True):
            assert share.dtype == np.int32 and share.tolist() == want.tolist()


def test_encode_reduces_unreduced_input(inst432):
    # negative entries, entries >= q and the int64 extremes give the shares of
    # the reduced matrix under the same rng
    q = inst432.q
    rng = np.random.default_rng(23)
    for side, shape in (("A", (8, 6)), ("B", (6, 9))):
        reduced = rng.integers(0, q, size=shape)
        unreduced = reduced + q * rng.integers(-5, 6, size=shape)
        unreduced[0, :3] = -2**63, 2**63 - 1, -q
        reduced[0, :3] = -2**63 % q, (2**63 - 1) % q, 0
        assert (unreduced < 0).any() and (unreduced >= q).any()
        got = inst432.encode(side, unreduced, np.random.default_rng(4))
        expect = inst432.encode(side, reduced, np.random.default_rng(4))
        for u, v in zip(got.shares, expect.shares, strict=True):
            assert np.array_equal(u, v)


def test_encode_leaves_the_caller_array_unchanged(inst432):
    # an in-range int64 matrix is encoded from the caller's own array, without
    # a copy, so encode must not write it; an unreduced one is reduced in a copy
    rng = np.random.default_rng(29)
    for mat in (rng.integers(0, inst432.q, size=(8, 6)), rng.integers(-99, 99, size=(8, 6))):
        before = mat.copy()
        inst432.encode("A", mat, rng)
        assert np.array_equal(mat, before)


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


def test_encode_decode_and_csv_refuse_input_int64_cannot_hold(inst221, tmp_path):
    # float input would be truncated and uint64 or Python ints past int64
    # would wrap; each is refused from its dtype with one line
    rng = np.random.default_rng(0)
    message = r"^expected integer entries in the int64 range \[-2\^63, 2\^63\), got {} input$"
    with pytest.raises(ValueError, match=message.format("float64")):
        inst221.encode("A", np.full((4, 2), 1.7), rng)
    with pytest.raises(ValueError, match=message.format("uint64")):
        inst221.encode("B", np.ones((2, 4), dtype=np.uint64), rng)
    responses = inst221.worker_products(inst221.encode("A", np.ones((4, 2), dtype=int), rng),
                                        inst221.encode("B", np.ones((2, 4), dtype=int), rng))
    with pytest.raises(ValueError, match=message.format("float64")):
        inst221.decode([r.astype(float) for r in responses])
    big = [[2**64] * responses[0].shape[1]] * responses[0].shape[0]
    with pytest.raises(ValueError, match=message.format("object")):
        inst221.decode(responses[:-1] + [big])
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError, match=message.format("float64")):
        write_matrix_csv(path, np.full((2, 2), 1.7), 7)
    with pytest.raises(ValueError, match=message.format("object")):
        write_matrix_csv(path, [[2**64]], 7)
    with pytest.raises(ValueError, match=r"^expected a 2-D matrix, got shape \(3,\)$"):
        write_matrix_csv(path, np.arange(3), 7)
    assert not path.exists()


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


@pytest.mark.parametrize("m,n,x,shape", [(2, 2, 1, (4, 2, 6)), (14, 14, 10, (14, 3, 14))])
def test_worker_products_make_one_checked_product_per_worker(m, n, x, shape, monkeypatch):
    # the simulated pool: each worker multiplies its own two shares, and only
    # those, through the public matmul_mod, once; no product spans workers
    inst = build_scheme(SchemeParams(m, n, x))
    rng = np.random.default_rng(3)
    rows, inner, cols = shape
    enc_a = inst.encode("A", rng.integers(0, inst.q, size=(rows, inner)), rng)
    enc_b = inst.encode("B", rng.integers(0, inst.q, size=(inner, cols)), rng)
    calls = []
    checked = agsdmm.linalg.matmul_mod
    monkeypatch.setattr(agsdmm.linalg, "matmul_mod",
                        lambda a, b, q: calls.append((a, b, q)) or checked(a, b, q))
    responses = inst.worker_products(enc_a, enc_b)
    assert len(calls) == len(responses) == inst.n_workers
    for (a, b, q), share_a, share_b in zip(calls, enc_a.shares, enc_b.shares, strict=True):
        assert a is share_a and b is share_b and q == inst.q
        assert a.dtype == b.dtype == np.int32


@pytest.mark.parametrize("params,q,inner", [((4, 3, 2), None, 5), ((2, 2, 1), 13036379, 53)])
def test_worker_products_reduce_every_share_they_are_given(params, q, inner):
    # the one-chunk product keeps both operand range checks: int32 shares
    # holding q, q + 5, a negative entry or the int32 extremes, or q in every
    # entry, int64 shares past int32 and bool shares give the exact reduced
    # product, through worker_products and matmul_mod alike; at q = 13036379
    # a float64 product of 53 entries q would pass 2^53 unreduced, and at
    # q = 47 a float32 one of 2^31 - 1 would round
    inst = build_scheme(SchemeParams(*params, q=q))
    q, n = inst.q, inst.n_workers
    rng = np.random.default_rng(43)

    def shares(shape, dtype, values):
        out = []
        for _ in range(n):
            s = np.full(shape, q) if values is None else rng.integers(0, q, size=shape)
            if values:
                s.flat[rng.choice(s.size, len(values), replace=False)] = values
            out.append(s.astype(dtype))
        return out

    cases = [
        (np.int32, [q]), (np.int32, [q + 5]), (np.int32, [-1]), (np.int32, [q, q + 5, -q - 3]),
        (np.int32, [2**31 - 1, -2**31]), (np.int32, None),
        (np.int64, [2**40 + 1, -2**63, 2**63 - 1]), (np.int64, []), (np.bool_, []),
    ]
    for dtype, values in cases:
        sa, sb = shares((3, inner), dtype, values), shares((inner, 2), dtype, values)
        responses = inst.worker_products(EncodedShares("A", sa), EncodedShares("B", sb))
        for a, b, response in zip(sa, sb, responses, strict=True):
            expect = (a.astype(object) @ b.astype(object) % q).tolist()
            assert response.dtype == np.int64 and response.tolist() == expect
            assert linalg.matmul_mod(a, b, q).tolist() == expect


def test_star_product_dimension(inst221, inst432):
    assert _star_product_dimension(inst221, _candidates(inst221)) == 8
    assert _star_product_dimension(inst432, _candidates(inst432)) == 24


def test_canonical_monomial_closure(inst432):
    # products of the chosen functions never need a y^2 reduction and land
    # exactly on the canonical monomial of the summed pole order, whose row the
    # library evaluates as the product of the two rows
    poles, d, q = inst432.poles, inst432.poles.d, inst432.q
    ws = sorted({*poles.phi, *poles.gamma, *poles.distinct_poles})
    rows = dict(zip(ws, evaluation_matrix(q, d, ws, _candidates(inst432))))
    for wf in poles.phi:
        for wg in poles.gamma:
            (af, bf), (ag, bg) = _exponents(wf, d), _exponents(wg, d)
            assert bf + bg <= 1  # no y^2 to reduce
            assert _exponents(wf + wg, d) == (af + ag, bf + bg)
            assert np.array_equal(rows[wf] * rows[wg] % q, rows[wf + wg])


def test_security_generator_is_vandermonde(inst432):
    q = inst432.q
    for side in ("A", "B"):
        gen = inst432.security_generator(side)
        assert gen.shape == (2, 24)
        xs = inst432.places[:, 0].tolist()
        expected = np.array([[pow(xv, k, q) for xv in xs] for k in range(2)])
        assert np.array_equal(gen, expected)
        assert all_square_submatrices_invertible(gen, q)
    with pytest.raises(ValueError):
        inst432.security_generator("C")


def test_an_information_set_with_a_repeated_x_is_refused(monkeypatch):
    # candidate 32 becomes (19, 46), the mirror of the chosen place (19, 15);
    # G[C] is singular at the leading places, and the wide elimination picks
    # columns 0..30 and 32, two workers at x = 19
    params = SchemeParams(2, 5, 6)
    poles = derive_parameters(2, 5, 6)
    candidates = select_distinct_x_places(61, poles.d, poles.code_degree + 1)
    assert candidates[19].tolist() == [19, 15]
    candidates[32] = (19, 46)
    message = ("the information set repeats an x-coordinate, so some X = 6 workers' "
               "mask block is singular")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        scheme.SchemeInstance(params, poles, 61, candidates)
    # without the certificate the scheme is built, and 6 colluders holding
    # both places see a mask block of rank 5
    monkeypatch.setattr(scheme, "_mask_code_is_mds", lambda xs, x: True)
    inst = scheme.SchemeInstance(params, poles, 61, candidates)
    assert inst.column_indices == [*range(31), 32]
    block = inst.security_generator("A")[:, [0, 1, 2, 3, 19, 31]]
    assert rank(block, 61) == 5


@settings(max_examples=200, deadline=None)
@given(data=st.data(), q=st.sampled_from([3, 5, 7, 11]), x=st.integers(1, 3))
def test_the_certificate_is_the_exhaustive_oracle(data, q, x):
    # with repeats drawn as often as without: xs in [0, q), at least x of them
    xs = data.draw(st.one_of(
        st.lists(st.integers(0, q - 1), min_size=x, max_size=8),
        st.lists(st.integers(0, q - 1), min_size=x, max_size=min(8, q), unique=True)))
    generator = [[pow(v, k, q) for v in xs] for k in range(x)]
    assert scheme._mask_code_is_mds(xs, x) == all_square_submatrices_invertible(
        generator, q)


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
    saved = json.loads(path.read_text())
    moved_place = copy.deepcopy(saved)
    moved_place["places"][0]["x"] = (saved["places"][0]["x"] + 1) % 17
    # the library builds only the roots 0, ..., d - 1, so the rebuild is the one
    # guard against a descriptor that names others
    other_roots = [{**saved, "curve": {"roots": roots}} for roots in ([0, 1, 3], [3, 7, 11])]
    # a key the rebuild does not write is refused whatever its value, null included
    extra_keys = [{**saved, "extra": value} for value in (None, 1)]
    for data in [moved_place, *other_roots, *extra_keys]:
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
    # the exact bytes, also for shapes without entries: one line per row
    for shape, text in (((2, 3), "2,3,7\n0,1,2\n3,4,5\n"), ((0, 3), "0,3,7\n"),
                        ((3, 0), "3,0,7\n\n\n\n"), ((3, 1), "3,1,7\n0\n1\n2\n"),
                        ((1, 1), "1,1,7\n0\n")):
        write_matrix_csv(path, np.arange(math.prod(shape)).reshape(shape) - 7, 7)
        assert path.read_bytes() == text.encode()
    # a 2x2 matrix over the largest q spans more values than it has entries
    q = 2**31 - 1
    write_matrix_csv(path, [[q - 1, 0], [-1, 2**62]], q)
    assert path.read_bytes() == f"2,2,{q}\n{q - 1},0\n{q - 1},{2**62 % q}\n".encode()


def _reference_matrix_csv(matrix, q):
    # the CSV format's definition: one str() per entry
    lines = [f"{matrix.shape[0]},{matrix.shape[1]},{q}"]
    lines.extend(",".join(map(str, row)) for row in (matrix % q).tolist())
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from([2, 3, 7, 197, 2**31 - 1]), narrow=st.booleans(), data=st.data())
def test_matrix_csv_text_equals_per_entry_rendering(tmp_path_factory, q, narrow, data):
    # entries reduce to a span below the entry count (the token table) or not
    # (per entry); both give the same bytes, and read back as written
    shape = data.draw(st.tuples(st.integers(0, 16), st.integers(0, 16)))
    elements = st.integers(-3, 3) if narrow else st.integers(-2**63, 2**63 - 1)
    matrix = data.draw(hnp.arrays(np.int64, shape, elements=elements))
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    write_matrix_csv(path, matrix, q)
    assert path.read_text() == _reference_matrix_csv(matrix, q)
    got, got_q = read_matrix_csv(path)
    assert got_q == q and got.shape == shape and np.array_equal(got, matrix % q)


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
    for q in (0, 1, -7, 2**31, 2**63):
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


def _int_per_entry(path, rows, cols):
    # the reading of a body one int() per entry, as read_matrix_csv did it alone
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()][1:]
    try:
        mat = np.array([[int(v) for v in ln.split(",")] for ln in lines], dtype=np.int64)
    except OverflowError:
        return f"{path}: an entry lies outside the int64 range [-2^63, 2^63)"
    except ValueError:
        return f"{path}: malformed body; expected {rows} lines of {cols} integers"
    if mat.shape != (rows, cols):
        return f"{path}: header promises {rows}x{cols}, body is {mat.shape}"
    return (mat % 7).tolist()


@pytest.mark.parametrize("body", [
    "1_0,2", " 5,+6", "5 ,-0", "0010,\t3", "\u0663,4", "\uff11,2", "1,2\n\n3,4", "1,2\n 3 , 4 ",
    "1.0,2", "1e3,2", "0x1,2", "1 2,3", "1,,2", "1,2,", "1,2#c", "'1',2", "nan,1", "True,1",
    f"{2**63},1", f"{-2**63 - 1},1", f"{2**63 - 1},{-2**63}", "1,2\n3", "1,2,3\n4,5,6", "1\n2",
])
def test_matrix_csv_reads_entries_as_int_does(tmp_path, body):
    # numpy's reader takes a body only where int() per entry gives the same
    # matrix; every other body gets the per-entry reading and its refusals
    path = tmp_path / "m.csv"
    rows = len([ln for ln in body.splitlines() if ln.strip()])
    cols = len(body.splitlines()[0].split(","))
    path.write_text(f"{rows},{cols},7\n{body}\n")
    expected = _int_per_entry(path, rows, cols)
    try:
        got, _ = read_matrix_csv(path)
    except ValueError as err:
        assert str(err) == expected
    else:
        assert got.dtype == np.int64 and got.tolist() == expected


@pytest.mark.parametrize("body,message", [
    ("1.0,2", "malformed body"), ("2.7,2", "malformed body"), ("1e3,2", "malformed body"),
    ("nan,2", "malformed body"), (f"{2**63},2", "an entry lies outside the int64 range"),
    (f"{10**20},2", "an entry lies outside the int64 range"),
])
def test_matrix_csv_refuses_float_entries_at_default_warning_filters(tmp_path, monkeypatch,
                                                                     body, message):
    # outside a test run a library's DeprecationWarnings are ignored, and a
    # numpy that still reads an int64 entry via a float only warns before it
    # returns the cast; the reader refuses such bodies with either numpy
    path = tmp_path / "m.csv"
    path.write_text(f"1,2,7\n{body}\n")
    loadtxt = np.loadtxt

    def via_float(lines, **kwargs):
        try:
            return loadtxt(lines, **kwargs)
        except ValueError:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            return loadtxt(lines, **{**kwargs, "dtype": np.float64}).astype(np.int64)

    for reader in (loadtxt, via_float):
        monkeypatch.setattr(np, "loadtxt", reader)
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            warnings.simplefilter("ignore", DeprecationWarning)
            with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
                read_matrix_csv(path)


@pytest.mark.parametrize("m,n,x", [(2, 2, 1), (2, 1, 2), (4, 3, 2)])
def test_built_instance_consistency(m, n, x):
    inst = build_scheme(SchemeParams(m, n, x))
    assert inst.n_workers == len(inst.poles.distinct_poles)
    assert _v_matrix(inst).shape == (inst.n_workers, inst.n_workers)
    assert len(inst.places) == inst.n_workers
    assert max(inst.column_indices) <= inst.poles.code_degree
    # Hasse-Weil check on the chosen curve
    count = _place_count(inst.q, inst.poles.d)
    g, q = inst.poles.g, inst.q
    assert abs(count - (q + 1)) <= math.isqrt(4 * g * g * q)
