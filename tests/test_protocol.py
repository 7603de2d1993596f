import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agsdmm import (
    SchemeParams,
    build_scheme,
    collude_view,
    decode_response_pairs,
    empirical_secrecy_audit,
    matmul_mod,
    run_protocol,
)


@pytest.fixture(scope="module")
def inst221():
    return build_scheme(SchemeParams(2, 2, 1))


def test_zero_inputs_give_zero_product(inst221):
    a = np.zeros((2, 1), dtype=int)
    b = np.array([[3, 5]])
    result, _ = run_protocol(a, b, inst221, np.random.default_rng(1))
    assert result.shape == (2, 2) and not result.any()


def test_result_matches_plain_product(inst221):
    rng = np.random.default_rng(7)
    a = rng.integers(0, inst221.q, size=(4, 2))
    b = rng.integers(0, inst221.q, size=(2, 6))
    result, _ = run_protocol(a, b, inst221, rng)
    assert np.array_equal(result, a @ b % inst221.q)


def test_default_rng_comes_from_scheme_seed():
    inst = build_scheme(SchemeParams(2, 2, 1, seed=99))
    a = np.arange(8).reshape(4, 2)
    b = np.arange(12).reshape(2, 6)
    r1, t1 = run_protocol(a, b, inst)
    r2, t2 = run_protocol(a, b, inst)
    assert np.array_equal(r1, r2)
    for rec1, rec2 in zip(t1.records, t2.records):
        assert np.array_equal(rec1.a_share, rec2.a_share)
        assert np.array_equal(rec1.b_share, rec2.b_share)


def test_inner_dimension_mismatch(inst221):
    with pytest.raises(ValueError, match="inner dimensions"):
        run_protocol(np.zeros((2, 3), dtype=int), np.zeros((2, 2), dtype=int), inst221)


def test_transcript_shapes():
    _check_transcript_shapes(2, 2, 1)


@pytest.mark.parametrize("m,n,x", [(3, 4, 2), (1, 2, 2)])
def test_transcript_shapes_swapped(m, n, x):
    # odd m: phi encodes B, and the shares still keep the user's orientation
    _check_transcript_shapes(m, n, x)


def _check_transcript_shapes(m, n, x):
    inst = build_scheme(SchemeParams(m, n, x))
    assert inst.swapped == (m % 2 == 1)
    rng = np.random.default_rng(5)
    a = rng.integers(0, inst.q, size=(2 * m, 5))
    b = rng.integers(0, inst.q, size=(5, 3 * n))
    product, transcript = run_protocol(a, b, inst, rng)
    assert np.array_equal(product, a @ b % inst.q)
    assert transcript.n_workers == inst.n_workers
    assert [rec.index for rec in transcript.records] == list(range(inst.n_workers))
    for rec in transcript.records:
        assert rec.a_share.shape == (2, 5)  # rows(A)/m x cols(A)
        assert rec.b_share.shape == (5, 3)  # rows(B) x cols(B)/n
        assert np.array_equal(rec.response, matmul_mod(rec.a_share, rec.b_share, inst.q))
        assert rec.place == inst.places[rec.index]


def test_transcript_jsonl_export(tmp_path, inst221):
    rng = np.random.default_rng(8)
    a = rng.integers(0, inst221.q, size=(2, 2))
    b = rng.integers(0, inst221.q, size=(2, 2))
    _, transcript = run_protocol(a, b, inst221, rng)
    path = tmp_path / "transcript.jsonl"
    transcript.to_jsonl(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 8
    for i, line in enumerate(lines):
        rec = json.loads(line)
        assert rec["index"] == i
        place = inst221.places[i]
        assert rec["place"] == {"x": place.x.value, "y": place.y.value}
        assert rec["a_share"] == transcript.records[i].a_share.tolist()
        assert rec["b_share"] == transcript.records[i].b_share.tolist()
        assert rec["response"] == transcript.records[i].response.tolist()


def test_decoding_is_order_insensitive(inst221):
    rng = np.random.default_rng(21)
    a = rng.integers(0, inst221.q, size=(4, 2))
    b = rng.integers(0, inst221.q, size=(2, 4))
    result, transcript = run_protocol(a, b, inst221, rng)
    pairs = transcript.responses()
    shuffled = [pairs[i] for i in np.random.default_rng(3).permutation(len(pairs))]
    assert np.array_equal(decode_response_pairs(shuffled, inst221), result)


def test_decode_response_pairs_validation(inst221):
    rng = np.random.default_rng(2)
    a = rng.integers(0, inst221.q, size=(2, 2))
    b = rng.integers(0, inst221.q, size=(2, 2))
    _, transcript = run_protocol(a, b, inst221, rng)
    pairs = transcript.responses()
    with pytest.raises(ValueError, match="duplicate"):
        decode_response_pairs(pairs + [pairs[0]], inst221)
    with pytest.raises(ValueError, match="exactly one response"):
        decode_response_pairs(pairs[:-1], inst221)


@pytest.mark.parametrize("m,n,x", [(2, 2, 1), (3, 4, 2)])
def test_decode_reduces_unreduced_and_negative_responses(m, n, x):
    inst = build_scheme(SchemeParams(m, n, x))
    rng = np.random.default_rng(17)
    a = rng.integers(0, inst.q, size=(2 * m, 3))
    b = rng.integers(0, inst.q, size=(3, 2 * n))
    _, transcript = run_protocol(a, b, inst, rng)
    shifts = rng.integers(-3, 4, size=inst.n_workers)
    shifts[0] = -3  # at least one response with every entry negative
    pairs = [(i, resp + k * inst.q) for (i, resp), k in zip(transcript.responses(), shifts)]
    assert (pairs[0][1] < 0).all()
    assert np.array_equal(decode_response_pairs(pairs, inst), a @ b % inst.q)


_SUPPORTED = [(m, n, x) for m in range(1, 5) for n in range(1, 5) for x in range(1, 4)
              if (m % 2 == 0 and m * (n - 1) + 2 * x - 1 >= 3)
              or (m % 2 and n % 2 == 0 and n * (m - 1) + 2 * x - 1 >= 3)]


@functools.cache
def _scheme(params):
    return build_scheme(SchemeParams(*params))


@settings(max_examples=40, deadline=None)
@given(params=st.sampled_from(_SUPPORTED), rows=st.integers(1, 3), inner=st.integers(1, 4),
       cols=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_run_protocol_matches_direct_product(params, rows, inner, cols, seed):
    # every supported small (m, n, X), both orientations, assorted block shapes
    inst = _scheme(params)
    m, n, _ = params
    rng = np.random.default_rng(seed)
    a = rng.integers(0, inst.q, size=(m * rows, inner))
    b = rng.integers(0, inst.q, size=(inner, n * cols))
    result, _ = run_protocol(a, b, inst, rng)
    assert np.array_equal(result, a @ b % inst.q)


def test_collude_view_contents(inst221):
    rng = np.random.default_rng(17)
    a = rng.integers(0, inst221.q, size=(2, 2))
    b = rng.integers(0, inst221.q, size=(2, 2))
    _, transcript = run_protocol(a, b, inst221, rng)
    view = collude_view(transcript, (3,))
    assert view.indices == (3,)
    assert len(view.a_shares) == 1 and len(view.b_shares) == 1
    assert np.array_equal(view.a_shares[0], transcript.records[3].a_share)

    # determinism: re-running the encoder with the same tape reproduces the view
    rng2 = np.random.default_rng(17)
    rng2.integers(0, inst221.q, size=(2, 2))  # burn the same draws used for a
    rng2.integers(0, inst221.q, size=(2, 2))
    enc_a = inst221.encode("A", a, rng2)
    enc_b = inst221.encode("B", b, rng2)
    assert np.array_equal(view.a_shares[0], enc_a.shares[3])
    assert np.array_equal(view.b_shares[0], enc_b.shares[3])


def test_collude_view_disjoint_sets(inst221):
    rng = np.random.default_rng(23)
    a = rng.integers(0, inst221.q, size=(2, 2))
    b = rng.integers(0, inst221.q, size=(2, 2))
    _, transcript = run_protocol(a, b, inst221, rng)
    v1 = collude_view(transcript, (0,))
    v2 = collude_view(transcript, (5,))
    assert set(v1.indices).isdisjoint(v2.indices)
    assert transcript.records[0].place != transcript.records[5].place


def test_collude_view_validation(inst221):
    rng = np.random.default_rng(29)
    a = rng.integers(0, inst221.q, size=(2, 2))
    b = rng.integers(0, inst221.q, size=(2, 2))
    _, transcript = run_protocol(a, b, inst221, rng)
    with pytest.raises(ValueError, match="expected 1"):
        collude_view(transcript, (0, 1))
    with pytest.raises(ValueError, match="distinct"):
        collude_view(transcript, (0, 0))
    with pytest.raises(ValueError, match="lie in"):
        collude_view(transcript, (8,))


def test_swapped_orientation_protocol():
    inst = build_scheme(SchemeParams(3, 4, 2))
    rng = np.random.default_rng(41)
    a = rng.integers(0, inst.q, size=(6, 5))
    b = rng.integers(0, inst.q, size=(5, 8))
    result, transcript = run_protocol(a, b, inst, rng)
    assert np.array_equal(result, a @ b % inst.q)
    assert transcript.records[0].response.shape == (2, 2)


def test_secrecy_audit_2_2_1_q5():
    report = empirical_secrecy_audit(2, 2, 1, 5)
    assert report.passed
    assert report.failure is None
    assert report.views_uniform
    assert report.n_workers == 5
    assert report.place_xs == [0, 1, 2, 3, 4]
    assert report.mask_generator == [[1, 1, 1, 1, 1]]
    assert report.plaintext_count == 5**4
    assert report.randomness_count == 5**2
    assert report.subsets_exhaustive and len(report.subsets) == 5
    assert any("PASS" in line for line in report.summary_lines())


def test_secrecy_audit_larger_collusion():
    # two colluders, one data block per side: d = 3 over F_5
    report = empirical_secrecy_audit(2, 1, 2, 5)
    assert report.passed and report.views_uniform
    assert report.randomness_count == 5**4
    # the mask monomials 1 and x at the audited places
    assert report.mask_generator == [[pow(xv, k, 5) for xv in report.place_xs] for k in range(2)]


def test_secrecy_audit_swapped_orientation():
    # m odd, n even: the user's A side is encoded with the column-side functions
    report = empirical_secrecy_audit(1, 2, 2, 5)
    assert report.passed and report.views_uniform
    assert report.plaintext_count == 5**3


def test_secrecy_audit_parameter_guards():
    with pytest.raises(ValueError, match="q <= 7"):
        empirical_secrecy_audit(2, 2, 1, 11)
    with pytest.raises(ValueError, match="m\\*n <= 4"):
        empirical_secrecy_audit(4, 2, 1, 5)
    with pytest.raises(ValueError, match="m\\*n <= 4"):
        empirical_secrecy_audit(2, 2, 3, 5)
    with pytest.raises(ValueError, match="too small"):
        empirical_secrecy_audit(2, 2, 2, 5)  # d = 5 needs q > 5
    with pytest.raises(ValueError, match="state space"):
        empirical_secrecy_audit(2, 2, 1, 5, state_cap=100)


def test_secrecy_audit_subset_cap():
    report = empirical_secrecy_audit(2, 2, 1, 5, subset_cap=3)
    assert not report.subsets_exhaustive
    assert report.subsets == [(0,), (1,), (2,)]
    assert report.passed
