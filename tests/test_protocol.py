import functools
import json
import re
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import joint_view_audit

from agsdmm import (
    SchemeParams,
    build_scheme,
    collude_view,
    decode_response_pairs,
    empirical_secrecy_audit,
    linalg,
    matmul_mod,
    protocol,
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


def test_run_protocol_refuses_input_int64_cannot_hold(inst221):
    # 1.7 would be truncated to 1 without a word; float input is refused even
    # where its values are integers
    message = r"^expected integer entries in the int64 range \[-2\^63, 2\^63\), got {} input$"
    with pytest.raises(ValueError, match=message.format("float64")):
        run_protocol(np.full((2, 2), 1.7), np.eye(2, dtype=int), inst221)
    with pytest.raises(ValueError, match=message.format("float64")):
        run_protocol(np.eye(2, dtype=int), np.eye(2), inst221)
    with pytest.raises(ValueError, match=message.format("object")):
        run_protocol([[2**64, 1], [1, 1]], np.eye(2, dtype=int), inst221)


@pytest.mark.parametrize("m,n,x,shape,q,layers", [
    # the benchmark's run workloads: worker-bound, cli-oneshot and decode-bound
    (4, 3, 2, (512, 512, 384), 47,
     {"encode": (np.float32, np.int32), "workers": (np.float32, np.int32),
      "decode": (np.float32, np.int32)}),
    # the 16 x 16 worker products are too small to pay for an int32 reduction
    (8, 8, 4, (128, 64, 128), 197,
     {"encode": (np.float32, np.int32), "workers": (np.float32, np.int64),
      "decode": (np.float32, np.int32)}),
    # 64 (616)^2 and 329 (616)^2 lie above 2^24, and the 8 x 8 worker products
    # below FLOOR_REDUCE_MIN entries
    (14, 14, 10, (112, 64, 112), 617,
     {"encode": (np.float32, np.int32), "workers": (np.float64, np.int64),
      "decode": (np.float64, np.int32)}),
])
def test_run_layers_take_the_narrowest_exact_tier(m, n, x, shape, q, layers, monkeypatch):
    # (product dtype, reduction dtype) of every product a run makes, in call
    # order: encode A, encode B, one per worker, decode
    inst = build_scheme(SchemeParams(m, n, x))
    assert inst.q == q
    taken = []
    tiers = linalg._tiers
    monkeypatch.setattr(linalg, "_tiers", lambda *args: taken.append(tiers(*args)) or taken[-1])
    rng = np.random.default_rng(0)
    rows, inner, cols = shape
    a = rng.integers(0, q, size=(rows, inner))
    b = rng.integers(0, q, size=(inner, cols))
    product, _ = run_protocol(a, b, inst, rng)
    assert np.array_equal(product, a @ b % q)
    assert taken == [layers["encode"]] * 2 + [layers["workers"]] * inst.n_workers + [layers["decode"]]


def test_result_matches_plain_product(inst221):
    rng = np.random.default_rng(7)
    a = rng.integers(0, inst221.q, size=(4, 2))
    b = rng.integers(0, inst221.q, size=(2, 6))
    result, _ = run_protocol(a, b, inst221, rng)
    assert np.array_equal(result, a @ b % inst221.q)


def test_default_masks_differ_between_runs():
    # without an rng the masks come from OS entropy, not from the descriptor's
    # seed: two runs of one scheme on the same inputs share no worker's A or B
    # share (each of at least 12 uniform entries mod 17, so a chance match is
    # at most 17^-12)
    inst = build_scheme(SchemeParams(2, 2, 1, seed=99))
    a = np.arange(24).reshape(4, 6)
    b = np.arange(36).reshape(6, 6)
    r1, t1 = run_protocol(a, b, inst)
    r2, t2 = run_protocol(a, b, inst)
    assert np.array_equal(r1, a @ b % inst.q) and np.array_equal(r2, r1)
    for rec1, rec2 in zip(t1.records, t2.records, strict=True):
        assert (rec1.a_share.size, rec1.b_share.size) == (12, 18)
        assert not np.array_equal(rec1.a_share, rec2.a_share)
        assert not np.array_equal(rec1.b_share, rec2.b_share)
    # a seed, given as an int or as a Generator, reproduces the masks
    lines = [run_protocol(a, b, inst, rng)[1].to_jsonl_lines()
             for rng in (5, np.random.default_rng(5))]
    assert lines[0] == lines[1]


def test_inner_dimension_mismatch(inst221):
    with pytest.raises(ValueError, match="inner dimensions"):
        run_protocol(np.zeros((2, 3), dtype=int), np.zeros((2, 2), dtype=int), inst221)



@pytest.mark.parametrize("a_shape,b_shape", [((4,), (2, 2)), ((4, 2), (2,))])
def test_run_protocol_refuses_a_matrix_that_is_not_2d(inst221, a_shape, b_shape):
    message = f"expected 2-D matrices, got shapes {a_shape} and {b_shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_protocol(np.zeros(a_shape, dtype=int), np.zeros(b_shape, dtype=int), inst221)

def test_transcript_shapes():
    _check_transcript_shapes(2, 2, 1)


@pytest.mark.parametrize("m,n,x", [(3, 4, 2), (1, 2, 2)])
def test_transcript_shapes_swapped(m, n, x):
    # odd m: phi encodes B, and the shares still keep the user's orientation
    _check_transcript_shapes(m, n, x)


def _check_transcript_shapes(m, n, x):
    inst = build_scheme(SchemeParams(m, n, x))
    assert inst.poles.swapped == (m % 2 == 1)
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
        assert rec.place == tuple(inst.places[rec.index].tolist())
        assert all(type(v) is int for v in rec.place)


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
        x, y = inst221.places[i].tolist()
        assert rec["place"] == {"x": x, "y": y}
        assert rec["a_share"] == transcript.records[i].a_share.tolist()
        assert rec["b_share"] == transcript.records[i].b_share.tolist()
        assert rec["response"] == transcript.records[i].response.tolist()


def _reference_jsonl_lines(transcript):
    # the transcript format's definition: json.dumps of each record, one
    # conversion per entry
    return [json.dumps({
        "index": rec.index,
        "place": {"x": rec.place[0], "y": rec.place[1]},
        "a_share": rec.a_share.tolist(),
        "b_share": rec.b_share.tolist(),
        "response": rec.response.tolist(),
    }) for rec in transcript.records]


@st.composite
def _record_matrix(draw, base):
    # int64 entries in [base, base + 8], a span the token table serves, or with
    # base None over all of int64, which sends every matrix per entry; the
    # small signed dtypes join the table when base is -4, and unsigned and bool
    # matrices are always written per entry
    dtype = draw(st.sampled_from([np.int64, np.int64, np.int32, np.int8, np.uint8,
                                  np.uint64, np.bool_]))
    shape = draw(st.tuples(st.integers(0, 5), st.integers(0, 5)))
    if dtype == np.int64:
        elements = (st.integers(base, base + 8) if base is not None else
                    st.one_of(st.sampled_from([-2**63, 2**63 - 1]), st.integers(-2**63, 2**63 - 1)))
    elif dtype in (np.int32, np.int8):
        elements = st.integers(-4, 4)
    else:
        elements = None
    return draw(hnp.arrays(dtype, shape, elements=elements))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), base=st.sampled_from([-2**63, -4, 2**63 - 9, None]))
def test_jsonl_lines_equal_json_dumps_of_each_record(data, base):
    matrix = _record_matrix(base)
    records = data.draw(st.lists(st.tuples(st.integers(0, 10**6), st.integers(-2**40, 2**40),
                                           matrix, matrix, matrix), max_size=4))
    transcript = protocol.Transcript(q=7, m=2, n=2, x=1, records=[
        protocol.WorkerRecord(index, (x, x + 1), a, b, r)
        for index, x, a, b, r in records
    ])
    assert transcript.to_jsonl_lines() == _reference_jsonl_lines(transcript)


def test_jsonl_lines_of_int8_entries_whose_offsets_overflow_int8():
    # 420 entries span 199 values, so the token table serves them; v - lo
    # reaches 199, which int8 cannot hold
    a = np.arange(-100, 100, dtype=np.int8).reshape(10, 20)
    transcript = protocol.Transcript(q=7, m=2, n=2, x=1, records=[
        protocol.WorkerRecord(0, (0, 0), a, a.T, a[:1])])
    assert transcript.to_jsonl_lines() == _reference_jsonl_lines(transcript)


def test_jsonl_lines_of_a_seeded_run_equal_json_dumps():
    # (8,8,4) with 16x64 shares, where the shares and responses far outnumber q
    inst = build_scheme(SchemeParams(8, 8, 4))
    rng = np.random.default_rng(3)
    a = rng.integers(0, inst.q, size=(128, 64))
    b = rng.integers(0, inst.q, size=(64, 128))
    _, transcript = run_protocol(a, b, inst, rng)
    assert transcript.records[0].a_share.shape == (16, 64)
    assert transcript.to_jsonl_lines() == _reference_jsonl_lines(transcript)


def test_decoding_is_order_insensitive(inst221):
    rng = np.random.default_rng(21)
    a = rng.integers(0, inst221.q, size=(4, 2))
    b = rng.integers(0, inst221.q, size=(2, 4))
    result, transcript = run_protocol(a, b, inst221, rng)
    pairs = [(rec.index, rec.response) for rec in transcript.records]
    shuffled = [pairs[i] for i in np.random.default_rng(3).permutation(len(pairs))]
    assert np.array_equal(decode_response_pairs(shuffled, inst221), result)


def test_decode_response_pairs_validation(inst221):
    rng = np.random.default_rng(2)
    a = rng.integers(0, inst221.q, size=(2, 2))
    b = rng.integers(0, inst221.q, size=(2, 2))
    _, transcript = run_protocol(a, b, inst221, rng)
    pairs = [(rec.index, rec.response) for rec in transcript.records]
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
    pairs = [(rec.index, rec.response + k * inst.q) for rec, k in zip(transcript.records, shifts)]
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


def test_run_protocol_at_the_largest_modulus():
    # q = 2^31 - 1, entries q - 1 and an inner length of 300: every share
    # still fits int32, each worker's product takes the int64 limb tier, and
    # the responses and the product are int64
    q = 2**31 - 1
    inst = build_scheme(SchemeParams(2, 2, 1, q=q))
    rng = np.random.default_rng(31)
    a = np.full((4, 300), q - 1, dtype=np.int64)
    b = rng.integers(q - 2, q, size=(300, 4))
    result, transcript = run_protocol(a, b, inst, rng)
    shares = [s for rec in transcript.records for s in (rec.a_share, rec.b_share)]
    assert all(s.dtype == np.int32 for s in shares)
    assert max(int(s.max()) for s in shares) <= q - 1
    assert all(rec.response.dtype == np.int64 for rec in transcript.records)
    assert result.dtype == np.int64
    assert result.tolist() == (a.astype(object) @ b.astype(object) % q).tolist()


@functools.cache
def _scheme_at(params, q):
    return build_scheme(SchemeParams(*params, q=q))


@settings(max_examples=40, deadline=None)
@given(params=st.sampled_from(_SUPPORTED), q=st.sampled_from([None, 65521, 1000000007, 2**31 - 1]),
       inner=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_shares_are_int32_and_the_product_exact_at_any_modulus(params, q, inner, seed):
    # from the smallest admissible field to the largest modulus, in every
    # product tier: int32 shares, int64 responses, the Python-int product
    inst = _scheme_at(params, q)
    m, n, _ = params
    rng = np.random.default_rng(seed)
    a = rng.integers(inst.q - 3, inst.q, size=(m, inner))
    b = rng.integers(0, inst.q, size=(inner, 2 * n))
    result, transcript = run_protocol(a, b, inst, rng)
    for rec in transcript.records:
        assert rec.a_share.dtype == rec.b_share.dtype == np.int32
        assert rec.response.dtype == np.int64
    assert result.tolist() == (a.astype(object) @ b.astype(object) % inst.q).tolist()


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
    assert report.subsets == [(0,), (1,), (2,), (3,), (4,)]
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


def test_secrecy_audit_parameter_guards(monkeypatch):
    with pytest.raises(ValueError, match="q <= 7"):
        empirical_secrecy_audit(2, 2, 1, 11)
    for q in (-3, 0, 1, 4, 6):
        with pytest.raises(ValueError, match="odd prime"):
            empirical_secrecy_audit(2, 2, 1, q)
    with pytest.raises(ValueError, match="m\\*n <= 4"):
        empirical_secrecy_audit(4, 2, 1, 5)
    with pytest.raises(ValueError, match="m\\*n <= 4"):
        empirical_secrecy_audit(2, 2, 3, 5)
    with pytest.raises(ValueError, match="too small"):
        empirical_secrecy_audit(2, 2, 2, 5)  # d = 5 needs q > 5
    with pytest.raises(ValueError, match="state space 40353607 exceeds"):
        empirical_secrecy_audit(4, 1, 2, 7)  # 7^9 states
    monkeypatch.setattr(protocol, "AUDIT_STATE_CAP", 100)
    with pytest.raises(ValueError, match="state space 15625 exceeds the cap 100"):
        empirical_secrecy_audit(2, 2, 1, 5)



# every (m, n, x, q) with q in {3, 5, 7}, m, n <= 4 and x <= 2 that the audit accepts
_AUDITED = [(1, 2, 2, 5), (1, 4, 2, 5), (2, 1, 2, 5), (2, 2, 1, 5), (4, 1, 2, 5),
            (1, 2, 2, 7), (2, 1, 2, 7), (2, 2, 1, 7)]


def test_the_audit_accepts_eight_points_of_its_range():
    accepted = []
    for q, m, n, x in product((3, 5, 7), range(1, 5), range(1, 5), (1, 2)):
        try:
            empirical_secrecy_audit(m, n, x, q)
        except ValueError:
            continue
        accepted.append((m, n, x, q))
    assert accepted == _AUDITED


def _audit(monkeypatch, m, n, x, q, broken=""):
    """The audit with the sides named in broken broken, and the coefficient matrices it used.

    A broken side's last worker gets the unit column of the last data block,
    so it sees that block unmasked.
    """
    real, evals = protocol.evaluation_matrix, []

    def evaluation_matrix(*args):
        e = real(*args).copy()
        if "AB"[len(evals)] in broken:
            e[:, -1] = 0
            e[-1, -1] = 1
        evals.append(e)
        return e

    monkeypatch.setattr(protocol, "evaluation_matrix", evaluation_matrix)
    return empirical_secrecy_audit(m, n, x, q), evals


@pytest.mark.parametrize("broken", ["", "A", "B", "AB"])
@pytest.mark.parametrize("m,n,x,q", _AUDITED)
def test_secrecy_audit_matches_the_joint_view_oracle(monkeypatch, m, n, x, q, broken):
    report, (a_eval, b_eval) = _audit(monkeypatch, m, n, x, q, broken)
    assert (report.views_uniform, report.failure) == joint_view_audit(a_eval, b_eval, x, q)
    assert report.passed == (not broken)


@pytest.mark.parametrize("m,n,x,broken,pair,subset", [
    (2, 2, 1, "A", "((0, 1), (0, 0)) and ((0, 0), (0, 0))", (4,)),
    (2, 2, 1, "B", "((0, 0), (0, 1)) and ((0, 0), (0, 0))", (4,)),
    (2, 1, 2, "A", "((0, 1), (0,)) and ((0, 0), (0,))", (0, 4)),
    (2, 1, 2, "B", "((0, 0), (1,)) and ((0, 0), (0,))", (0, 4)),
    (2, 2, 1, "AB", "((0, 0), (0, 1)) and ((0, 0), (0, 0))", (4,)),
    (2, 1, 2, "AB", "((0, 0), (1,)) and ((0, 0), (0,))", (0, 4)),
])
def test_secrecy_audit_names_the_first_differing_pair_and_subset(monkeypatch, m, n, x, broken,
                                                                 pair, subset):
    # a broken B side fails at (a0, b), also when A is broken too, and a
    # broken A side alone at (a, b0)
    report, _ = _audit(monkeypatch, m, n, x, 5, broken)
    failure = f"view distribution of subset {subset} differs between plaintexts {pair}"
    assert not report.passed and not report.views_uniform
    assert report.failure == failure
    assert report.summary_lines()[0] == f"secrecy audit for m={m} n={n} x={x} q=5: FAIL ({failure})"

def test_readme_quickstart_runs():
    # the README's one python block is the documented public API; run it as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    scope = {}
    exec(blocks[0], scope)
    assert scope["inst"].q == 17 and scope["inst"].n_workers == 8
    assert scope["view"].indices == (3,)
