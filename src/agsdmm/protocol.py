"""Simulated worker-pool runs, collusion views, and an exhaustive secrecy audit.

Workers are honest but curious and run in-process: "sending" a share is a
recorded function call. Worker i only ever sees its own pair of shares; the
transcript keeps every share and response keyed by worker index so collusion
views can be extracted after the fact.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, product
from pathlib import Path

import numpy as np

from . import linalg
from .field import check_odd_prime
from .function_field import evaluation_matrix, select_distinct_x_places
from .scheme import SchemeInstance, _matrix_texts, derive_parameters

AUDIT_STATE_CAP = 2_000_000


@dataclass
class WorkerRecord:
    """Everything one worker saw and returned: int32 shares and an int64 response (their product)."""

    index: int
    place: tuple[int, int]
    a_share: np.ndarray
    b_share: np.ndarray
    response: np.ndarray


@dataclass
class Transcript:
    """Full record of one protocol run."""

    q: int
    m: int
    n: int
    x: int
    records: list[WorkerRecord]

    @property
    def n_workers(self) -> int:
        return len(self.records)

    def to_jsonl_lines(self) -> list[str]:
        """One line per record, exactly json.dumps of its index, place, a_share, b_share, response.

        The matrices are joined from one table of decimal tokens
        (scheme._matrix_texts), built when their entries span fewer values
        than they number, as residues mod q do once they number at least q;
        else each is json.dumps(m.tolist()). Scalars go through json.dumps.
        """
        matrices = [m for rec in self.records for m in (rec.a_share, rec.b_share, rec.response)]
        texts = iter(_matrix_texts(matrices, "[[", ", ", "], [", "]]",
                                   lambda m: json.dumps(m.tolist())))
        dumps = json.dumps
        return [
            f'{{"index": {dumps(rec.index)}, "place": {{"x": {dumps(rec.place[0])}, '
            f'"y": {dumps(rec.place[1])}}}, "a_share": {next(texts)}, '
            f'"b_share": {next(texts)}, "response": {next(texts)}}}'
            for rec in self.records
        ]

    def to_jsonl(self, path) -> None:
        Path(path).write_text("\n".join(self.to_jsonl_lines()) + "\n")


@dataclass
class CollusionView:
    """The pooled incoming shares of one set of colluding workers."""

    indices: tuple[int, ...]
    a_shares: list[np.ndarray]
    b_shares: list[np.ndarray]


def run_protocol(a, b, instance: SchemeInstance, rng=None):
    """Encode, fan out to all workers, decode; returns (product, transcript).

    rng, a numpy Generator or a seed for one, supplies the masks. Without it
    the masks are drawn from OS entropy, so no two runs share them; a seed or
    a seeded Generator reproduces a run.
    """
    a = linalg._as_int64(a)
    b = linalg._as_int64(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"expected 2-D matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    rng = np.random.default_rng(rng)
    shares_a = instance.encode("A", a, rng)
    shares_b = instance.encode("B", b, rng)
    responses = instance.worker_products(shares_a, shares_b)
    result = instance.decode(responses)
    records = [
        WorkerRecord(i, (x, y), share_a, share_b, response)
        for i, ((x, y), share_a, share_b, response) in enumerate(
            zip(instance.places.tolist(), shares_a.shares, shares_b.shares, responses))
    ]
    transcript = Transcript(
        q=instance.q, m=instance.params.m, n=instance.params.n,
        x=instance.params.x, records=records,
    )
    return result, transcript


def decode_response_pairs(pairs, instance: SchemeInstance) -> np.ndarray:
    """Decode from (worker index, response) pairs given in any order."""
    by_index = {}
    for idx, resp in pairs:
        if idx in by_index:
            raise ValueError(f"duplicate response for worker {idx}")
        by_index[idx] = resp
    if sorted(by_index) != list(range(instance.n_workers)):
        raise ValueError(f"need exactly one response from each of {instance.n_workers} workers")
    return instance.decode([by_index[i] for i in range(instance.n_workers)])


def collude_view(transcript: Transcript, indices) -> CollusionView:
    """The shares visible to the colluding workers named by indices (|indices| = x)."""
    idx = tuple(indices)
    if len(set(idx)) != len(idx):
        raise ValueError(f"colluding indices must be distinct, got {idx}")
    if len(idx) != transcript.x:
        raise ValueError(f"expected {transcript.x} colluding workers, got {len(idx)}")
    n = transcript.n_workers
    if any(i < 0 or i >= n for i in idx):
        raise ValueError(f"worker indices must lie in [0, {n}), got {idx}")
    return CollusionView(
        indices=idx,
        a_shares=[transcript.records[i].a_share for i in idx],
        b_shares=[transcript.records[i].b_share for i in idx],
    )


# -- empirical secrecy audit --------------------------------------------------


@dataclass
class SecrecyAuditReport:
    """Outcome of the exhaustive view-distribution comparison."""

    m: int
    n: int
    x: int
    q: int
    n_workers: int
    place_xs: list[int]
    mask_generator: list[list[int]]
    subsets: list[tuple[int, ...]]
    plaintext_count: int
    randomness_count: int
    views_uniform: bool
    passed: bool
    failure: str | None = None

    def summary_lines(self) -> list[str]:
        status = "PASS" if self.passed else f"FAIL ({self.failure})"
        return [
            f"secrecy audit for m={self.m} n={self.n} x={self.x} q={self.q}: {status}",
            f"  workers audited: {self.n_workers}; collusion subsets: all",
            f"  plaintext pairs: {self.plaintext_count}; mask assignments each: {self.randomness_count}",
            f"  colluder views uniform: {self.views_uniform}",
        ]


def empirical_secrecy_audit(
    m: int,
    n: int,
    x: int,
    q: int,
) -> SecrecyAuditReport:
    """Prove perfect secrecy at tiny scale by exact distribution comparison.

    Uses scalar (1x1) blocks and enumerates every plaintext and every mask
    assignment of each side. For each collusion subset the exact histogram of
    the colluders' view of one side is tabulated per plaintext of that side;
    secrecy holds iff all plaintext pairs induce the identical joint
    histogram, the product of their sides' histograms. Workers sit at every
    usable place of the curve; decodability is deliberately not required here, so q
    may be far below what a full scheme build needs.
    """
    if q > 7:
        raise ValueError(f"audit supports q <= 7, got {q} (state space must stay enumerable)")
    if m * n > 4 or x > 2:
        raise ValueError(f"audit supports m*n <= 4 and x <= 2, got m={m}, n={n}, x={x}")
    poles = derive_parameters(m, n, x)
    check_odd_prime(q)
    if q <= poles.d:
        raise ValueError(f"field order {q} too small for curve degree d={poles.d}")
    state = q ** (m + n + 2 * x)
    if state > AUDIT_STATE_CAP:
        raise ValueError(
            f"state space {state} exceeds the cap {AUDIT_STATE_CAP}; use smaller parameters"
        )

    places = select_distinct_x_places(q, poles.d)
    n_aud = len(places)

    a_eval, b_eval = (evaluation_matrix(q, poles.d, poles.sides[side][0], places) for side in "AB")

    subsets = list(combinations(range(n_aud), x))

    def views(data, eval_rows):
        # each subset's histogram of one side's shares over that side's mask assignments
        coeffs = np.array([masks + data for masks in product(range(q), repeat=x)], dtype=np.int64)
        vecs = (coeffs @ eval_rows % q).tolist()
        return [Counter(tuple(v[i] for i in sub) for v in vecs) for sub in subsets]

    # The sides' masks are independent, so a pair's joint view histogram is the
    # product of its sides' histograms: two pairs' views agree iff both sides'
    # views do, and a joint view is uniform iff both sides' views are. The first
    # pair, in (A, B) order, whose views differ from (a0, b0)'s is therefore
    # (a0, the first B plaintext whose views differ), else (the first such A
    # plaintext, b0).
    a0, b0 = (0,) * m, (0,) * n
    ref_a, ref_b = views(a0, a_eval), views(b0, b_eval)
    views_uniform = all(len(c) == q ** x and len(set(c.values())) == 1 for c in ref_a + ref_b)
    pairs = chain((((a0, b), views(b, b_eval), ref_b) for b in product(range(q), repeat=n)),
                  (((a, b0), views(a, a_eval), ref_a) for a in product(range(q), repeat=m)))
    pair, subset = next(((pair, sub) for pair, hists, ref in pairs
                         for sub, c, r in zip(subsets, hists, ref) if c != r), (None, None))
    failure = None if pair is None else (
        f"view distribution of subset {subset} differs between plaintexts {pair} and {(a0, b0)}")

    return SecrecyAuditReport(
        m=m, n=n, x=x, q=q,
        n_workers=n_aud,
        place_xs=places[:, 0].tolist(),
        # both sides share the x mask functions 1, x, ..., x^(x-1)
        mask_generator=a_eval[:x].tolist(),
        subsets=subsets,
        plaintext_count=q ** (m + n),
        randomness_count=q ** (2 * x),
        views_uniform=views_uniform,
        passed=failure is None,
        failure=failure,
    )
