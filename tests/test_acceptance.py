"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from agsdmm import (
    SchemeParams,
    build_scheme,
    degree_table_report,
    derive_parameters,
    empirical_secrecy_audit,
    rank,
    run_protocol,
    workers_a3s,
    workers_ag,
    workers_gasp_big,
)
from agsdmm.function_field import evaluation_matrix, f_values, select_distinct_x_places
from agsdmm.scheme import _mask_code_is_mds
from conftest import all_square_submatrices_invertible

PARAM_SETS = [(2, 2, 1), (2, 1, 2), (4, 3, 2), (6, 2, 3)]
SEEDS_PER_SET = 50

SWEEP_GRID = [
    (m, n, x)
    for m in (2, 4, 6, 8)
    for n in range(1, 7)
    for x in range(1, 6)
    if m * (n - 1) + 2 * x - 1 >= 3
]

REFERENCE_DEGREE_TABLE = [
    [0, 3, 6, 9, 10],
    [1, 4, 7, 10, 11],
    [2, 5, 8, 11, 12],
    [9, 12, 15, 18, 19],
    [12, 15, 18, 21, 22],
]


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} [{name}] failed{suffix}"


def _place_count(q, d):
    # rational places: two over each x where f(x) is a nonzero square, one where
    # f(x) = 0, and the place at infinity
    f = f_values(q, d, select_distinct_x_places(q, d)[:, 0])
    return 2 * len(f) - int(np.count_nonzero(f == 0)) + 1


def _star_product_dimension(inst):
    # rank of all pairwise products of the two sides' codeword generators at
    # the build's code_degree + 1 candidate places
    q, d = inst.q, inst.poles.d
    places = select_distinct_x_places(q, d, inst.poles.code_degree + 1)
    fa = evaluation_matrix(q, d, inst.poles.phi, places)
    gb = evaluation_matrix(q, d, inst.poles.gamma, places)
    return rank((fa[:, None] * gb[None] % inst.q).reshape(-1, len(places)), inst.q)


@pytest.fixture(scope="module")
def instances():
    return {params: build_scheme(SchemeParams(*params)) for params in PARAM_SETS}


def test_criterion_1_end_to_end_correctness(instances):
    start = time.perf_counter()
    runs = 0
    for (m, n, x), inst in instances.items():
        for seed in range(SEEDS_PER_SET):
            rng = np.random.default_rng(seed)
            a = rng.integers(0, inst.q, size=(2 * m, 3))  # 2x3 blocks
            b = rng.integers(0, inst.q, size=(3, 2 * n))  # 3x2 blocks
            result, _ = run_protocol(a, b, inst, rng)
            assert np.array_equal(result, a @ b % inst.q), (m, n, x, seed)
            runs += 1
    elapsed = time.perf_counter() - start
    _report(1, "end-to-end correctness", runs == len(PARAM_SETS) * SEEDS_PER_SET
            and elapsed < 60.0, f"{runs} runs in {elapsed:.1f}s")


def test_criterion_2_worker_counts(instances):
    ok = instances[(2, 2, 1)].n_workers == 8 and instances[(4, 3, 2)].n_workers == 24
    violations = []
    for m, n, x in SWEEP_GRID:
        poles = derive_parameters(m, n, x)
        if poles.n_workers > poles.worker_bound:
            violations.append((m, n, x))
    _report(2, "worker counts", ok and not violations,
            f"N(2,2,1)={instances[(2, 2, 1)].n_workers}, "
            f"N(4,3,2)={instances[(4, 3, 2)].n_workers}, "
            f"{len(SWEEP_GRID)} sweep points within bound")


def test_criterion_3_degree_table_reproduction():
    report = degree_table_report((0, 1, 2, 9, 12), (0, 3, 6, 9, 10))
    cells_ok = [list(row) for row in report.table] == REFERENCE_DEGREE_TABLE
    _report(3, "degree table reproduction",
            cells_ok and report.distinct_count == 18,
            f"distinct entries = {report.distinct_count}")


def test_criterion_4_weierstrass_structure():
    # the basis evaluation refuses exactly the negative pole orders and the g
    # gaps 1, 3, ..., 2g - 1 of the semigroup <2, d>
    ok = True
    for d in range(1, 16, 2):
        g = (d - 1) // 2
        places = select_distinct_x_places(17, d)
        refused = []
        for w in range(-2, 4 * g + 3):
            try:
                evaluation_matrix(17, d, [w], places)
            except ValueError:
                refused.append(w)
        ok = ok and refused == [-2, -1, *range(1, 2 * g, 2)]
    _report(4, "gap structure", ok, "d in {1,3,...,15}, w in [-2, 4g + 2]")


def test_criterion_5_hasse_weil(instances):
    checked = []
    ok = True
    for inst in instances.values():
        count = _place_count(inst.q, inst.poles.d)
        g, q = inst.poles.g, inst.q
        bound = math.isqrt(4 * g * g * q)
        ok = ok and abs(count - (q + 1)) <= bound
        checked.append(f"q={q}: |{count}-{q + 1}|<={bound}")
    _report(5, "point count bound", ok, "; ".join(checked))


def test_criterion_6_star_product_dimension(instances):
    dim221 = _star_product_dimension(instances[(2, 2, 1)])
    dim432 = _star_product_dimension(instances[(4, 3, 2)])
    _report(6, "product code dimension", dim221 == 8 and dim432 == 24,
            f"dims = {dim221}, {dim432}")


def test_criterion_7_structural_security(instances):
    # every instance carries the Vandermonde certificate; the exhaustive
    # oracle confirms it where C(N, X) <= 10^6
    ok = True
    oracle_checked = 0
    for (m, n, x), inst in instances.items():
        xs = inst.places[:, 0].tolist()
        for side in ("A", "B"):
            gen = inst.security_generator(side)
            ok = ok and np.array_equal(gen, [[pow(v, k, inst.q) for v in xs] for k in range(x)])
        ok = ok and _mask_code_is_mds(xs, x)
        if math.comb(inst.n_workers, x) <= 10**6:
            ok = ok and all(all_square_submatrices_invertible(inst.security_generator(side), inst.q)
                            for side in ("A", "B"))
            oracle_checked += 1
    _report(7, "mask code is MDS", ok and oracle_checked == len(PARAM_SETS),
            f"{len(instances)} instances certified, {oracle_checked} by the oracle, both sides each")


def test_criterion_8_empirical_security():
    start = time.perf_counter()
    report = empirical_secrecy_audit(2, 2, 1, 5)
    elapsed = time.perf_counter() - start
    ok = (
        report.passed
        and len(report.subsets) == math.comb(report.n_workers, report.x)
        and report.plaintext_count == 5**4
        and elapsed < 30.0
    )
    _report(8, "perfect secrecy at small scale", ok,
            f"{report.plaintext_count} plaintext pairs x {report.randomness_count} "
            f"mask draws in {elapsed:.1f}s")


def test_criterion_9_rate_formulas():
    a3s_ok = workers_a3s(3, 3, 2) == 19
    gasp_ok = workers_gasp_big(3, 3, 2) == 21
    wins = [workers_ag(14, 14, x).workers < workers_a3s(14, 14, x)
            for x in range(1, 101)]
    crossover = True in wins and all(wins[wins.index(True):])
    x0 = wins.index(True) + 1 if True in wins else None
    _report(9, "rate formulas and crossover", a3s_ok and gasp_ok and crossover,
            f"a3s(3,3,2)=19, gasp_big(3,3,2)=21, crossover at x={x0}")
