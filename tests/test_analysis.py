import hashlib
from fractions import Fraction

import pytest

from agsdmm import (
    compare_sweep,
    degree_table_report,
    derive_parameters,
    format_sweep_csv,
    parse_sweep_csv,
    workers_a3s,
    workers_ag,
    workers_gasp_big,
    write_sweep_csv,
)
from agsdmm.analysis import sweep_point

# the reference exponent table: 18 distinct entries
REFERENCE_TABLE = [
    [0, 3, 6, 9, 10],
    [1, 4, 7, 10, 11],
    [2, 5, 8, 11, 12],
    [9, 12, 15, 18, 19],
    [12, 15, 18, 21, 22],
]


def test_workers_ag_examples():
    assert workers_ag(2, 2, 1) == (8, 8)
    assert workers_ag(4, 3, 2) == (24, 24)
    assert workers_ag(3, 4, 2) == (24, 24)  # orientation swap
    assert workers_ag(4, 5, 1) == (29, 33)  # strictly below the bound


def test_workers_ag_bound_formula_14_14():
    for x in (1, 2, 5, 10, 100):
        assert workers_ag(14, 14, x).bound == 299 + 3 * x


def test_workers_ag_rejects_unsupported():
    with pytest.raises(ValueError):
        workers_ag(3, 3, 2)  # both odd
    with pytest.raises(ValueError):
        workers_ag(2, 1, 1)  # d < 3


@pytest.mark.parametrize(
    "m,n,x",
    [(m, n, x) for m in (2, 4, 6, 8) for n in range(1, 7) for x in range(1, 6)
     if m * (n - 1) + 2 * x - 1 >= 3],
)
def test_workers_ag_agrees_with_full_derivation(m, n, x):
    counted = workers_ag(m, n, x)
    poles = derive_parameters(m, n, x)
    assert counted.workers == poles.n_workers
    assert counted.bound == poles.worker_bound
    assert counted.workers <= counted.bound


def test_workers_a3s_examples():
    assert workers_a3s(3, 3, 2) == 19
    assert workers_a3s(1, 1, 1) == 3
    assert workers_a3s(2, 2, 1) == 8
    assert workers_a3s(4, 3, 2) == 23  # min(23, 24) over orientations
    with pytest.raises(ValueError):
        workers_a3s(0, 1, 1)


def test_workers_gasp_big_examples():
    assert workers_gasp_big(3, 3, 2) == 21
    assert workers_gasp_big(1, 1, 1) == 3
    assert workers_gasp_big(4, 3, 2) == 27
    with pytest.raises(ValueError):
        workers_gasp_big(1, 0, 1)


def test_degree_table_reference():
    report = degree_table_report((0, 1, 2, 9, 12), (0, 3, 6, 9, 10))
    assert [list(row) for row in report.table] == REFERENCE_TABLE
    assert report.distinct_count == 18
    formatted = report.format()
    assert "21 22" in formatted and formatted.count("\n") == 6


def test_degree_table_trivial_and_consecutive():
    assert degree_table_report((0,), (0,)).distinct_count == 1
    for k, kp in [(2, 3), (4, 4), (5, 2)]:
        report = degree_table_report(range(k), range(kp))
        assert report.distinct_count == k + kp - 1
        assert report.distinct == tuple(range(k + kp - 1))


def test_degree_table_rejects_bad_sequences():
    with pytest.raises(ValueError):
        degree_table_report((0, 0, 1), (0, 1))
    with pytest.raises(ValueError):
        degree_table_report((1, 0), (0,))
    with pytest.raises(ValueError):
        degree_table_report((), (0,))


def test_sweep_point_both_odd_unsupported():
    point = sweep_point(3, 3, 2)
    assert not point.ag_supported and point.ag is None and point.ag_bound is None
    assert point.a3s == 19 and point.gasp_big == 21
    assert point.best == "a3s"
    assert not point.ag_wins


def test_sweep_point_4_3_2():
    point = sweep_point(4, 3, 2)
    assert point.ag == 24
    assert point.a3s == 23
    assert point.gasp_big == 27
    assert point.best == "a3s"
    assert point.rate("ag") == Fraction(12, 24) == Fraction(1, 2)


@pytest.mark.parametrize("m", [4, 8, 14])
def test_crossover_at_fixed_even_m_n(m):
    # beyond some collusion level the construction beats the (m+x)(n+1)-1 scheme for good
    wins = [workers_ag(m, m, x).workers < workers_a3s(m, m, x) for x in range(1, 201)]
    first = wins.index(True) + 1
    assert first <= 100
    assert all(wins[first - 1:])


def test_gasp_big_crossover_at_fixed_x():
    # fixed x, growing even m = n: ag wins once mn/2 > m/2 + x - 1
    x = 3
    for m in range(2, 31, 2):
        expect = m * m / 2 > m / 2 + x - 1
        got = workers_ag(m, m, x).workers < workers_gasp_big(m, m, x)
        if expect:
            assert got, (m, x)


def test_compare_sweep_summary():
    points, summary = compare_sweep(range(2, 7), range(1, 5), range(1, 4))
    assert summary.total == len(points) == 5 * 4 * 3
    assert summary.ag_supported == sum(p.ag_supported for p in points)
    assert summary.ag_wins == sum(p.ag_wins for p in points)
    assert summary.win_fraction == Fraction(summary.ag_wins, summary.total)
    assert any("bound-based analog" in line for line in summary.lines())
    assert [(p.m, p.n, p.x) for p in points] == sorted((p.m, p.n, p.x) for p in points)


def test_sweep_bound_property():
    points, _ = compare_sweep(range(2, 11), range(1, 6), range(1, 6))
    for p in points:
        if p.ag_supported:
            assert p.ag <= p.ag_bound


def test_sweep_csv_roundtrip(tmp_path):
    points, _ = compare_sweep(range(2, 6), range(1, 4), range(1, 4))
    text = format_sweep_csv(points)
    reparsed = parse_sweep_csv(text)
    assert format_sweep_csv(reparsed) == text
    assert reparsed == points

    path = tmp_path / "rates.csv"
    write_sweep_csv(points, path)
    assert parse_sweep_csv(path.read_text()) == points


def test_sweep_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        parse_sweep_csv("a,b,c\n1,2,3\n")


def test_rate_row_decimal_rendering():
    point = sweep_point(2, 2, 1)
    row = format_sweep_csv([point]).splitlines()[1].split(",")
    assert row[5] == "1/2" and row[6] == "0.5000"


def test_sweep_csv_digest_is_pinned():
    points, _ = compare_sweep(range(2, 21), range(1, 21), range(1, 11))
    digest = hashlib.sha256(format_sweep_csv(points).encode()).hexdigest()
    assert digest == "6e107eefb5030c961cbe8cfb4f3600e71bc0952bb596744f4bb6578c4e0522cb"


@pytest.mark.parametrize(
    "field,value",
    [("ag_rate", "1/3"), ("a3s_rate_decimal", "0.4999"), ("best", "gasp_big")],
)
def test_sweep_csv_rejects_cells_that_disagree_with_counts(field, value):
    # (2, 2, 1): ag 8, a3s 8, gasp_big 9 workers, so best is ag
    text = format_sweep_csv([sweep_point(2, 2, 1)])
    header, row = (line.split(",") for line in text.splitlines())
    assert parse_sweep_csv(text) == [sweep_point(2, 2, 1)]
    assert row[header.index(field)] != value
    row[header.index(field)] = value
    with pytest.raises(ValueError, match=field):
        parse_sweep_csv(",".join(header) + "\n" + ",".join(row) + "\n")


def test_sweep_csv_rejects_non_positive_counts():
    text = format_sweep_csv([sweep_point(2, 2, 1)])
    zeroed = text.replace(",8,1/2,0.5000,9,", ",0,1/2,0.5000,9,")
    assert zeroed != text
    with pytest.raises(ValueError, match="positive"):
        parse_sweep_csv(zeroed)
