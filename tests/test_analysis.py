import csv
import hashlib
import io
import re
from fractions import Fraction
from itertools import product
from math import prod
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agsdmm import (
    compare_sweep,
    degree_table_report,
    derive_parameters,
    distinct_sums,
    format_sweep_csv,
    parse_sweep_csv,
    workers_a3s,
    workers_ag,
    workers_gasp_big,
    write_sweep_csv,
)
from agsdmm import analysis
from agsdmm.analysis import (
    SCHEMES,
    SWEEP_CSV_FIELDS,
    SWEEP_POINT_CAP,
    SweepPoint,
    SweepSummary,
)


def _one_point(m, n, x):
    """The counts at one point: compare_sweep over a one-point grid."""
    [point], _ = compare_sweep([m], [n], [x])
    return point


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


def _ag_from_table(m, n, x):
    # the count and bound of a full derivation, None where it refuses the point
    try:
        poles = derive_parameters(m, n, x)
    except ValueError:
        return None
    assert poles.n_workers == len(distinct_sums(poles.phi, poles.gamma))
    return poles.n_workers, poles.worker_bound


def _ag_or_none(m, n, x):
    try:
        return tuple(workers_ag(m, n, x))
    except ValueError:
        return None


def test_workers_ag_is_the_table_count_on_the_full_grid():
    for m in range(1, 21):
        for n in range(1, 21):
            for x in range(1, 21):
                assert _ag_or_none(m, n, x) == _ag_from_table(m, n, x), (m, n, x)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 200), n=st.integers(1, 200), x=st.integers(1, 200))
def test_workers_ag_is_the_table_count(m, n, x):
    assert _ag_or_none(m, n, x) == _ag_from_table(m, n, x)


def test_workers_ag_keeps_the_built_orientation():
    # both partition counts even: phi encodes m, as the build does, even where
    # the swap would need fewer workers
    assert workers_ag(10, 2, 5) == (48, 48)
    assert workers_ag(2, 10, 5) == (44, 44)
    assert derive_parameters(10, 2, 5).n_workers == 48


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



@pytest.mark.parametrize("count", [workers_ag, workers_a3s, workers_gasp_big])
def test_worker_counts_refuse_non_integers(count):
    # a fractional partition count would give a fractional worker count
    with pytest.raises(ValueError, match=re.escape("m, n, x must be integers, got (2, 2.5, 1)")):
        count(2, 2.5, 1)
    with pytest.raises(ValueError, match=re.escape("m, n, x must be positive, got (2, 0, 1)")):
        count(2, 0, 1)


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
    point = _one_point(3, 3, 2)
    assert not point.ag_supported and point.ag is None and point.ag_bound is None
    assert point.a3s == 19 and point.gasp_big == 21
    assert point.best == "a3s"
    assert not point.ag_wins


def test_sweep_point_4_3_2():
    point = _one_point(4, 3, 2)
    assert point.ag == 24
    assert point.a3s == 23
    assert point.gasp_big == 27
    assert point.best == "a3s"
    row = dict(zip(SWEEP_CSV_FIELDS, format_sweep_csv([point]).splitlines()[1].split(",")))
    assert row["ag_rate"] == str(Fraction(12, 24)) == "1/2"


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
    assert any("bound-based analog" in line for line in summary.lines())
    assert [(p.m, p.n, p.x) for p in points] == sorted((p.m, p.n, p.x) for p in points)
    _, empty = compare_sweep([], [1], [1])
    assert empty.lines()[1] == "ag strictly below both baselines at 0 points (0 = 0.0%)"


@settings(max_examples=300, deadline=None)
@given(data=st.data(), total=st.integers(0, 10**7))
def test_summary_share_is_str_and_float_of_its_fraction(data, total):
    # lowest terms through gcd and the percentage from int true division, as
    # str and float of the Fraction render them; the empty sweep's share is 0
    wins = data.draw(st.integers(0, total))
    share = Fraction(wins, total or 1)
    assert SweepSummary(total, total, wins).lines()[1] == (
        f"ag strictly below both baselines at {wins} points ({share} = {float(share) * 100:.1f}%)")


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
    point = _one_point(2, 2, 1)
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
    text = format_sweep_csv([_one_point(2, 2, 1)])
    header, row = (line.split(",") for line in text.splitlines())
    assert parse_sweep_csv(text) == [_one_point(2, 2, 1)]
    assert row[header.index(field)] != value
    row[header.index(field)] = value
    with pytest.raises(ValueError, match=field):
        parse_sweep_csv(",".join(header) + "\n" + ",".join(row) + "\n")


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda text: text + "\n", "sweep CSV line 3: 0 cells, expected 14"),
        (lambda text: text.replace(",ag\n", ",ag,1\n"), "sweep CSV line 2: 15 cells, expected 14"),
        (lambda text: text.replace("2,2,1,8,", "2,2,1,one,"),
         "sweep CSV line 2: invalid literal for int() with base 10: 'one'"),
    ],
    ids=["trailing-blank-line", "extra-cell", "non-integer-count"],
)
def test_sweep_csv_refusals_name_their_line(edit, message):
    text = format_sweep_csv([_one_point(2, 2, 1)])
    assert edit(text) != text
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_sweep_csv(edit(text))


def test_sweep_csv_rejects_non_positive_counts():
    text = format_sweep_csv([_one_point(2, 2, 1)])
    zeroed = text.replace(",8,1/2,0.5000,9,", ",0,1/2,0.5000,9,")
    assert zeroed != text
    with pytest.raises(ValueError, match="positive"):
        parse_sweep_csv(zeroed)


# -- the renderer against Fraction and csv.writer ------------------------------


def _reference_sweep_csv(points):
    # the exact rates as Fractions and their decimals as float(Fraction), through csv.writer
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_FIELDS)
    for p in points:
        row = [str(p.m), str(p.n), str(p.x)]
        for scheme in SCHEMES:
            workers = getattr(p, scheme)
            if workers is None:
                row += ["unsupported", "", "", ""]
                continue
            rate = Fraction(p.m * p.n, workers)
            bound = [str(p.ag_bound)] if scheme == "ag" else []
            row += [str(workers), *bound, str(rate), f"{float(rate):.4f}"]
        counts = {s: getattr(p, s) for s in SCHEMES if getattr(p, s) is not None}
        writer.writerow([*row, min(counts, key=counts.get)])
    return buf.getvalue()


# both m and n odd, n = 1, and d = m(n - 1) + 2x - 1 < 3 at (2, 1, 1)
EDGE_GRID = ([1, 2, 3, 4], [1, 2, 3], [1, 2])
grid_axis = st.lists(st.integers(1, 60), min_size=1, max_size=6)


def test_edge_grid_covers_the_unsupported_cases():
    points, _ = compare_sweep(*EDGE_GRID)
    assert any(p.m % 2 and p.n % 2 and not p.ag_supported for p in points)
    assert any(p.n == 1 and p.ag_supported for p in points)
    assert any(p.m * (p.n - 1) + 2 * p.x - 1 < 3 and not p.ag_supported and p.m % 2 == 0
               for p in points)


@settings(max_examples=60, deadline=None)
@given(m_values=grid_axis, n_values=grid_axis, x_values=grid_axis)
@example(*EDGE_GRID)
def test_sweep_csv_matches_the_fraction_renderer(m_values, n_values, x_values):
    points, _ = compare_sweep(m_values, n_values, x_values)
    assert format_sweep_csv(points) == _reference_sweep_csv(points)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 60), n=st.integers(1, 60), x=st.integers(1, 60),
    counts=st.lists(st.integers(1, 4000), min_size=4, max_size=4), ag_supported=st.booleans(),
)
@example(m=4, n=3, x=1, counts=[4, 5, 6, 12], ag_supported=True)
def test_point_rows_match_the_fraction_renderer(m, n, x, counts, ag_supported):
    # any positive counts, so integer rates (N dividing mn) and every tie of best occur,
    # which no point of compare_sweep reaches
    ag, ag_bound, a3s, gasp_big = counts
    point = SweepPoint(m, n, x, ag if ag_supported else None, ag_bound if ag_supported else None,
                       a3s, gasp_big)
    assert format_sweep_csv([point]) == _reference_sweep_csv([point])


@settings(max_examples=200, deadline=None)
@given(
    mn=st.lists(st.integers(1, 2**100), min_size=2, max_size=2), x=st.integers(1, 2**70),
    counts=st.lists(st.one_of(st.integers(1, 60), st.integers(2**63 - 4, 2**130)),
                    min_size=4, max_size=4),
    ag_supported=st.booleans(),
)
@example(mn=[2**62, 6], x=1, counts=[3 * 2**62, 2**64, 2**63, 2**65 + 1], ag_supported=True)
def test_point_rows_past_int64_match_the_fraction_renderer(mn, x, counts, ag_supported):
    # Python ints of any size: %d and true division render as str and float of the Fraction
    ag, ag_bound, a3s, gasp_big = counts
    point = SweepPoint(*mn, x, ag if ag_supported else None, ag_bound if ag_supported else None,
                       a3s, gasp_big)
    assert format_sweep_csv([point]) == _reference_sweep_csv([point])


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("workers,rate", [(12, "1"), (4, "3")])
def test_whole_rates_read_as_integers(scheme, workers, rate):
    # (4, 3, 1), mn = 12: one scheme's N is mn or divides it, the others' are not whole rates;
    # with ag whole or unsupported, a whole a3s or gasp_big rate takes the same path
    counts = {"ag": 7, "ag_bound": 13, "a3s": 5, "gasp_big": 8, scheme: workers}
    rows = [SweepPoint(4, 3, 1, **counts)]
    if scheme != "ag":
        rows.append(rows[0]._replace(ag=None, ag_bound=None))
    text = format_sweep_csv(rows)
    assert text == _reference_sweep_csv(rows)
    for line in text.splitlines()[1:]:
        assert dict(zip(SWEEP_CSV_FIELDS, line.split(",")))[f"{scheme}_rate"] == rate
    assert format_sweep_csv(parse_sweep_csv(text)) == text


def test_write_sweep_csv_writes_the_formatted_text(tmp_path):
    # both templates and the whole-rate path, streamed row by row
    points, _ = compare_sweep(*EDGE_GRID)
    points += [SweepPoint(4, 3, 1, 12, 12, 5, 8), SweepPoint(4, 3, 1, None, None, 4, 8)]
    path = tmp_path / "rates.csv"
    write_sweep_csv(points, path)
    assert path.read_bytes() == format_sweep_csv(points).encode()
    assert format_sweep_csv(points) == _reference_sweep_csv(points)
    write_sweep_csv([], path)
    assert path.read_text() == format_sweep_csv([]) == ",".join(SWEEP_CSV_FIELDS) + "\n"


def test_write_sweep_csv_leaves_no_file_when_a_row_fails(tmp_path, monkeypatch):
    # the header and the rows before a failing one are streamed first; the
    # failure removes them, whether the point cannot render (N = 0) or the
    # renderer runs out of memory mid-stream, and is raised as it was
    good, _ = compare_sweep(range(2, 5), range(1, 3), range(1, 3))
    path = tmp_path / "rates.csv"
    with pytest.raises(ZeroDivisionError):
        write_sweep_csv([good[0], SweepPoint(1, 1, 1, None, None, 0, 1)], path)
    assert not path.exists()
    render = analysis._sweep_csv_row
    rendered = []

    def fails_third(point):
        if len(rendered) == 2:
            raise MemoryError
        rendered.append(point)
        return render(point)

    monkeypatch.setattr(analysis, "_sweep_csv_row", fails_third)
    path.write_text("an older sweep\n")
    with pytest.raises(MemoryError):
        write_sweep_csv(good, path)
    assert len(rendered) == 2 and not path.exists()


def test_compare_sweep_is_the_public_counts():
    m_values, n_values, x_values = range(1, 9), range(1, 7), range(1, 5)
    expected = []
    for m in m_values:
        for n in n_values:
            for x in x_values:
                try:
                    ag, ag_bound = workers_ag(m, n, x)
                except ValueError:
                    ag, ag_bound = None, None
                expected.append(SweepPoint(m, n, x, ag, ag_bound, workers_a3s(m, n, x),
                                           workers_gasp_big(m, n, x)))
    assert compare_sweep(m_values, n_values, x_values)[0] == expected


@pytest.mark.parametrize(
    "axes,message",
    [
        (([0, 2], [1], [1]), "m, n, x must be positive, got (0, 1, 1)"),
        (([2], [-1, 1], [1]), "m, n, x must be positive, got (2, -1, 1)"),
        (([2], [1], [0]), "m, n, x must be positive, got (2, 1, 0)"),
        (([2.5], [1], [1]), "m, n, x must be integers, got (2.5, 1, 1)"),
        (([2, 3], [1, 2.5], [1]), "m, n, x must be integers, got (2, 2.5, 1)"),
        ((["2"], [1], [1]), "m, n, x must be integers, got ('2', 1, 1)"),
        # axes that do not sort
        ((["2", 1], [1], [1]), "m, n, x must be integers, got ('2', 1, 1)"),
        (([2], ["2", 1], [1]), "m, n, x must be integers, got (2, '2', 1)"),
        (([2], [1], ["2", 1]), "m, n, x must be integers, got (2, 1, '2')"),
        (([None, 2], [1], [1]), "m, n, x must be integers, got (None, 1, 1)"),
        (([1], [None, 2], [1]), "m, n, x must be integers, got (1, None, 1)"),
        (([2], [1], [None, 2]), "m, n, x must be integers, got (2, 1, None)"),
    ],
)
def test_compare_sweep_refuses_invalid_points(axes, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        compare_sweep(*axes)


@settings(max_examples=150, deadline=None)
@given(axes=st.lists(st.lists(st.one_of(st.integers(-2, 4), st.sampled_from([0.5, 2.5])),
                              min_size=0, max_size=4), min_size=3, max_size=3))
def test_compare_sweep_refuses_the_first_invalid_point(axes):
    # each point in (m, n, x) order through workers_a3s, which refuses as _check_positive does;
    # an empty axis makes no point, so nothing is refused and the sweep is empty
    message = None
    for point in product(*(sorted(set(axis)) for axis in axes)):
        try:
            workers_a3s(*point)
        except ValueError as exc:
            message = str(exc)
            break
    if message is None:
        points, summary = compare_sweep(*axes)
        assert len(points) == summary.total == prod(len(set(axis)) for axis in axes)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            compare_sweep(*axes)


def test_compare_sweep_refuses_a_grid_above_the_cap(monkeypatch):
    def no_point(*args):
        raise AssertionError("a point was built")

    # every point the pass builds goes through SweepPoint._make
    monkeypatch.setattr(analysis, "SweepPoint", SimpleNamespace(_make=no_point))
    with pytest.raises(AssertionError, match="a point was built"):
        compare_sweep([2], [1], [1])
    axes = (range(2, 103), [1, 1, *range(1, 101)], range(1, 101))  # 101 * 100 * 100 points
    message = f"sweep of 1010000 points exceeds the cap of {SWEEP_POINT_CAP} points"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        compare_sweep(*axes)
    # duplicates are counted once
    monkeypatch.undo()
    points, _ = compare_sweep([2, 2], [1, 1], [1, 2, 2])
    assert [(p.m, p.n, p.x) for p in points] == [(2, 1, 1), (2, 1, 2)]


@pytest.mark.parametrize("axes,points", [
    ((range(1, 10**20), [1], [1]), 10**20 - 1),
    (([2], range(10**19, 0, -1), range(2**63)), 10**19 * 2**63),
])
def test_compare_sweep_counts_a_range_past_sys_maxsize(axes, points):
    # len() of such a range raises OverflowError
    message = f"sweep of {points} points exceeds the cap of {SWEEP_POINT_CAP} points"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        compare_sweep(*axes)


# small values reach both-odd and d < 3 points, such as (3, 3, x) and (2, 1, 1)
oracle_axis = st.lists(st.one_of(st.integers(1, 5), st.integers(1, 10**18)), min_size=1, max_size=5)


def _check_against_the_per_point_oracle(m_values, n_values, x_values):
    # each point through the scalar API on Python ints, and every field an int or, for
    # an unsupported ag, None
    expected = [
        SweepPoint(m, n, x, *(_ag_or_none(m, n, x) or (None, None)), workers_a3s(m, n, x),
                   workers_gasp_big(m, n, x))
        for m in sorted(set(m_values)) for n in sorted(set(n_values)) for x in sorted(set(x_values))
    ]
    points, summary = compare_sweep(m_values, n_values, x_values)
    assert points == expected and all(type(p) is SweepPoint for p in points)
    assert all(type(v) is int or (v is None and k in ("ag", "ag_bound") and p.ag is None)
               for p in points for k, v in p._asdict().items())
    assert summary == SweepSummary(len(expected), sum(p.ag is not None for p in expected),
                                   sum(p.ag_wins for p in expected))
    assert all(type(v) is int for v in (summary.total, summary.ag_supported, summary.ag_wins))
    assert [_one_point(*p[:3]) for p in expected] == expected
    text = format_sweep_csv(points)
    assert parse_sweep_csv(text) == points and format_sweep_csv(parse_sweep_csv(text)) == text
    return points


@settings(max_examples=150, deadline=None)
@given(m_values=oracle_axis, n_values=oracle_axis, x_values=oracle_axis)
@example([3, 2, 3], [1, 3, 1], [1, 10**18, 1])
def test_compare_sweep_is_the_per_point_oracle(m_values, n_values, x_values):
    _check_against_the_per_point_oracle(m_values, n_values, x_values)


# the largest m, n and x put 4(m + x + 1)(n + x + 1), the bound below which the
# counts are int64 arithmetic, at 2^63 - 2^32 and at 2^63: both sides of the
# switch to Python ints, with supported, both-odd and d < 3 points on each
@pytest.mark.parametrize("n_top,below", [(2**31 - 4, True), (2**31 - 3, False)])
def test_compare_sweep_either_side_of_int64(n_top, below):
    axes = ([2, 3, 2**30 - 4, 2**30 - 3], [1, 2, 3, n_top], [1, 2])
    assert (4 * (2**30 - 3 + 2 + 1) * (n_top + 2 + 1) < 2**63) is below
    points = _check_against_the_per_point_oracle(*axes)
    assert {p.ag is None for p in points} == {True, False}
    assert max(p.ag_bound or 0 for p in points) > 3 * 2**59


def test_compare_sweep_checks_each_given_value_before_dropping_repeats():
    # 2.0 == 2, so a set of the axis keeps whichever came first
    message = "m, n, x must be integers, got (2.0, 1, 1)"
    for m_values in ([2, 2.0], [2.0, 2]):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            compare_sweep(m_values, [1], [1])


def test_compare_sweep_points_hold_ints_for_bools():
    points, _ = compare_sweep([2], [True, 1], [1, True, 2])
    assert points == [_one_point(2, 1, 1), _one_point(2, 1, 2)]
    assert all(type(v) is int for p in points for v in (p.m, p.n, p.x))
    text = format_sweep_csv(points)
    assert text.splitlines()[1].startswith("2,1,1,")
    assert parse_sweep_csv(text) == points


def test_compare_sweep_points_hold_ints_for_numpy_integers():
    points, summary = compare_sweep([np.int64(2)], [np.uint8(3)], np.arange(1, 3))
    assert points == [_one_point(2, 3, 1), _one_point(2, 3, 2)]
    assert all(type(v) is int for p in points for v in p)
    assert parse_sweep_csv(format_sweep_csv(points)) == points
