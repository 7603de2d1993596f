"""Worker-count formulas, rate comparisons, degree tables, and parameter sweeps.

Three schemes are compared by their download rate m*n/N, which a sweep row
renders in lowest terms through gcd and to 4 places as the correctly rounded
int division m*n / N, as str and float of its Fraction would:

  * ag       -- this package's construction; with the even side called m,
                the worker count is mn + m + 3x - 2 + (n - 1) min(x, m/2),
                which equals the number of distinct entries in its pole
                order table and is at most (3mn + m)/2 + 3x - 2,
  * a3s      -- N = (m + x)(n + 1) - 1, best orientation of the two,
  * gasp_big -- the upper bound N <= 2mn + 2x - 1 on GASP's worker count;
                the exact count is not computed, so win statistics are
                taken against the bound.

compare_sweep counts a grid in numpy array passes through the closed forms of the
per-point counts: in int64, or in Python ints where a count could pass 2^63.
A sweep CSV row is one % template of those ints, and write_sweep_csv streams the
rows to its file.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
import operator
from math import gcd, prod
from typing import NamedTuple

import numpy as np

from .scheme import (POLE_TABLE_CAP, _check_positive, _degree, _min, _worker_count,
                     distinct_sums, orient, worker_bound, worker_count)

SWEEP_CAVEAT = (
    "gasp_big is an upper bound, not the exact GASP threshold; "
    "the win fraction is a bound-based analog of exact-threshold statistics"
)


class AgWorkerCount(NamedTuple):
    workers: int
    bound: int


def workers_ag(m: int, n: int, x: int) -> AgWorkerCount:
    """Worker count of this construction and its bound, in the orientation it builds.

    That is orient's: the even partition count encodes through phi, and m when
    both are even, although the swap can need fewer workers.
    """
    me, ne, _ = orient(m, n, x)
    return AgWorkerCount(worker_count(me, ne, x), worker_bound(me, ne, x))


def workers_a3s(m: int, n: int, x: int) -> int:
    """Worker count (m + x)(n + 1) - 1, minimized over the two orientations."""
    _check_positive(m, n, x)
    return _a3s(m, n, x)


def workers_gasp_big(m: int, n: int, x: int) -> int:
    """Upper bound 2mn + 2x - 1 on the gap-based polynomial scheme's worker count."""
    _check_positive(m, n, x)
    return _gasp_big(m, n, x)


def _a3s(m: int, n: int, x: int) -> int:
    return _min((m + x) * (n + 1) - 1, (n + x) * (m + 1) - 1)


def _gasp_big(m: int, n: int, x: int) -> int:
    return 2 * m * n + 2 * x - 1


# -- degree tables -------------------------------------------------------------


@dataclass(frozen=True)
class DegreeTableReport:
    """Outer-sum table of two exponent sequences with its distinct-entry count."""

    a_exponents: tuple[int, ...]
    b_exponents: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]
    distinct: tuple[int, ...]

    @property
    def distinct_count(self) -> int:
        return len(self.distinct)

    def format(self) -> str:
        width = max(len(str(v)) for row in self.table for v in row)
        width = max(width, max(len(str(v)) for v in self.a_exponents + self.b_exponents))
        head = " " * (width + 1) + "| " + " ".join(f"{v:>{width}}" for v in self.b_exponents)
        rule = "-" * (width + 1) + "+" + "-" * (len(head) - width - 2)
        lines = [head, rule]
        for a, row in zip(self.a_exponents, self.table):
            lines.append(f"{a:>{width}} | " + " ".join(f"{v:>{width}}" for v in row))
        return "\n".join(lines)


def degree_table_report(a_exponents, b_exponents) -> DegreeTableReport:
    """Build the outer-sum table; the distinct count is the recovery threshold."""
    a = tuple(int(v) for v in a_exponents)
    b = tuple(int(v) for v in b_exponents)
    for name, seq in (("a", a), ("b", b)):
        if not seq:
            raise ValueError(f"{name} exponent sequence is empty")
        if any(u >= v for u, v in zip(seq, seq[1:])):
            raise ValueError(f"{name} exponents must be strictly increasing, got {seq}")
    entries = len(a) * len(b)
    if entries > POLE_TABLE_CAP:
        raise ValueError(
            f"degree table of {entries} entries exceeds the cap of {POLE_TABLE_CAP} entries")
    table = tuple(tuple(ai + bj for bj in b) for ai in a)
    return DegreeTableReport(a, b, table, distinct_sums(a, b))


# -- parameter sweeps ----------------------------------------------------------


SCHEMES = ("ag", "a3s", "gasp_big")

SWEEP_POINT_CAP = 10**6  # about 8x the README's 2:50 x 1:50 x 1:50 grid


class SweepPoint(NamedTuple):
    """Worker counts of the three schemes at one (m, n, x).

    ag and ag_bound are None where the construction does not support the point.
    best and ag_wins derive from the counts.
    """

    m: int
    n: int
    x: int
    ag: int | None
    ag_bound: int | None
    a3s: int
    gasp_big: int

    @property
    def ag_supported(self) -> bool:
        return self.ag is not None

    @property
    def workers(self) -> dict[str, int]:
        """Worker count per supported scheme, in SCHEMES order."""
        counts = {"ag": self.ag, "a3s": self.a3s, "gasp_big": self.gasp_big}
        return {scheme: w for scheme, w in counts.items() if w is not None}

    @property
    def best(self) -> str:
        """The scheme with the fewest workers; ties go to the earlier one in SCHEMES."""
        best, fewest = ("a3s", self.a3s) if self.a3s <= self.gasp_big else ("gasp_big", self.gasp_big)
        return "ag" if self.ag is not None and self.ag <= fewest else best

    @property
    def ag_wins(self) -> bool:
        return self.ag is not None and self.ag < self.a3s and self.ag < self.gasp_big


@dataclass(frozen=True)
class SweepSummary:
    total: int
    ag_supported: int
    ag_wins: int

    def lines(self) -> list[str]:
        total = self.total or 1  # the empty sweep's share reads 0 = 0.0%
        share = _rate_cells(self.ag_wins, total).partition(",")[0]
        return [
            f"swept {self.total} parameter points ({self.ag_supported} with ag support)",
            f"ag strictly below both baselines at {self.ag_wins} points "
            f"({share} = {self.ag_wins / total * 100:.1f}%)",
            f"note: {SWEEP_CAVEAT}",
        ]


def compare_sweep(m_values, n_values, x_values) -> tuple[list[SweepPoint], SweepSummary]:
    """Evaluate all three schemes across the given values, sorted by (m, n, x).

    A grid above SWEEP_POINT_CAP is refused before any axis is materialised.
    Every given value is checked, and the first point, in (m, n, x) order, holding an
    invalid one is refused as _check_positive refuses it; when some axis's values do not
    sort, every axis is taken in its given order. An empty axis gives the empty sweep,
    whatever the other axes hold. Points hold each distinct value once, as an int.
    """
    axes = [v if isinstance(v, range) else list(v) for v in (m_values, n_values, x_values)]
    try:
        axes = [v if isinstance(v, range) else sorted(v) for v in axes]
        distinct = [v if isinstance(v, range) else set(v) for v in axes]
    except TypeError:  # a value that is not a number, which the integer check refuses
        distinct = axes
    # len() of a range past sys.maxsize overflows
    size = prod((v[-1] - v[0]) // v.step + 1 if isinstance(v, range) and v else len(v)
                for v in distinct)
    if size > SWEEP_POINT_CAP:
        raise ValueError(f"sweep of {size} points exceeds the cap of {SWEEP_POINT_CAP} points")
    if not size:  # an empty axis: no point holds an invalid value
        return [], SweepSummary(0, 0, 0)
    axes = [sorted(v) if isinstance(v, range) else v for v in axes]
    bad = [[i for i, v in enumerate(axis) if _refused(_check_positive, v, 1, 1)] for axis in axes]
    if any(bad):
        # per axis, the first point holding one of its invalid values; the earliest of those
        at = min([0] * k + b[:1] + [0] * (2 - k) for k, b in enumerate(bad) if b)
        _check_positive(*(axis[i] for axis, i in zip(axes, at)))
    columns, supported, wins = _sweep_columns([sorted(set(map(operator.index, a))) for a in axes])
    # _make skips the keyword handling of the generated __new__
    points = list(map(SweepPoint._make, zip(*columns)))
    return points, SweepSummary(len(points), supported, wins)


def _sweep_columns(axes):
    # the point fields as lists, and the supported and win counts; no array outlives the lists
    # every count and intermediate is below 4(m + x + 1)(n + x + 1) at the largest values
    m, n, x = (axis[-1] for axis in axes)
    dtype = np.int64 if 4 * (m + x + 1) * (n + x + 1) < 2**63 else object
    m, n, x = np.meshgrid(*(np.array(axis, dtype=dtype) for axis in axes), indexing="ij")
    me, ne = np.where(m % 2 == 1, [n, m], [m, n])  # orient's even count first, if either is
    supported = (me % 2 == 0) & _degree(me, ne, x)[1]
    ag, a3s, gasp_big = _worker_count(me, ne, x), _a3s(m, n, x), _gasp_big(m, n, x)
    wins = supported & (ag < a3s) & (ag < gasp_big)
    bound, unsupported = worker_bound(me, ne, x), ~supported
    ag[unsupported] = bound[unsupported] = 0  # cached, so .tolist() makes no int that None replaces
    columns = [c.ravel().tolist() for c in (m, n, x, ag, bound, a3s, gasp_big)]
    for i in np.flatnonzero(unsupported).tolist():
        columns[3][i] = columns[4][i] = None
    return columns, *(int(np.count_nonzero(c)) for c in (supported, wins))


def _refused(check, *args) -> bool:
    try:
        check(*args)
    except ValueError:
        return True
    return False


SWEEP_CSV_FIELDS = [
    "m", "n", "x",
    "ag_workers", "ag_bound", "ag_rate", "ag_rate_decimal",
    "a3s_workers", "a3s_rate", "a3s_rate_decimal",
    "gasp_big_workers", "gasp_big_rate", "gasp_big_rate_decimal",
    "best",
]

UNSUPPORTED = "unsupported"


def _rate_cells(mn: int, workers: int) -> str:
    # str and float of Fraction(mn, workers): int true division rounds correctly
    g = gcd(mn, workers)
    rate = mn // g if workers == g else f"{mn // g}/{workers // g}"
    return f"{rate},{mn / workers:.4f}"


_ROW = "%d,%d,%d,%d,%d,%d/%d,%.4f,%d,%d/%d,%.4f,%d,%d/%d,%.4f,%s\n"
_UNSUPPORTED_ROW = f"%d,%d,%d,{UNSUPPORTED},,,,%d,%d/%d,%.4f,%d,%d/%d,%.4f,%s\n"


def _sweep_csv_row(p: SweepPoint) -> str:
    m, n, x, ag, ag_bound, a3s, gasp_big = p
    mn = m * n
    g, h = gcd(mn, a3s), gcd(mn, gasp_big)
    if a3s != g and gasp_big != h:  # neither rate is whole, which would read 3, not 3/1
        if ag is None:
            return _UNSUPPORTED_ROW % (m, n, x, a3s, mn // g, a3s // g, mn / a3s, gasp_big,
                                       mn // h, gasp_big // h, mn / gasp_big, p.best)
        k = gcd(mn, ag)
        if ag != k:
            return _ROW % (m, n, x, ag, ag_bound, mn // k, ag // k, mn / ag, a3s, mn // g,
                           a3s // g, mn / a3s, gasp_big, mn // h, gasp_big // h,
                           mn / gasp_big, p.best)
    ag_cells = f"{UNSUPPORTED},,," if ag is None else f"{ag},{ag_bound},{_rate_cells(mn, ag)}"
    return (f"{m},{n},{x},{ag_cells},{a3s},{_rate_cells(mn, a3s)},"
            f"{gasp_big},{_rate_cells(mn, gasp_big)},{p.best}\n")


def _write_sweep_rows(f, points) -> None:
    # no cell holds a comma, quote or newline, so this is the text csv.writer writes
    f.write(",".join(SWEEP_CSV_FIELDS) + "\n")
    f.writelines(map(_sweep_csv_row, points))


def format_sweep_csv(points) -> str:
    # StringIO holds less at the cap than a list of rows joined
    buf = io.StringIO()
    _write_sweep_rows(buf, points)
    return buf.getvalue()


def write_sweep_csv(points, path) -> None:
    """Stream the rows of format_sweep_csv(points) to path; a row or write that fails removes it."""
    f = open(path, "w")
    try:
        with f:
            _write_sweep_rows(f, points)
    except BaseException:
        os.remove(path)
        raise


def parse_sweep_csv(text: str) -> list[SweepPoint]:
    """Inverse of format_sweep_csv; rebuilt points re-emit to the identical text.

    Points come from the count columns. A row whose rate, decimal or best cells
    differ from those its counts render is refused.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_CSV_FIELDS:
        raise ValueError("unrecognized sweep CSV header")
    points = []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(SWEEP_CSV_FIELDS):
            raise ValueError(f"sweep CSV line {line}: {len(row)} cells, "
                             f"expected {len(SWEEP_CSV_FIELDS)}")
        rec = dict(zip(SWEEP_CSV_FIELDS, row))
        supported = rec["ag_workers"] != UNSUPPORTED
        try:
            point = SweepPoint(
                int(rec["m"]), int(rec["n"]), int(rec["x"]),
                ag=int(rec["ag_workers"]) if supported else None,
                ag_bound=int(rec["ag_bound"]) if supported else None,
                a3s=int(rec["a3s_workers"]),
                gasp_big=int(rec["gasp_big_workers"]),
            )
        except ValueError as exc:
            raise ValueError(f"sweep CSV line {line}: {exc}") from None
        if min(point.workers.values()) < 1:
            raise ValueError(f"sweep CSV line {line}: worker counts must be positive")
        want = _sweep_csv_row(point)[:-1].split(",")
        differ = [f for f, cell, got in zip(SWEEP_CSV_FIELDS, want, row) if cell != got]
        if differ:
            raise ValueError(f"sweep CSV line {line}: cells that disagree with its worker "
                             f"counts: {', '.join(differ)}")
        points.append(point)
    return points
