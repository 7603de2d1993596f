"""Worker-count formulas, rate comparisons, degree tables, and parameter sweeps.

Three schemes are compared by their download rate m*n/N:

  * ag       -- this package's construction; the worker count is the exact
                number of distinct entries in its pole order table, which is
                at most (3mn + m)/2 + 3x - 2 (with the even side called m),
  * a3s      -- N = (m + x)(n + 1) - 1, best orientation of the two,
  * gasp_big -- the upper bound N <= 2mn + 2x - 1. This stands in for the
                exact GASP threshold, which needs tables outside this
                package's scope; win statistics against it are therefore a
                bound-based analog of published exact-threshold figures, not
                a reproduction of them.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .scheme import distinct_sums, orient, pole_sequences, worker_bound

SWEEP_CAVEAT = (
    "gasp_big is an upper bound, not the exact GASP threshold; "
    "the win fraction is a bound-based analog of exact-threshold statistics"
)


class AgWorkerCount(NamedTuple):
    workers: int
    bound: int


def workers_ag(m: int, n: int, x: int) -> AgWorkerCount:
    """Actual worker count of this construction (and its bound), best orientation."""
    # the pole sequences alone, without the table and checks of derive_parameters
    me, ne, _ = orient(m, n)
    _, phi, gamma = pole_sequences(me, ne, x)
    return AgWorkerCount(len(distinct_sums(phi, gamma)), worker_bound(me, ne, x))


def workers_a3s(m: int, n: int, x: int) -> int:
    """Worker count (m + x)(n + 1) - 1, minimized over the two orientations."""
    if m < 1 or n < 1 or x < 1:
        raise ValueError(f"m, n, x must be positive, got ({m}, {n}, {x})")
    return min((m + x) * (n + 1) - 1, (n + x) * (m + 1) - 1)


def workers_gasp_big(m: int, n: int, x: int) -> int:
    """Upper bound 2mn + 2x - 1 on the gap-based polynomial scheme's worker count."""
    if m < 1 or n < 1 or x < 1:
        raise ValueError(f"m, n, x must be positive, got ({m}, {n}, {x})")
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
    table = tuple(tuple(ai + bj for bj in b) for ai in a)
    return DegreeTableReport(a, b, table, distinct_sums(a, b))


# -- parameter sweeps ----------------------------------------------------------


SCHEMES = ("ag", "a3s", "gasp_big")


@dataclass(frozen=True)
class SweepPoint:
    """Worker counts of the three schemes at one (m, n, x).

    ag and ag_bound are None where the construction does not support the point.
    The rates, best and ag_wins derive from the counts.
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

    def rate(self, scheme: str) -> Fraction:
        """Exact download rate m*n/N of one supported scheme in SCHEMES."""
        return Fraction(self.m * self.n, getattr(self, scheme))

    @property
    def best(self) -> str:
        """The scheme with the fewest workers; ties go to the earlier one in SCHEMES."""
        workers = self.workers
        return min(workers, key=workers.get)

    @property
    def ag_wins(self) -> bool:
        return self.ag is not None and self.ag < min(self.a3s, self.gasp_big)


@dataclass(frozen=True)
class SweepSummary:
    total: int
    ag_supported: int
    ag_wins: int

    @property
    def win_fraction(self) -> Fraction:
        return Fraction(self.ag_wins, self.total) if self.total else Fraction(0)

    def lines(self) -> list[str]:
        pct = float(self.win_fraction) * 100
        return [
            f"swept {self.total} parameter points ({self.ag_supported} with ag support)",
            f"ag strictly below both baselines at {self.ag_wins} points "
            f"({self.win_fraction} = {pct:.1f}%)",
            f"note: {SWEEP_CAVEAT}",
        ]


def sweep_point(m: int, n: int, x: int) -> SweepPoint:
    try:
        ag, ag_bound = workers_ag(m, n, x)
    except ValueError:
        ag, ag_bound = None, None
    return SweepPoint(m, n, x, ag, ag_bound, workers_a3s(m, n, x), workers_gasp_big(m, n, x))


def compare_sweep(m_values, n_values, x_values) -> tuple[list[SweepPoint], SweepSummary]:
    """Evaluate all three schemes across the given ranges, sorted by (m, n, x)."""
    points = [
        sweep_point(m, n, x)
        for m in sorted(set(m_values))
        for n in sorted(set(n_values))
        for x in sorted(set(x_values))
    ]
    summary = SweepSummary(
        total=len(points),
        ag_supported=sum(p.ag_supported for p in points),
        ag_wins=sum(p.ag_wins for p in points),
    )
    return points, summary


SWEEP_CSV_FIELDS = [
    "m", "n", "x",
    "ag_workers", "ag_bound", "ag_rate", "ag_rate_decimal",
    "a3s_workers", "a3s_rate", "a3s_rate_decimal",
    "gasp_big_workers", "gasp_big_rate", "gasp_big_rate_decimal",
    "best",
]

UNSUPPORTED = "unsupported"


def sweep_point_to_csv_row(point: SweepPoint) -> list[str]:
    row = [str(point.m), str(point.n), str(point.x)]
    for scheme in SCHEMES:
        workers = getattr(point, scheme)
        if workers is None:
            row += [UNSUPPORTED, "", "", ""]
            continue
        rate = point.rate(scheme)
        bound = [str(point.ag_bound)] if scheme == "ag" else []
        row += [str(workers), *bound, str(rate), f"{float(rate):.4f}"]
    return [*row, point.best]


def format_sweep_csv(points) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_FIELDS)
    for point in points:
        writer.writerow(sweep_point_to_csv_row(point))
    return buf.getvalue()


def write_sweep_csv(points, path) -> None:
    Path(path).write_text(format_sweep_csv(points))


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
        rec = dict(zip(SWEEP_CSV_FIELDS, row, strict=True))
        supported = rec["ag_workers"] != UNSUPPORTED
        point = SweepPoint(
            int(rec["m"]), int(rec["n"]), int(rec["x"]),
            ag=int(rec["ag_workers"]) if supported else None,
            ag_bound=int(rec["ag_bound"]) if supported else None,
            a3s=int(rec["a3s_workers"]),
            gasp_big=int(rec["gasp_big_workers"]),
        )
        if min(point.workers.values()) < 1:
            raise ValueError(f"sweep CSV line {line}: worker counts must be positive")
        differ = [f for f, want, got in zip(SWEEP_CSV_FIELDS, sweep_point_to_csv_row(point), row)
                  if want != got]
        if differ:
            raise ValueError(f"sweep CSV line {line}: cells that disagree with its worker "
                             f"counts: {', '.join(differ)}")
        points.append(point)
    return points
