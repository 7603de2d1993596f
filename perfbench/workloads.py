"""The benchmark's workloads: what one op is, its set-up, its inputs and its checks.

The run and CLI workloads draw their inputs from the run's seed; agsdmm
receives only the generated matrices (or, for the CLI, the files written from
them). The sweep's input is the fixed grid. Each op's output is checked
against the benchmark's own computation, outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

import agsdmm

FLOAT64_EXACT = 2**53


def reference_product(a, b, q: int) -> np.ndarray:
    """Exact a @ b mod q by float64 BLAS, independent of agsdmm.

    Exact while inner * (q - 1)**2 < 2**53 (Dumas, Giorgi, Pernet, ACM TOMS
    2008): every partial sum is then an integer a double holds exactly.
    """
    if a.shape[1] * (q - 1) ** 2 >= FLOAT64_EXACT:
        raise ValueError(f"inner dimension {a.shape[1]} too large for an exact float64 product mod {q}")
    return (a.astype(np.float64) @ b.astype(np.float64) % q).astype(np.int64)


def count_odd_primes(lo: int, hi: int) -> int:
    """Odd primes p with lo < p <= hi: the field sizes a search from lo up to hi tries."""
    return sum(
        1 for p in range(max(lo + 1, 3), hi + 1)
        if p % 2 and all(p % f for f in range(3, math.isqrt(p) + 1, 2))
    )


@dataclass
class SetUp:
    seconds: float
    descriptor: dict | None


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def _descriptor_counters(descriptor: dict | None) -> dict:
    if not descriptor:
        return {}
    return {
        "field.candidates_tried": count_odd_primes(descriptor["d"], descriptor["q"]),
        "scheme.N": descriptor["N"],
    }


def _expect(descriptor: dict, q: int, workers: int) -> str | None:
    got = (descriptor.get("q"), descriptor.get("N"))
    if got != (q, workers):
        return f"descriptor has (q, N) = {got}, expected {(q, workers)}"
    return None


@dataclass
class RunWorkload:
    """One op is run_protocol on fresh A (rows x inner) and B (inner x cols)."""

    name: str
    m: int
    n: int
    x: int
    shape: tuple[int, int, int]
    expect: tuple[int, int]  # (q, N) the parameters must give
    setup_burst: int  # cold set-ups per burst
    instance: object = field(default=None, repr=False)

    def prepare(self, seed: int, workdir: Path) -> None:
        pass

    def set_up(self) -> SetUp:
        params = agsdmm.SchemeParams(m=self.m, n=self.n, x=self.x)
        seconds, self.instance = _timed(agsdmm.build_scheme, params)
        return SetUp(seconds, self.instance.to_dict())

    def check_set_up(self, descriptor: dict) -> str | None:
        return _expect(descriptor, *self.expect)

    def set_up_counters(self, setup: SetUp) -> dict:
        return _descriptor_counters(setup.descriptor)

    def inputs(self, rng):
        rows, inner, cols = self.shape
        q = self.instance.q
        a = rng.integers(0, q, size=(rows, inner), dtype=np.int64)
        b = rng.integers(0, q, size=(inner, cols), dtype=np.int64)
        return a, b, np.random.default_rng(int(rng.integers(2**63)))

    def op(self, inputs):
        a, b, mask_rng = inputs
        return agsdmm.run_protocol(a, b, self.instance, mask_rng)

    def check(self, inputs, output) -> str | None:
        a, b, _ = inputs
        product, transcript = output
        if len(transcript.records) != self.expect[1]:
            return f"transcript has {len(transcript.records)} records, expected {self.expect[1]}"
        if not np.array_equal(product, reference_product(a, b, self.instance.q)):
            return "product differs from the reference a @ b mod q"
        return None

    def counters(self, inputs, output) -> dict:
        a, b, _ = inputs
        product, transcript = output
        q = self.instance.q
        records = transcript.records
        first = records[0]
        pairs = [
            (r.a_share.astype(np.float64), r.b_share.astype(np.float64))
            if r.a_share.shape[1] == r.b_share.shape[0]
            else (r.b_share.astype(np.float64), r.a_share.astype(np.float64))
            for r in records
        ]
        start = time.perf_counter()
        for lhs, rhs in pairs:
            lhs @ rhs % q
        blas_s = time.perf_counter() - start
        direct_s, _ = _timed(lambda: a @ b % q)
        return {
            "reference.direct_s": direct_s,
            "reference.blas_s": blas_s,
            "scheme.worker_products.macs": sum(lhs.shape[0] * lhs.shape[1] * rhs.shape[1] for lhs, rhs in pairs),
            "scheme.upload_elements_per_worker": first.a_share.size + first.b_share.size,
            "scheme.download_elements_per_worker": first.response.size,
            "scheme.total_elements": sum(r.a_share.size + r.b_share.size + r.response.size for r in records),
            "scheme.direct_elements": a.size + b.size + product.size,
            "scheme.rate": self.m * self.n / len(records),
        }


@dataclass
class CliWorkload:
    """One op is an in-process `agsdmm multiply` on CSV files, which rebuilds the scheme."""

    name: str
    m: int
    n: int
    x: int
    shape: tuple[int, int, int]
    expect: tuple[int, int]
    setup_burst: int  # cold set-ups per burst
    seed: int = 0
    workdir: Path | None = None

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def _path(self, name: str) -> str:
        return str(self.workdir / name)

    def _cli(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return agsdmm.cli.main(argv)

    def set_up(self) -> SetUp:
        argv = ["build", "--m", str(self.m), "--n", str(self.n), "--x", str(self.x),
                "--seed", str(self.seed), "--out", self._path("scheme.json")]
        seconds, code = _timed(self._cli, argv)
        if code != 0:
            raise RuntimeError(f"agsdmm build exited {code}")
        return SetUp(seconds, json.loads(Path(self._path("scheme.json")).read_text()))

    def check_set_up(self, descriptor: dict) -> str | None:
        problem = _expect(descriptor, *self.expect)
        if problem is None and agsdmm.load_scheme(self._path("scheme.json")).to_dict() != descriptor:
            problem = "descriptor does not survive a load_scheme round trip"
        return problem

    def set_up_counters(self, setup: SetUp) -> dict:
        return _descriptor_counters(setup.descriptor)

    def inputs(self, rng):
        rows, inner, cols = self.shape
        q = self.expect[0]
        a = rng.integers(0, q, size=(rows, inner), dtype=np.int64)
        b = rng.integers(0, q, size=(inner, cols), dtype=np.int64)
        for name, mat in (("a.csv", a), ("b.csv", b)):
            np.savetxt(self._path(name), mat, fmt="%d", delimiter=",",
                       header=f"{mat.shape[0]},{mat.shape[1]},{q}", comments="")
        return a, b

    def op(self, inputs):
        return self._cli(["multiply", "--scheme", self._path("scheme.json"),
                          "--a", self._path("a.csv"), "--b", self._path("b.csv"),
                          "--out", self._path("c.csv"), "--transcript", self._path("run.jsonl")])

    def check(self, inputs, code) -> str | None:
        a, b = inputs
        q, workers = self.expect
        if code != 0:
            return f"agsdmm multiply exited {code}"
        header, _, body = Path(self._path("c.csv")).read_text().partition("\n")
        if header != f"{a.shape[0]},{b.shape[1]},{q}":
            return f"product header {header!r} does not match its shape and field"
        product = np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.int64, ndmin=2)
        if not np.array_equal(product, reference_product(a, b, q)):
            return "product differs from the reference a @ b mod q"
        with open(self._path("run.jsonl"), "rb") as fh:
            lines = sum(1 for _ in fh)
        if lines != workers:
            return f"transcript has {lines} lines, expected {workers}"
        return None

    def counters(self, inputs, code) -> dict:
        a, b = inputs
        q, workers = self.expect
        transcript = Path(self._path("run.jsonl"))
        with transcript.open() as fh:
            first = json.loads(fh.readline())
        a_share, b_share, response = (np.asarray(first[k]) for k in ("a_share", "b_share", "response"))
        direct_s, _ = _timed(lambda: a @ b % q)
        inner = math.isqrt(a_share.size * b_share.size // response.size)
        return {
            "reference.direct_s": direct_s,
            "protocol.transcript_bytes": transcript.stat().st_size,
            "scheme.worker_products.macs": workers * response.size * inner,
            "scheme.upload_elements_per_worker": a_share.size + b_share.size,
            "scheme.download_elements_per_worker": response.size,
            "scheme.total_elements": workers * (a_share.size + b_share.size + response.size),
            "scheme.direct_elements": a.size + b.size + a.shape[0] * b.shape[1],
            "scheme.rate": self.m * self.n / workers,
        }


_IMPORT_PROBE = (
    "import time, numpy\n"
    "start = time.perf_counter()\n"
    "import agsdmm\n"
    "print(time.perf_counter() - start, agsdmm.__file__)\n"
)


def balanced_groups(axis, count: int) -> list[list[int]]:
    """Split an axis into `count` groups of equal size and equal mean.

    Position p goes to group min(r, 2*count - 1 - r) with r = p mod 2*count,
    so each group pairs values from both ends of every stretch of the axis.
    """
    groups = [[] for _ in range(count)]
    for p, value in enumerate(axis):
        r = p % (2 * count)
        groups[min(r, 2 * count - 1 - r)].append(value)
    if len({len(g) for g in groups}) != 1:
        raise ValueError(f"an axis of {len(axis)} values does not split into {count} equal groups")
    return groups


@dataclass
class SweepWorkload:
    """One op is compare_sweep plus format_sweep_csv over one sub-grid of the m, n, x grid.

    A point's cost grows with m, n and x, so an op is not a slab: each axis is
    split into groups of equal size and mean, and an op takes one group per
    axis. Every op then samples the whole grid evenly and all ops cost about
    the same, and the ops together cover the grid exactly once. They run in
    one fixed order, so runs of equal length time the same ops: the grid is
    the input and has no randomness. Set-up is a cold `import agsdmm` in a
    fresh interpreter, the only set-up a sweep has.
    """

    name: str
    m_values: range
    n_values: range
    x_values: range
    groups: tuple[int, int, int]  # groups per axis
    setup_burst: int  # cold set-ups per burst
    order: list = field(default_factory=list)
    src: Path | None = None

    def prepare(self, seed: int, workdir: Path) -> None:
        axes = (self.m_values, self.n_values, self.x_values)
        self.order = list(product(*(balanced_groups(a, g) for a, g in zip(axes, self.groups))))
        self._next = 0
        self.src = Path(agsdmm.__file__).resolve().parent.parent

    def set_up(self) -> SetUp:
        env = dict(os.environ, PYTHONPATH=str(self.src))
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=self.src,
                             capture_output=True, text=True, timeout=120, check=True)
        seconds, origin = out.stdout.split()
        if not Path(origin).resolve().is_relative_to(self.src):
            raise RuntimeError(f"fresh interpreter imported agsdmm from {origin}")
        return SetUp(float(seconds), None)

    def check_set_up(self, descriptor) -> str | None:
        return None

    def set_up_counters(self, setup: SetUp) -> dict:
        return {}

    def inputs(self, rng):
        lattice = self.order[self._next % len(self.order)]
        self._next += 1
        return lattice

    def op(self, lattice):
        points, _ = agsdmm.compare_sweep(*lattice)
        return agsdmm.format_sweep_csv(points)

    def check(self, lattice, text) -> str | None:
        rows = list(csv.DictReader(io.StringIO(text)))
        expected = math.prod(len(axis) for axis in lattice)
        if len(rows) != expected:
            return f"sweep has {len(rows)} rows, expected {expected}"
        for row in rows:
            if row["ag_workers"] != "unsupported" and int(row["ag_workers"]) > int(row["ag_bound"]):
                return f"ag worker count exceeds its bound at m={row['m']} n={row['n']} x={row['x']}"
        if agsdmm.format_sweep_csv(agsdmm.parse_sweep_csv(text)) != text:
            return "sweep CSV does not survive a parse_sweep_csv round trip"
        return None

    def counters(self, lattice, text) -> dict:
        return {"analysis.points": text.count("\n") - 1}


def workloads() -> dict:
    """The named workloads at benchmark size (see README.md for why each exists)."""
    return {
        w.name: w for w in (
            RunWorkload("worker-bound", 4, 3, 2, (512, 512, 384), (47, 24), setup_burst=100),
            RunWorkload("decode-bound", 14, 14, 10, (112, 64, 112), (617, 329), setup_burst=1),
            CliWorkload("cli-oneshot", 8, 8, 4, (128, 64, 128), (197, 110), setup_burst=8),
            SweepWorkload("sweep", range(2, 51), range(1, 51), range(1, 51), (7, 5, 5), setup_burst=6),
        )
    }
