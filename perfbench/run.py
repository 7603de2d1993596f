"""Closed-loop benchmark of agsdmm, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client thread: each op starts when the previous one
returned, and BLAS threads are capped at nproc. The run alternates five
bursts of cold set-ups with five stretches of ops that together last
--seconds; setup_s is the median over bursts of each burst's fastest
set-up. Every op's output is checked outside the timed region; any failure
makes the exit code 1. With --trace 0 the end-to-end metrics are reported;
with --trace 1 the run is split into an untraced and a traced half, and the
per-layer metrics come from timing spans around the agsdmm layers.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Full samples, span tables and the machine
description go to .perfbench/results/ in the checkout. The program is imported
from the checkout's src/ directory; without it the benchmark exits 2 before
printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import machine

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 3
SEGMENTS = 5  # untraced runs alternate a burst of set-ups with a stretch of ops
TRACED_SET_UPS = 3
EXIT_FAILED = 1
EXIT_CANNOT_RUN = 2


class ProgramMissing(RuntimeError):
    pass


def import_program(root: Path):
    """Import agsdmm from root/src, refusing any other copy."""
    src = root / "src"
    if not (src / "agsdmm" / "__init__.py").is_file():
        raise ProgramMissing(f"no agsdmm package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import agsdmm
    import agsdmm.cli  # noqa: F401  (the CLI layer is not imported by the package)

    if not Path(agsdmm.__file__).resolve().is_relative_to(src.resolve()):
        raise ProgramMissing(f"agsdmm was imported from {agsdmm.__file__}, not from {src}")
    return agsdmm


@dataclass
class Loop:
    """Samples of one closed-loop phase."""

    times: list[float] = field(default_factory=list)
    units: list[dict] = field(default_factory=list)
    attempted: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def median(self) -> float:
        return statistics.median(self.times) if self.times else 0.0


def _guarded(fn, *args):
    """(output, problem): an exception is a failed op, reported with its traceback."""
    try:
        return fn(*args), None
    except Exception:
        return None, traceback.format_exc(limit=-4)


def op_loop(workload, rng, seconds: float, tracer=None, loop=None, warm_up=True) -> Loop:
    """An untimed warm-up op, then ops for `seconds` (at least MIN_OPS), each checked."""
    loop = Loop() if loop is None else loop
    deadline = time.perf_counter() + seconds
    while warm_up or len(loop.times) < MIN_OPS or time.perf_counter() < deadline:
        inputs = workload.inputs(rng)
        if tracer is not None:
            tracer.take()  # drop whatever set-up or checking recorded
        start = time.perf_counter()
        output, problem = _guarded(workload.op, inputs)
        elapsed = time.perf_counter() - start
        unit = tracer.take() if tracer is not None else None
        if problem is None:
            problem, crash = _guarded(workload.check, inputs, output)
            problem = problem or crash
        loop.attempted += 1
        if problem:
            loop.problems.append(problem)
        if warm_up:
            warm_up = False
            deadline = time.perf_counter() + seconds
            continue
        loop.times.append(elapsed)
        if unit is not None and not problem:
            unit["counters"].update(workload.counters(inputs, output))
            loop.units.append(unit)
    return loop


def set_up_phase(workload, repeats: int, tracer=None):
    """Cold set-ups; returns their seconds, descriptors and (when traced) span units."""
    seconds, descriptors, units = [], [], []
    for _ in range(repeats):
        if tracer is not None:
            tracer.take()
        setup = workload.set_up()
        if tracer is not None:
            unit = tracer.take()
            unit["counters"].update(workload.set_up_counters(setup))
            units.append(unit)
        seconds.append(setup.seconds)
        descriptors.append(setup.descriptor)
    return seconds, descriptors, units


def measure(agsdmm, workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run one workload; returns the result line plus the details written to disk."""
    import numpy as np

    import metrics
    import spans

    workload.prepare(seed, workdir)
    rng = np.random.default_rng(seed)
    problems: list[str] = []
    attempted = 0
    details: dict = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace}
    if not trace:
        # Set-up bursts spread over the run: each burst's fastest set-up is
        # one sample, so one slow spell of the host cannot move the median.
        loop, bursts, descriptors = Loop(), [], []
        for segment in range(SEGMENTS):
            burst, got, _ = set_up_phase(workload, workload.setup_burst)
            bursts.append(burst)
            descriptors.extend(got)
            op_loop(workload, rng, seconds / SEGMENTS, loop=loop, warm_up=segment == 0)
        setup_s = [min(burst) for burst in bursts]
        attempted += 1
        problem = workload.check_set_up(descriptors[0])
        if problem is None and any(d != descriptors[0] for d in descriptors):
            problem = "repeated set-ups gave different descriptors"
        if problem is not None:
            problems.append(problem)
        value, pct, beyond = metrics.tail(loop.times)
        result = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "op_min_s": {"value": min(loop.times), "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        }
        details.update(setup_samples=bursts, op_samples=loop.times, ungated={
            "op_s": {"value": loop.median, "unit": "s"},
            "op_tail_s": {"value": value, "unit": "s", "percentile": pct,
                          "samples_beyond": beyond, "samples": len(loop.times)},
        })
    else:
        _, (plain,), _ = set_up_phase(workload, 1)
        tracer = spans.Tracer(metrics.SPLITS, metrics.HOOKS)
        with spans.instrumented(agsdmm, tracer) as installed:
            _, traced, build_units = set_up_phase(workload, TRACED_SET_UPS, tracer)
        attempted += 1 + len(traced)
        if (problem := workload.check_set_up(plain)) is not None:
            problems.append(problem)
        problems.extend(
            f"traced set-up gave a different descriptor: {d}" for d in traced if d != plain
        )
        plain_loop = op_loop(workload, rng, seconds / 2)
        with spans.instrumented(agsdmm, tracer) as installed:
            loop = op_loop(workload, rng, seconds / 2, tracer)
        attempted += plain_loop.attempted
        problems.extend(plain_loop.problems)
        result, absent = metrics.per_layer(build_units, loop.units, installed,
                                           min(plain_loop.times), min(loop.times))
        details.update(untraced_op_samples=plain_loop.times, op_samples=loop.times,
                       absent=absent, build_spans=metrics.span_totals(build_units),
                       op_spans=metrics.span_totals(loop.units))
    attempted += loop.attempted
    problems.extend(loop.problems)
    details.update(attempted=attempted, failed=len(problems), problems=problems[:10])
    line = {"correct": not problems, "attempted": attempted, "failed": len(problems), "metrics": result}
    return {"line": line, "details": details}


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def report(out: dict) -> list[str]:
    """Human-readable lines: every metric with its unit, then the error rate."""
    line, details = out["line"], out["details"]
    lines = [f"# {details['workload']} seed={details['seed']} trace={int(details['trace'])}: "
             f"closed loop, 1 client thread"]
    for name, m in {**line["metrics"], **details.get("ungated", {})}.items():
        lines.append(f"{name:<48} {m['value']:.6g} {m['unit']}")
    if "ungated" in details:
        t = details["ungated"]["op_tail_s"]
        lines.append(f"# op_tail_s is p{t['percentile']:.1f} of {t['samples']} ops "
                     f"({t['samples_beyond']} beyond it); op_s and op_tail_s are not gated")
    if details.get("absent"):
        lines.append(f"# absent spans (reported as 0): {', '.join(details['absent'])}")
    rate = line["failed"] / line["attempted"]
    lines.append(f"error_rate {rate:.6g} ({line['failed']} of {line['attempted']} ops failed)")
    lines.extend(f"# failure: {p.strip().splitlines()[-1]}" for p in details["problems"])
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, root: Path = ROOT) -> int:
    args = parse_args(argv)
    try:
        agsdmm = import_program(root)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_CANNOT_RUN
    import workloads

    table = workloads.workloads()
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return EXIT_CANNOT_RUN
    return run(agsdmm, table[args.workload], args.seed, args.seconds, bool(args.trace), root)


def run(agsdmm, workload, seed: int, seconds: float, trace: bool, root: Path) -> int:
    """Measure, write the details file, print the report; the exit code says if all ops passed."""
    state = root / ".perfbench"
    workdir = state / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        out = measure(agsdmm, workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["details"]["machine"] = machine.describe()
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps({**out["details"], "result": out["line"]}, indent=1) + "\n")
    for text in report(out):
        print(text)
    print(f"# machine: {json.dumps(out['details']['machine'], sort_keys=True)}")
    print(json.dumps(out["line"]))
    return 0 if out["line"]["correct"] else EXIT_FAILED


if __name__ == "__main__":
    machine.cap_blas_threads()
    sys.exit(main())
