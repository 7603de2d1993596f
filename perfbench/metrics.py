"""End-to-end and per-layer metrics computed from a run's samples and span totals."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable

BUILD, OP = "build", "op"


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with ten samples beyond it.

    With ten or fewer samples no percentile has ten beyond it; the maximum is
    returned with the count that actually lies beyond it (zero).
    """
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0) if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


class Unit:
    """Span totals and counters of one unit of work (one traced op or set-up)."""

    def __init__(self, unit: dict):
        self.spans = unit["spans"]
        self.counters = unit["counters"]

    def calls(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def total_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    phase: str  # BUILD: one value per traced set-up; OP: one per traced op
    value: Callable[[Unit], float]
    spans: tuple[str, ...] = ()  # span names the value needs; absent ones report 0


def _self(span, phase=OP, name=None):
    return LayerMetric(f"{name or span}.self_s", "s", phase, lambda u: u.self_s(span), (span,))


def _calls(span, phase=OP):
    return LayerMetric(f"{span}.calls", "count", phase, lambda u: u.calls(span), (span,))


def _counter(name, unit, phase=OP, spans=()):
    return LayerMetric(name, unit, phase, lambda u: u.counter(name), spans)


ENCODE = "scheme.SchemeInstance.encode"
WORKERS = "scheme.SchemeInstance.worker_products"
DECODE = "scheme.SchemeInstance.decode"
PLACES = "function_field.HyperellipticCurve.select_distinct_x_places"
COLUMNS = "linalg.select_information_columns"

# Spans reported per argument value, and counters measured from return values.
SPLITS = {ENCODE: lambda args, kwargs: kwargs.get("side", args[1] if len(args) > 1 else "")}
HOOKS = {
    PLACES: ("function_field.places_found", len),
    COLUMNS: ("linalg.columns_scanned", lambda cols: cols[-1] + 1 if len(cols) else 0),
}

PER_LAYER = [
    # build: field search, place scan, information-set selection, decoder precompute
    _self("scheme.smallest_admissible_field", BUILD),
    _counter("field.candidates_tried", "count", BUILD),
    _self(PLACES, BUILD, "function_field.select_distinct_x_places"),
    _calls("field.PrimeField.sqrt", BUILD),
    _counter("function_field.places_found", "count", BUILD, (PLACES,)),
    LayerMetric("function_field.place_yield", "ratio", BUILD,
                lambda u: ratio(u.counter("scheme.N"), u.counter("function_field.places_found")),
                (PLACES,)),
    _self("function_field.HyperellipticCurve.evaluate", BUILD),
    _calls("function_field.HyperellipticCurve.evaluate", BUILD),
    _self(COLUMNS, BUILD),
    _counter("linalg.columns_scanned", "count", BUILD, (COLUMNS,)),
    _self("linalg.LUFactorization.init", BUILD),
    # run: encode A, encode B, worker products, decode; then transcripts and files
    _self("scheme.load_scheme"),
    LayerMetric("scheme.build_scheme.s", "s", OP, lambda u: u.total_s("scheme.build_scheme"),
                ("scheme.build_scheme",)),
    LayerMetric("scheme.encode_a.self_s", "s", OP, lambda u: u.self_s(f"{ENCODE}[A]"), (ENCODE,)),
    LayerMetric("scheme.encode_b.self_s", "s", OP, lambda u: u.self_s(f"{ENCODE}[B]"), (ENCODE,)),
    _self(WORKERS, name="scheme.worker_products"),
    _self("linalg.matmul_mod"),
    _calls("linalg.matmul_mod"),
    _counter("scheme.worker_products.macs", "count"),
    LayerMetric("scheme.worker_products.macs_per_s", "1/s", OP,
                lambda u: ratio(u.counter("scheme.worker_products.macs"), u.total_s(WORKERS)),
                (WORKERS,)),
    _self(DECODE, name="scheme.decode"),
    _self("linalg.LUFactorization.solve_blocks"),
    _self("protocol.run_protocol"),
    _self("protocol.Transcript.to_jsonl"),
    _counter("protocol.transcript_bytes", "bytes"),
    _self("scheme.read_matrix_csv"),
    _self("scheme.write_matrix_csv"),
    _self("cli.main"),
    # communication cost, measured from the shares and responses exchanged
    _counter("scheme.upload_elements_per_worker", "count"),
    _counter("scheme.download_elements_per_worker", "count"),
    _counter("scheme.total_elements", "count"),
    _counter("scheme.direct_elements", "count"),
    _counter("scheme.rate", "ratio"),
    # the user's and the workers' cost against the benchmark's own baselines
    _counter("reference.direct_s", "s"),
    LayerMetric("scheme.user_overhead_ratio", "ratio", OP,
                lambda u: ratio(u.total_s(f"{ENCODE}[A]") + u.total_s(f"{ENCODE}[B]")
                                + u.total_s(DECODE), u.counter("reference.direct_s")),
                (ENCODE, DECODE)),
    _counter("reference.blas_s", "s"),
    LayerMetric("scheme.worker_vs_blas_ratio", "ratio", OP,
                lambda u: ratio(u.total_s(WORKERS), u.counter("reference.blas_s")), (WORKERS,)),
    # analysis
    _self("analysis.workers_ag"),
    _calls("analysis.workers_ag"),
    _self("analysis.compare_sweep"),
    _self("analysis.format_sweep_csv"),
    LayerMetric("analysis.points_per_s", "1/s", OP,
                lambda u: ratio(u.counter("analysis.points"), u.total_s("analysis.compare_sweep")),
                ("analysis.compare_sweep",)),
]

OVERHEAD = ("trace.overhead_ratio", "ratio")


def per_layer(build_units: list[dict], op_units: list[dict], installed: set[str],
              plain_op_s: float, traced_op_s: float) -> tuple[dict, list[str]]:
    """Median per unit of every per-layer metric, and the metrics whose spans are gone."""
    units = {BUILD: [Unit(u) for u in build_units], OP: [Unit(u) for u in op_units]}
    metrics, absent = {}, []
    for metric in PER_LAYER:
        value = 0.0
        if not all(span in installed for span in metric.spans):
            absent.append(metric.name)
        elif units[metric.phase]:
            value = statistics.median(metric.value(u) for u in units[metric.phase])
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    name, unit = OVERHEAD
    metrics[name] = {"value": ratio(traced_op_s, plain_op_s), "unit": unit}
    return metrics, absent


def span_totals(units: list[dict]) -> dict:
    """Calls, self and total seconds per span and per caller edge, summed over units."""
    spans, edges = {}, {}
    for unit in units:
        for table, key in ((spans, "spans"), (edges, "edges")):
            for name, values in unit[key].items():
                acc = table.setdefault(name, [0] * len(values))
                for i, v in enumerate(values):
                    acc[i] += v
    return {"spans": spans, "edges": edges}
