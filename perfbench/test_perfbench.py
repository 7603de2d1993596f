"""Tests of the benchmark itself: tiny runs of every workload, the failure path, tracing hygiene."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import run  # noqa: E402

agsdmm = run.import_program(ROOT)

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]


def tiny(name):
    """The named workload at a size that runs in well under a second."""
    return {
        "worker-bound": workloads.RunWorkload("worker-bound", 2, 2, 1, (4, 3, 6), (17, 8), 2),
        "decode-bound": workloads.RunWorkload("decode-bound", 4, 3, 2, (8, 4, 6), (47, 24), 2),
        "cli-oneshot": workloads.CliWorkload("cli-oneshot", 2, 2, 1, (4, 3, 6), (17, 8), 2),
        "sweep": workloads.SweepWorkload("sweep", range(2, 5), range(1, 4), range(1, 5), (1, 3, 2), 2),
    }[name]


def run_tiny(name, trace, tmp_path, capsys, seed=3):
    code = run.run(agsdmm, tiny(name), seed, 0.05, trace, tmp_path)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_tiny_workloads_cover_every_named_workload():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.workloads())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.workloads()))
def test_smoke_run_emits_every_metric_with_its_unit(name, trace, tmp_path, capsys):
    code, lines, line = run_tiny(name, trace, tmp_path, capsys)
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= run.MIN_OPS
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert any(text.startswith("error_rate 0 ") for text in lines)
    details = json.loads((tmp_path / ".perfbench" / "results" / f"{name}-seed3-trace{int(trace)}.json").read_text())
    assert details["machine"]["nproc"] >= 1
    if not trace:
        assert all(line["metrics"][k]["value"] > 0 for k in ("setup_s", "op_min_s", "peak_rss_mb"))


def test_counts_repeat_exactly_across_seeds(tmp_path, capsys):
    first = run_tiny("decode-bound", True, tmp_path, capsys, seed=1)[2]["metrics"]
    second = run_tiny("decode-bound", True, tmp_path, capsys, seed=2)[2]["metrics"]
    assert {k: first[k]["value"] for k in COUNTS} == {k: second[k]["value"] for k in COUNTS}
    assert first["linalg.matmul_mod.calls"]["value"] == 24


@pytest.mark.parametrize("name", ["worker-bound", "cli-oneshot"])
def test_corrupted_reference_fails_the_run(name, tmp_path, capsys, monkeypatch):
    honest = workloads.reference_product
    monkeypatch.setattr(workloads, "reference_product", lambda a, b, q: (honest(a, b, q) + 1) % q)
    code, lines, line = run_tiny(name, False, tmp_path, capsys)
    assert code == run.EXIT_FAILED
    assert not line["correct"]
    assert line["failed"] == line["attempted"] - 1  # every op; the set-up check still passes
    assert any(text.startswith("error_rate 0.") for text in lines)


def test_traced_run_restores_every_wrapped_attribute(tmp_path, capsys):
    targets = spans.patch_targets(agsdmm)
    names = {name for *_, name in targets}
    assert {"scheme.smallest_admissible_field", "linalg.matmul_mod", "scheme.SchemeInstance.decode",
            "linalg.LUFactorization.init", "cli.main", "analysis.workers_ag"} <= names
    assert any(owner is agsdmm.cli and attr == "load_scheme" for owner, attr, *_ in targets)
    with spans.instrumented(agsdmm, spans.Tracer()):
        assert all(vars(owner)[attr] is not original for owner, attr, original, _ in targets)
    for name in sorted(workloads.workloads()):
        run_tiny(name, True, tmp_path, capsys)
    assert all(vars(owner)[attr] is original for owner, attr, original, _ in targets)


def test_spans_nest_into_self_time():
    tracer = spans.Tracer()

    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    tracer.wrap("outer", lambda: inner() + inner())()
    unit = tracer.take()
    calls, self_s, total_s = unit["spans"]["outer"]
    assert calls == 1 and unit["spans"]["inner"][0] == 2
    assert self_s == pytest.approx(total_s - unit["spans"]["inner"][2])
    assert unit["edges"]["outer > inner"][0] == 2
    assert tracer.take()["spans"] == {}


def test_removed_function_is_reported_absent(tmp_path, capsys, monkeypatch):
    monkeypatch.delattr(agsdmm.protocol.Transcript, "to_jsonl")
    code, lines, line = run_tiny("worker-bound", True, tmp_path, capsys)
    assert code == 0
    assert line["metrics"]["protocol.Transcript.to_jsonl.self_s"]["value"] == 0
    assert any("protocol.Transcript.to_jsonl.self_s" in text for text in lines if text.startswith("# absent"))


def test_tail_has_ten_samples_beyond_it():
    value, pct, beyond = metrics.tail([float(i) for i in range(30)])
    assert (value, beyond) == (19.0, 10) and pct == pytest.approx(100 * 20 / 30)
    assert metrics.tail([2.0, 1.0]) == (2.0, 100.0, 0)


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
