import dataclasses
import functools
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import agsdmm
from agsdmm import (
    SchemeParams,
    build_scheme,
    load_scheme,
    parse_sweep_csv,
    read_matrix_csv,
    run_protocol,
    write_matrix_csv,
)
from agsdmm.analysis import SWEEP_POINT_CAP
from agsdmm.cli import main
from agsdmm.protocol import SecrecyAuditReport
from agsdmm.scheme import EVALUATION_BYTES_CAP, POLE_TABLE_CAP


def test_params_json(capsys):
    assert main(["params", "--m", "2", "--n", "2", "--x", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["d"] == 3 and data["genus"] == 1
    assert data["phi"] == [0, 3, 4] and data["gamma"] == [0, 2, 4]
    assert data["n_workers"] == 8 and data["worker_bound"] == 8
    assert data["swapped"] is False
    assert len(data["table"]) == 3


def test_params_with_field_check(capsys):
    assert main(["params", "--m", "2", "--n", "2", "--x", "1", "--q", "17"]) == 0
    assert json.loads(capsys.readouterr().out)["q"] == 17
    assert main(["params", "--m", "2", "--n", "2", "--x", "1", "--q", "13"]) == 1


@pytest.mark.parametrize("q", [2**31, 2**31 + 1])
@pytest.mark.parametrize("command", ["params", "build"])
def test_out_of_range_field_order_gives_one_message(tmp_path, capsys, command, q):
    # params and build refuse a q outside [2, 2^31) with the same line
    argv = [command, "--m", "2", "--n", "2", "--x", "1", "--q", str(q)]
    if command == "build":
        argv += ["--out", str(tmp_path / "s.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: field order {q} must be an integer in [2, 2^31)\n"


def test_params_swapped(capsys):
    assert main(["params", "--m", "3", "--n", "4", "--x", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["swapped"] is True and data["m"] == 4 and data["n"] == 3


def test_params_invalid_inputs(capsys):
    assert main(["params", "--m", "3", "--n", "3", "--x", "1"]) == 1
    assert "error" in capsys.readouterr().err



def _run_python(*args, preexec_fn=None):
    # a fresh interpreter with src/ on its path
    src = str(Path(agsdmm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120, preexec_fn=preexec_fn)


def _run_module(*args, preexec_fn=None):
    return _run_python("-m", "agsdmm", *args, preexec_fn=preexec_fn)



def test_import_leaves_fractions_and_decimal_unloaded():
    # the sweep renders its rates and share through gcd, so importing the
    # package loads neither module
    out = _run_python("-c", "import sys, agsdmm; "
                            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    assert out.returncode == 0 and out.stdout == "[]\n"

def test_module_entry_point():
    out = _run_module("params", "--m", "2", "--n", "2", "--x", "1")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["n_workers"] == 8
    out = _run_module("params", "--m", "3", "--n", "3", "--x", "1")
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr == "error: at least one of m=3, n=3 must be even\n"


@pytest.mark.parametrize("command", ["params", "build", "audit"])
@pytest.mark.parametrize("m,n,x", [(-1, 2, 1), (3, 0, 1), (2, 2, 0), (0, 3, 1)])
def test_nonpositive_parameters_are_named_as_given(tmp_path, capsys, command, m, n, x):
    # checked before the orientation swap, so the message shows the user's m, n, x
    extra = {"params": [], "build": ["--out", str(tmp_path / "s.json")], "audit": ["--q", "5"]}
    assert main([command, "--m", str(m), "--n", str(n), "--x", str(x), *extra[command]]) == 1
    assert capsys.readouterr().err == f"error: m, n, x must be positive, got ({m}, {n}, {x})\n"


def test_missing_argument_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["params", "--m", "2", "--n", "2"])
    assert exc.value.code == 1


def test_unknown_command_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_build_multiply_pipeline(tmp_path, capsys):
    scheme = tmp_path / "scheme.json"
    assert main(["build", "--m", "2", "--n", "2", "--x", "1",
                 "--seed", "5", "--out", str(scheme)]) == 0
    descriptor = json.loads(scheme.read_text())
    assert descriptor["N"] == 8 and descriptor["q"] == 17 and descriptor["seed"] == 5

    rng = np.random.default_rng(1)
    a = rng.integers(0, 17, size=(4, 2))
    b = rng.integers(0, 17, size=(2, 6))
    a_path, b_path, c_path = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    t_path = tmp_path / "t.jsonl"
    write_matrix_csv(a_path, a, 17)
    write_matrix_csv(b_path, b, 17)
    assert main(["multiply", "--scheme", str(scheme), "--a", str(a_path),
                 "--b", str(b_path), "--out", str(c_path),
                 "--transcript", str(t_path)]) == 0
    product, q = read_matrix_csv(c_path)
    assert q == 17
    assert np.array_equal(product, a @ b % 17)
    assert len(t_path.read_text().splitlines()) == 8
    assert "product 4x6" in capsys.readouterr().out


def test_multiply_mask_seed_reproduces_the_run(tmp_path):
    # --mask-seed fixes the masks, so two runs write the same bytes; without
    # it every run draws fresh masks and its transcript differs
    scheme = tmp_path / "scheme.json"
    assert main(["build", "--m", "2", "--n", "2", "--x", "1", "--out", str(scheme)]) == 0
    rng = np.random.default_rng(2)
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    write_matrix_csv(a_path, rng.integers(0, 17, size=(4, 6)), 17)
    write_matrix_csv(b_path, rng.integers(0, 17, size=(6, 6)), 17)

    def run(name, *seed):
        out, transcript = tmp_path / f"{name}.csv", tmp_path / f"{name}.jsonl"
        with redirect_stdout(io.StringIO()):
            assert main(["multiply", "--scheme", str(scheme), "--a", str(a_path), "--b", str(b_path),
                         "--out", str(out), "--transcript", str(transcript), *seed]) == 0
        return out.read_bytes(), transcript.read_bytes()

    first, second = run("first", "--mask-seed", "7"), run("second", "--mask-seed", "7")
    assert first == second
    fresh = run("fresh")
    assert fresh[0] == first[0] and fresh[1] != first[1]
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(["multiply", "--scheme", str(scheme), "--a", str(a_path), "--b", str(b_path),
                     "--out", str(tmp_path / "refused.csv"), "--mask-seed", "-1"]) == 1
    assert err.getvalue() == "error: mask seed must be a non-negative integer, got -1\n"
    assert not (tmp_path / "refused.csv").exists()


def test_multiply_empty_product_reads_back(tmp_path, capsys):
    scheme = tmp_path / "scheme.json"
    assert main(["build", "--m", "2", "--n", "2", "--x", "1", "--out", str(scheme)]) == 0
    a_path, b_path, c_path = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    write_matrix_csv(a_path, np.zeros((0, 3), dtype=int), 17)
    write_matrix_csv(b_path, np.ones((3, 4), dtype=int), 17)
    assert main(["multiply", "--scheme", str(scheme), "--a", str(a_path),
                 "--b", str(b_path), "--out", str(c_path)]) == 0
    product, q = read_matrix_csv(c_path)
    assert q == 17 and product.shape == (0, 4)
    assert "product 0x4" in capsys.readouterr().out


def test_multiply_rejects_field_mismatch(tmp_path, capsys):
    scheme = tmp_path / "scheme.json"
    assert main(["build", "--m", "2", "--n", "2", "--x", "1", "--out", str(scheme)]) == 0
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    write_matrix_csv(a_path, np.zeros((2, 2), dtype=int), 19)  # wrong field
    write_matrix_csv(b_path, np.zeros((2, 2), dtype=int), 17)
    assert main(["multiply", "--scheme", str(scheme), "--a", str(a_path),
                 "--b", str(b_path), "--out", str(tmp_path / "c.csv")]) == 1
    assert "F_19" in capsys.readouterr().err


def test_multiply_missing_file(tmp_path):
    assert main(["multiply", "--scheme", str(tmp_path / "nope.json"),
                 "--a", "x", "--b", "y", "--out", "z"]) == 1


def test_multiply_rejects_descriptor_missing_a_key(tmp_path, capsys):
    scheme = tmp_path / "scheme.json"
    assert main(["build", "--m", "2", "--n", "2", "--x", "1", "--out", str(scheme)]) == 0
    descriptor = json.loads(scheme.read_text())
    del descriptor["m"]
    scheme.write_text(json.dumps(descriptor))
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    write_matrix_csv(a_path, np.zeros((2, 2), dtype=int), 17)
    write_matrix_csv(b_path, np.zeros((2, 2), dtype=int), 17)
    capsys.readouterr()
    assert main(["multiply", "--scheme", str(scheme), "--a", str(a_path),
                 "--b", str(b_path), "--out", str(tmp_path / "c.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "missing key(s) m" in err
    # text that is not JSON, and arrays nested past the interpreter's depth,
    # at the top or in places: one line that names the file
    nested = "[" * 100_000 + "]" * 100_000
    in_places = json.dumps({**descriptor, "m": 2, "places": None}).replace("null", nested)
    for text in ("not json", "[" * 100_000, in_places):
        scheme.write_text(text)
        assert main(["multiply", "--scheme", str(scheme), "--a", str(a_path),
                     "--b", str(b_path), "--out", str(tmp_path / "c.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scheme}: scheme descriptor is not readable JSON: ")
        assert err.count("\n") == 1
    # a descriptor that its rebuild does not match names the file and the keys
    scheme.write_text(json.dumps({**descriptor, "m": 2, "N": 9}))
    assert main(["multiply", "--scheme", str(scheme), "--a", str(a_path),
                 "--b", str(b_path), "--out", str(tmp_path / "c.csv")]) == 1
    assert capsys.readouterr().err == (
        f"error: {scheme}: scheme descriptor does not match its rebuild: ['N']\n")


@pytest.mark.filterwarnings("error")  # a numpy warning would print above the error line
@pytest.mark.parametrize("a_text,message", [
    ("1,2,17\n100000000000000000000,1\n", "outside the int64 range"),
    ("1,2,0\n1,2\n", "field order 0"),
    ("1,2,-17\n1,2\n", "field order -17"),
])
def test_multiply_rejects_malformed_csv(tmp_path, capsys, a_text, message):
    scheme = tmp_path / "scheme.json"
    assert main(["build", "--m", "2", "--n", "2", "--x", "1", "--out", str(scheme)]) == 0
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    a_path.write_text(a_text)
    write_matrix_csv(b_path, np.zeros((2, 2), dtype=int), 17)
    capsys.readouterr()
    assert main(["multiply", "--scheme", str(scheme), "--a", str(a_path),
                 "--b", str(b_path), "--out", str(tmp_path / "c.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(a_path) in err and message in err


def test_build_refuses_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["build", "--m", "2", "--n", "2", "--x", "1", "--seed", "-1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: seed must be a non-negative integer, got -1\n"
    assert not out.exists()


def test_build_invalid_field(tmp_path):
    assert main(["build", "--m", "2", "--n", "2", "--x", "1",
                 "--q", "13", "--out", str(tmp_path / "s.json")]) == 1


def test_largest_supported_explicit_field(tmp_path, capsys):
    # q = 2^31 - 1 is the largest accepted field order; the place scan stops
    # once it has the places it needs instead of walking all of F_q
    q = 2**31 - 1
    assert main(["params", "--m", "2", "--n", "2", "--x", "1", "--q", str(q)]) == 0
    assert json.loads(capsys.readouterr().out)["q"] == q
    out = tmp_path / "scheme.json"
    assert main(["build", "--m", "2", "--n", "2", "--x", "1", "--q", str(q),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["q"] == q
    capsys.readouterr()

    inst = build_scheme(SchemeParams(4, 3, 2, q=q))
    rng = np.random.default_rng(5)
    a = rng.integers(0, q, size=(8, 5), dtype=np.int64)
    b = rng.integers(0, q, size=(5, 9), dtype=np.int64)
    product, _ = run_protocol(a, b, inst, rng)
    assert product.tolist() == ((a.astype(object) @ b.astype(object)) % q).tolist()

    assert main(["build", "--m", "2", "--n", "2", "--x", "1", "--q", str(2**31 + 1),
                 "--out", str(tmp_path / "too_big.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_audit_pass(capsys):
    assert main(["audit", "--m", "2", "--n", "2", "--x", "1", "--q", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "MDS check" in out


def test_audit_invalid_params(capsys):
    assert main(["audit", "--m", "2", "--n", "2", "--x", "1", "--q", "11"]) == 1
    capsys.readouterr()
    # a field order that is not an odd prime: one error line, nothing on stdout
    assert main(["audit", "--m", "2", "--n", "2", "--x", "1", "--q", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: field order must be an odd prime >= 3, got 4\n"


def test_audit_failure_exits_2(monkeypatch, capsys):
    failed = SecrecyAuditReport(
        m=2, n=2, x=1, q=5, n_workers=5, place_xs=[0, 1, 2, 3, 4],
        mask_generator=[[1, 1, 1, 1, 1]],
        subsets=[(0,)], plaintext_count=625,
        randomness_count=25, views_uniform=False, passed=False,
        failure="synthetic failure for exit-code coverage",
    )
    monkeypatch.setattr("agsdmm.cli.empirical_secrecy_audit", lambda *a, **k: failed)
    assert main(["audit", "--m", "2", "--n", "2", "--x", "1", "--q", "5"]) == 2
    assert "FAIL" in capsys.readouterr().out
    # a passing view audit whose generator the certificate refuses: two
    # workers at x = 1, or rows that are not xs^k
    xs = [0, 1, 1, 3, 4]
    vandermonde = [[1] * 5, xs]
    for place_xs, generator in ((xs, vandermonde), ([0, 1, 2, 3, 4], vandermonde)):
        report = dataclasses.replace(failed, x=2, place_xs=place_xs, mask_generator=generator,
                                     views_uniform=True, passed=True, failure=None)
        monkeypatch.setattr("agsdmm.cli.empirical_secrecy_audit", lambda *a, **k: report)
        assert main(["audit", "--m", "2", "--n", "2", "--x", "2", "--q", "5"]) == 2
        assert capsys.readouterr().out.splitlines()[-1] == (
            "mask generator MDS check (every 2x2 submatrix invertible): FAIL")


@pytest.mark.parametrize("m,n,x,seed", [(4, 3, 2, 11), (32, 32, 16, 0)])
def test_audit_of_a_descriptor(tmp_path, capsys, m, n, x, seed):
    # the README's descriptor, and the largest build on record
    path = tmp_path / "scheme.json"
    assert main(["build", "--m", str(m), "--n", str(n), "--x", str(x), "--seed", str(seed),
                 "--out", str(path)]) == 0
    descriptor = json.loads(path.read_text())
    capsys.readouterr()
    assert main(["audit", "--scheme", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{path}: {descriptor['N']} workers over F_{descriptor['q']}, X = {x}",
        f"mask generator MDS check (every {x}x{x} submatrix invertible): PASS",
    ]


def test_audit_of_a_descriptor_exits_2_on_a_failed_certificate(tmp_path, monkeypatch, capsys):
    path = tmp_path / "scheme.json"
    assert main(["build", "--m", "2", "--n", "2", "--x", "1", "--out", str(path)]) == 0
    monkeypatch.setattr("agsdmm.cli._mask_code_is_mds", lambda xs, x: False)
    capsys.readouterr()
    assert main(["audit", "--scheme", str(path)]) == 2
    assert capsys.readouterr().out.splitlines()[-1] == (
        "mask generator MDS check (every 1x1 submatrix invertible): FAIL")


@pytest.mark.parametrize("side", ["A", "B"])
def test_audit_of_a_descriptor_checks_each_sides_encoder_mask_rows(tmp_path, monkeypatch, capsys,
                                                                   side):
    # the loaded scheme's own rows are held to x^k, k < X: one coefficient of
    # one side's last mask row moved off it fails the certificate line
    path = tmp_path / "scheme.json"
    assert main(["build", "--m", "4", "--n", "3", "--x", "2", "--seed", "11",
                 "--out", str(path)]) == 0

    def load_with_a_moved_mask_row(scheme_path):
        inst = load_scheme(scheme_path)
        rows = inst._sides[side][0]
        rows[inst.poles.x - 1, 0] = (rows[inst.poles.x - 1, 0] + 1) % inst.q
        return inst

    monkeypatch.setattr("agsdmm.cli.load_scheme", load_with_a_moved_mask_row)
    capsys.readouterr()
    assert main(["audit", "--scheme", str(path)]) == 2
    assert capsys.readouterr().out.splitlines()[-1] == (
        "mask generator MDS check (every 2x2 submatrix invertible): FAIL")

@pytest.mark.parametrize("text", [None, "not json", "[]", '{"m": 2, "n": 2, "X": 1}',
                                  '{"m": 3, "n": 3, "X": 1, "q": 17}'])
def test_audit_of_an_unreadable_descriptor_exits_1(tmp_path, capsys, text):
    path = tmp_path / "scheme.json"
    if text is not None:
        path.write_text(text)
    assert main(["audit", "--scheme", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["--scheme", "s.json", "--m", "2"],
    ["--m", "2", "--n", "2", "--x", "1"],
    [],
])
def test_audit_takes_a_descriptor_or_a_point(capsys, argv):
    assert main(["audit", *argv]) == 1
    assert capsys.readouterr().err == (
        "error: audit takes --scheme, or all of --m, --n, --x and --q\n")


def test_degree_table_command(capsys):
    assert main(["degree-table", "--a", "0,1,2,9,12", "--b", "0,3,6,9,10"]) == 0
    out = capsys.readouterr().out
    assert "distinct entries: 18" in out
    assert "recovery threshold: 18" in out
    assert main(["degree-table", "--a", "2,1", "--b", "0"]) == 1


def test_compare_command(tmp_path, capsys):
    out_path = tmp_path / "rates.csv"
    assert main(["compare", "--m-range", "2:4", "--n-range", "1:3",
                 "--x-range", "1:2", "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 1 + 3 * 3 * 2
    assert "wrote 18 rows" in capsys.readouterr().out
    assert main(["compare", "--m-range", "4:2", "--n-range", "1", "--x-range", "1",
                 "--out", str(out_path)]) == 1
    assert main(["compare", "--m-range", "x", "--n-range", "1", "--x-range", "1",
                 "--out", str(out_path)]) == 1


@pytest.mark.parametrize("ranges,message", [
    (("0:3", "1:2", "1"), "m, n, x must be positive, got (0, 1, 1)"),
    (("2:102", "1:100", "1:100"), f"sweep of 1010000 points exceeds the cap of {SWEEP_POINT_CAP}"),
], ids=["invalid-point", "above-the-cap"])
def test_refused_compare_writes_no_file(tmp_path, capsys, ranges, message):
    # the sweep is refused before its rows are streamed, so no file is opened
    out_path = tmp_path / "rates.csv"
    argv = [f"--{axis}-range={text}" for axis, text in zip("mnx", ranges)]
    assert main(["compare", *argv, f"--out={out_path}"]) == 1
    assert message in capsys.readouterr().err
    assert not out_path.exists()


def _limit_address_space():
    # 2 GB: a grid that is allocated before the cap is checked fails with a MemoryError
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize(
    "m_range,n_range,x_range,points",
    [("2:3", "1:2", "1:100000000", 400_000_000), ("2:400", "1:400", "1:400", 63_840_000),
     ("1:99999999999999999999", "1", "1", 99999999999999999999)],
)
def test_compare_refuses_a_grid_above_the_cap_before_allocating(tmp_path, m_range, n_range,
                                                                 x_range, points):
    out = _run_module("compare", "--m-range", m_range, "--n-range", n_range, "--x-range", x_range,
                      "--out", str(tmp_path / "s.csv"), preexec_fn=_limit_address_space)
    assert out.returncode == 1 and "Traceback" not in out.stderr
    assert out.stderr.splitlines() == [
        f"error: sweep of {points} points exceeds the cap of {SWEEP_POINT_CAP} points"
    ]
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("args,message", [
    (("params", "--m", "20000", "--n", "20000", "--x", "1"),
     f"pole table of 400040001 entries exceeds the cap of {POLE_TABLE_CAP} entries"),
    (("build", "--m", "2", "--n", "2", "--x", "20000"),
     f"pole table of 400080004 entries exceeds the cap of {POLE_TABLE_CAP} entries"),
    (("build", "--m", "200", "--n", "200", "--x", "10"),
     "evaluation matrix of 42218 x 80037 int64 entries exceeds the cap of "
     f"{EVALUATION_BYTES_CAP} bytes"),
])
def test_huge_parameters_are_refused_before_allocating(tmp_path, args, message):
    # each would end in a MemoryError within the 2 GB limit, or grow past it
    # without one (the last needs 27 GB for its evaluation matrix alone)
    if args[0] == "build":
        args += ("--out", str(tmp_path / "s.json"))
    out = _run_module(*args, preexec_fn=_limit_address_space)
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "s.json").exists()


def _break_derive_parameters(monkeypatch):
    monkeypatch.setattr(agsdmm.scheme, "worker_count", lambda m, n, x: -1)


def _exhaust_field_search(monkeypatch):
    monkeypatch.setattr(agsdmm.scheme, "scan_run_x", lambda q, d, limit: [])


def _run_out_of_memory(monkeypatch):
    def evaluation_matrix(*args):
        raise MemoryError
    monkeypatch.setattr(agsdmm.scheme, "evaluation_matrix", evaluation_matrix)


@pytest.mark.parametrize("command", ["params", "build"])
@pytest.mark.parametrize("fault,message", [
    (_break_derive_parameters,
     "pole structure for m=2, n=2, x=1 breaks: worker count equals its closed form"),
    (_exhaust_field_search, "no admissible field found below 2049 for d=3"),
    (_run_out_of_memory, "MemoryError"),
])
def test_internal_faults_give_one_error_line(tmp_path, monkeypatch, capsys, command, fault,
                                             message):
    # a broken invariant, the field search's cap and a MemoryError below the
    # caps: exit 1 with one error line, no traceback; params neither searches
    # a field nor evaluates, so only the first reaches it
    fault(monkeypatch)
    argv = [command, "--m", "2", "--n", "2", "--x", "1"]
    if command == "build":
        argv += ["--out", str(tmp_path / "s.json")]
    reaches = command == "build" or fault is _break_derive_parameters
    assert main(argv) == (1 if reaches else 0)
    err = capsys.readouterr().err
    assert err == (f"error: {message}\n" if reaches else "")
    assert not (tmp_path / "s.json").exists()


def test_a_huge_descriptor_is_refused_before_allocating(tmp_path):
    # load_scheme rebuilds what a descriptor names, through the same caps
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"m": 200, "n": 200, "X": 10, "q": 80039}))
    out = _run_module("multiply", "--scheme", str(path), "--a", "a.csv", "--b", "b.csv",
                      "--out", str(tmp_path / "c.csv"), preexec_fn=_limit_address_space)
    assert out.returncode == 1 and out.stderr.splitlines() == [
        f"error: evaluation matrix of 42218 x 80037 int64 entries exceeds the cap of "
        f"{EVALUATION_BYTES_CAP} bytes"]


def test_compare_sweep_counts_a_range_before_materialising_it():
    # a direct call, which no CLI range check precedes, in a 2 GB address space
    script = ("from agsdmm import compare_sweep\n"
              "try:\n    compare_sweep(range(10**8), [1], [1])\n"
              "except ValueError as exc:\n    raise SystemExit(f'error: {exc}')\n")
    out = _run_python("-c", script, preexec_fn=_limit_address_space)
    assert out.returncode == 1 and out.stderr.splitlines() == [
        f"error: sweep of 100000000 points exceeds the cap of {SWEEP_POINT_CAP} points"]


def _bound_text(value: int, style: str) -> str:
    # spellings that int() accepts
    text = f"{value:_d}" if style == "underscores" else str(value)
    if style == "spaces":
        return f" {text} "
    return f"+{text}" if style == "plus" and value >= 0 else text


@st.composite
def range_texts(draw):
    # a start and a span each either small or past the sweep cap, so that every
    # grid is tiny or refused before it is built, in assorted spellings
    start = draw(st.one_of(st.integers(-2, 6), st.integers(10**7, 10**30)))
    styles = st.sampled_from(["plain", "underscores", "spaces", "plus"])
    kind = draw(st.sampled_from(["single", "single", "range", "range", "range", "three-part",
                                 "malformed"]))
    lo = _bound_text(start, draw(styles))
    if kind == "single":
        return lo
    if kind == "malformed":
        return draw(st.sampled_from(["", ":", " ", "1:", ":2", "a:b:c", "1__0", "_1", "1_",
                                     "0x10", "1e3", "2.0", "1:2,3", "--1", "\x00"]))
    span = draw(st.one_of(st.integers(-1, 4), st.integers(10**7, 10**30)))
    hi = _bound_text(start + span, draw(styles))
    return f"{lo}:{hi}" + (f":{draw(st.integers(-1, 3))}" if kind == "three-part" else "")


@settings(max_examples=150, deadline=None)
@given(m_range=range_texts(), n_range=range_texts(), x_range=range_texts())
@example("1:99999999999999999999", "1", "1")
@example("1:3", "-1:1", "2")
@example("10_000_000_000_000_000_000:10_000_000_000_000_000_001", " +2 ", "1:3")
def test_compare_fuzzed_ranges_exit_cleanly(tmp_path_factory, m_range, n_range, x_range):
    out_path = tmp_path_factory.mktemp("compare") / "rates.csv"
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(["compare", f"--m-range={m_range}", f"--n-range={n_range}",
                     f"--x-range={x_range}", f"--out={out_path}"])
    if code == 0:
        points = parse_sweep_csv(out_path.read_text())
        assert stdout.getvalue().splitlines()[-1] == f"wrote {len(points)} rows -> {out_path}"
        assert stderr.getvalue() == ""
    else:
        assert code == 1 and not out_path.exists()
        assert len(stderr.getvalue().splitlines()) == 1 and stderr.getvalue().startswith("error: ")


def _exit_code_of(argv) -> int:
    # main in process, an argparse refusal taken as its exit code: every example
    # ends in 0, 1 or 2, a refusal in one error line, and no exception escapes
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = stderr.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 1:
        assert "error: " in err.splitlines()[-1]
    return code


# small values that build in milliseconds, values past every cap, and text int() refuses
int_texts = st.one_of(st.integers(-2, 12).map(str),
                      st.sampled_from(["1000000", str(2**63), "1" + "0" * 30, "", "a", "2.0", "1e3",
                                       " 3 ", "0x10", "-"]))
q_texts = st.one_of(st.none(), st.integers(-2, 400).map(str),
                    st.sampled_from([str(2**31 - 1), str(2**31), "1" + "0" * 30, "q"]))


@settings(max_examples=60, deadline=None)
@given(m=int_texts, n=int_texts, x=int_texts, q=q_texts)
@example("3", "3", "1", None)
@example("12", "12", "12", str(2**31 - 1))
def test_params_fuzzed_exit_cleanly(m, n, x, q):
    _exit_code_of(["params", f"--m={m}", f"--n={n}", f"--x={x}", *([f"--q={q}"] if q else [])])


@settings(max_examples=40, deadline=None)
@given(m=int_texts, n=int_texts, x=int_texts, q=q_texts, seed=int_texts)
@example("12", "12", "12", None, "0")
@example("4", "3", "2", "37", "-1")
def test_build_fuzzed_exit_cleanly(tmp_path_factory, m, n, x, q, seed):
    out = tmp_path_factory.mktemp("build") / "scheme.json"
    code = _exit_code_of(["build", f"--m={m}", f"--n={n}", f"--x={x}", f"--seed={seed}",
                          f"--out={out}", *([f"--q={q}"] if q else [])])
    assert out.exists() == (code == 0)


exponent_texts = st.one_of(
    st.lists(st.integers(-5, 40) | st.just(10**20), max_size=8).map(lambda v: ",".join(map(str, v))),
    st.sampled_from(["", ",", "1,,2", "1,a", "0,1.5", "\x00", "1 ,2"]))


@settings(max_examples=60, deadline=None)
@given(a=exponent_texts, b=exponent_texts)
@example("0,1,2,9,12", "0,3,6,9,10")
def test_degree_table_fuzzed_exit_cleanly(a, b):
    _exit_code_of(["degree-table", f"--a={a}", f"--b={b}"])


@functools.cache
def _multiply_inputs() -> tuple[str, str, str]:
    # a (2, 2, 1) descriptor over F_17 and two CSVs of its field
    scheme = build_scheme(SchemeParams(2, 2, 1, seed=5))
    rng = np.random.default_rng(3)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        texts = []
        for shape in ((4, 3), (3, 2)):
            write_matrix_csv(path, rng.integers(0, scheme.q, size=shape), scheme.q)
            texts.append(path.read_text())
    return json.dumps(scheme.to_dict()), *texts


json_values = st.sampled_from([None, -1, 0, 1, 2, 3, 5, 17, 2**31, 2**63, 10**30, 1.5, "2",
                               True, [], {}, [0, 1], {"x": 1, "y": 2}])
csv_tokens = st.sampled_from(["", "-1", "0", "16", "17", "x", "1e3", "1.0", str(2**63),
                              "1" + "0" * 30, "1_0", " 2", "0x1", "2,3"])


@st.composite
def mutated_descriptors(draw, text):
    data = json.loads(text)
    kind = draw(st.sampled_from(["key", "place", "drop", "truncate"]))
    if kind == "key":
        data[draw(st.sampled_from([*data, "extra"]))] = draw(json_values)
    elif kind == "place":
        place = draw(st.sampled_from(data["places"]))
        place[draw(st.sampled_from(["x", "y", "z"]))] = draw(json_values)
    elif kind == "drop":
        del data[draw(st.sampled_from(list(data)))]
    text = json.dumps(data)
    return text[:draw(st.integers(0, len(text) - 1))] if kind == "truncate" else text


@st.composite
def mutated_csvs(draw, text):
    lines = text.splitlines()
    kind = draw(st.sampled_from(["cell", "drop", "repeat", "truncate"]))
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "cell":
        cells = lines[i].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(csv_tokens)
        lines[i] = ",".join(cells)
    elif kind in ("drop", "repeat"):
        lines[i:i + 1] = [lines[i]] * (kind == "repeat") * 2
    text = "\n".join(lines) + "\n"
    return text[:draw(st.integers(0, len(text) - 1))] if kind == "truncate" else text


@settings(max_examples=50, deadline=None)
@given(target=st.sampled_from(["scheme", "a", "b", None]), data=st.data(),
       mask_seed=st.sampled_from([None, "0", "-1", str(2**70), "s"]))
def test_multiply_fuzzed_inputs_exit_cleanly(tmp_path_factory, target, data, mask_seed):
    # one input mutated, or none; a product written is the product of the inputs as read
    texts = dict(zip(("scheme", "a", "b"), _multiply_inputs()))
    if target == "scheme":
        texts[target] = data.draw(mutated_descriptors(texts[target]))
    elif target:
        texts[target] = data.draw(mutated_csvs(texts[target]))
    tmp = tmp_path_factory.mktemp("multiply")
    paths = {name: tmp / f"{name}.{ext}" for name, ext in
             (("scheme", "json"), ("a", "csv"), ("b", "csv"), ("c", "csv"), ("t", "jsonl"))}
    for name, text in texts.items():
        paths[name].write_text(text)
    code = _exit_code_of(["multiply", *(f"--{k}={paths[k]}" for k in texts),
                          f"--out={paths['c']}", f"--transcript={paths['t']}",
                          *([f"--mask-seed={mask_seed}"] if mask_seed else [])])
    assert paths["c"].exists() == (code == 0)
    if code == 0:
        (ma, q), (mb, _), (mc, qc) = (read_matrix_csv(paths[k]) for k in "abc")
        assert qc == q and np.array_equal(mc, ma @ mb % q)


def test_single_value_range(tmp_path):
    out_path = tmp_path / "one.csv"
    assert main(["compare", "--m-range", "4", "--n-range", "3", "--x-range", "2",
                 "--out", str(out_path)]) == 0
    rows = out_path.read_text().splitlines()
    assert len(rows) == 2
    assert rows[1].startswith("4,3,2,24,24,")
