import json

import numpy as np
import pytest

from agsdmm import SchemeParams, build_scheme, read_matrix_csv, run_protocol, write_matrix_csv
from agsdmm.cli import main
from agsdmm.protocol import SecrecyAuditReport


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


def test_params_swapped(capsys):
    assert main(["params", "--m", "3", "--n", "4", "--x", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["swapped"] is True and data["m"] == 4 and data["n"] == 3


def test_params_invalid_inputs(capsys):
    assert main(["params", "--m", "3", "--n", "3", "--x", "1"]) == 1
    assert "error" in capsys.readouterr().err


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


def test_audit_invalid_params():
    assert main(["audit", "--m", "2", "--n", "2", "--x", "1", "--q", "11"]) == 1


def test_audit_failure_exits_2(monkeypatch, capsys):
    failed = SecrecyAuditReport(
        m=2, n=2, x=1, q=5, n_workers=5, place_xs=[0, 1, 2, 3, 4],
        mask_generator=[[1, 1, 1, 1, 1]],
        subsets=[(0,)], subsets_exhaustive=True, plaintext_count=625,
        randomness_count=25, views_uniform=False, passed=False,
        failure="synthetic failure for exit-code coverage",
    )
    monkeypatch.setattr("agsdmm.cli.empirical_secrecy_audit", lambda *a, **k: failed)
    assert main(["audit", "--m", "2", "--n", "2", "--x", "1", "--q", "5"]) == 2
    assert "FAIL" in capsys.readouterr().out


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


def test_single_value_range(tmp_path):
    out_path = tmp_path / "one.csv"
    assert main(["compare", "--m-range", "4", "--n-range", "3", "--x-range", "2",
                 "--out", str(out_path)]) == 0
    rows = out_path.read_text().splitlines()
    assert len(rows) == 2
    assert rows[1].startswith("4,3,2,24,24,")
