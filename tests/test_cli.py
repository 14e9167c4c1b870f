"""Command-line interface: output formats, exit codes, determinism."""

import json

import pytest

from qdonald.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_series_qplus_text(capsys):
    code, out = run_cli(capsys, "series", "--name", "Qplus", "--order", "5")
    assert code == 0
    assert out.startswith(
        "q^(-1/8) * (1 + 28*q^(1/2) + 39*q + 196*q^(3/2) + 161*q^2")


def test_series_json_roundtrip(capsys):
    code, out = run_cli(capsys, "series", "--name", "QcalQ", "--order", "12",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ram"] == 1
    assert ["-1", "1"] in payload["coeffs"]
    assert ["3", "28"] in payload["coeffs"]


def test_series_named_variants(capsys):
    for name in ("Ft:0", "calFt:2", "M", "QtransS", "Z0", "ebracket:1,1",
                 "eta", "vtheta2", "A38", "fm:1"):
        code, out = run_cli(capsys, "series", "--name", name, "--order", "6")
        assert code == 0 and out.strip()


def test_invariants_json_schema(capsys):
    code, out = run_cli(capsys, "invariants", "--nf", "0", "--max-weight", "2",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["nf"] == 0
    row0 = payload["rows"][0]
    assert row0 == {"m": 0, "n": 0, "monomial": "1", "value": "-1",
                    "h_combo": [["H0", "6"], ["H1", "-1/4"]]}
    s4 = next(r for r in payload["rows"] if r["monomial"] == "S^4")
    assert s4["value"] == "-3/16"


def test_invariants_csv(capsys):
    code, out = run_cli(capsys, "invariants", "--nf", "2", "--max-weight", "0",
                        "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "nf,m,n,monomial,value,h_combo"
    assert lines[1].startswith("2,0,0,1,-3,")


def test_verify_criterion_exit_zero(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "criterion", "--max", "2")
    assert code == 0
    assert "PASS: 0 failing check(s)" in out


def test_verify_identities(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "identities",
                        "--order", "40")
    assert code == 0
    assert "sign corrected" in out
    assert "off by exactly 128 E_odd" in out


def test_verify_tables_and_swcurves(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "tables")
    assert code == 0
    code, out = run_cli(capsys, "verify", "--suite", "swcurves", "--order", "16")
    assert code == 0


def test_swcheck(capsys):
    code, out = run_cli(capsys, "swcheck", "--nf", "0", "--order", "12")
    assert code == 0
    assert "weierstrass" in out and "FAIL" not in out


def test_hurwitz_output(capsys):
    code, out = run_cli(capsys, "hurwitz", "--max", "7")
    assert code == 0
    assert "H(3) = 1/3" in out and "H(7) = 1" in out


def test_nf4_output(capsys):
    code, out = run_cli(capsys, "nf4", "--order", "3", "--terms", "3")
    assert code == 0
    assert out.startswith("q^(1/2) * (3 + 66*q + 639*q^2")


def test_determinism(capsys):
    _, first = run_cli(capsys, "invariants", "--nf", "3", "--max-weight", "1",
                       "--format", "json")
    _, second = run_cli(capsys, "invariants", "--nf", "3", "--max-weight", "1",
                        "--format", "json")
    assert first == second


def test_threads_env_var(monkeypatch, capsys):
    """QDONALD_THREADS caps the table worker pool without changing output."""
    _, serial = run_cli(capsys, "invariants", "--nf", "0", "--max-weight", "2",
                        "--format", "json")
    monkeypatch.setenv("QDONALD_THREADS", "4")
    _, pooled = run_cli(capsys, "invariants", "--nf", "0", "--max-weight", "2",
                        "--format", "json")
    assert serial == pooled


@pytest.mark.parametrize("argv", [
    ["invariants", "--nf", "5"],
    ["series", "--name", "nope"],
    ["series", "--name", "eta", "--order", "abc"],
    ["series", "--name", "eta", "--order", "1/0"],
    ["series", "--name", "eta", "--order", "-5"],
    ["series", "--name", "fm:x"],
    ["series", "--name", "fm:-1"],
    ["series", "--name", "Ft:3"],
    ["series", "--name", "calFt:x"],
    ["series", "--name", "ebracket:1"],
    ["series", "--name", "ebracket:1,2"],
    ["swcheck", "--nf", "0", "--order", "-4"],
    ["hurwitz", "--max", "-3"],
    ["goettsche", "--max-weight", "-2"],
    ["invariants", "--nf", "0", "--max-weight", "x"],
    ["verify", "--suite", "criterion", "--max", "-1"],
])
def test_usage_error_exit_code(argv, capsys):
    """Bad input exits 2 with one error line on stderr, before any output."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "error:" in captured.err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out = run_cli(capsys, "invariants", "--nf", "0", "--max-weight", "0",
                        "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["rows"][0]["value"] == "-1"
