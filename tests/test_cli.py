"""Command-line interface: output formats, exit codes, determinism."""

import gc
import json
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction as F
from functools import partial
from math import gcd
from pathlib import Path

import pytest
from conftest import theta_forbidden
from counters import (MEMO_KEYS, clear_memos, constructors,
                      counting_memo_builds, stored)

import qdonald
from qdonald import QSeries, cli, forms, invariants, mock, series, sw
from qdonald.cli import COMMANDS, UsageError, _series_name, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_series_qplus_text(capsys):
    code, out = run_cli(capsys, "series", "--name", "Qplus", "--order", "5")
    assert code == 0
    assert out.startswith(
        "q^(-1/8) * (1 + 28*q^(1/2) + 39*q + 196*q^(3/2) + 161*q^2")


@pytest.mark.parametrize("argv", [["series", "--name", "eta"], ["nf4"]],
                         ids=" ".join)
def test_text_of_a_window_with_no_known_term(argv, capsys):
    """At order 0 no term of eta or of the nf = 4 partition function is
    known: the text says so with ' ...' instead of a bare exact 0."""
    code, out = run_cli(capsys, *argv, "--order", "0")
    assert (code, out) == (0, "0 ...\n")


def test_series_json_roundtrip(capsys):
    code, out = run_cli(capsys, "series", "--name", "QcalQ", "--order", "12",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ram"] == 1
    assert ["-1", "1"] in payload["coeffs"]
    assert ["3", "28"] in payload["coeffs"]


def test_series_prints_coefficients_of_any_length(capsys):
    """Ft:10000 to q^3 holds -3^10000, of 4772 digits, and four longer
    coefficients, past str's limit on int digits (4300 by default): both
    formats exit 0 and print every coefficient in full, as the decimal
    module writes the exact value, and the process-wide limit is left as it
    was."""
    limit = sys.get_int_max_str_digits()
    terms = list(mock.f_t(10000, 3).terms())
    assert {c.denominator for _, c in terms} == {1}
    want = [str(Decimal(c.numerator)) for _, c in terms]
    assert want[1] == str(Decimal(-3 ** 10000))
    assert [len(w) > limit for w in want] == [False] + [True] * 5
    argv = ["series", "--name", "Ft:10000", "--order", "3"]
    assert main([*argv, "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert [c for _, c in json.loads(out)["coeffs"]] == want and err == ""
    assert main(argv) == 0
    out, err = capsys.readouterr()
    body = out.split(" * (", 1)[1].removesuffix(" ...)\n")
    printed = body.replace(" - ", " -").replace(" + ", " ").split(" ")
    assert [term.split("*")[0] for term in printed] == want and err == ""
    assert sys.get_int_max_str_digits() == limit


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
    assert [r["monomial"] for r in payload["rows"]] == [
        "1", "S^2", "p", "S^4", "p S^2", "p^2"]
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


def _verify_records(monkeypatch, capsys, *argv) -> tuple:
    """(exit code, check records) of ``verify argv``: the records, in
    order, that ``cmd_verify`` hands to ``cli._report``."""
    seen = []
    report = cli._report

    def keep(records, out, summary):
        records = list(records)
        seen.extend(record for _, record in records)
        return report(records, out, summary)
    monkeypatch.setattr(cli, "_report", keep)
    code, _ = run_cli(capsys, "verify", *argv)
    return code, seen


@pytest.mark.parametrize("order", [64, 80])
def test_identity_residuals_reach_the_order(order, monkeypatch, capsys):
    """Every vanishing check of the identities suite proves its residual
    zero as far as the suite asks: below q^order, q^(order/2) for FasMu and
    q^(order/8) for the two Z checks."""
    code, records = _verify_records(monkeypatch, capsys, "--suite",
                                    "identities", "--order", str(order))
    residuals = [(label, window) for label, _, _, window in records
                 if not label.startswith("constant term")]
    assert code == 0 and len(residuals) == 14
    for label, prec in residuals:
        want = F(order, 2) if label.startswith("FasMu") else \
            F(order, 8) if "Z(tau" in label else order
        assert prec is None or prec >= want, (label, prec)


def test_identities_build_each_factor_as_far_as_it_is_read(monkeypatch,
                                                           capsys):
    """The suite asks each memoized series for its widest window first, so
    h is built once, and asks f_m only as far as the constant term of Z0
    f_m reads it: below q^2, as Z0 = q^-1 + ...."""
    quotient, fm = forms.eta_quotient, forms.form_fm
    h_builds, fm_asks = [], []

    def count(factors, prec):
        if sorted(map(tuple, factors)) == [(2, 4), (4, -8)]:
            h_builds.append(prec)
        return quotient(factors, prec)

    def ask(m, prec):
        fm_asks.append((m, prec))
        return fm(m, prec)
    clear_memos()
    monkeypatch.setattr(forms, "eta_quotient", count)
    monkeypatch.setattr(forms, "form_fm", ask)
    code, _ = run_cli(capsys, "verify", "--suite", "identities", "--order",
                      "64")
    assert code == 0 and len(h_builds) == 1
    assert sorted(m for m, _ in fm_asks) == list(range(7))
    assert all(prec <= 2 for _, prec in fm_asks)


@pytest.mark.parametrize("order", ["0", "8", "14", "30"])
def test_identities_build_calq_once(order, memo_builds, capsys):
    """z reads calQ below q^(order + 4/3), and QasMu and the check of Z0's
    definition below q^order; Z0 itself is built from E* and eta and reads
    no calQ.  z asks first, at the widest window, so calQ and each series
    it is made of is built once at every order."""
    code, _ = run_cli(capsys, "verify", "--suite", "identities", "--order",
                      order)
    assert code == 0
    assert [memo_builds[name, ()] for name in
            ("cal_q", "mock_m", "form_a38", "form_a78")] == [1, 1, 1, 1]


def test_identities_build_the_f_m_thetas_once(capsys):
    """The seven f_m are eta quotients times powers of E*(4 tau) and read no
    theta constant: the suite asks for each f_m once and builds the E* that
    they share with h once, and built anew as far as the suite reads them,
    below q^2, they call no theta constant."""
    with counting_memo_builds() as (builds, requests):
        code, _ = run_cli(capsys, "verify", "--suite", "identities",
                          "--order", "30")
    assert code == 0
    assert [requests["form_fm", (m,)] for m in range(7)] + \
        [builds["eisenstein_estar", ()]] == [1] * 8
    clear_memos()
    with theta_forbidden():
        for m in range(7):
            forms.form_fm(m, 2)


def test_z0_builds_its_closed_form_only(memo_builds, capsys):
    """``series --name Z0`` builds E* and eta(8 tau)^-3 and nothing of the
    paper's mock definition: no calQ, calF0 or 1/Theta4."""
    code, _ = run_cli(capsys, "series", "--name", "Z0", "--order", "600")
    assert code == 0
    assert memo_builds == {("eisenstein_estar", ()): 1,
                           ("_eta_quotient", (((8, -3),),)): 1}


@pytest.mark.parametrize("argv", [
    ["nf4", "--order", "12"],
    ["series", "--name", "QtransS", "--order", "25"],
    ["verify", "--suite", "criterion", "--max", "3"],
    ["swcheck", "--nf", "0", "--order", "24"],
    ["swcheck", "--nf", "2", "--order", "24"],
    ["swcheck", "--nf", "2", "--order", "0"],
    ["swcheck", "--nf", "2", "--order", "1"],
    ["swcheck", "--nf", "3", "--order", "24"],
    ["swcheck", "--nf", "3", "--order", "0"],
    ["swcheck", "--nf", "3", "--order", "2"],
    ["verify", "--suite", "identities", "--order", "30"],
    ["verify", "--suite", "identities", "--order", "40"],
    ["verify", "--suite", "identities", "--order", "0"],
    ["verify", "--suite", "identities", "--order", "3"],
    ["verify", "--suite", "identities", "--order", "6"],
    ["series", "--name", "Z0", "--order", "600"],
    ["invariants", "--nf", "3", "--max-weight", "5"],
], ids=["nf4", "QtransS", "criterion", "swcheck-nf0", "swcheck-nf2",
        "swcheck-nf2-order0", "swcheck-nf2-order1", "swcheck-nf3",
        "swcheck-nf3-order0", "swcheck-nf3-order2", "identities-order30",
        "identities-order40", "identities-order0", "identities-order3",
        "identities-order6", "Z0-order600", "invariants-nf3"])
def test_commands_build_each_series_once(argv, memo_builds, capsys):
    """No memoized series is built twice.  Three requests are ordered for
    it: the criterion asks the nf=0 kernels, whose E* and E2 reach further,
    before Goettsche's; swcheck at nf=3 asks the curve's eta quotients at
    the wider of the two charts' windows; and the identities suite asks
    eta^3 and h, at order 13/2 at least, so that h builds E* as far as f_6
    reads it, before calQ, Z0 and the f_m."""
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    assert memo_builds and set(memo_builds.values()) == {1}, memo_builds


# one or two valid parameters for each parameterized series kind
SERIES_PARAMS = {"fm": ["0", "3"], "Ft": ["0", "2"], "calFt": ["0", "4"],
                 "ebracket": ["1,0", "2,1"]}
SERIES_NAMES = [name for kind, entry in cli._series_table().items()
                for name in ([kind] if callable(entry) else
                             [f"{kind}:{p}" for p in SERIES_PARAMS[kind]])]


@pytest.mark.parametrize("name", SERIES_NAMES)
def test_every_series_name_at_two_orders(name):
    """Every series name, built anew at a low and a high order, reaches the
    low order and agrees with the high build on the low build's window."""
    build = _series_name(name)
    for low, high in ((0, F(17, 8)), (F(1, 3), F(31, 4)), (F(17, 8), 12),
                      (F(31, 4), 30)):
        clear_memos()
        lo = build(low)
        clear_memos()
        hi = build(high)
        assert lo.prec_q() >= low and hi.prec_q() >= lo.prec_q()
        assert list(lo.terms()) == list(hi.truncate(lo.prec_q()).terms())


MEMO_ORDERS = [-3, -1, F(-1, 2), F(-1, 8)]
NAME_ORDERS = [0, F(1, 24), F(1, 8), F(1, 3), F(1, 2), 1, F(5, 2), F(17, 3), 7]
HISTORY_CASES = [
    *(pytest.param(partial(fn, *key), order,
                   id=f"{name}{list(key) if key else ''}-{order}".replace(
                       " ", ""))
      for _, name, fn in constructors() for key in MEMO_KEYS[name]
      for order in MEMO_ORDERS + NAME_ORDERS),
    # calF_t as its callers ask for it, through the index check before its memo
    *(pytest.param(partial(mock.cal_f, t), order, id=f"cal_f[{t}]-{order}")
      for t in (0, 2) for order in MEMO_ORDERS + NAME_ORDERS),
    *(pytest.param(_series_name(name), order, id=f"{name}-{order}")
      for name in SERIES_NAMES for order in NAME_ORDERS)]


@pytest.mark.parametrize("build, order", HISTORY_CASES)
def test_stored_form_ignores_memo_history(build, order):
    """A series is stored as (ram, lead, prec, den, nums) alike whether it is
    built anew or served from a memo entry built at order 40; one that holds
    no entry is built anew from the entries its build reads at order 40."""
    clear_memos()
    fresh = build(order)
    clear_memos()
    build(40)
    assert stored(build(order)) == stored(fresh)


DIVISOR_ARGV = [
    *(["series", "--name", name, "--order", order]
      for name in SERIES_NAMES for order in ("1/3", "12")),
    *(["invariants", "--nf", nf, "--max-weight", "6"] for nf in "023"),
    ["goettsche", "--max-weight", "6"], ["nf4", "--order", "12"],
    ["verify", "--suite", "criterion", "--max", "3"],
    ["verify", "--suite", "identities", "--order", "30"],
    ["verify", "--suite", "tables"], ["verify", "--suite", "nf4"],
    *(["swcheck", "--nf", nf, "--order", "12"] for nf in "023"),
    ["verify", "--suite", "swcurves"]]


def test_production_divisors_are_euler_products(monkeypatch, capsys):
    """Every base that a production command raises to a negative power, an
    inverse included, is an Euler product P(q^d): after the sublattice step
    of ``exact.int_power`` it is the pentagonal +-1 sequence of
    ``forms.euler_product``.  The commands are every series name at two
    orders, the u-plane tables for nf = 0, 2 and 3, Goettsche, nf4,
    ``swcheck`` for nf = 0, 2 and 3, and the criterion, identities, tables,
    nf4 and swcurves suites."""
    bases = []
    power = series.int_power

    def recorded(u, r, n):
        # a base known only at its constant term lies on every sublattice
        bases.append(u[::gcd(*(k for k, v in enumerate(u) if v)) or len(u)])
        return power(u, r, n)
    monkeypatch.setattr(series, "int_power", recorded)
    for argv in DIVISOR_ARGV:
        clear_memos()
        assert run_cli(capsys, *argv)[0] == 0, argv
    assert len(bases) > 100
    for base in bases:
        assert list(base) == list(forms.euler_product(len(base)).nums)


@pytest.mark.parametrize("order", ["0", "1/3", "1", "8", "15"])
def test_identities_run_below_the_kernel_poles(order, capsys):
    """Orders below 16 run every check and pass: each factor of a constant
    term or of the Delta quotient is built past the other factor's pole,
    not only to the order itself."""
    code, out = run_cli(capsys, "verify", "--suite", "identities",
                        "--order", order)
    lines = out.splitlines()
    assert code == 0 and lines[-1] == "PASS: 0 failing check(s)"
    assert len(lines) == 22
    assert all(line.endswith(": ok") for line in lines[:-1]), out


def _whole(records) -> list:
    """(label, window) of the residuals checked over their whole window:
    all but the contact term and the leading constant, which are read
    below their thresholds."""
    return [(label, window) for label, _, _, window in records
            if not label.split(": ")[-1].startswith(("contact term",
                                                      "leading constant"))]


@pytest.mark.parametrize("nf, order", [(nf, order) for nf in (0, 2, 3)
                                       for order in (F(17, 2), 40)], ids=str)
def test_swcheck_residuals_reach_the_order(nf, order):
    """Every residual of sw.check_family that is checked over its whole
    window is known below q^order; the contact term and the leading
    constant are read only below their thresholds."""
    records = sw.check_family(nf, order)
    assert all(ok for _, ok, _, _ in records)
    whole = _whole(records)
    assert len(whole) == (4 if nf else 3)
    for label, prec in whole:
        assert prec is None or prec >= order, (label, prec)
    cut = {label: window for label, _, _, window in records}
    assert cut["contact term T=O(1/u)"] == F(1, 4 - nf)
    assert cut.get("leading constant c0=-1/16", 0) == 0


@pytest.mark.parametrize("order", ["8", "40"])
def test_nf4_residual_reaches_the_capped_order(order, monkeypatch, capsys):
    """verify --suite nf4 checks its residual known below min(order, 16)."""
    code, records = _verify_records(monkeypatch, capsys, "--suite", "nf4",
                                    "--order", order)
    residuals = [window for label, _, _, window in records
                 if label.startswith("nf4 partition")]
    assert code == 0 and len(residuals) == 1
    assert residuals[0] >= min(int(order), 16), records


@pytest.mark.parametrize("order", [F(17, 2), 40], ids=str)
def test_swcurves_residuals_reach_the_capped_order(order, monkeypatch,
                                                   capsys):
    """verify --suite swcurves checks every residual of the three families
    that is read over its whole window known below min(order, 24)."""
    code, records = _verify_records(monkeypatch, capsys, "--suite",
                                    "swcurves", "--order", str(order))
    whole = _whole(records)
    assert code == 0 and len(whole) == 3 + 4 + 4
    for label, prec in whole:
        assert prec is None or prec >= min(order, 24), (label, prec)


def test_verify_tables_and_swcurves(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "tables")
    assert code == 0
    code, out = run_cli(capsys, "verify", "--suite", "swcurves", "--order", "16")
    assert code == 0


def test_swcheck(capsys):
    code, out = run_cli(capsys, "swcheck", "--nf", "0", "--order", "12")
    assert code == 0
    assert "weierstrass" in out and "FAIL" not in out


def test_verify_failure_contract(monkeypatch, capsys):
    """A check that sees a nonzero series prints FAIL with its first
    nonzero exponent, the summary counts it, and the exit code is 1."""
    build = invariants.nf4_partition
    monkeypatch.setattr(invariants, "nf4_partition",
                        lambda p: build(p) + QSeries.monomial(F(5, 4)))
    code, out = run_cli(capsys, "verify", "--suite", "nf4", "--order", "4")
    assert code == 1
    assert out.splitlines() == [
        "[nf4] nf4 partition invariant under tau -> tau+2: FAIL "
        "(first failing exponent 5/4)",
        "[nf4] Vafa-Witten series q + 9q^2 + 48q^3 + ...: ok",
        "FAIL: 1 failing check(s)",
    ]


def test_swcheck_failure_contract(monkeypatch, capsys):
    """swcheck prints the FAIL line with its exponent, no summary line, and
    exits 1."""
    build = forms.delta
    monkeypatch.setattr(forms, "delta",
                        lambda p: build(p) + QSeries.monomial(3))
    code, out = run_cli(capsys, "swcheck", "--nf", "0", "--order", "12")
    assert code == 1
    assert out.splitlines() == [
        "nf=0 weierstrass g2^3-27g3^2=Delta: ok",
        "nf=0 discriminant Delta*(omega/pi)^12=eta^24: FAIL "
        "(first failing exponent 3)",
        "nf=0 contact term T=O(1/u): ok",
        "nf=0 picard-fuchs d(a)/du=omega: ok",
    ]


def test_short_window_exits_one(monkeypatch, capsys):
    """A window too short, here an inverse whose known window is empty, is
    one stderr line that asks for a larger order, exit 1 and no stdout."""
    monkeypatch.setattr(forms, "delta",
                        lambda p: QSeries.monomial(5).inverse(-5))
    code = main(["series", "--name", "Delta", "--order", "4"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.splitlines() == [
        "insufficient precision: inverse has an empty known window; retry "
        "with a larger --order"]


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
    """QDONALD_THREADS is ignored: setting it leaves the output unchanged."""
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
    ["series", "--name", "eta", "--order", "5", "--terms", "0"],
    ["nf4", "--order", "3", "--terms", "-1"],
    [],
    ["nope"],
    ["series", "--name"],
    ["series", "--name", "eta", "--bogus", "1"],
    ["series", "--name", "eta", "stray"],
    ["series", "--name", "eta", "--format", "xml"],
    ["invariants"],
    ["verify", "--suite", "nope"],
    ["series", "--nam", "eta"],
    ["series", "--name", "eta", "--order", "5", "--terms",
     "100000000000000000000"],
    ["nf4", "--terms", "100000000000000000000"],
    ["hurwitz", "--max", "100000000000000000000"],
    ["hurwitz", "--max", "9223372036854775807"],
    ["hurwitz", "--max", "4611686018427387904"],
    ["series", "--name", "E2", "--order", "1e30"],
    ["series", "--name", "E2", "--order", "9223372036854775808"],
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


def test_a_bad_choice_lists_the_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "--nf", "x"])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", "qdonald invariants: error: argument "
                                   "--nf: invalid choice 'x' (choose from "
                                   "0, 2, 3)\n")


def test_out_of_memory_is_a_usage_error():
    """A valid order too large for memory is a usage error, not a traceback:
    in a child that lowers only its own address-space limit, to 400 MB,
    ``series --name eta --order 10^12`` exits 2 with one stderr line and no
    stdout."""
    resource = pytest.importorskip("resource")

    def lower_own_limit():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2 ** 20, hard))

    src = str(Path(qdonald.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "from qdonald.cli import main; sys.exit(main())")
    run = subprocess.run([sys.executable, "-I", "-c", code, "series",
                          "--name", "eta", "--order", "1000000000000"],
                         capture_output=True, text=True,
                         preexec_fn=lower_own_limit)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.splitlines() == [
        "qdonald series: error: out of memory: retry with a smaller order "
        "or bound"]


def test_option_grammar(capsys):
    """``--option=value`` reads as ``--option value``, and a repeated option
    keeps its last value."""
    _, spaced = run_cli(capsys, "series", "--name", "eta", "--order", "5")
    _, joined = run_cli(capsys, "series", "--name", "eta", "--order=5")
    assert spaced == joined
    _, repeated = run_cli(capsys, "series", "--name", "Delta", "--order",
                          "9", "--name=eta", "--order", "5")
    assert repeated == spaced


def test_help_lists_table(capsys):
    """``--help`` names every command and ``series --help`` every option of
    ``series``; both exit 0 and print only to stdout."""
    assert main(["--help"]) == 0
    listing = capsys.readouterr()
    assert listing.err == "" and len(COMMANDS) == 7
    assert all(name in listing.out for name in COMMANDS)
    assert main(["series", "--help"]) == 0
    listing = capsys.readouterr()
    assert listing.err == ""
    assert all(flag in listing.out for flag in
               ("--name", "--order", "--terms", "--format", "--out"))


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out = run_cli(capsys, "invariants", "--nf", "0", "--max-weight", "0",
                        "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["rows"][0]["value"] == "-1"
    missing = tmp_path / "missing" / "table.json"
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "--nf", "0", "--max-weight", "0", "--out",
              str(missing)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "error:" in captured.err and "Traceback" not in captured.err
    assert not missing.parent.exists()


def test_series_name_registry():
    assert (_series_name("theta2")(20) - forms.theta_big(2, 20)).is_zero()
    assert (_series_name("fm:2")(12) - forms.form_fm(2, 12)).is_zero()
    assert (_series_name("Delta")(6) - forms.eta_quotient([(1, 24)], 6)).is_zero()
    with pytest.raises(UsageError):
        _series_name("nope")


def test_constructor_precision_is_honored():
    for name in ("eta", "theta2", "E2", "A", "h"):
        for prec in (17, F(35, 2)):
            s = _series_name(name)(prec)
            assert s.prec_q() >= prec


def _fresh_modules(code: str) -> set:
    """The modules loaded after running ``code`` in a fresh ``python -I``
    with this checkout's ``qdonald`` on the path."""
    src = str(Path(qdonald.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); {code}; "
            "print(' '.join(sys.modules))")
    out = subprocess.run([sys.executable, "-I", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return set(out.splitlines()[-1].split())


def test_import_pulls_in_no_dataclasses_or_inspect():
    """A fresh ``import qdonald.cli`` loads no argument parser, no output
    format module, neither dataclasses nor inspect (nor, through them, ast
    and dis), and no ``__future__``, each of which would add to every
    command's start-up time."""
    loaded = _fresh_modules("import qdonald.cli")
    assert not loaded & {"argparse", "gettext", "json", "csv", "dataclasses",
                         "inspect", "__future__"}


def test_text_command_loads_no_format_module():
    """A text job parses its command line and writes its output without
    argparse, json or csv."""
    loaded = _fresh_modules("import qdonald.cli; qdonald.cli.main("
                            "['swcheck', '--nf', '0', '--order', '8'])")
    assert "qdonald.sw" in loaded
    assert not loaded & {"argparse", "json", "csv"}


def _exit_finalizes_cycles(imports: str) -> bool:
    """Whether a fresh ``python -I`` that runs ``import <imports>`` finalizes
    at exit an unreachable reference cycle left with gc disabled: only the
    collections of interpreter shutdown can reach it."""
    src = str(Path(qdonald.__file__).resolve().parent.parent)
    code = (f"import gc, sys; sys.path.insert(0, {src!r}); import {imports}\n"
            "gc.disable()\n"
            "class Cycle:\n"
            "    def __del__(self):\n"
            "        print('finalized')\n"
            "cycle = Cycle(); cycle.self = cycle; del cycle\n")
    out = subprocess.run([sys.executable, "-I", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out in ("", "finalized\n"), out
    return out == "finalized\n"


def test_cli_exit_skips_the_cyclic_collection():
    """``import qdonald.cli`` registers ``gc.freeze`` at exit, so shutdown
    walks no object left from the command: cyclic garbage still alive at
    exit is not finalized."""
    assert not _exit_finalizes_cycles("qdonald.cli")


def test_library_leaves_the_exit_collection():
    """The package and its library modules leave gc alone: after importing
    all of them but the CLI, the same cycle is finalized at exit."""
    assert _exit_finalizes_cycles("qdonald.exact, qdonald.series, "
                                  "qdonald.forms, qdonald.mock, "
                                  "qdonald.invariants, qdonald.sw")


def test_main_leaves_the_collector_as_it_was(capsys):
    """The exit hook acts only at exit: after ``main`` returns, nothing is
    frozen, and the collector is enabled or not with the thresholds it had
    before."""
    before = gc.isenabled(), gc.get_threshold()
    code, _ = run_cli(capsys, "swcheck", "--nf", "2", "--order", "8")
    assert code == 0
    assert gc.get_freeze_count() == 0
    assert (gc.isenabled(), gc.get_threshold()) == before
