"""Command-line front end: series printing, tables, verification suites.

Output is deterministic: identical invocations produce byte-identical text.
Exit codes: 0 success, 1 verification failure, 2 usage error.  A usage
error (an unknown series name, a malformed or negative order or bound) is
one line on stderr, reported before anything is computed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import forms, invariants, mock, sw
from .series import InsufficientPrecision, QSeries


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument types

# parametrized series names: (parameter count, validity test, usage)
_PARAM_NAMES = {
    "fm": (1, lambda m: m >= 0, "fm:<m> needs an integer m >= 0"),
    "Ft": (1, lambda t: t >= 0 and t % 2 == 0,
           "Ft:<t> needs an even integer t >= 0"),
    "calFt": (1, lambda t: t >= 0 and t % 2 == 0,
              "calFt:<t> needs an even integer t >= 0"),
    "ebracket": (2, lambda i, j: 0 <= j <= i,
                 "ebracket:<i>,<j> needs integers 0 <= j <= i"),
}


def _series_name(text: str) -> str:
    """A name ``_series_by_name`` resolves, with well-formed parameters."""
    kind, sep, arg = text.partition(":")
    if not sep and (text in _plain_series() or text in forms.FORM_NAMES):
        return text
    if sep and kind in _PARAM_NAMES:
        count, valid, usage = _PARAM_NAMES[kind]
        try:
            params = [int(x) for x in arg.split(",")]
        except ValueError:
            params = []
        if len(params) == count and valid(*params):
            return text
        raise argparse.ArgumentTypeError(f"bad series name {text!r}: {usage}")
    raise argparse.ArgumentTypeError(f"unknown series name {text!r}")


def _non_negative(parse, what: str):
    """An argparse type: ``parse`` the text and reject negative values."""
    def convert(text: str):
        try:
            value = parse(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(
                f"invalid {what} {text!r}") from None
        if value < 0:
            raise argparse.ArgumentTypeError(f"{what} must be >= 0, got {text}")
        return value
    return convert


_order = _non_negative(Fraction, "order")  # a rational such as 60 or 5/2
_bound = _non_negative(int, "bound")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# series resolution

def _plain_series() -> dict:
    """Parameter-free series names outside ``forms`` and their constructors."""
    return {"M": mock.mock_m, "Qplus": mock.q_plus, "QcalQ": mock.cal_q,
            "QtransS": mock.q_transform_s, "Z0": invariants.z0_series}


def _series_by_name(name: str, order) -> QSeries:
    plain = _plain_series()
    if name in plain:
        return plain[name](order)
    if name.startswith("Ft:"):
        return mock.f_t(int(name.split(":", 1)[1]), order)
    if name.startswith("calFt:"):
        return mock.cal_f(int(name.split(":", 1)[1]), order)
    if name.startswith("ebracket:"):
        i, j = (int(x) for x in name.split(":", 1)[1].split(","))
        return mock.e_bracket(i, j, order)
    return forms.by_name(name, order)


def cmd_series(args) -> int:
    series = _series_by_name(args.name, args.order)
    if args.format == "json":
        _emit(json.dumps(series.to_json_dict()) + "\n", args.out)
    else:
        _emit(series.to_text(max_terms=args.terms) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# tables

def _format_table(nf: int, rows, fmt: str) -> str:
    if fmt == "json":
        payload = {"nf": nf, "rows": [
            {"m": m, "n": n, "monomial": label, "value": str(cell.value),
             "h_combo": [[f"H{a}", str(w)] for a, w in cell.h_combo]}
            for m, n, label, cell in rows]}
        return json.dumps(payload) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["nf", "m", "n", "monomial", "value", "h_combo"])
        for m, n, label, cell in rows:
            combo = "+".join(f"({w})*H{a}" for a, w in cell.h_combo) or "0"
            writer.writerow([nf, m, n, label, str(cell.value), combo])
        return buf.getvalue()
    lines = [f"# u-plane invariants, nf={nf}"]
    for m, n, label, cell in rows:
        combo = " + ".join(f"({w})*H{a}" for a, w in cell.h_combo) or "0"
        lines.append(f"{label:<12} {str(cell.value):>16}   = {combo}")
    return "\n".join(lines) + "\n"


def cmd_invariants(args) -> int:
    rows = invariants.invariant_table(args.nf, args.max_weight)
    _emit(_format_table(args.nf, rows, args.format), args.out)
    return 0


def cmd_goettsche(args) -> int:
    rows = invariants.goettsche_table(args.max_weight)
    if args.format == "json":
        payload = {"rows": [
            {"k": k, "m": m, "n": n, "monomial": label, "value": str(v)}
            for k, m, n, label, v in rows]}
        _emit(json.dumps(payload) + "\n", args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["k", "m", "n", "monomial", "value"])
        for k, m, n, label, v in rows:
            writer.writerow([k, m, n, label, str(v)])
        _emit(buf.getvalue(), args.out)
    else:
        lines = [f"k={k} {label:<12} {v}" for k, m, n, label, v in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_hurwitz(args) -> int:
    values = invariants.hurwitz(args.max)
    if args.format == "json":
        _emit(json.dumps({str(n): str(v) for n, v in enumerate(values)}) + "\n",
              args.out)
    else:
        _emit("\n".join(f"H({n}) = {v}" for n, v in enumerate(values)) + "\n",
              args.out)
    return 0


def cmd_nf4(args) -> int:
    series = invariants.nf4_partition(args.order)
    _emit(series.to_text(max_terms=args.terms) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# verification

def _first_bad(series: QSeries):
    for e, _ in series.terms():
        return e
    return None


def _suite_criterion(max_weight: int, order) -> list:
    checks = []
    for weight in range(max_weight + 1):
        for m in range(weight + 1):
            n = weight - m
            ok = invariants.criterion_check(m, n)
            checks.append((f"criterion constant term ({m},{n})", ok, None))
    return checks


def _suite_identities(order) -> list:
    p = Fraction(order)
    checks = []

    def zero_check(name, series):
        bad = _first_bad(series)
        checks.append((name, bad is None, bad))

    q = mock.cal_q(p)
    zero_check("QasMu: calQ + 7/2 A38 - 3/2 A78 + 1/2 B - 4M",
               q - 4 * mock.mock_m(p) + Fraction(7, 2) * forms.form_a38(p)
               - Fraction(3, 2) * forms.form_a78(p) + Fraction(1, 2) * forms.form_b(p))
    for t in (0, 2, 4):
        lhs = mock.cal_f(t, p / 2 + 2) * forms.theta_big(4, p / 2 + 2).inverse()
        zero_check(f"FasMu t={t}", (lhs - mock.lerch_mu_weighted(t, p / 2)).truncate(p / 2))
    zero_check("Z0 = E*(4tau)/eta(8tau)^3",
               invariants.z0_series(p) - invariants.z0_closed_form(p))
    z0 = invariants.z0_series(p)
    for m_kernel in range(7):
        ct = (z0 * forms.form_fm(m_kernel, p)).constant_term()
        checks.append((f"constant term of Z0 f_{m_kernel}", ct == 0, None))
    h = forms.form_h(p)
    est2 = forms.eisenstein_estar(p / 2 + 2).rescale(2, 1)
    eodd = forms.eisenstein_eodd(p + 4)
    zero_check("h ODE: qdq(h) = -E*(2tau) h + 64 E_odd",
               h.qdq(1) + est2 * h - 64 * eodd)
    zero_check("h ODE: qdq(h) = -E_odd (h^2 - 64)  [sign corrected]",
               h.qdq(1) + eodd * (h ** 2 - 64))
    printed_defect = (h.qdq(1) + eodd * (h ** 2 + 64)) - 128 * eodd
    zero_check("h ODE as printed is off by exactly 128 E_odd", printed_defect)
    zero_check("Delta(2tau)/Delta(4tau) = h^2 - 64",
               forms.delta(p).rescale(2, 1) * forms.delta(p).rescale(4, 1).inverse()
               - (h ** 2 - 64))
    zero_check("Jacobi: vtheta3^4 - vtheta4^4 - vtheta2^4",
               forms.vartheta(3, p) ** 4 - forms.vartheta(4, p) ** 4
               - forms.vartheta(2, p) ** 4)
    zero_check("2 eta^3 = vtheta2 vtheta3 vtheta4",
               2 * forms.eta_power(1, 3, p)
               - forms.vartheta(2, p) * forms.vartheta(3, p) * forms.vartheta(4, p))
    zero_check("16 Theta2^4 + Theta3^4 = E*(4tau)",
               16 * forms.theta_big(2, p) ** 4 + forms.theta_big(3, p) ** 4
               - forms.eisenstein_estar(p / 4 + 1).rescale(4, 1))
    z = invariants.z_bold(p / 8)
    zero_check("Z(tau) - Z(tau+1) = 14 eta^4 rho^4",
               (z - z.shift_tau(1) - 56 * forms.eta_quotient([(2, 8), (1, -4)], p / 8)).demote())
    alt = (z - z.shift_tau(1) + z.shift_tau(2) - z.shift_tau(3)) \
        * forms.eta_power(1, -4, p / 8)
    zero_check("sum (-1)^k Z(tau+k)/eta^4 = 28 rho^4",
               (alt - 28 * invariants.rho4(p / 8)).demote())
    return checks


def _suite_swcurves(order) -> list:
    checks = []
    for nf in (0, 2, 3):
        for name, ok, bad in sw.check_family(nf, Fraction(order)):
            checks.append((f"nf={nf}: {name}", ok, bad))
    return checks


_TABLE_NF0 = {
    (0, 0): "-1",
    (0, 2): "-3/16", (1, 1): "-5/16", (2, 0): "-19/16",
    (0, 4): "-29/32", (1, 3): "-19/32", (2, 2): "-17/32",
    (3, 1): "-23/32", (4, 0): "-85/32",
    (0, 6): "-69525/4096", (1, 5): "-26907/4096", (2, 4): "-12853/4096",
    (3, 3): "-7803/4096", (4, 2): "-6357/4096", (5, 1): "-8155/4096",
    (6, 0): "-29557/4096",
}
_TABLE_NF2 = {
    (0, 0): "-3", (0, 1): "0", (1, 0): "0",
    (0, 2): "-21/16", (1, 1): "-27/16", (2, 0): "-53/16",
    (0, 3): "0", (1, 2): "0", (2, 1): "0", (3, 0): "0",
    (0, 4): "-3955/256", (1, 3): "-1925/256", (2, 2): "-1219/256",
    (3, 1): "-949/256", (4, 0): "-1811/256",
}
_TABLE_NF3 = {
    (0, 0): "-5/4", (0, 1): "-95/96", (1, 0): "45/32",
    (0, 2): "-1787/768", (1, 1): "201/256", (2, 0): "-489/256",
    (0, 3): "-189187/18432", (1, 2): "2211/2048", (2, 1): "-1627/2048",
    (3, 0): "5843/2048",
}


def _suite_tables() -> list:
    checks = []
    h = mock.h_coefficients(14)
    checks.append(("H_0..H_5 = 1, 28, 39, 196, 161, 756",
                   h[:6] == [1, 28, 39, 196, 161, 756], None))
    for nf, table in ((0, _TABLE_NF0), (2, _TABLE_NF2), (3, _TABLE_NF3)):
        for (m, n), expected in sorted(table.items()):
            cell = invariants.uplane_D(nf, m, n)
            ok = str(cell.value) == expected
            combo_ok = invariants.evaluate_h_combo(cell.h_combo, h) == cell.value
            checks.append((f"nf={nf} D[{m},{n}] = {expected}", ok, None))
            checks.append((f"nf={nf} combo[{m},{n}] evaluates", combo_ok, None))
    for (m, n), expected in sorted(_TABLE_NF0.items()):
        k = (m + n) // 2 + 1
        ok = str(invariants.goettsche_phi(k, m, n)) == expected
        checks.append((f"goettsche ({k},{m},{n}) = {expected}", ok, None))
    return checks


def _suite_nf4(order) -> list:
    p = Fraction(order)
    checks = []
    z4 = invariants.nf4_partition(p)
    diff = (z4.shift_tau(2) - z4).demote()
    bad = _first_bad(diff)
    checks.append(("nf4 partition invariant under tau -> tau+2",
                   bad is None, bad))
    vw = invariants.vafa_witten_series(8)
    expected = [1, 9, 48, 203, 729, 2346, 6918]
    got = [vw.coeff(Fraction(2 * k - 1, 2)) for k in range(1, 8)]
    checks.append(("Vafa-Witten series q + 9q^2 + 48q^3 + ...",
                   got == expected, None))
    return checks


def cmd_verify(args) -> int:
    suites = {
        "criterion": lambda: _suite_criterion(args.max, args.order),
        "identities": lambda: _suite_identities(args.order),
        "swcurves": lambda: _suite_swcurves(min(args.order, 24)),
        "tables": _suite_tables,
        "nf4": lambda: _suite_nf4(min(args.order, 16)),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    failures = 0
    lines = []
    for name in names:
        for label, ok, bad in suites[name]():
            status = "ok" if ok else "FAIL"
            extra = "" if ok or bad is None else f" (first failing exponent {bad})"
            lines.append(f"[{name}] {label}: {status}{extra}")
            if not ok:
                failures += 1
    lines.append(f"{'PASS' if failures == 0 else 'FAIL'}: "
                 f"{failures} failing check(s)")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if failures == 0 else 1


def cmd_swcheck(args) -> int:
    failures = 0
    lines = []
    for name, ok, bad in sw.check_family(args.nf, args.order):
        extra = "" if ok or bad is None else f" (first failing exponent {bad})"
        lines.append(f"nf={args.nf} {name}: {'ok' if ok else 'FAIL'}{extra}")
        if not ok:
            failures += 1
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qdonald",
        description="Exact q-series engine for mock theta functions and "
                    "Donaldson invariants of the projective plane.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("series", help="print a named q-series")
    p.add_argument("--name", type=_series_name, required=True)
    p.add_argument("--order", type=_order, default="60")
    p.add_argument("--terms", type=int, default=12)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("invariants", help="u-plane invariant table")
    p.add_argument("--nf", type=int, choices=(0, 2, 3), required=True)
    p.add_argument("--max-weight", type=_bound, default=4)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("goettsche", help="instanton-side invariant table")
    p.add_argument("--max-weight", type=_bound, default=4)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_goettsche)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all",
                   choices=("criterion", "identities", "swcurves", "tables",
                            "nf4", "all"))
    p.add_argument("--max", type=_bound, default=4,
                   help="criterion grid bound on m+n")
    p.add_argument("--order", type=_order, default="60")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("hurwitz", help="Hurwitz class numbers")
    p.add_argument("--max", type=_bound, default=24)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_hurwitz)

    p = sub.add_parser("nf4", help="conformal-point partition function")
    p.add_argument("--order", type=_order, default="8")
    p.add_argument("--terms", type=int, default=12)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_nf4)

    p = sub.add_parser("swcheck", help="Seiberg-Witten family identities")
    p.add_argument("--nf", type=int, choices=(0, 2, 3), required=True)
    p.add_argument("--order", type=_order, default="24")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_swcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InsufficientPrecision as exc:
        sys.stderr.write(f"insufficient precision: {exc}; retry with a "
                         f"larger --order\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
