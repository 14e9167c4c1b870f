"""Command-line front end: series printing, tables, verification suites.

Grammar: ``qdonald <command> [--option value | --option=value]...``, with
full option names only (no abbreviations); a repeated option keeps its last
value.  ``qdonald -h/--help`` lists the commands and ``qdonald <command>
-h/--help`` the options of one; both exit 0.  ``COMMANDS`` is the one table
that the parser and both listings read.

Output is deterministic: identical invocations produce byte-identical text.
Output integers have no digit limit: every coefficient and table value is
written in full through ``series.exact_str``, also past
``sys.get_int_max_str_digits()``, which is left unchanged.
Exit codes: 0 success, 1 verification failure, 2 usage error.  A usage
error (an unknown command or option, a missing value or option, an unknown
series name or one with the wrong count of int parameters, a parameter
that its constructor refuses with ``series.BadParameter``, a malformed or
negative order or bound, a ``--terms`` below 1, an order, bound or
``--terms`` above ``sys.maxsize``, a ``hurwitz --max`` whose table of class
numbers cannot be allocated, an ``--out`` file that cannot be written, a
command that runs out of memory) is one stderr line of the form
``qdonald[ <command>]: error: <message>``; all but the last two are
reported before anything is computed, as each constructor checks its
parameters first.  A window too short for the order exits 1 with one
stderr line that asks for a larger ``--order``.
"""

import atexit
import gc
import io
import sys
from fractions import Fraction
from functools import partial
from math import gcd
from types import SimpleNamespace

from . import forms, invariants, mock, sw
from .series import (BadParameter, InsufficientPrecision, exact_str,
                     factor_window)

# A command runs once and then the process exits: the collections of shutdown
# would only walk objects that the operating system reclaims anyway, and
# Python does not promise to run finalizers at exit, so exit skips them.
atexit.register(gc.freeze)


class UsageError(Exception):
    """Bad command-line input: ``main`` prints it as one stderr line and
    exits 2."""


def _emit(text: str, out: str) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"argument --out: cannot write {out!r}: "
                         f"{exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# argument types

def _series_table() -> dict:
    """Series names: a plain name maps to its constructor, a ``kind:<p>,...``
    kind to (count of int parameters, constructor), which checks their
    values.  Built per lookup, so the constructors are read from their
    modules at parse time."""
    return {
        "eta": forms.eta, "Delta": forms.delta,
        **{f"theta{i}": partial(forms.theta_big, i) for i in (2, 3, 4)},
        **{f"vtheta{i}": partial(forms.vartheta, i) for i in (2, 3, 4)},
        "E2": forms.eisenstein_e2, "Estar": forms.eisenstein_estar,
        "Eodd": forms.eisenstein_eodd, "A": forms.form_a, "B": forms.form_b,
        "A38": forms.form_a38, "A78": forms.form_a78, "h": forms.form_h,
        "M": mock.mock_m, "Qplus": mock.q_plus, "QcalQ": mock.cal_q,
        "QtransS": mock.q_transform_s, "Z0": invariants.z0_series,
        "fm": (1, forms.form_fm), "Ft": (1, mock.f_t),
        "calFt": (1, mock.cal_f), "ebracket": (2, mock.e_bracket),
    }


def _series_name(text: str):
    """The constructor, a function of the order, that a series name names."""
    kind, sep, arg = text.partition(":")
    entry = _series_table().get(kind)
    if not sep and callable(entry):
        return entry
    if sep and isinstance(entry, tuple):
        count, build = entry
        try:
            params = [int(x) for x in arg.split(",")]
        except ValueError:
            params = []
        if len(params) == count:
            return partial(build, *params)
        raise UsageError(f"bad series name {text!r}: {kind} takes {count} "
                         f"integer parameter(s)")
    raise UsageError(f"unknown series name {text!r}")


def _within(low: int, parse, what: str):
    """A converter: ``parse`` the text and reject values below ``low`` or
    above ``sys.maxsize``."""
    def convert(text: str):
        try:
            value = parse(text)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"invalid {what} {text!r}") from None
        if value < low:
            raise UsageError(f"{what} must be >= {low}, got {text}")
        if value > sys.maxsize:
            raise UsageError(f"{what} must be <= {sys.maxsize}, got {text}")
        return value
    return convert


_order = _within(0, Fraction, "order")  # such as 60 or 5/2
_bound = _within(0, int, "bound")
_terms = _within(1, int, "terms")


def cmd_series(args) -> int:
    series = args.name(args.order)
    if args.format == "json":
        import json
        _emit(json.dumps(series.to_json_dict()) + "\n", args.out)
    else:
        _emit(series.to_text(max_terms=args.terms) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# tables

def _combo(pairs, sep: str) -> str:
    return sep.join(f"({w})*{a}" for a, w in pairs) or "0"


def _format_table(fmt: str, rows: list, meta: dict, title: tuple,
                  line: str) -> str:
    """A table in the json, csv or text layout.

    ``rows`` are dicts with the same keys, in column order; a list value is
    a combination [[name, weight], ...], written as ``(weight)*name`` terms
    in csv and text.  json is ``meta`` followed by the rows; csv repeats the
    ``meta`` columns in front of every row; text is the ``title`` lines and
    then the ``line`` template filled from each row.
    """
    if fmt == "json":
        import json
        return json.dumps({**meta, "rows": rows}) + "\n"
    if fmt == "csv":
        import csv
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([*meta, *rows[0]])
        for row in rows:
            writer.writerow([*meta.values(), *(
                _combo(v, "+") if isinstance(v, list) else v
                for v in row.values())])
        return buf.getvalue()
    lines = [*title, *(line.format(**{
        key: _combo(v, " + ") if isinstance(v, list) else v
        for key, v in row.items()}) for row in rows)]
    return "\n".join(lines) + "\n"


def _monomial(m: int, n: int) -> str:
    """The label of p^m S^(2n): "1", "p", "S^2", "p^2 S^4", ..."""
    p = "" if m == 0 else "p" if m == 1 else f"p^{m}"
    return " ".join(filter(None, (p, f"S^{2 * n}" if n else ""))) or "1"


def cmd_invariants(args) -> int:
    table = invariants.weight_table(
        partial(invariants.uplane_weight, args.nf), args.max_weight)
    rows = [{"m": m, "n": n, "monomial": _monomial(m, n),
             "value": exact_str(cell.value),
             "h_combo": [[f"H{a}", exact_str(w)] for a, w in cell.h_combo]}
            for (m, n), cell in table.items()]
    _emit(_format_table(args.format, rows, {"nf": args.nf},
                        (f"# u-plane invariants, nf={args.nf}",),
                        "{monomial:<12} {value:>16}   = {h_combo}"), args.out)
    return 0


def cmd_goettsche(args) -> int:
    table = invariants.weight_table(invariants.goettsche_weight,
                                    args.max_weight, step=2)
    rows = [{"k": (m + n) // 2 + 1, "m": m, "n": n,
             "monomial": _monomial(m, n), "value": exact_str(v)}
            for (m, n), v in table.items()]
    _emit(_format_table(args.format, rows, {}, (),
                        "k={k} {monomial:<12} {value}"), args.out)
    return 0


def cmd_hurwitz(args) -> int:
    try:
        values = invariants.hurwitz(args.max)
    except (OverflowError, MemoryError):
        raise UsageError(f"argument --max: cannot allocate a table of "
                         f"{args.max} + 1 class numbers") from None
    if args.format == "json":
        import json
        _emit(json.dumps({str(n): exact_str(v) for n, v in enumerate(values)})
              + "\n", args.out)
    else:
        _emit("\n".join(f"H({n}) = {exact_str(v)}"
                        for n, v in enumerate(values)) + "\n", args.out)
    return 0


def cmd_nf4(args) -> int:
    series = invariants.nf4_partition(args.order)
    _emit(series.to_text(max_terms=args.terms) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# verification

def _suite_criterion(max_weight: int) -> list:
    table = invariants.weight_table(invariants.criterion_weight, max_weight)
    return [(f"criterion constant term ({m},{n})", ok, None, None)
            for (m, n), ok in table.items()]


def _suite_identities(order) -> list:
    p = Fraction(order)
    checks = []

    def zero_check(name, series):
        checks.append(sw.vanishing(name, series))

    # eta^3 and h are asked first, at order 13/2 at least, and built once: z
    # reads eta^3 past q^p below order 1/3, and h reads E* as far as f_6 does
    wide = max(p, Fraction(13, 2))
    t2, t3, t4 = (forms.vartheta(i, p) for i in (2, 3, 4))
    eta3 = forms.eta_quotient([(1, 3)], wide).truncate(p)
    h = forms.form_h(factor_window(wide, -1)).truncate(factor_window(p, -1))
    eta4inv = forms.eta_quotient([(1, -4)], p / 8)
    zp = factor_window(p / 8, eta4inv.valuation())
    z = invariants.z_bold(zp)
    z0 = invariants.z0_series(max(p, factor_window(1, -15)))  # f_6 = q^-15
    q = mock.cal_q(p)
    # the paper's Z0, asked before FasMu reads calF0 and 1/Theta4 at p/2
    z0_mock = q + 4 * mock.cal_f(0, p) * forms.theta_inverse(4, p)
    zero_check("QasMu: calQ + 7/2 A38 - 3/2 A78 + 1/2 B - 4M",
               q - 4 * mock.mock_m(p) + Fraction(7, 2) * forms.form_a38(p)
               - Fraction(3, 2) * forms.form_a78(p) + Fraction(1, 2) * forms.form_b(p))
    inv4 = forms.theta_inverse(4, p / 2)
    for t in (0, 2, 4):
        lhs = mock.cal_f(t, p / 2) * inv4
        zero_check(f"FasMu t={t}", lhs - mock.lerch_mu_weighted(t, p / 2))
    zero_check("Z0 = E*(4tau)/eta(8tau)^3", z0_mock - z0)
    fm_window = factor_window(1, z0.valuation())
    for m in range(7):
        ct = (z0 * forms.form_fm(m, fm_window)).constant_term()
        checks.append((f"constant term of Z0 f_{m}", ct == 0, None, None))
    est2 = forms.eisenstein_estar(factor_window(p, h.valuation()) / 2).rescale(2, 1)
    h2 = h ** 2
    eodd = forms.eisenstein_eodd(factor_window(p, h2.valuation()))
    zero_check("h ODE: qdq(h) = -E*(2tau) h + 64 E_odd",
               h.qdq(1) + est2 * h - 64 * eodd)
    zero_check("h ODE: qdq(h) = -E_odd (h^2 - 64)  [sign corrected]",
               h.qdq(1) + eodd * (h2 - 64))
    printed_defect = (h.qdq(1) + eodd * (h2 + 64)) - 128 * eodd
    zero_check("h ODE as printed is off by exactly 128 E_odd", printed_defect)
    zero_check("Delta(2tau)/Delta(4tau) = h^2 - 64",
               forms.eta_quotient([(2, 24), (4, -24)], p) - (h2 - 64))
    zero_check("Jacobi: vtheta3^4 - vtheta4^4 - vtheta2^4",
               t3 ** 4 - t4 ** 4 - t2 ** 4)
    zero_check("2 eta^3 = vtheta2 vtheta3 vtheta4", 2 * eta3 - t2 * t3 * t4)
    zero_check("16 Theta2^4 + Theta3^4 = E*(4tau)",
               16 * forms.theta_big(2, p) ** 4 + forms.theta_big(3, p) ** 4
               - forms.eisenstein_estar(p / 4).rescale(4, 1))
    zero_check("Z(tau) - Z(tau+1) = 14 eta^4 rho^4",
               z - z.shift_tau(1) - 56 * forms.eta_quotient([(2, 8), (1, -4)], p / 8))
    alt = (z - z.shift_tau(1) + z.shift_tau(2) - z.shift_tau(3)) * eta4inv
    zero_check("sum (-1)^k Z(tau+k)/eta^4 = 28 rho^4",
               alt - 28 * invariants.rho4(p / 8))
    return checks


def _suite_swcurves(order) -> list:
    return [(f"nf={nf}: {name}", *rest) for nf in (0, 2, 3)
            for name, *rest in sw.check_family(nf, Fraction(order))]


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
                   h[:6] == [1, 28, 39, 196, 161, 756], None, None))
    for nf, table in ((0, _TABLE_NF0), (2, _TABLE_NF2), (3, _TABLE_NF3)):
        cells = invariants.weight_table(
            partial(invariants.uplane_weight, nf), max(map(sum, table)),
            step=gcd(*map(sum, table)))
        for (m, n), expected in sorted(table.items()):
            cell = cells[m, n]
            ok = str(cell.value) == expected
            # against the printed value: value and combination share reads
            combo_ok = str(invariants.evaluate_h_combo(cell.h_combo, h)) == expected
            checks.append((f"nf={nf} D[{m},{n}] = {expected}", ok, None, None))
            checks.append((f"nf={nf} combo[{m},{n}] evaluates", combo_ok, None, None))
    phi = invariants.weight_table(invariants.goettsche_weight,
                                  max(map(sum, _TABLE_NF0)), step=2)
    for (m, n), expected in sorted(_TABLE_NF0.items()):
        ok = str(phi[m, n]) == expected
        checks.append((f"goettsche ({(m + n) // 2 + 1},{m},{n}) = {expected}",
                       ok, None, None))
    return checks


def _suite_nf4(order) -> list:
    p = Fraction(order)
    checks = []
    z4 = invariants.nf4_partition(p)  # on 1/2 + Z: tau -> tau+2 twists by 1
    checks.append(sw.vanishing("nf4 partition invariant under tau -> tau+2",
                               z4.shift_tau(2) - z4))
    vw = invariants.vafa_witten_series(8)
    expected = [1, 9, 48, 203, 729, 2346, 6918]
    got = [vw.coeff(Fraction(2 * k - 1, 2)) for k in range(1, 8)]
    checks.append(("Vafa-Witten series q + 9q^2 + 48q^3 + ...",
                   got == expected, None, None))
    return checks


def _report(records, out, summary: bool) -> int:
    """Print ``prefix + label: ok|FAIL`` for each (prefix, check record),
    with the first failing exponent when the record has one, and with a
    ``PASS/FAIL: N failing check(s)`` line if ``summary``; exit 0 or 1."""
    failures = 0
    lines = []
    for prefix, (label, ok, bad, _) in records:
        extra = "" if ok or bad is None else f" (first failing exponent {bad})"
        lines.append(f"{prefix}{label}: {'ok' if ok else 'FAIL'}{extra}")
        failures += not ok
    if summary:
        lines.append(f"{'PASS' if failures == 0 else 'FAIL'}: "
                     f"{failures} failing check(s)")
    _emit("\n".join(lines) + "\n", out)
    return 0 if failures == 0 else 1


def cmd_verify(args) -> int:
    suites = {
        "criterion": lambda: _suite_criterion(args.max),
        "identities": lambda: _suite_identities(args.order),
        "swcurves": lambda: _suite_swcurves(min(args.order, 24)),
        "tables": _suite_tables,
        "nf4": lambda: _suite_nf4(min(args.order, 16)),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    # computed last suite first, where the wider windows are, and printed in
    # the listed order: no suite's records depend on what the memos hold
    records = {name: suites[name]() for name in reversed(names)}
    return _report(((f"[{name}] ", record) for name in names
                    for record in records[name]), args.out, summary=True)


def cmd_swcheck(args) -> int:
    return _report(((f"nf={args.nf} ", record)
                    for record in sw.check_family(args.nf, args.order)),
                   args.out, summary=False)


# ---------------------------------------------------------------------------

REQUIRED = object()  # the default of an option that must be given
_OUT = ("--out", str, "")  # "" writes to stdout

# {command: (handler, help, options)}; an option is (flag, converter or
# tuple of choices, default text or REQUIRED).  A default goes through the
# converter as a given value does; a value of a tuple of choices is read
# with the type of its choices and must be one of them.
COMMANDS = {
    "series": (cmd_series, "print a named q-series", (
        ("--name", _series_name, REQUIRED),
        ("--order", _order, "60"),
        ("--terms", _terms, "12"),
        ("--format", ("text", "json"), "text"),
        _OUT)),
    "invariants": (cmd_invariants, "u-plane invariant table", (
        ("--nf", (0, 2, 3), REQUIRED),
        ("--max-weight", _bound, "4"),
        ("--format", ("text", "json", "csv"), "text"),
        _OUT)),
    "goettsche": (cmd_goettsche, "instanton-side invariant table", (
        ("--max-weight", _bound, "4"),
        ("--format", ("text", "json", "csv"), "text"),
        _OUT)),
    "verify": (cmd_verify, "run verification suites; --max bounds m+n in "
               "the criterion grid; swcurves runs at min(--order, 24) and nf4 "
               "at min(--order, 16)", (
                   ("--suite", ("criterion", "identities", "swcurves",
                                "tables", "nf4", "all"), "all"),
                   ("--max", _bound, "4"),
                   ("--order", _order, "60"),
                   _OUT)),
    "hurwitz": (cmd_hurwitz, "Hurwitz class numbers", (
        ("--max", _bound, "24"),
        ("--format", ("text", "json"), "text"),
        _OUT)),
    "nf4": (cmd_nf4, "conformal-point partition function", (
        ("--order", _order, "8"),
        ("--terms", _terms, "12"),
        _OUT)),
    "swcheck": (cmd_swcheck, "Seiberg-Witten family identities", (
        ("--nf", (0, 2, 3), REQUIRED),
        ("--order", _order, "24"),
        _OUT)),
}

_GRAMMAR = "[--option value | --option=value]..."


def _convert(flag: str, kind, text: str):
    """The value of option ``flag``: ``text`` read by the converter ``kind``,
    or read in the type of the choices ``kind`` and checked against them."""
    if not isinstance(kind, tuple):
        try:
            return kind(text)
        except UsageError as exc:
            raise UsageError(f"argument {flag}: {exc}") from None
    try:
        value = type(kind[0])(text)
    except ValueError:
        value = None
    if value not in kind:
        raise UsageError(f"argument {flag}: invalid choice {text!r} (choose "
                         f"from {', '.join(map(str, kind))})")
    return value


def _metavar(flag: str, kind) -> str:
    if isinstance(kind, tuple):
        return "{" + ",".join(map(str, kind)) + "}"
    return flag[2:].upper().replace("-", "_")


def _show(text: str, args) -> int:
    """The handler of ``--help``: print the listing ``text``."""
    sys.stdout.write(text + "\n")
    return 0


def _command_help(name: str) -> str:
    _, about, options = COMMANDS[name]
    usages = [f"{flag} {_metavar(flag, kind)}" for flag, kind, _ in options]
    width = max(map(len, usages))
    lines = [f"usage: qdonald {name} {_GRAMMAR}", "", about, "", "options:"]
    for usage, (_, _, default) in zip(usages, options):
        note = "(required)" if default is REQUIRED else \
            f"(default {default})" if default else ""
        lines.append(f"  {usage:<{width}}  {note}".rstrip())
    return "\n".join(lines)


def _main_help() -> str:
    width = max(map(len, COMMANDS))
    return "\n".join([
        f"usage: qdonald <command> {_GRAMMAR}", "",
        "Exact q-series engine for mock theta functions and Donaldson "
        "invariants of the projective plane.", "", "commands:",
        *(f"  {name:<{width}}  {about}"
          for name, (_, about, _) in COMMANDS.items()), "",
        "'qdonald <command> --help' lists the options of a command."])


def parse_args(argv: list) -> tuple:
    """(handler, namespace of option values) for a command line; raises
    ``UsageError`` on bad input."""
    if not argv:
        raise UsageError(f"missing command (choose from {', '.join(COMMANDS)})")
    name, rest = argv[0], argv[1:]
    if name in ("-h", "--help"):
        return partial(_show, _main_help()), SimpleNamespace()
    if name not in COMMANDS:
        raise UsageError(f"unknown command {name!r} (choose from "
                         f"{', '.join(COMMANDS)})")
    fn, _, options = COMMANDS[name]
    kinds = {flag: kind for flag, kind, _ in options}
    given = {}
    tokens = iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            return partial(_show, _command_help(name)), SimpleNamespace()
        flag, sep, text = token.partition("=")
        if flag not in kinds:
            raise UsageError(f"unrecognized argument {token!r}")
        if not sep:
            text = next(tokens, None)
            if text is None:
                raise UsageError(f"argument {flag}: expected one value")
        given[flag] = text
    values = {}
    for flag, kind, default in options:
        text = given.get(flag, default)
        if text is REQUIRED:
            raise UsageError(f"argument {flag} is required")
        values[flag[2:].replace("-", "_")] = _convert(flag, kind, text)
    return fn, SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        fn, args = parse_args(argv)
        return fn(args)
    except (UsageError, BadParameter) as exc:
        message = str(exc)
    except MemoryError:
        # reported once the handler has let go of the failed frames
        message = "out of memory: retry with a smaller order or bound"
    except InsufficientPrecision as exc:
        sys.stderr.write(f"insufficient precision: {exc}; retry with a "
                         f"larger --order\n")
        return 1
    prog = f"qdonald {argv[0]}" if argv and argv[0] in COMMANDS else "qdonald"
    sys.stderr.write(f"{prog}: error: {message}\n")
    raise SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())
