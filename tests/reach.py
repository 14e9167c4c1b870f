"""Reach: every statement of ``src/qdonald`` is run by a command, or kept.

:func:`reached` runs every ``GOLDEN`` row of ``test_golden.py`` and every
job of ``qdbench/golden.json`` in this process through ``cli.main``, each
with every memo empty, under ``sys.settrace``, and returns the lines of the
package that ran.  :func:`statements` reads, with ``ast``, the statements
that count: those of function bodies, as module-level and class-body code
runs at import, less docstrings, ``try``/``except``/``else``/``finally``
headers and lines marked ``pragma: no cover``.
A simple statement is reached when a line of its own span runs; an ``if``,
``for``, ``while`` or ``with`` when a line of its header runs.

``KEPT`` names each statement that no command runs, by the qualified name
of its function (all its statements) or by that name and the statement's
first source line, stripped (the statement and any it holds); never by line
number, so an edit elsewhere moves no entry.  Each entry has one kind:

- ``error``: an error path, and the Tier-1 test function that drives it;
- ``public``: a documented operation of an exported class that no command
  calls, kept as part of the ring's interface;
- ``pending``: oracle code that is to leave the package (the ``Cyclo``
  block, ROADMAP item 6).

:func:`faults` lists what breaks the rule: a statement that no command
reaches and ``KEPT`` does not name, a kept entry that a command reaches or
that matches no statement, and an ``error`` entry whose test function is
not in its file.  The module imports no pytest:
``PYTHONPATH=src python3 tests/reach.py`` prints the faults and a summary,
and exits 1 on any fault.
"""

import ast
import importlib.util
import io
import json
import sys
from collections import Counter, namedtuple
from contextlib import redirect_stdout
from pathlib import Path

TESTS = Path(__file__).resolve().parent
JOBS = TESTS.parent / "qdbench" / "golden.json"
PRAGMA = "pragma: no cover"

# one counted statement: its module, the qualified name of the function
# that holds it, its first source line stripped, the lines whose events
# reach it, and the first lines of the compound statements that hold it in
# that function, its own included
Statement = namedtuple("Statement", "module qualname text lines within")

# one key of ``KEPT``, split: its first line is None for a whole function
Entry = namedtuple("Entry", "key module qualname first kind note")

# (kind, note, keys): each key names the statements of one function,
# "module qualname", or one statement and any it holds, "module qualname:
# first line"; the note of an ``error`` group is the test file::function
# that drives its statements, of the others why they stay
KEPT = [
    # cli: the --out file, and the help, usage and error paths
    ("error", "test_cli.py::test_out_file", [
        'cli _emit: with open(out, "w") as fh:',
        'cli _emit: raise UsageError(f"argument --out: cannot write '
        '{out!r}: "',
    ]),
    ("error", "test_cli.py::test_usage_error_exit_code", [
        "cli _series_name: params = []",
        'cli _series_name: raise UsageError(f"bad series name {text!r}: '
        '{kind} takes {count} "',
        'cli _series_name: raise UsageError(f"unknown series name '
        '{text!r}")',
        'cli _within.convert: raise UsageError(f"invalid {what} {text!r}") '
        'from None',
        'cli _within.convert: raise UsageError(f"{what} must be >= {low}, '
        'got {text}")',
        'cli _within.convert: raise UsageError(f"{what} must be <= '
        '{sys.maxsize}, got {text}")',
        'cli cmd_hurwitz: raise UsageError(f"argument --max: cannot '
        'allocate a table of "',
        'cli _convert: raise UsageError(f"argument {flag}: {exc}") '
        'from None',
        'cli parse_args: raise UsageError(f"missing command (choose from '
        "{', '.join(COMMANDS)})\")",
        'cli parse_args: raise UsageError(f"unknown command {name!r} '
        '(choose from "',
        'cli parse_args: raise UsageError(f"unrecognized argument '
        '{token!r}")',
        'cli parse_args: raise UsageError(f"argument {flag}: expected one '
        'value")',
        'cli parse_args: raise UsageError(f"argument {flag} is required")',
        "cli main: message = str(exc)",
        'cli main: prog = f"qdonald {argv[0]}" if argv and argv[0] in '
        'COMMANDS else "qdonald"',
        'cli main: sys.stderr.write(f"{prog}: error: {message}\\n")',
        "cli main: raise SystemExit(2)",
    ]),
    ("error", "test_cli.py::test_a_bad_choice_lists_the_choices", [
        "cli _convert: value = None",
        'cli _convert: raise UsageError(f"argument {flag}: invalid choice '
        '{text!r} (choose "',
    ]),
    ("error", "test_cli.py::test_help_lists_table", [
        "cli _metavar",
        "cli _show",
        "cli _command_help",
        "cli _main_help",
        "cli parse_args: return partial(_show, _main_help()), "
        "SimpleNamespace()",
        "cli parse_args: return partial(_show, _command_help(name)), "
        "SimpleNamespace()",
    ]),
    ("error", "test_cli.py::test_out_of_memory_is_a_usage_error", [
        'cli main: message = "out of memory: retry with a smaller order or '
        'bound"',
    ]),
    ("error", "test_cli.py::test_short_window_exits_one", [
        'cli main: sys.stderr.write(f"insufficient precision: {exc}; retry '
        'with a "',
        "cli main: return 1",
    ]),
    # the library's window guards and input checks
    ("error", "test_qseries.py::test_error_paths_raise_their_message", [
        'forms _eta_key: raise BadParameter("eta quotient needs at least '
        'one factor")',
        'series QSeries.__init__: raise ValueError("coefficient window does '
        'not match [lead, prec)")',
        'series QSeries.from_numerators: raise ValueError("coefficient '
        'window does not match [lead, prec)")',
        'series QSeries.from_numerators: raise ValueError("the common '
        'denominator must be positive")',
        'series QSeries.valuation: raise ValueError("zero series has no '
        'valuation")',
        'series QSeries.to_ram: raise ValueError(f"{self.ram} does not '
        'divide {ram}")',
        'series QSeries.__truediv__: raise NotInvertible("division by zero '
        'scalar")',
        'series QSeries.rescale: raise ValueError("rescale factors must be '
        'positive")',
        'series QSeries.qdq: raise ValueError("derivative order must be '
        'non-negative")',
    ]),
    ("error", "test_invariants.py::test_theta_windows_are_exact", [
        'invariants _factors: raise InsufficientPrecision("kernel window '
        'too short to read")',
    ]),
    ("error", "test_invariants.py::"
     "test_kernel_reads_need_the_last_term_they_read", [
         'invariants _reads: raise InsufficientPrecision("kernel window too '
         'short to read")',
     ]),
    ("error", "test_invariants.py::test_pairing_windows_are_exact", [
        'invariants _slot: raise InsufficientPrecision("slot window too '
        'short for the pairing")',
    ]),
    ("error", "test_sw.py::"
     "test_contact_term_refuses_a_family_with_no_inverse_term", [
         'sw contact_term: raise InsufficientPrecision("family built to '
         'insufficient precision")',
     ]),
    ("error", "test_invariants.py::test_bad_index_raises_bad_parameter", [
        "series check_index: rule = (f\"one of {', '.join(map(str, "
        'choices))}" if choices else',
        'series check_index: raise BadParameter(f"{name} must be {rule}, '
        'not {value!r}")',
    ]),
    ("error", "test_invariants.py::test_bad_precision_raises_bad_parameter",
     ["series check_precision: raise BadParameter("]),
    ("error", "test_qseries.py::test_coeff_extraction", [
        "series QSeries.coeff: raise IrrepresentableExponent(",
        "series QSeries.coeff: raise InsufficientPrecision(",
    ]),
    ("error", "test_qseries.py::test_cyclo_scalar_added_to_a_series", [
        "series QSeries.__add__: return NotImplemented",
        "series QSeries.__sub__: return NotImplemented",
        "series QSeries.__mul__: return NotImplemented",
    ]),
    ("error", "test_qseries.py::test_not_invertible", [
        'series QSeries._negative_power: raise NotInvertible("inverse of a '
        'zero series")',
    ]),
    ("error", "test_qseries.py::"
     "test_exact_series_need_explicit_inverse_precision",
     ["series QSeries._negative_power: if prec is None:"]),
    ("error", "test_qseries.py::"
     "test_exact_inverse_is_known_below_its_precision_argument",
     ["series QSeries._negative_power: if n <= 0:"]),
    ("error", "test_qseries.py::test_shift_inverse", [
        'series QSeries.shift_tau: raise NotRational(f"tau -> tau + {k} '
        'twists the term at "',
    ]),
    ("error", "test_qseries.py::test_to_text_rejects_max_terms_below_one", [
        'series QSeries.to_text: raise ValueError(f"max_terms must be at '
        'least 1, got {max_terms}")',
    ]),
    ("error", "test_ring_kernel.py::test_cyclo_operand_raises_not_rational", [
        'series _rational: raise NotRational(f"a series coefficient must be '
        'an int or a "',
    ]),
    ("public", "documented operations of the exported QSeries, and the "
     "branches of them that no command takes", [
         "series QSeries.coeffs",
         "series QSeries.zero",
         # from_terms with no term in its window
         "series QSeries.from_terms: return _make(ram, 0, (), 1, w)",
         "series QSeries.is_zero",
         # the coefficient of an exponent outside the stored terms
         "series QSeries.coeff: return _ZERO",
         # a sum and a product with zero series
         "series QSeries.__add__: return _make(a.ram, 0, (), 1, prec)",
         "series QSeries.__mul__: precs = [z.prec + s.lead for z, s in "
         "((a, b), (b, a))",
         "series QSeries.__mul__: prec = min(precs) if precs else None",
         "series QSeries.__mul__: return _make(a.ram, 0, (), 1, prec)",
         "series QSeries.__radd__",
         "series QSeries.__rsub__",
         # the inverse, and a negative power of an exact series or of one
         # with a denominator
         "series QSeries.inverse",
         "series QSeries._negative_power: n = _to_w(prec, self.ram) - k * "
         "self.lead",
         "series QSeries._negative_power: nums = [v * (f // g) for v in "
         "nums]",
         # division by a series; the commands divide by scalars only
         "series QSeries.__truediv__: if not isinstance(other, QSeries):",
         "series QSeries.__truediv__: if other.prec is None:",
         "series QSeries.__truediv__: return self * other.inverse()",
         # a power whose exponent is not an int
         "series QSeries.__pow__: return NotImplemented",
         # a truncation past the stored terms
         "series QSeries.truncate: nums = list(nums) + [0] * pad",
         "series QSeries.__eq__",
         "series QSeries.__hash__",
         # the text of a series with no known term, and of one from q^0
         'series QSeries.to_text: return "0" if self.prec is None else '
         '"0 ..."',
         "series QSeries.to_text: return body if len(terms) == 1 and not "
         'body.startswith("(") \\',
         "series QSeries.__repr__",
         # the sign and the content of a power of a base with u_0 != 1, as
         # only a non-monic inverse takes
         "exact int_power: nums, den = [-v for v in nums], -den",
         "exact int_power: nums, den = [v // c for v in nums], den // c",
     ]),
    ("pending", "the Cyclo block: test oracles, until ROADMAP item 6 moves "
     "them to tests/oracles.py", [
         "exact _monic_divmod",
         "exact cyclotomic_polynomial",
         "exact euler_phi",
         "exact reduce_ints",
         "exact _mul_mod",
         "exact from_ints",
         "exact Cyclo",
         "exact root_of_unity",
         "exact unity",
     ]),
]

KINDS = ("error", "public", "pending")
_HEADED = (ast.If, ast.For, ast.While, ast.With)


def _header_end(node) -> int:
    """The last line of a compound statement's header."""
    if isinstance(node, (ast.If, ast.While)):
        head = node.test
    elif isinstance(node, ast.For):
        head = node.iter
    else:
        item = node.items[-1]
        head = item.optional_vars or item.context_expr
    return head.end_lineno


def statements(module: str, source: str) -> list:
    """The counted statements of one module's source."""
    text = source.splitlines()
    out = []

    def walk(body, qualname, counted, within):
        for node in body:
            if PRAGMA in text[node.lineno - 1]:
                continue
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                walk(node.body, f"{qualname}.{node.name}".lstrip("."),
                     isinstance(node, ast.FunctionDef), ())
            elif isinstance(node, ast.Try):
                for part in (node.body, *(h.body for h in node.handlers),
                             node.orelse, node.finalbody):
                    walk(part, qualname, counted, within)
            elif not (isinstance(node, ast.Expr)
                      and isinstance(node.value, ast.Constant)):
                first = text[node.lineno - 1].strip()
                headed = isinstance(node, _HEADED)
                end = _header_end(node) if headed else node.end_lineno
                if counted:
                    out.append(Statement(module, qualname, first,
                                         range(node.lineno, end + 1),
                                         (*within, first)))
                if headed:
                    for part in (node.body, getattr(node, "orelse", [])):
                        walk(part, qualname, counted, (*within, first))

    walk(ast.parse(source).body, "", False, ())
    return out


def package() -> dict:
    """{module name: (path, counted statements)} of ``src/qdonald``, found
    without importing it."""
    root = Path(importlib.util.find_spec("qdonald").origin).parent
    return {path.stem: (str(path), statements(path.stem, path.read_text()))
            for path in sorted(root.glob("*.py"))}


def _traced(counted: dict, run) -> dict:
    """Call ``run()`` under a line tracer: {path: lines that ran} of the
    files of ``counted`` {path: lines}.  A frame stops being traced once
    every counted line of its code has run, and a code whose counted lines
    have all run is not traced again."""
    ran = {path: set() for path in counted}
    left = {}

    def call(frame, event, arg):
        code = frame.f_code
        todo = left.get(code)
        if todo is None:
            lines = counted.get(code.co_filename, ())
            todo = left[code] = {n for _, _, n in code.co_lines()
                                 if n in lines}
        if not todo:
            return None
        seen = ran[code.co_filename]

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
                todo.discard(frame.f_lineno)
                if not todo:
                    frame.f_trace_lines = False
            return line
        return line

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return ran


def reached(mods: dict) -> dict:
    """{module name: lines that ran} of the :func:`package` ``mods`` over
    every ``GOLDEN`` row, then every pool job, each run with every memo
    empty and its stdout dropped.  The trace starts before ``qdonald`` is
    imported, so that the lines run at import count: call it in a fresh
    interpreter."""
    if "qdonald" in sys.modules:
        raise RuntimeError("qdonald is imported already: its import-time "
                           "lines would not count")
    counted = {path: {n for s in stmts for n in s.lines}
               for path, stmts in mods.values()}

    def run():
        from counters import clear_memos
        from test_golden import GOLDEN

        from qdonald.cli import main
        pool = json.loads(JOBS.read_text())
        for argv in [argv for argv, *_ in GOLDEN] + [k.split() for k in pool]:
            clear_memos()
            with redirect_stdout(io.StringIO()):
                main(argv)
    ran = _traced(counted, run)
    return {name: ran[path] for name, (path, _) in mods.items()}


def _entries(kept: list) -> list:
    """One :data:`Entry` per key of the ``kept`` groups."""
    out = []
    for kind, note, keys in kept:
        for key in keys:
            where, _, first = key.partition(": ")
            module, _, qualname = where.partition(" ")
            out.append(Entry(key, module, qualname, first or None, kind,
                             note))
    return out


def _covers(entry, stmt) -> bool:
    if stmt.module != entry.module:
        return False
    if entry.first is None:
        return stmt.qualname == entry.qualname or \
            stmt.qualname.startswith(entry.qualname + ".")
    return stmt.qualname == entry.qualname and entry.first in stmt.within


def _test_functions(path: Path) -> set:
    """The names of the module-level functions of a test file, if any."""
    if not path.is_file():
        return set()
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)}


def faults(stmts: list, ran: dict, kept: list) -> list:
    """One line per fault of the counted ``stmts`` against the lines that
    ``ran`` {module: lines} and the ``kept`` groups, as the module
    docstring lists them."""
    hit, missed = [], []
    for s in stmts:
        (missed if ran.get(s.module, set()).isdisjoint(s.lines)
         else hit).append(s)
    entries = _entries(kept)
    out = [f"not reached and not kept: {s.module} {s.qualname}: {s.text} "
           f"(line {s.lines[0]})" for s in missed
           if not any(_covers(entry, s) for entry in entries)]
    defined = {}
    for entry in entries:
        if any(_covers(entry, s) for s in hit):
            out.append(f"kept but reached: {entry.key}")
        elif not any(_covers(entry, s) for s in missed):
            out.append(f"kept but matches no statement: {entry.key}")
        if entry.kind == "error":
            file, _, test = entry.note.partition("::")
            if file not in defined:
                defined[file] = _test_functions(TESTS / file)
            if test not in defined[file]:
                out.append(f"kept as error, but no test function "
                           f"{entry.note}: {entry.key}")
    return out


def main() -> int:
    """Print each fault and a summary; 1 if there is a fault."""
    mods = package()
    stmts = [s for _, module_stmts in mods.values() for s in module_stmts]
    ran = reached(mods)
    found = faults(stmts, ran, KEPT)
    hit = sum(not ran[s.module].isdisjoint(s.lines) for s in stmts)
    kinds = Counter(entry.kind for entry in _entries(KEPT))
    print(*found, f"{len(stmts)} statements, {hit} reached; kept entries: "
          + ", ".join(f"{kinds[k]} {k}" for k in KINDS)
          + f"; {len(found)} faults", sep="\n")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
