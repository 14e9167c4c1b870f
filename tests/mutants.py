"""Mutation check: each listed mutant must make the Tier-1 suite fail.

Usage: python3 tests/mutants.py [NAME ...]

Each entry of MUTANTS is (name, file, old text, new text, killer, why),
killer a Tier-1 test ID that fails on the mutant every time, as a rule the
first one to fail at its last full run (None for an equivalent mutant).
For each mutant (all, or the named ones) the script copies the repository
to a temporary directory, replaces the old text, which must occur exactly
once, with the new one, and runs the killer alone there.  A mutant is
killed when a Tier-1 test fails on it: the killer, or else a test of the
Tier-1 suite, run with -x (all of it but tests/test_mutants.py, which
checks this list against the unmutated tree).  The failing test is printed
with the verdict, marked "new killer" where the full run found another.
The mutants named in EQUIVALENT change no result and are expected to
survive.  The script exits 1 when any other mutant survives or an old text
is not found once.

It uses the standard library only, pytest does not collect it, and it is
not part of Tier-1: a surviving mutant runs the whole suite.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SERIES = "src/qdonald/series.py"
EXACT = "src/qdonald/exact.py"
INVARIANTS = "src/qdonald/invariants.py"
SW = "src/qdonald/sw.py"
CLI = "src/qdonald/cli.py"
FORMS = "src/qdonald/forms.py"
# tests/test_mutants.py checks the old texts of the unmutated tree, which a
# mutant changes by design, so it is the one Tier-1 file left out here
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
TIMEOUT_S = 1800

MUTANTS = [
    ("zero-product-lead", SERIES,
     "precs = [z.prec + s.lead for z, s in",
     "precs = [z.prec for z, s in",
     "tests/test_qseries.py::"
     "test_zero_product_window_adds_the_other_lead[other0-2]",
     "a known-zero product ignores the other factor's lead, so zero(5) * "
     "q^-3 claims to be known below q^5"),
    ("reads-kernel-guard", INVARIANTS,
     "p.prec <= t0 - r * e.lead", "p.prec < t0 - r * e.lead",
     "tests/test_invariants.py::"
     "test_kernel_reads_need_the_last_term_they_read[goettsche-4-kernel]",
     "a kernel read uses the term one step past P_k's window"),
    ("reads-e2-guard", INVARIANTS,
     "r * e.prec <= t0 - p.lead", "r * e.prec < t0 - p.lead",
     "tests/test_invariants.py::"
     "test_kernel_reads_need_the_last_term_they_read[goettsche-4-e2]",
     "a kernel read stops one E2 term short"),
    ("kronecker-slot-narrower", EXACT,
     "k = (bound.bit_length() + 9) // 8",
     "k = (bound.bit_length() + 9) // 8 - 1",
     "tests/test_acceptance.py::test_criterion_02_qasmu",
     "a Kronecker slot one byte too narrow for the product coefficients"),
    ("product-choice-inverted", EXACT,
     "(_kronecker if dense else _pairs)", "(_pairs if dense else _kronecker)",
     "tests/test_exact_arith.py::"
     "test_cyclo_product_and_reduction_match_oracle",
     "dense products loop over pairs and sparse ones pack"),
    ("reciprocal-no-spread", EXACT,
     "return _spread(nums, g, n), den", "return nums, den",
     "tests/test_acceptance.py::test_criterion_01_calq_coefficients",
     "a reciprocal on a sublattice is returned unspread"),
    ("reciprocal-no-sign-flip", EXACT,
     "    if den < 0:\n        nums, den = [-v for v in nums], -den\n", "",
     "tests/test_ring_kernel.py::test_inverse_matches_schoolbook",
     "a reciprocal over a negative denominator, as u_0^n is for u_0 < 0 "
     "and odd n"),
    ("reciprocal-no-gcd", EXACT,
     "    if c > 1:\n        nums, den = [v // c for v in nums], den // c\n",
     "",
     "tests/test_ring_kernel.py::test_inverse_matches_schoolbook",
     "a reciprocal that is not in lowest terms"),
    ("truncate-below-lead", SERIES,
     "lead = min(self.lead, w)", "lead = self.lead",
     None,
     "truncating below the lead keeps the old lead; the window is then "
     "empty, and _set moves an empty window's lead to its end anyway"),
    ("vanishing-below-30", SW,
     "bad = next((e for e, _ in series.terms()), None)",
     "bad = next((e for e, _ in series.terms() if e < 30), None)",
     "tests/test_sw.py::test_vanishing_sees_the_whole_window",
     "a vanishing check that looks only below q^30 passes a residual that "
     "is nonzero further out in its window"),
    ("identities-order-capped", CLI,
     "lambda: _suite_identities(args.order)",
     "lambda: _suite_identities(min(args.order, 60))",
     "tests/test_cli.py::test_identity_residuals_reach_the_order[64]",
     "verify runs the identities suite at min(--order, 60), so a larger "
     "--order checks no further"),
    ("shift-tau-signs-every-twist", SERIES,
     "if c and 2 * t == ram:", "if c and t:",
     "tests/test_acceptance.py::test_criterion_15_shift_inverse",
     "tau -> tau + k multiplies a term by -1 where the twist is another "
     "root of unity, instead of raising NotRational"),
    ("build-accepts-cyclo", SERIES,
     "if not issubclass(kind, (int, Fraction)):",
     "if not issubclass(kind, (int, Fraction)) and kind.__name__ != "
     "\"Cyclo\":",
     "tests/test_qseries.py::test_coeff_of_a_cyclo_series",
     "a Cyclo coefficient passes the check where a series is built"),
    ("eta-window-no-floor", FORMS,
     "factor_window((Fraction(prec) - s) / g, 0, 0)",
     "factor_window((Fraction(prec) - s) / g, 0)",
     "tests/test_forms.py::"
     "test_eta_builders_match_the_per_factor_route[((1, 24),)]",
     "an eta quotient whose shift reaches past the precision is multiplied "
     "on an empty window, which has no constant term to invert"),
    ("eta-lattice-not-spread", FORMS,
     "out.rescale(g)", "out.rescale(1)",
     "tests/test_acceptance.py::test_criterion_01_calq_coefficients",
     "an eta quotient whose arguments share a factor g is read on Z, not "
     "spread back onto gZ"),
    ("nf4-order-capped", CLI,
     "_suite_nf4(min(args.order, 16))", "_suite_nf4(min(args.order, 8))",
     "tests/test_cli.py::test_nf4_residual_reaches_the_capped_order[40]",
     "verify runs the nf4 suite at min(--order, 8), so an --order between "
     "8 and 16 checks no further than 8"),
    ("swcurves-order-capped", CLI,
     "_suite_swcurves(min(args.order, 24))",
     "_suite_swcurves(min(args.order, 12))",
     "tests/test_cli.py::test_swcurves_residuals_reach_the_capped_order[40]",
     "verify runs the swcurves suite at min(--order, 12), so an --order "
     "between 12 and 24 checks no further than 12"),
    ("slot-nf2-scale", INVARIANTS,
     "scale = _FAMILIES[family][2]", "scale = 8",
     "tests/test_acceptance.py::test_criterion_08_h_combination_columns",
     "every slot is read at 8x, so the nf=2 slot reads calQ at 8x, which "
     "is Q+ at tau, not at tau/2"),
    ("slot-guard-inclusive", INVARIANTS,
     "if slot.prec_q() < scale * ps:", "if slot.prec_q() <= scale * ps:",
     "tests/test_acceptance.py::test_criterion_07_main_theorem_grid",
     "a slot known exactly as far as the pairing needs is refused"),
    ("row-family-slope", INVARIANTS,
     "6 ** j", "12 ** j",
     "tests/test_acceptance.py::test_criterion_07_main_theorem_grid",
     "a u-plane row keeps a family slope that the slot grid already "
     "divides out"),
    ("row-sign-lost", INVARIANTS,
     "(-1) ** (i + j)", "(-1) ** j",
     "tests/test_acceptance.py::test_criterion_07_main_theorem_grid",
     "a u-plane row loses the (-1)^i of C(i, j)"),
    ("window-ignores-cofactor", SERIES,
     "    p -= val\n", "",
     "tests/test_acceptance.py::test_criterion_01_calq_coefficients",
     "factor_window builds a factor to the target itself, whatever the "
     "valuation of the factors it meets, so a product with a pole is known "
     "short of the target"),
    ("window-no-lead-floor", SERIES,
     "max(p + 2 * lead, lead + 1)", "p + 2 * lead",
     "tests/test_cli.py::test_identities_run_below_the_kernel_poles[0]",
     "factor_window builds a divisor short of its lead where little of the "
     "quotient is asked for, and the divisor has no inverse"),
]

EQUIVALENT = {"truncate-below-lead"}


def _pytest(copy, tests) -> tuple:
    """(failed, detail) of the Tier-1 command in the mutated copy, on the
    given test IDs or on the whole suite: failed when a test fails (pytest
    exit code 1; an unknown test ID is a usage error, 4) or the run times
    out, detail the first failing test ID or the summary line."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(TIER1 + tests, cwd=copy, env=env, text=True,
                              capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True, "timeout"
    # a test ID may hold spaces; pytest follows it with " - " and the error
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", done.stdout, re.M)
    last = (done.stdout + done.stderr).strip().splitlines() or ["no output"]
    return done.returncode == 1, failed[1] if failed else last[-1]


def run(name, file, old, new, killer) -> tuple:
    """(killed, detail) for one mutant, run on a copy of the repository:
    the named killer first, the -x Tier-1 suite when it passes."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        path = copy / file
        text = path.read_text()
        if text.count(old) != 1:
            raise LookupError(f"{name}: old text found {text.count(old)} "
                              f"times in {file}")
        path.write_text(text.replace(old, new))
        if killer and _pytest(copy, [killer])[0]:
            return True, killer
        killed, detail = _pytest(copy, [])
        if killed and detail != killer:
            detail += " (new killer)"
        return killed, detail


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unexpected = 0
    for name, file, old, new, killer, why in chosen:
        try:
            killed, detail = run(name, file, old, new, killer)
        except LookupError as exc:
            print(f"missing   {exc}", flush=True)
            unexpected += 1
            continue
        expected = killed != (name in EQUIVALENT)
        unexpected += not expected
        state = "killed" if killed else "survived"
        mark = "" if expected else f"  UNEXPECTED: {why}"
        print(f"{state:9s} {name}: {detail}{mark}", flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
