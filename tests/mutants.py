"""Mutation check: each listed mutant must make the Tier-1 suite fail.

Usage: python3 tests/mutants.py [NAME ...]

Each entry of MUTANTS is (name, file, old text, new text, why).  For each
mutant (all, or the named ones) the script copies the repository to a
temporary directory, replaces the old text, which must occur exactly once,
with the new one, and runs the Tier-1 suite there with -x (all of it but
tests/test_mutants.py, which checks this list against the unmutated
tree).  A mutant is killed when the suite fails; the first failing test is
printed with it.
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
     "a known-zero product ignores the other factor's lead, so zero(5) * "
     "q^-3 claims to be known below q^5"),
    ("reads-kernel-guard", INVARIANTS,
     "p.prec <= t0 - r * e.lead", "p.prec < t0 - r * e.lead",
     "a kernel read uses the term one step past P_k's window"),
    ("reads-e2-guard", INVARIANTS,
     "r * e.prec <= t0 - p.lead", "r * e.prec < t0 - p.lead",
     "a kernel read stops one E2 term short"),
    ("kronecker-slot-narrower", EXACT,
     "k = (bound.bit_length() + 9) // 8",
     "k = (bound.bit_length() + 9) // 8 - 1",
     "a Kronecker slot one byte too narrow for the product coefficients"),
    ("product-choice-inverted", EXACT,
     "(_kronecker if dense else _pairs)", "(_pairs if dense else _kronecker)",
     "dense products loop over pairs and sparse ones pack"),
    ("reciprocal-no-spread", EXACT,
     "return _spread(nums, g, n), den", "return nums, den",
     "a reciprocal on a sublattice is returned unspread"),
    ("reciprocal-no-sign-flip", EXACT,
     "    if den < 0:\n        nums, den = [-v for v in nums], -den\n", "",
     "a reciprocal over a negative denominator, as u_0^n is for u_0 < 0 "
     "and odd n"),
    ("reciprocal-no-gcd", EXACT,
     "    if c > 1:\n        nums, den = [v // c for v in nums], den // c\n",
     "", "a reciprocal that is not in lowest terms"),
    ("truncate-below-lead", SERIES,
     "lead = min(self.lead, w)", "lead = self.lead",
     "truncating below the lead keeps the old lead; the window is then "
     "empty, and _set moves an empty window's lead to its end anyway"),
    ("vanishing-below-30", SW,
     "bad = next((e for e, _ in series.terms()), None)",
     "bad = next((e for e, _ in series.terms() if e < 30), None)",
     "a vanishing check that looks only below q^30 passes a residual that "
     "is nonzero further out in its window"),
    ("identities-order-capped", CLI,
     "lambda: _suite_identities(args.order)",
     "lambda: _suite_identities(min(args.order, 60))",
     "verify runs the identities suite at min(--order, 60), so a larger "
     "--order checks no further"),
    ("shift-tau-signs-every-twist", SERIES,
     "if c and 2 * t == ram:", "if c and t:",
     "tau -> tau + k multiplies a term by -1 where the twist is another "
     "root of unity, instead of raising NotRational"),
    ("build-accepts-cyclo", SERIES,
     "if not issubclass(kind, (int, Fraction)):",
     "if not issubclass(kind, (int, Fraction)) and kind.__name__ != "
     "\"Cyclo\":",
     "a Cyclo coefficient passes the check where a series is built"),
    ("eta-window-no-floor", FORMS,
     "factor_window((Fraction(prec) - s) / g, 0, 0)",
     "factor_window((Fraction(prec) - s) / g, 0)",
     "an eta quotient whose shift reaches past the precision is multiplied "
     "on an empty window, which has no constant term to invert"),
    ("eta-lattice-not-spread", FORMS,
     "out.rescale(g)", "out.rescale(1)",
     "an eta quotient whose arguments share a factor g is read on Z, not "
     "spread back onto gZ"),
    ("nf4-order-capped", CLI,
     "_suite_nf4(min(args.order, 16))", "_suite_nf4(min(args.order, 8))",
     "verify runs the nf4 suite at min(--order, 8), so an --order between "
     "8 and 16 checks no further than 8"),
    ("swcurves-order-capped", CLI,
     "_suite_swcurves(min(args.order, 24))",
     "_suite_swcurves(min(args.order, 12))",
     "verify runs the swcurves suite at min(--order, 12), so an --order "
     "between 12 and 24 checks no further than 12"),
    ("slot-nf2-scale", INVARIANTS,
     "scale = 16 if family == 2 else 8", "scale = 8 if family == 2 else 8",
     "the nf=2 slot reads calQ at 8x, which is Q+ at tau, not at tau/2"),
    ("slot-guard-inclusive", INVARIANTS,
     "if slot.prec_q() < scale * ps:", "if slot.prec_q() <= scale * ps:",
     "a slot known exactly as far as the pairing needs is refused"),
    ("row-family-slope", INVARIANTS,
     "6 ** j", "12 ** j",
     "a u-plane row keeps a family slope that the slot grid already "
     "divides out"),
    ("row-sign-lost", INVARIANTS,
     "(-1) ** (i + j)", "(-1) ** j",
     "a u-plane row loses the (-1)^i of C(i, j)"),
    ("window-ignores-cofactor", SERIES,
     "    p -= val\n", "",
     "factor_window builds a factor to the target itself, whatever the "
     "valuation of the factors it meets, so a product with a pole is known "
     "short of the target"),
    ("window-no-lead-floor", SERIES,
     "max(p + 2 * lead, lead + 1)", "p + 2 * lead",
     "factor_window builds a divisor short of its lead where little of the "
     "quotient is asked for, and the divisor has no inverse"),
]

EQUIVALENT = {"truncate-below-lead"}


def run(name, file, old, new) -> tuple:
    """(killed, detail) for one mutant, run on a copy of the repository."""
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
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(TIER1, cwd=copy, env=env, text=True,
                                  capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True, "timeout"
        failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
        return done.returncode != 0, failed[1] if failed else \
            done.stdout.strip().splitlines()[-1]


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unexpected = 0
    for name, file, old, new, why in chosen:
        try:
            killed, detail = run(name, file, old, new)
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
