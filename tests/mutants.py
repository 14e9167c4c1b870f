"""Mutation check: each listed mutant must make the Tier-1 suite fail.

Usage: python3 tests/mutants.py [NAME ...]

Each entry of MUTANTS is (name, file, old text, new text, killer, why),
killer a Tier-1 test ID that fails on the mutant every time, as a rule the
first one to fail at its last full run.
For each mutant (all, or the named ones) the script copies the repository
to a temporary directory, replaces the old text, which must occur exactly
once, with the new one, and runs the killer alone there.  The mutants run
concurrently, one per CPU, and their verdicts print in list order.  A
mutant is killed when a Tier-1 test fails on it: the killer, or else a
test of the Tier-1 suite, run with -x (all of it but tests/test_mutants.py,
which checks this list against the unmutated tree).  The failing test is
printed with the verdict, marked "new killer" where the full run found
another.
The script exits 1 when any mutant survives or an old text is not found
once.

It uses the standard library only, pytest does not collect it, and it is
not part of Tier-1: a surviving mutant runs the whole suite.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SERIES = "src/qdonald/series.py"
EXACT = "src/qdonald/exact.py"
INVARIANTS = "src/qdonald/invariants.py"
SW = "src/qdonald/sw.py"
CLI = "src/qdonald/cli.py"
FORMS = "src/qdonald/forms.py"
MOCK = "src/qdonald/mock.py"
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
     "k = (bound.bit_length() + 8) // 8",
     "k = (bound.bit_length() + 8) // 8 - 1",
     "tests/test_acceptance.py::test_criterion_02_qasmu",
     "a Kronecker slot one byte too narrow for the product coefficients"),
    ("product-choice-inverted", EXACT,
     "(_kronecker if dense else _pairs)", "(_pairs if dense else _kronecker)",
     "tests/test_golden.py::"
     "test_golden_kernel_calls[series --name Delta --order 60 --format json]",
     "dense products loop over pairs and sparse ones pack"),
    ("every-product-kronecker", EXACT,
     "(_kronecker if dense else _pairs)", "_kronecker",
     "tests/test_golden.py::"
     "test_golden_kernel_calls[series --name M --order 300 --format json]",
     "every product packs, a sparse one too: the values stay the same and "
     "only the count of Kronecker products changes"),
    ("reciprocal-no-spread", EXACT,
     "return _spread(nums, g, n), den", "return nums, den",
     "tests/test_acceptance.py::test_criterion_01_calq_coefficients",
     "a reciprocal on a sublattice is returned unspread"),
    ("reciprocal-no-sign-flip", EXACT,
     "    if den < 0:\n        nums, den = [-v for v in nums], -den\n", "",
     "tests/test_ring_kernel.py::test_int_power_on_fixed_bases[r=-2]",
     "a power over a negative denominator, as u_0^(n - r - 1) is for "
     "u_0 < 0 and n - r - 1 odd"),
    ("reciprocal-no-gcd", EXACT,
     "    if c > 1:\n        nums, den = [v // c for v in nums], den // c\n",
     "",
     "tests/test_ring_kernel.py::test_int_power_on_fixed_bases[r=-5]",
     "a power that is not in lowest terms, as for a base with content 3"),
    ("power-miller-weight", EXACT,
     "(r + 1) * k,", "r * k,",
     "tests/test_ring_kernel.py::test_int_power_on_fixed_bases[r=-3]",
     "the power recurrence weighs t_k A_(m-k) by r k - m, not (r + 1) k - "
     "m, so every power below -1 is wrong"),
    ("power-no-u0-scaling", EXACT,
     "u[k] * u0 ** (k - 1)", "u[k]",
     "tests/test_ring_kernel.py::test_int_power_on_fixed_bases[r=-1]",
     "the power recurrence takes t_k = u_k, not u_k u_0^(k-1), which is "
     "right only for u_0 = +-1"),
    ("theta4-inverse-factor", FORMS,
     "4: ((4, -2), (8, 1))", "4: ((4, -4), (8, 1))",
     "tests/test_forms.py::test_theta_inverse_is_the_lattice_inverse[4]",
     "1/Theta4 is read as eta(8t)/eta(4t)^4, not eta(8t)/eta(4t)^2"),
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
     "tests/test_qseries.py::test_shift_tau_eta_cubed",
     "tau -> tau + k multiplies a term by -1 where the twist is another "
     "root of unity, instead of raising NotRational"),
    ("build-accepts-cyclo", SERIES,
     "if not issubclass(kind, (int, Fraction)):",
     "if not issubclass(kind, (int, Fraction)) and kind.__name__ != "
     "\"Cyclo\":",
     "tests/test_qseries.py::test_coeff_of_a_cyclo_series",
     "a Cyclo coefficient passes the check where a series is built"),
    ("eta-window-no-floor", FORMS,
     "factor_window((prec - s) / g, 0, 0)",
     "factor_window((prec - s) / g, 0)",
     "tests/test_forms.py::"
     "test_eta_builders_match_the_per_factor_route[((1, 24),)]",
     "an eta quotient whose shift reaches past the precision is multiplied "
     "on an empty window, which has no constant term to invert"),
    ("eta-lattice-not-spread", FORMS,
     "out.rescale(g)", "out.rescale(1)",
     "tests/test_acceptance.py::test_criterion_01_calq_coefficients",
     "an eta quotient whose arguments share a factor g is read on Z, not "
     "spread back onto gZ"),
    ("precision-handler-dropped", CLI,
     "    except InsufficientPrecision as exc:\n        sys.stderr.write("
     "f\"insufficient precision: {exc}; retry with a \"\n"
     "                         f\"larger --order\\n\")\n        return 1\n",
     "",
     "tests/test_cli.py::test_short_window_exits_one",
     "a window too short escapes main as a traceback, not one stderr line "
     "and exit 1"),
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
    ("lerch-row-sign-dropped", MOCK,
     "terms.get(e, 0) + sign * weight(x)", "terms.get(e, 0) + weight(x)",
     "tests/test_mock.py::test_lerch_mu_matches_weighted_kernel_at_t0",
     "the Appell-Lerch expansion drops each row's sign, so the weighted "
     "kernel and the M part of Q's S-transform sum every row with sign +1"),
    ("theta2-lead-zero", FORMS,
     "lead = 1 if which == 2 else 0", "lead = 0",
     "tests/test_forms.py::test_theta_inverse_is_the_lattice_inverse[2]",
     "Theta2 = q + ... is taken as a divisor of lead 0, so below q^1 its "
     "inverse q^-1 + ... is built to q^1, one q-step past what any "
     "quotient asked for there reads, and its window is not the lattice "
     "inverse's"),
    ("estar-every-divisor", FORMS,
     "_divisor_series(1, 24, 1, 2, 1, prec)",
     "_divisor_series(1, 24, 1, 1, 1, prec)",
     "tests/test_forms.py::test_estar_identity",
     "E* sums every divisor of n, not only the odd ones"),
    ("q-combination-a38-weight", MOCK,
     "Fraction(-7, 2) * parts[\"A38\"]", "Fraction(-5, 2) * parts[\"A38\"]",
     "tests/test_mock.py::test_cal_q_printed",
     "calQ and its inversion transform weigh A38 by -5/2, not -7/2"),
    ("weierstrass-residual-27", SW,
     "- 27 * g3 ** 2", "- 26 * g3 ** 2",
     "tests/test_sw.py::test_family_identity_suite[0]",
     "the Weierstrass residual is g2^3 - 26 g3^2 - Delta, which no family "
     "satisfies"),
    ("nf2-chart-not-rescaled", SW,
     "2: (2, Fraction(1, 8), 8)", "2: (4, Fraction(1, 8), 8)",
     "tests/test_sw.py::test_nf2_is_rescaled_nf0",
     "the nf=2 chart is the nf=0 chart at tau, not at 2 tau"),
    ("chart-h-window", SW,
     "forms.form_h(c * p)", "forms.form_h(p)",
     "tests/test_sw.py::test_chart_matches_the_theta_oracle[0-24]",
     "the chart reads h below q^p before it reads it at tau/c, so u is "
     "known only below q^(p/c), short of the order for nf=0 and nf=2"),
    ("q-combination-a78-weight", MOCK,
     "Fraction(3, 2) * parts[\"A78\"]", "Fraction(1, 2) * parts[\"A78\"]",
     "tests/test_mock.py::test_qasmu_identity",
     "calQ and its inversion transform weigh A78 by 1/2, not 3/2"),
    ("q-combination-b-weight", MOCK,
     "Fraction(-1, 2) * parts[\"B\"]", "Fraction(1, 2) * parts[\"B\"]",
     "tests/test_mock.py::test_h_coefficients",
     "calQ and its inversion transform weigh B by 1/2, not -1/2"),
    ("q-combination-m-weight", MOCK,
     "4 * parts[\"M\"]", "2 * parts[\"M\"]",
     "tests/test_mock.py::test_q_transform_printed",
     "calQ and its inversion transform weigh M by 2, not 4"),
    ("delta-eta-residual-power", SW,
     "fam.omega2 ** 6", "fam.omega2 ** 5",
     "tests/test_sw.py::test_family_identity_suite[3]",
     "the discriminant check compares Delta (omega/pi)^10, not "
     "Delta (omega/pi)^12, with eta^24"),
    ("nf4-e4-weight", INVARIANTS,
     "Fraction(1, 36) * forms.eisenstein_e4",
     "Fraction(1, 18) * forms.eisenstein_e4",
     "tests/test_invariants.py::test_nf4_partition_matches_theta_route[2]",
     "the nf = 4 partition function weighs E4 eta^-8 F by -1/18, not -1/36, "
     "so its q^(-1/2) pole no longer cancels"),
    ("e4-divisor-power", FORMS,
     "_divisor_series(1, 240, 3, 1, 1, prec)",
     "_divisor_series(1, 240, 1, 1, 1, prec)",
     "tests/test_forms.py::test_e4_is_the_theta_polynomial",
     "E4 sums the divisors of n, not their cubes"),
    ("cal-f-claims-one-step-more", MOCK,
     "return QSeries.from_terms(terms, top)\n",
     "return QSeries.from_terms(terms, top + 1)\n",
     "tests/test_cli.py::test_every_series_name_at_two_orders[calFt:4]",
     "calF_t claims its coefficient at q^ceil(prec), which it never summed, "
     "as known; a build at a higher precision disagrees there, and the "
     "recomputing precision-soundness property sees it too"),
    ("nf3-curve-scale-sign", SW,
     "3: (1, Fraction(-1, 16), -16)", "3: (1, Fraction(1, 16), -16)",
     "tests/test_sw.py::test_nf3_leading_constant",
     "the nf=3 chart reads u = h/16, not -h/16, so u = q^-1/16 + ..."),
    ("nf0-curve-argument", SW,
     "0: (4, Fraction(1, 8), 8)", "0: (2, Fraction(1, 8), 8)",
     "tests/test_sw.py::test_chart_matches_the_theta_oracle[0-24]",
     "the nf=0 chart reads the level-4 curve at tau/2, not tau/4, which is "
     "the nf=2 frame"),
    ("nf0-period-weight", SW,
     "0: (4, Fraction(1, 8), 8)", "0: (4, Fraction(1, 8), 4)",
     "tests/test_sw.py::test_family_identity_suite[0]",
     "the nf=0 period is W = 4 g(tau/4), half of 2 (vtheta2 vtheta3)^2, so "
     "Delta W^6 misses eta^24 by 2^6"),
    ("chart-inverts-period", SW,
     "inv / w", "(w * g).inverse()",
     "tests/test_sw.py::test_family_check_divides_only_by_euler_products[nf0]",
     "the chart reads 1/W off a dense inverse of W instead of the eta "
     "quotient eta(2t)^4/eta(4t)^8"),
    ("nf2-kernel-power-of-two", INVARIANTS,
     "16, 2, (-4, -2),", "16, 2, (-3, -2),",
     "tests/test_invariants.py::test_kernel_factors_match_the_theta_oracle[2]",
     "the nf=2 base is 2^-(2w+3), not 2^-(2w+4), times its eta quotient, so "
     "every nf=2 cell doubles"),
    ("nf3-ladder-eta-power", INVARIANTS,
     "((1, 8), (2, -4)), 1)", "((1, 8), (2, -3)), 1)",
     "tests/test_invariants.py::test_kernel_factors_match_the_theta_oracle[3]",
     "the nf=3 power ladder is eta^8/eta(2t)^3, not (vtheta3 vtheta4)^2 = "
     "eta^8/eta(2t)^4"),
    ("goettsche-kernel-eta-power", INVARIANTS,
     "((1, 22, 4), (2, -20, -8))", "((1, 24, 4), (2, -20, -8))",
     "tests/test_invariants.py::"
     "test_kernel_factors_match_the_theta_oracle[goettsche]",
     "the Goettsche base reads eta(tau/2)^(4w+24), the nf=0 power, not "
     "eta(tau/2)^(4w+22)"),
    ("fm-eta-power", FORMS,
     "(8, -8 * m - 21)", "(8, -8 * m - 20)",
     "tests/test_forms.py::test_form_fm_matches_the_theta_oracle[5-200]",
     "f_m divides by eta(8t)^(8m+20), not eta(8t)^(8m+21), so it starts at "
     "q^-(2m+8/3), not q^-(2m+3)"),
    ("euler-partner-exponent", FORMS,
     "e1 + arg * k", "e1 + k",
     "tests/test_forms.py::test_euler_product_is_the_stored_series[2]",
     "the pentagonal partner of q^(arg k (3k - 1)/2) sits k, not arg k, "
     "above it, so every Euler product P(q^d) with d > 1 is wrong"),
    ("euler-partner-sign", FORMS,
     "nums[e2] = sign", "nums[e2] = -sign",
     "tests/test_forms.py::test_euler_product_is_the_stored_series[1]",
     "the pentagonal partner exponent takes the opposite sign, so P(q) = 1 "
     "- q + q^2 + ... instead of 1 - q - q^2 + ..."),
    ("theta4-every-sign-negative", FORMS,
     "-2 if which == 4 and m % 4 else 2", "-2 if which == 4 else 2",
     "tests/test_forms.py::"
     "test_theta_constant_is_the_stored_series[theta_big-4]",
     "Theta4 = 1 - 2 sum q^(4n^2), every square negative, instead of "
     "alternating in sign"),
    ("reduce-ram-rounds-up", SERIES,
     "g = gcd(self.ram, self.lead, self.prec or 0,\n"
     "                *compress(count(), self.nums))\n"
     "        if g == 1:\n"
     "            return self\n"
     "        return _make(self.ram // g, self.lead // g, self.nums[::g], "
     "self.den,\n"
     "                     None if self.prec is None else self.prec // g)",
     "g = gcd(self.ram, self.lead,\n"
     "                *compress(count(), self.nums))\n"
     "        if g == 1:\n"
     "            return self\n"
     "        return _make(self.ram // g, self.lead // g, self.nums[::g], "
     "self.den,\n"
     "                     None if self.prec is None else -(-self.prec // g))",
     "tests/test_forms.py::test_rescaled_estar_claims_no_more_than_it_knows",
     "reduce_ram reads the grid off the nonzero terms alone and rounds the "
     "window up onto it, so E*(tau/2) known below q^(1/2) claims q^1"),
    ("eta-truncates-on-a-finer-grid", FORMS,
     ".shift_exponent(s).truncate(prec)",
     ".shift_exponent(s).to_ram(24).truncate(prec)",
     "tests/test_forms.py::"
     "test_eta_builders_match_the_per_factor_route[((4, 8), (8, -7))]",
     "an eta quotient is truncated on the grid of 24ths, finer than its "
     "own, so A known below q^(17/3) ends at q^(17/3), where the same A "
     "built on its grid, known to its lattice end, ends at q^6"),
    ("out-of-memory-traceback", CLI,
     "    except MemoryError:\n"
     "        # reported once the handler has let go of the failed frames\n"
     "        message = \"out of memory: retry with a smaller order or bound\"\n",
     "",
     "tests/test_cli.py::test_out_of_memory_is_a_usage_error",
     "a command that runs out of memory prints a traceback and exits 1, the "
     "code of a failed verification, instead of one usage line and exit 2"),
    ("truncate-keeps-empty-grid", SERIES,
     "return out if out.nums else out.reduce_ram()", "return out",
     "tests/test_qseries.py::"
     "test_truncate_stores_an_empty_window_on_the_grid_of_its_bound",
     "truncate keeps a window with no known term on the series' own grid, "
     "so eta served from a memo entry below q^0 is stored on the grid of "
     "24ths where its bound lies on the integers"),
    ("hash-skips-reduce-ram", SERIES,
     "        r = self.reduce_ram()\n", "        r = self\n",
     "tests/test_ring_kernel.py::test_hash_reads_the_coarsest_grid",
     "the hash reads the grid a series is stored on, so a series and the "
     "same series read on a finer grid are equal but hash apart"),
    ("memo-rebuilds-equal-precision", SERIES,
     "if held is None or held[0] < prec:",
     "if held is None or held[0] <= prec:",
     "tests/test_golden.py::"
     "test_golden_memo_builds[verify --suite all --order 24]",
     "a memoized constructor builds its series again when asked at the "
     "precision its entry already holds"),
    ("fm-memoized-again", FORMS,
     "def form_fm(m: int, prec)", "@memo\ndef form_fm(m: int, prec)",
     "tests/test_golden.py::test_memo_entries_serve_requests",
     "f_m holds a memo entry again, though no command asks for one f_m "
     "twice, so the entry serves no request and keeps a series per m for "
     "as long as the process lives"),
    ("exit-freeze-dropped", CLI,
     "atexit.register(gc.freeze)\n", "",
     "tests/test_cli.py::test_cli_exit_skips_the_cyclic_collection",
     "the CLI no longer freezes the heap at exit, so shutdown runs its "
     "cyclic collections over every object the command left"),
    ("z0-eta-power", INVARIANTS,
     "forms.eta_quotient([(8, -3)],", "forms.eta_quotient([(8, -2)],",
     "tests/test_invariants.py::test_z0_series_printed",
     "Z0 divides E*(4 tau) by eta(8 tau)^2, not eta(8 tau)^3"),
    ("z0-check-weight", CLI,
     "q + 4 * mock.cal_f(0, p)", "q + 2 * mock.cal_f(0, p)",
     "tests/test_golden.py::"
     "test_golden_stdout[verify --suite identities --order 120]",
     "the identities suite checks Z0 against calQ + 2 calF0 / Theta4, so "
     "the check of the paper's definition fails"),
    ("json-writer-bypassed", SERIES,
     "exact_str(c // g) if g == den else", "str(c // g) if g == den else",
     "tests/test_golden.py::"
     "test_golden_stdout[series --name Ft:10000 --order 3 --format json]",
     "the json writer converts an integer coefficient with str, which "
     "refuses one past sys.get_int_max_str_digits()"),
    ("u3-relation-factor-2", SW,
     "- 2 * (t3 * t2) ** 2 * (u0 - 1)", "- (t3 * t2) ** 2 * (u0 - 1)",
     "tests/test_sw.py::test_family_identity_suite[3]",
     "the u3 relation is checked as (t3^2 - t2^2)^2 - (t3 t2)^2 (u0 - 1), "
     "which loses the 2 of u3 = -2/(u0 - 1) - 1/2"),
    ("period-half-u", SW,
     "2 * fam.u -", "fam.u -",
     "tests/test_sw.py::test_family_identity_suite[0]",
     "the A-period is read off the contact term as u - (4 - nf) T, not "
     "2u - (4 - nf) T, so it misses u and d(a)/du = omega fails"),
    ("duplication-not-shifted", SW,
     "dup.shift_exponent(Fraction(-1, 2))", "dup",
     "tests/test_sw.py::test_nf2_duplication_check_sees_a_perturbed_u",
     "the duplication residual u2 t2^4 - t3^4 - t4^4 is read unshifted, so "
     "a fault of u2 at q^2 is reported at q^(5/2), t2^4 = 16 q^(1/2) + ... "
     "further out"),
    ("decimal-digits-sign-lost", SERIES,
     "return f\"-{digits}\" if n < 0 else digits", "return digits",
     "tests/test_qseries.py::"
     "test_decimal_digits_are_str_of_the_decimal[-long]",
     "a negative coefficient past str's digit limit is written without its "
     "sign"),
    ("decimal-digits-low-half-lost", SERIES,
     "ctx.add(ctx.multiply(convert(hi, w - h), two(h)),\n"
     "                       convert(lo, h))",
     "ctx.multiply(convert(hi, w - h), two(h))",
     "tests/test_qseries.py::"
     "test_decimal_digits_are_str_of_the_decimal[long]",
     "the divide-and-conquer conversion drops the low half of each split, "
     "so only the top bits of a long coefficient are written"),
    ("windows-int-check-dropped", INVARIANTS,
     'check_index("w", w)', 'check_index("w", int(w) if w >= 0 else w)',
     "tests/test_invariants.py::"
     "test_bad_index_raises_bad_parameter[goettsche_weight(1.5,)]",
     "a weight pass lets a float or Fraction weight into the computation, "
     "where it fails with a TypeError, not a BadParameter that names w"),
    ("memo-precision-unchecked", SERIES,
     "check_precision(args[-1])", "Fraction(args[-1])",
     "tests/test_invariants.py::"
     "test_bad_precision_raises_bad_parameter[eisenstein_e2-2.5]",
     "the memo launders a float precision into a Fraction key, so E2 at 2.5 "
     "is built and held under 5/2"),
    ("theta-big-precision-unchecked", FORMS,
     "choices=(2, 3, 4))\n    top = ceil(check_precision(prec))",
     "choices=(2, 3, 4))\n    top = ceil(prec)",
     "tests/test_invariants.py::"
     "test_bad_precision_raises_bad_parameter[theta_big-str]",
     "Theta_3 at the precision \"5\" fails in ceil with a TypeError, not a "
     "BadParameter that names the precision"),
    ("kernel-r1-entry", INVARIANTS,
     "((1, 24, 4), (2, -21, -8))", "((1, 24, 4), (2, -21, -7))",
     "tests/test_invariants.py::test_kernels_are_read_off_the_sw_chart[0]",
     "the nf=0 base divides by eta(tau)^(7w+21), not eta(tau)^(8w+21), so "
     "its window moves with it but it is no longer the chart's kernel"),
    ("ring-precision-unchecked", SERIES,
     "p = check_precision(prec) * ram", "p = Fraction(prec) * ram",
     "tests/test_qseries.py::test_ring_refuses_a_bad_precision[truncate-2.5]",
     "the ring launders a float precision into a Fraction, so eta truncated "
     "at 2.5 is known below q^(5/2)"),
    ("inverse-precision-unread", SERIES,
     "        if prec is not None:\n            check_precision(prec)\n",
     "",
     "tests/test_qseries.py::"
     "test_ring_refuses_a_bad_precision[inverse-truncated-str]",
     "the inverse of a truncated series, which does not use its precision, "
     "takes a str precision without reading it"),
    ("weight-table-lowest-first", INVARIANTS,
     "range(top, -1, -step)", "range(0, top + 1, step)",
     "tests/test_invariants.py::"
     "test_invariant_table_builds_each_series_once[0]",
     "a table runs its weight passes from the lowest up, so each wider "
     "weight rebuilds the series that a narrower one built"),
    ("kronecker-slot-widened", EXACT,
     "k = (bound.bit_length() + 8) // 8",
     "k = (bound.bit_length() + 8) // 8 + 1",
     "tests/test_certificates.py::test_e4_squared_is_e8",
     "a Kronecker slot one byte wider than it needs: every value and call "
     "count stays, and only the bytes packed grow"),
    ("to-ram-divisibility-unchecked", SERIES,
     "        if ram % self.ram:\n"
     "            raise ValueError(f\"{self.ram} does not divide {ram}\")\n",
     "",
     "tests/test_qseries.py::"
     "test_error_paths_raise_their_message[to-ram-not-a-multiple]",
     "a series on the 1/2 grid is read on the 1/3 grid, which does not "
     "hold its exponents: q^(1/2) comes out as q^(1/3)"),
    ("kronecker-slot-plus-nine", EXACT,
     "k = (bound.bit_length() + 8) // 8",
     "k = (bound.bit_length() + 9) // 8",
     "tests/test_ring_kernel.py::"
     "test_kronecker_slot_is_as_wide_as_its_bound[7]",
     "a bound of 8j + 7 bits takes slots of j + 2 bytes, one more than its "
     "coefficients need: every value stays, and only the bytes packed grow"),
    ("slot-window-no-grid-step", INVARIANTS,
     "return reads, Fraction(1, ram) - base.valuation(), xs",
     "return reads, -base.valuation(), xs",
     "tests/test_acceptance.py::test_criterion_07_main_theorem_grid",
     "the slot is asked below q^-val, not through it, so a pairing whose "
     "last read falls at -val reads a zero past the slot's window"),
    ("empty-base-unchecked", INVARIANTS,
     "    if not base.nums:", "    if False:",
     "tests/test_invariants.py::test_theta_windows_are_exact[goettsche]",
     "a base with no known term reaches base.valuation(), which raises "
     "ValueError instead of InsufficientPrecision"),
    ("rsub-operands-swapped", SERIES,
     "return (-self) + other", "return self - other",
     "tests/test_qseries.py::test_scalar_minus_a_series",
     "a scalar minus a series is the series minus the scalar, so 1 - eta "
     "is eta - 1"),
    ("fm-valuation-written", FORMS,
     "factor_window(prec, quot.valuation()) / 4",
     "factor_window(prec, -2 * m) / 4",
     "tests/test_invariants.py::"
     "test_cofactor_windows_reach_the_precision[fm1-60]",
     "f_m sizes E*(4t) off a hand-written lead q^-2m, three q-steps above "
     "its eta quotient's q^-(2m+3), so its window stops short of prec"),
    ("z0-valuation-written", INVARIANTS,
     "factor_window(prec, quot.valuation()) / 4",
     "factor_window(prec, 0) / 4",
     "tests/test_invariants.py::"
     "test_cofactor_windows_reach_the_precision[z0-60]",
     "Z0 sizes E*(4 tau) as if eta(8 tau)^-3 started at q^0, not q^-1, so "
     "its window stops one q-step short of prec"),
    ("z-bold-valuation-written", INVARIANTS,
     "factor_window(prec, qp.valuation())", "factor_window(prec, 0)",
     "tests/test_invariants.py::"
     "test_cofactor_windows_reach_the_precision[zbold-60]",
     "Z sizes eta^3 as if Q+ started at q^0, not q^(-1/8), so its window "
     "stops short of prec"),
    ("e-bracket-valuation-written", MOCK,
     "factor_window(prec, qp.valuation())", "factor_window(prec, 0)",
     "tests/test_invariants.py::"
     "test_cofactor_windows_reach_the_precision[ebracket10-60]",
     "a bracket of Q+ sizes E2 as if Q+ started at q^0, not q^(-1/8), so "
     "its window stops short of prec"),
    ("nf4-window-unfloored", INVARIANTS,
     "factor_window(max(check_precision(prec), 0), Fraction(-1, 2))",
     "factor_window(check_precision(prec), Fraction(-1, 2))",
     "tests/test_invariants.py::"
     "test_every_constructor_keeps_the_window_contract[nf4_partition--5]",
     "Z4 sizes its factors from prec, not from max(prec, 0), so below q^0 "
     "its empty window stops short of prec: at -5 it is known below q^-22"),
    ("squaring-packing-by-length", EXACT,
     "px if y is x else _pack(y, k)", "px if len(y) == len(x) else "
     "_pack(y, k)",
     "tests/test_ring_kernel.py::"
     "test_kronecker_slot_is_as_wide_as_its_bound[7]",
     "a Kronecker product reuses x's packing for any y of x's length, so a "
     "product of two distinct vectors of one length is x squared"),
    ("pairs-past-the-window", EXACT,
     "    out = [0] * n\n"
     "    for i in ix:\n"
     "        u, top = x[i], n - i\n"
     "        for j, v in ny:\n"
     "            if j >= top:\n"
     "                break\n"
     "            out[i + j] += u * v\n"
     "    return out\n",
     "    out = [0] * (len(x) + len(y))\n"
     "    for i in ix:\n"
     "        u = x[i]\n"
     "        for j, v in ny:\n"
     "            out[i + j] += u * v\n"
     "    return out[:n]\n",
     "tests/test_golden.py::"
     "test_golden_pair_products[series --name Delta --order 60 --format json]",
     "the pair loop multiplies every pair and keeps the first n sums, so it "
     "does the work of the whole product: every value and call count stays, "
     "and only the multiply-adds grow"),
    ("qdq-shortcut-restored", SERIES,
     "raise ValueError(\"derivative order must be non-negative\")\n",
     "raise ValueError(\"derivative order must be non-negative\")\n"
     "        if j == 0:\n"
     "            return self\n",
     "tests/test_reach.py::test_every_statement_is_reached_or_kept",
     "qdq returns the series itself at j = 0, a shortcut that keeps every "
     "value and that no command takes"),
    ("contact-guard-threshold", SW,
     "if not inv.nums:", "if inv.prec_q() <= 1:",
     "tests/test_sw.py::"
     "test_contact_term_serves_every_family_with_an_inverse_term[1/2]",
     "the contact term refuses every family whose 1/W is known to q^1 or "
     "less, though it can serve each one with a known term"),
    ("contact-guard-dropped", SW,
     "if not inv.nums:", "if False:",
     "tests/test_sw.py::"
     "test_contact_term_refuses_a_family_with_no_inverse_term",
     "a family whose 1/W has no known term reaches the valuation of 1/W, "
     "which raises ValueError, not InsufficientPrecision"),
]


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
        if _pytest(copy, [killer])[0]:
            return True, killer
        killed, detail = _pytest(copy, [])
        if killed and detail != killer:
            detail += " (new killer)"
        return killed, detail


def verdict(mutant) -> tuple:
    """(line, unexpected) for one mutant: its verdict line, and whether it
    survived or its old text was not found once."""
    name, file, old, new, killer, why = mutant
    try:
        killed, detail = run(name, file, old, new, killer)
    except LookupError as exc:
        return f"missing   {exc}", True
    state = "killed" if killed else "survived"
    mark = "" if killed else f"  UNEXPECTED: {why}"
    return f"{state:9s} {name}: {detail}{mark}", not killed


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unexpected = 0
    # the threads only wait on their pytest subprocesses
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        for line, bad in pool.map(verdict, chosen):
            print(line, flush=True)
            unexpected += bad
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
