"""Invariant tables, the vanishing criterion, and the auxiliary series."""

import inspect
import random
from fractions import Fraction as F
from functools import partial
from math import lcm
from types import SimpleNamespace

import oracles
import pytest
from conftest import theta_forbidden
from counters import (MEMO_KEYS, clear_memos, counting_memo_builds,
                      memoized, stored)
from hypothesis import given, settings, strategies as st

from qdonald import (BadParameter, InsufficientPrecision, NotRational,
                     QSeries, forms, invariants as inv, mock, sw)
from qdonald.series import factor_window


PRINTED_NF0 = {
    (0, 0): F(-1),
    (0, 2): F(-3, 16), (1, 1): F(-5, 16), (2, 0): F(-19, 16),
    (0, 4): F(-29, 32), (1, 3): F(-19, 32), (2, 2): F(-17, 32),
    (3, 1): F(-23, 32), (4, 0): F(-85, 32),
}

PRINTED_NF0_COMBOS = {
    (0, 0): ((0, F(6)), (1, F(-1, 4))),
    (0, 2): ((0, F(-2133, 64)), (1, F(9, 4)), (2, F(-49, 64))),
    (1, 1): ((0, F(-195, 64)), (1, F(1, 4)), (2, F(-7, 64))),
    (2, 0): ((0, F(411, 64)), (1, F(-1, 4)), (2, F(-1, 64))),
    (0, 4): ((0, F(108741, 128)), (1, F(44631, 1024)), (2, F(2401, 128)),
             (3, F(-14641, 1024))),
    (4, 0): ((0, F(1725, 128)), (1, F(-505, 1024)), (2, F(-7, 128)),
             (3, F(-1, 1024))),
}


def _grid(max_weight) -> list:
    """The (m, n) with m + n <= max_weight, by weight, then by m."""
    return [(m, w - m) for w in range(max_weight + 1) for m in range(w + 1)]


def test_goettsche_printed_small():
    for (m, n), value in PRINTED_NF0.items():
        assert inv.goettsche_weight(m + n)[m] == value


def test_uplane_nf0_values_and_combos():
    for (m, n), value in PRINTED_NF0.items():
        cell = inv.uplane_weight(0, m + n)[m]
        assert cell.value == value
        if (m, n) in PRINTED_NF0_COMBOS:
            assert cell.h_combo == PRINTED_NF0_COMBOS[(m, n)]


def test_main_theorem_small_grid():
    for weight in (0, 2, 4):
        for m in range(weight + 1):
            assert inv.goettsche_weight(weight)[m] == \
                inv.uplane_weight(0, weight)[m].value


@pytest.mark.parametrize("nf", [0, 2])
def test_parity_vanishing(nf):
    for (m, n) in [(0, 1), (1, 0), (0, 3), (2, 1)]:
        assert inv.uplane_weight(nf, m + n)[m].value == 0


PRINTED_NF2 = {
    (0, 0): F(-3), (0, 2): F(-21, 16), (1, 1): F(-27, 16), (2, 0): F(-53, 16),
    (0, 4): F(-3955, 256), (1, 3): F(-1925, 256), (2, 2): F(-1219, 256),
    (3, 1): F(-949, 256), (4, 0): F(-1811, 256),
}

PRINTED_NF3 = {
    (0, 0): F(-5, 4), (0, 1): F(-95, 96), (1, 0): F(45, 32),
    (0, 2): F(-1787, 768), (1, 1): F(201, 256), (2, 0): F(-489, 256),
    (0, 3): F(-189187, 18432), (1, 2): F(2211, 2048),
    (2, 1): F(-1627, 2048), (3, 0): F(5843, 2048),
}


def test_uplane_nf2_printed():
    for (m, n), value in PRINTED_NF2.items():
        assert inv.uplane_weight(2, m + n)[m].value == value
    # zero rows carry non-trivial combinations
    cell = inv.uplane_weight(2, 1)[0]
    assert cell.value == 0
    assert cell.h_combo == ((1, F(77, 16)), (3, F(-11, 16)))


def test_uplane_nf3_printed():
    for (m, n), value in PRINTED_NF3.items():
        assert inv.uplane_weight(3, m + n)[m].value == value
    assert inv.uplane_weight(3, 0)[0].h_combo == \
        ((0, F(3, 2)), (2, F(3, 16)), (4, F(-1, 16)))
    # the pS^2 row pins the corrected reading of the printed 743/3072 entry
    assert inv.uplane_weight(3, 2)[1].h_combo == \
        ((0, F(-991, 384)), (2, F(-4577, 3072)), (4, F(-5, 24)),
         (6, F(743, 3072)), (8, F(-31, 1024)))


def test_combos_evaluate_to_values():
    """The H-combination of each printed cell, evaluated on the H_a read off
    calQ, gives the printed value."""
    h = mock.h_coefficients(14)
    assert h[:6] == [1, 28, 39, 196, 161, 756]
    for nf, table in ((0, PRINTED_NF0), (2, PRINTED_NF2), (3, PRINTED_NF3)):
        for (m, n), value in table.items():
            cell = inv.uplane_weight(nf, m + n)[m]
            assert inv.evaluate_h_combo(cell.h_combo, h) == value


@pytest.mark.parametrize("nf", [0, 2, 3])
def test_tables_match_kernel_products(nf):
    """Every cell to weight 8 equals the route that multiplies every kernel
    out and pairs it coefficient by coefficient, value and H-combination."""
    for m, n in _grid(8):
        cell = inv.uplane_weight(nf, m + n)[m]
        assert (cell.value, cell.h_combo) == oracles.uplane_cell(nf, m, n)


def test_goettsche_matches_kernel_products():
    for m, n in _grid(8):
        if (m + n) % 2 == 0:
            assert inv.goettsche_weight(m + n)[m] == \
                oracles.goettsche_value(m, n)


def _typed(x):
    """x with the type of every number next to it."""
    return tuple(map(_typed, x)) if isinstance(x, tuple) else (type(x), x)


def _weight_pass(family, w) -> list:
    """The cells of weight w by m, as the per-cell oracle gives them."""
    if family == "goettsche":
        return inv.goettsche_weight(w)
    cells = inv.uplane_weight(family, w)
    return [(cell.value, cell.h_combo) for cell in cells]


@pytest.mark.parametrize("family", ["goettsche", 0, 2, 3])
def test_weight_passes_match_the_per_cell_pairing(family):
    """Every cell to weight 12 equals its own rows summed over the weight's
    kernel frame read in Fractions: value, H-combination and the type of
    every number."""
    for w in range(13):
        frame = oracles.kernel_frame(family, w)
        want = [oracles.pairing_cell(family, m, w - m, frame)
                for m in range(w + 1)]
        assert _typed(tuple(_weight_pass(family, w))) == _typed(tuple(want))


def test_goettsche_weights_match_the_per_cell_pairing_to_20():
    """The factored Goettsche pass (the sum over j formed once per (s, l))
    gives every cell to weight 20 as its own rows do on the weight's frame,
    each value a Fraction."""
    for w in range(13, 21):
        frame = oracles.kernel_frame("goettsche", w)
        want = [oracles.pairing_cell("goettsche", m, w - m, frame)
                for m in range(w + 1)]
        assert _typed(tuple(inv.goettsche_weight(w))) == _typed(tuple(want))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["goettsche", 0, 2, 3]), st.integers(0, 20),
       st.data())
def test_random_cells_match_the_per_cell_pairing(family, w, data):
    """Random cells to weight 20 against the per-cell pairing."""
    m = data.draw(st.integers(0, w))
    want = oracles.pairing_cell(family, m, w - m,
                                oracles.kernel_frame(family, w))
    assert _typed(_weight_pass(family, w)[m]) == _typed(want)


def test_nf3_s_duality():
    """The transform slot and -Q give the same invariant values."""
    for (m, n) in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        slot = -mock.q_plus(m + n + 6)
        kernels = oracles.uplane_kernels(m, n, oracles.uplane_frame(3, m, n))
        value = sum((c * oracles.pair_constant_term(k, slot, j)
                     for _, c, k, _, j in kernels), F(0))
        assert value == inv.uplane_weight(3, m + n)[m].value


def _shorten(monkeypatch, module, name, step):
    """Make module.<name>(..., prec) known one grid step less far than
    asked."""
    build = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: build(*args).truncate(args[-1] - step))


def _cells(nf) -> list:
    """The cells of weight <= 4, the Goettsche ones on their stratum."""
    cells = _grid(4)
    if nf == "goettsche":
        cells = [(m, n) for m, n in cells if (m + n) % 2 == 0]
    return cells


def _cell(nf, m, n):
    if nf == "goettsche":
        return inv.goettsche_weight(m + n)[m]
    return inv.uplane_weight(nf, m + n)[m]


# the IDs name each family's slot (F_t, Q+, Q+ at tau/2, the S-transform of
# Q+); the test shortens the memoized series that the slot is read from
@pytest.mark.parametrize("nf, slot, step", [
    ("goettsche", "cal_f", 1),
    (0, "cal_q", 1),
    (2, "cal_q", 1),  # Q+ at tau/2 is calQ at 16 x: one 1/16 step
    (3, "q_transform_s_ren", F(1, 4)),  # its grid is q^(1/4)
], ids=["goettsche-f_t-step0", "0-q_plus-step1", "2-q_plus-step2",
        "3-q_transform_s-step3"])
def test_pairing_windows_are_exact(nf, slot, step, monkeypatch):
    """The window rule leaves no slack: a slot known one step of its own
    grid less far than it gives makes every cell of weight <= 4 raise,
    never return."""
    _shorten(monkeypatch, mock, slot, step)
    for m, n in _cells(nf):
        with pytest.raises(InsufficientPrecision):
            _cell(nf, m, n)


@pytest.mark.parametrize("nf", ["goettsche", 0, 2, 3])
def test_theta_windows_are_exact(nf, monkeypatch):
    """The kernels' theta quotients are eta quotients times powers of E* or
    of an eta quotient.  Each of those that the kernels ask, known one step
    of its own grid less far than the window rule gives, makes every cell
    of weight <= 4 raise; the slots' eta quotients stay whole."""
    def short(build):
        def cut(*args):
            s = build(*args)
            return s.truncate(F(args[-1]) - F(1, s.ram))
        return cut
    kernel_forms = SimpleNamespace(**vars(forms))
    for name in ("eta_quotient", "eisenstein_estar"):
        setattr(kernel_forms, name, short(getattr(forms, name)))
    monkeypatch.setattr(inv, "forms", kernel_forms)
    for m, n in _cells(nf):
        with pytest.raises(InsufficientPrecision):
            _cell(nf, m, n)


def _agree(a, b, window) -> bool:
    """a and b are both known below q^window and agree there."""
    ram = lcm(a.ram, b.ram)
    a, b = a.to_ram(ram), b.to_ram(ram)
    return min(a.prec_q(), b.prec_q()) >= window and \
        a.truncate(window) == b.truncate(window)


@pytest.mark.parametrize("family", ["goettsche", 0, 2, 3])
def test_kernel_factors_match_the_theta_oracle(family):
    """The eta-quotient base, power ladder and E2 of every weight 0 to 12
    equal the theta-constant route's as far as the reads need them: the base
    below q^top, the ladder and E2 below q^(top - val).  (Past that window
    the routes know different amounts: a Goettsche ladder of weight 0 or 1,
    E*(tau/2) from E* known below q^1, is known below q^(1/2) only.)"""
    t0, _, ram = inv._FAMILIES[family][:3]
    top = F(t0 + 1, ram)
    for w in range(13):
        factors = inv._factors(family, w)
        val = factors[0].valuation()
        pairs = zip(factors, oracles.kernel_factors_theta(family, w))
        for (ours, theirs), window in zip(pairs, (top, top - val, top - val)):
            assert _agree(ours, theirs, window), (family, w)


# each family's kernels on the Seiberg-Witten chart (u, W) of sw_family(nf):
# (nf, a, lam, e, factors), with pows = (u + a) W and base W^(w+6) lam^-w =
# 2^e prod eta(d tau/c)^r over the factors (d, r), the same for every w
SW_KERNELS = {
    "goettsche": (0, 0, F(2), 15, [(1, -2), (2, 28)]),
    0: (0, 0, F(2), 15, [(2, 27)]),
    2: (0, 0, F(2), 14, [(1, 3), (2, 24)]),
    3: (3, F(1, 2), F(-1, 4), 15, [(1, 3), (4, 24)]),
}


@pytest.mark.parametrize("family", ["goettsche", 0, 2, 3])
def test_kernels_are_read_off_the_sw_chart(family):
    """Every kernel follows from a Seiberg-Witten chart: for each weight w
    <= 8, on the windows _factors builds, the power ladder is (u + a) W, and
    the base times W^(w+6) lam^-w is one eta quotient, whatever w.  The
    chart is built far enough that each product is known as far as its
    kernel factor lets it be: the ladder's window, and the base's shifted
    by the valuation of W^(w+6), which holds as many terms as the base and
    reaches past the quotient's lead."""
    nf, a, lam, e, factors = SW_KERNELS[family]
    c = inv._FAMILIES[family][3]
    for w in range(9):
        base, pows, _ = inv._factors(family, w)
        top, val = base.prec_q(), base.valuation()
        fam = sw.sw_family(nf, max(pows.prec_q(), top - val) + 1)
        assert _agree(pows, (fam.u + a) * fam.omega2, pows.prec_q()), w
        product = base * fam.omega2 ** (w + 6) * lam ** -w
        window = top + (w + 6) * fam.omega2.valuation()
        mu = 2 ** e * forms.eta_quotient(factors, c * window).rescale(1, c)
        assert mu.nums and _agree(product, mu, window), w


def _as_fractions(reads) -> dict:
    return {key: [F(v, den) for v in ints]
            for key, (ints, den) in reads[0].items()}


@pytest.mark.parametrize("factor", ["kernel", "e2"])
@pytest.mark.parametrize("nf, w", [("goettsche", 4), (0, 2), (2, 2), (3, 1)])
def test_kernel_reads_need_the_last_term_they_read(nf, w, factor,
                                                   monkeypatch):
    """The highest kernel read is P_k E_l at q^(t0/ram).  It needs P_k
    known through q^(t0/ram), and E2 through q^(t0/ram - val), val the
    kernels' valuation (these w put that point on E2's grid).  A factor cut
    at exactly that point reads what the full one reads; cut one grid step
    shorter, the read raises instead of using a term past its window."""
    t0, _, ram = inv._FAMILIES[nf][:3]
    full = inv._reads(nf, w)
    build = inv._factors
    base, _, e2 = build(nf, w)
    if factor == "kernel":
        edge, step = F(t0, ram), F(1, ram)
    else:
        edge, step = F(t0, ram) - base.valuation(), F(1, e2.ram)
    assert (edge / step).denominator == 1
    for short in (False, True):
        top = edge + step - (step if short else 0)

        def cut(*args):
            b, p, e = build(*args)
            if factor == "kernel":
                return b.truncate(top), p, e
            return b, p, e.truncate(top)
        monkeypatch.setattr(inv, "_factors", cut)
        if short:
            with pytest.raises(InsufficientPrecision):
                inv._reads(nf, w)
        else:
            reads = inv._reads(nf, w)
            assert _as_fractions(reads) == _as_fractions(full)
            assert reads[1:] == full[1:]


def test_criterion_summand_windows_are_exact(monkeypatch):
    """The criterion products are known through q^p0: the coefficient at
    q^p0 is the pairing of q^-p0 kernel with the slot, and a slot one 1/8
    step shorter no longer reaches it."""
    m, n, p0 = 1, 1, F(1)
    for short in (False, True):
        if short:
            _shorten(monkeypatch, mock, "f_t", F(1, 8))
            _shorten(monkeypatch, mock, "q_plus", F(1, 8))
        for kernels in oracles.criterion_kernels(m, n, p0):
            for _, c, kernel, slot, d in kernels:
                shifted = kernel.shift_exponent(-p0)
                if short:
                    with pytest.raises(InsufficientPrecision):
                        oracles.pair_constant_term(shifted, slot, d)
                else:
                    assert oracles.pair_constant_term(shifted, slot, d) == \
                        (kernel * slot.qdq(d)).coeff(p0)


PRINTED_LAMBDA = {
    (1, 0, 0): {-8: F(1, 256), -4: F(43, 256), 0: F(7, 16)},
    (1, 1, 0): {-8: F(1, 768), -4: F(35, 768), 0: F(-13, 48)},
    (1, 1, 1): {-8: F(-1, 768), -4: F(-59, 768), 0: F(-85, 96)},
    (2, 0, 0): {-12: F(-1, 3072), -8: F(-7, 256), -4: F(-11, 16), 0: F(-85, 96)},
    (2, 1, 0): {-12: F(1, 3072), -8: F(5, 256), -4: F(13, 64), 0: F(-247, 48)},
    (2, 1, 1): {-12: F(1, 1024), -8: F(-13, 256), -4: F(-203, 64), 0: F(85, 16)},
}


def test_lambda_summands_printed():
    sides = oracles.criterion_summands(3, 1, 8)
    for (side, k, j), coeffs in PRINTED_LAMBDA.items():
        lam = sides[side - 1][(k, j)]
        for e, c in coeffs.items():
            assert lam.coeff(e) == c, (side, k, j, e)


def test_lambda_constant_telescoping():
    side1, side2 = oracles.criterion_summands(3, 1, 8)
    consts = [side1[(k, j)].constant_term()
              for k in range(2) for j in range(k + 1)]
    consts += [-side2[(k, j)].constant_term()
               for k in range(2) for j in range(k + 1)]
    assert consts == [F(7, 16), F(-13, 48), F(-85, 96),
                      F(85, 96), F(247, 48), F(-85, 16)]
    assert sum(consts) == 0


def test_lambda_general_corner_agreement():
    """Constant terms of side-1 (m,n,n,n) and side-2 (m,n,0,0) agree.

    This is the corner pairing of the worked (3,1) example; the prose
    statement of the general claim swaps the two corners, but only this
    orientation holds (checked on a grid of small (m, n)).
    """
    for (m, n) in [(3, 1), (1, 1), (0, 2), (2, 2), (0, 1)]:
        side1, side2 = oracles.criterion_summands(m, n, 8)
        c1 = side1[(n, n)].constant_term()
        c2 = side2[(0, 0)].constant_term()
        assert c1 == c2


def test_lambda_sums_recover_both_sides():
    """Summing the renormalized summands recovers the two invariant values:
    side 1 totals the instanton side, side 2 the u-plane side, and each
    equals the pairing sum that criterion_weight compares."""
    for (m, n) in _grid(3):
        side1, side2 = oracles.criterion_summands(m, n, 8)
        s1 = sum(side1[(k, j)].constant_term()
                 for k in range(n + 1) for j in range(k + 1))
        s2 = sum(side2[(k, j)].constant_term()
                 for k in range(n + 1) for j in range(k + 1))
        goettsche, nf0 = oracles.criterion_kernels(m, n, 0)
        assert s1 == oracles.pair_sum(goettsche)
        assert s2 == oracles.pair_sum(nf0)
        assert s1 == inv.goettsche_weight(m + n)[m]
        assert s2 == inv.uplane_weight(0, m + n)[m].value
        assert s1 == s2


def test_criterion_small_grid():
    for weight in range(4):
        assert all(inv.criterion_weight(weight))


@pytest.mark.parametrize("call, args", [
    (inv.uplane_weight, (5, 1)),
    (inv.uplane_weight, ("goettsche", 1)),
    (inv.uplane_weight, (0, -1)),
    (inv.uplane_weight, (3, -2)),
    (inv.goettsche_weight, (-1,)),
    (inv.criterion_weight, (-1,)),
])
def test_weight_passes_refuse_bad_input(call, args):
    """An nf without a u-plane family or a negative weight is a
    BadParameter that names it, not a KeyError, a NotInvertible or an empty
    list."""
    with pytest.raises(BadParameter, match=r"^(nf|w) must be "):
        call(*args)


BAD_INDICES = [
    (inv.uplane_weight, (0, 1.5), "w"),
    (inv.goettsche_weight, (1.5,), "w"),
    (inv.hurwitz, (2.5,), "nmax"),
    (inv.uplane_weight, (0.0, 2), "nf"),
    (inv.weight_table, (inv.criterion_weight, 1.5), "max_weight"),
    (inv.weight_table, (inv.goettsche_weight, 2.0, 2), "max_weight"),
    (inv.criterion_weight, (F(3, 2),), "w"),
    (forms.form_fm, (1.5, 3), "m"),
    (mock.cal_f, (2.0, 10), "t"),
    (mock.e_bracket, (1.5, 0, 5), "i"),
    (sw.check_family, (0.0, 5), "nf"),
    (sw.sw_family, (3.0, 5), "nf"),
]


@pytest.mark.parametrize("call, args, name", BAD_INDICES, ids=[
    f"{call.__name__}{tuple(getattr(a, '__name__', a) for a in args)}"
    .replace(" ", "").replace("'", "") for call, args, _ in BAD_INDICES])
def test_bad_index_raises_bad_parameter(call, args, name, monkeypatch):
    """A float or Fraction index raises one BadParameter line that names
    it, before any memo is read: every other memoized constructor refuses
    to run, and calF_2, which t = 2.0 would hit, is held in its memo."""
    def refuse(*a):
        raise AssertionError(f"a memo was read: {a}")
    mock.cal_f(2, 10)
    for module, attr, fn in memoized():
        if fn is not call:
            monkeypatch.setattr(module, attr, refuse)
    with pytest.raises(BadParameter, match=rf"^{name} must be ") as raised:
        call(*args)
    assert "\n" not in str(raised.value)


# every public constructor of forms, mock, invariants and sw that takes a
# precision, with the indices it is called with before it
PRECISION_CALLS = [
    (forms.euler_product, ()), (forms.eta, ()),
    (forms.eta_quotient, ([(2, 4), (4, -8)],)), (forms.delta, ()),
    (forms.theta_big, (3,)), (forms.theta_inverse, (2,)),
    (forms.vartheta, (2,)), (forms.eisenstein_e2, ()),
    (forms.eisenstein_e4, ()), (forms.eisenstein_estar, ()),
    (forms.eisenstein_eodd, ()), (forms.form_a, ()), (forms.form_b, ()),
    (forms.form_a38, ()), (forms.form_a78, ()), (forms.form_h, ()),
    (forms.form_fm, (1,)), (mock.cal_f, (2,)), (mock.f_t, (2,)),
    (mock.mock_m, ()), (mock.lerch_mu_weighted, (2,)), (mock.cal_q, ()),
    (mock.q_plus, ()), (mock.s_transform_parts, ()),
    (mock.q_transform_s_ren, ()), (mock.q_transform_s, ()),
    (mock.e_bracket, (2, 1)), (inv.z0_series, ()), (inv.z_bold, ()),
    (inv.rho4, ()), (inv.nf4_partition, ()), (sw.sw_family, (0,)),
    (sw.check_family, (0,)),
]
PRECISION_IDS = [call.__name__ for call, _ in PRECISION_CALLS]


@pytest.mark.parametrize("prec", [2.5, "5", None, float("nan")],
                         ids=["2.5", "str", "None", "nan"])
@pytest.mark.parametrize("call, args", PRECISION_CALLS, ids=PRECISION_IDS)
def test_bad_precision_raises_bad_parameter(call, args, prec):
    """A precision that is neither an int nor a Fraction raises one
    BadParameter line that names it, before any memo is read: no entry is
    made, as Fraction(prec) would make one under 5/2 for 2.5 or 5 for "5"."""
    clear_memos()
    with pytest.raises(BadParameter, match="^precision must be an int or "
                       "a Fraction, not ") as raised:
        call(*args, prec)
    assert "\n" not in str(raised.value)
    assert not any(fn.entries for _, _, fn in memoized())


# precisions that are neither an int nor a Fraction: floats, NaN and +-inf
# among them, text, None, Decimals and complex numbers
NON_RATIONAL_PRECISIONS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.none(), st.decimals(allow_nan=True, allow_infinity=True),
    st.complex_numbers())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRECISION_CALLS), NON_RATIONAL_PRECISIONS)
def test_every_constructor_refuses_a_non_rational_precision(call_args, prec):
    """Whatever the precision's type, if it is not an int or a Fraction,
    every public constructor raises one BadParameter line and adds no memo
    entry."""
    call, args = call_args
    clear_memos()
    with pytest.raises(BadParameter, match="^precision must be an int or "
                       "a Fraction, not ") as raised:
        call(*args, prec)
    assert "\n" not in str(raised.value)
    assert not any(fn.entries for _, _, fn in memoized())


@pytest.mark.parametrize("call, args", PRECISION_CALLS, ids=PRECISION_IDS)
def test_int_and_fraction_precisions_are_accepted(call, args):
    """An int and an equal Fraction precision, each from empty memos, give
    one stored result; 7/2 and -3 give one too, but for the nf=0 checks,
    whose family known below q^-3 is too short for the contact term."""
    results = []
    for prec in (6, F(6)):
        clear_memos()
        results.append(stored(call(*args, prec)))
    assert results[0] == results[1]
    call(*args, F(7, 2))
    if call is sw.check_family:
        with pytest.raises(InsufficientPrecision):
            call(*args, -3)
    else:
        call(*args, -3)


def test_every_constructor_with_a_precision_is_listed():
    """PRECISION_CALLS holds every public function of forms, mock,
    invariants and sw with a parameter named prec, and nothing else, so
    that the window contract and the BadParameter tests over it see a
    constructor added later."""
    found = {fn for module in (forms, mock, inv, sw)
             for name, fn in vars(module).items()
             if inspect.isfunction(fn) and fn.__module__ == module.__name__
             and not name.startswith("_")
             and "prec" in inspect.signature(fn).parameters}
    assert found == {call for call, _ in PRECISION_CALLS}


# below, at and past the constructors' leads (q^-5 of f_1, q^-1 of Z0,
# q^(-1/8) of Q+), on and off their grids
CONTRACT_PRECS = [-5, F(-3, 2), -1, F(-1, 8), 0, F(1, 16), F(1, 8), F(1, 3),
                  F(1, 2), 1, F(9, 8), F(13, 6), F(5, 2), 7, F(21, 2), 30]
# check_family returns check records, not series
CONTRACT_CALLS = [(call, args) for call, args in PRECISION_CALLS
                  if call is not sw.check_family]


def _series(result) -> list:
    """The series of a constructor's result, in order: the result itself, or
    those of a dict, a list or a tuple."""
    if isinstance(result, QSeries):
        return [result]
    if isinstance(result, (dict, list, tuple)):
        values = result.values() if isinstance(result, dict) else result
        return [s for v in values for s in _series(v)]
    return []


@pytest.mark.parametrize("prec", CONTRACT_PRECS, ids=str)
@pytest.mark.parametrize("call, args", CONTRACT_CALLS,
                         ids=[call.__name__ for call, _ in CONTRACT_CALLS])
def test_every_constructor_keeps_the_window_contract(call, args, prec):
    """The window contract: with every memo empty, each series of a
    constructor's result at prec is known below q^prec, below its lead too,
    and is the build at prec + 40 truncated at its window, stored alike: a
    window with no known term too, as truncate stores it on the grid of its
    bound."""
    clear_memos()
    narrow = _series(call(*args, prec))
    clear_memos()
    wide = _series(call(*args, prec + 40))
    assert narrow and len(narrow) == len(wide)
    for s, w in zip(narrow, wide):
        assert s.prec_q() >= prec
        assert stored(s) == stored(w.truncate(s.prec_q()))


def test_memo_history_changes_no_result():
    """Requests interleaved over the memoized constructors at random
    precisions, each served from what the requests before it left in the
    memos, are each stored as a build with every memo empty stores it: 60
    runs of 12 requests, each run from empty memos."""
    rng = random.Random(27)
    keys = [(fn, key) for _, name, fn in memoized() for key in MEMO_KEYS[name]]
    runs = []
    for _ in range(60):
        clear_memos()
        asks = []
        for _ in range(12):
            den = rng.choice((1, 2, 3, 8, 16, 24))
            asks.append((*rng.choice(keys),
                         F(rng.randrange(-5 * den, 30 * den + 1), den)))
        runs += [(fn, key, p, fn(*key, p)) for fn, key, p in asks]
    fresh = {}
    for fn, key, p, served in runs:
        if (fn, key, p) not in fresh:
            clear_memos()
            fresh[fn, key, p] = fn(*key, p)
        assert stored(served) == stored(fresh[fn, key, p]), (fn, key, p)


def test_negative_precision_is_an_empty_window():
    eta = forms.eta(-3)
    assert (eta.ram, eta.lead, eta.prec, eta.nums) == (1, -3, -3, ())


def test_criterion_series_window():
    s = oracles.criterion_series(0, 0, 16)
    assert s.constant_term() == 0


def test_z0_series_printed():
    z0 = inv.z0_series(20)
    assert [z0.coeff(e) for e in (-1, 3, 7, 11)] == [1, 24, 27, 168]
    assert (z0 - oracles.z0_from_mock(20)).is_zero()


@pytest.mark.parametrize("order", [0, F(1, 3), F(5, 2), 24, 121, 600])
def test_z0_series_is_stored_as_the_mock_route(order):
    """The closed form E*(4 tau)/eta(8 tau)^3 is stored as the paper's
    calQ + 4 calF0 / Theta4 is, on the same grid and window."""
    assert stored(inv.z0_series(order)) == stored(oracles.z0_from_mock(order))


def test_z0_fm_products_printed():
    z0 = inv.z0_series(40)
    prod0 = z0 * forms.form_fm(0, 40)
    assert [prod0.coeff(e) for e in (-4, 0, 4, 8, 12)] == \
        [1, 0, -276, 4096, -33606]
    prod3 = z0 * forms.form_fm(3, 40)
    assert [prod3.coeff(e) for e in (-10, -6, -2, 0, 2)] == \
        [1, 60, 738, 0, -11256]


# f_m, Z0, Z and the brackets of Q+, each one factor times a cofactor whose
# window is read off that factor's lead, with the route each is checked by
WINDOW_CASES = (
    [(f"fm{m}", partial(forms.form_fm, m), partial(oracles.form_fm_theta, m))
     for m in range(7)]
    + [("z0", inv.z0_series, oracles.z0_from_mock),
       ("zbold", inv.z_bold, oracles.z_bold_wide)]
    + [(f"ebracket{i}{j}", partial(mock.e_bracket, i, j),
        partial(oracles.e_bracket_wide, i, j))
       for i, j in ((0, 0), (1, 0), (1, 1), (2, 1), (3, 2))])
# below, at and past the leads q^-(2m+3), q^-1 and q^(-1/8)
WINDOW_PRECS = (-5, -1, 0, F(1, 8), F(1, 3), 1, F(13, 2), 60)


@pytest.mark.parametrize(
    "build, reference, prec",
    [(b, r, p) for _, b, r in WINDOW_CASES for p in WINDOW_PRECS],
    ids=[f"{name}-{p}" for name, _, _ in WINDOW_CASES for p in WINDOW_PRECS])
def test_cofactor_windows_reach_the_precision(build, reference, prec):
    """Each series sizes its cofactor off the lead of the factor it builds
    first, to q^0 at least, and it is stored as its reference route stores
    it (the theta quotient, the mock route, or the product of factors built
    wider than they need to be); that its window reaches the precision asked
    is test_every_window_reaches_its_precision's."""
    assert stored(build(prec)) == stored(reference(prec))


def test_hurwitz_values():
    h = inv.hurwitz(23)
    assert h[0] == F(-1, 12)
    assert h[3] == F(1, 3) and 3 * h[3] == 1
    assert h[4] == F(1, 2)
    assert h[7] == 1 and 18 * h[3] + 3 * h[7] == 9
    assert h[11] == 1 and 81 * h[3] + 18 * h[7] + 3 * h[11] == 48
    assert h[12] == F(4, 3)
    assert h[15] == 2
    assert h[1] == 0 and h[2] == 0 and h[5] == 0


def test_hurwitz_kronecker_relation():
    """The Kronecker-Hurwitz class number relation for every n <= 300:
    sum over t^2 <= 4n of H(4n - t^2) = 2 sigma(n) - sum_{d | n} min(d, n/d),
    with H(0) = -1/12."""
    h = inv.hurwitz(1200)
    for n in range(1, 301):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        t = 0
        while (t + 1) ** 2 <= 4 * n:
            t += 1
        lhs = sum(h[4 * n - u * u] for u in range(-t, t + 1))
        assert lhs == 2 * sum(divisors) - sum(min(d, n // d)
                                              for d in divisors), n


def test_vafa_witten_series_printed():
    vw = inv.vafa_witten_series(8)
    got = [vw.coeff(k - F(1, 2)) for k in range(1, 8)]
    assert got == [1, 9, 48, 203, 729, 2346, 6918]
    h = inv.hurwitz(19)
    assert 294 * h[3] + 81 * h[7] + 18 * h[11] + 3 * h[15] == 203


def test_vafa_witten_eta6_crosscheck():
    """Multiplying back by eta^6 recovers 3 H(4k-1) exactly."""
    vw = inv.vafa_witten_series(10)
    back = vw * forms.eta_quotient([(1, 6)], 10)
    h = inv.hurwitz(43)
    for k in range(1, 10):
        assert back.coeff(k - F(1, 4)) == 3 * h[4 * k - 1]


@pytest.mark.parametrize("kmax", range(1, 13))
def test_vafa_witten_series_matches_the_euler_product_route(kmax):
    """Over eta^-6 = q^(-1/4) P^-6 and shifted by -1/4, the series equals,
    window included, the numerator over P^-6 shifted by -1/2."""
    h = inv.hurwitz(4 * kmax + 3)
    num = QSeries.from_terms(
        {k: 3 * h[4 * k - 1] for k in range(1, kmax + 1)}, kmax + 1)
    inv6 = forms.euler_product(kmax + 1).inverse() ** 6
    ref = (num * inv6).shift_exponent(F(-1, 2)).truncate(kmax + F(1, 2))
    got = inv.vafa_witten_series(kmax)
    assert got == ref and got.prec_q() == ref.prec_q() == kmax + F(1, 2)


def test_vafa_witten_zero_input():
    num = QSeries.from_terms({}, 9)
    inv6 = forms.euler_product(9).inverse() ** 6
    assert (num * inv6).is_zero()


def brute_trivariate_f(k: int, r: int, deg: int) -> dict:
    """Oracle: exponentiate the trivariate argument with dict arithmetic,
    truncating by total degree in (x, y, z)."""
    def mul(p1, p2):
        out = {}
        for (a1, b1, c1), v1 in p1.items():
            for (a2, b2, c2), v2 in p2.items():
                key = (a1 + a2, b1 + b2, c1 + c2)
                if key[0] + key[1] + key[2] <= deg:
                    out[key] = out.get(key, F(0)) + v1 * v2
        return out

    arg = {}
    for l in range(deg // 2 + 1):
        arg[(1, 0, 2 * l)] = F((-1) ** l, 2 * (2 * l + 1))
        arg[(0, 2, 2 * l)] = F((-1) ** l, 4 * (2 * l + 3))
    for s in range(1, deg // 2 + 1):
        arg[(0, 0, 2 * s)] = (arg.get((0, 0, 2 * s), F(0))
                              + F(-(r * r - k)) * F((-1) ** (s + 1), 2 * s))
    for l in range(1, deg // 2 + 1):
        arg[(0, 0, 2 * l)] = (arg.get((0, 0, 2 * l), F(0))
                              + F(4 * k - 1, 4) * F((-1) ** l, 2 * l + 1))
    total = {(0, 0, 0): F(1)}
    term = {(0, 0, 0): F(1)}
    for s in range(1, deg + 1):
        term = {key: v / s for key, v in mul(term, arg).items()}
        if not term:
            break
        for key, v in term.items():
            total[key] = total.get(key, F(0)) + v
    return {key: v for key, v in total.items() if v}


def test_index_chern_coeffs_trivial():
    table = oracles.index_chern_coeffs(3, 1, 2, 2, 2)
    assert table[(0, 0, 0)] == 1
    assert table[(1, 0, 0)] == F(1, 2)


def test_index_chern_coeffs_against_trivariate_oracle():
    deg = 4
    got = oracles.index_chern_coeffs(2, 0, deg, deg // 2, deg // 2)
    oracle = brute_trivariate_f(2, 0, deg)
    for (i, b, c), v in oracle.items():
        if i + b + c <= deg and b % 2 == 0 and c % 2 == 0:
            assert got[(i, b, c)] == v, (i, b, c)


def test_index_chern_coeffs_stores_zeros():
    """A cell inside the window whose coefficient vanishes reads 0: at k =
    -1/2, r = 0, J3 = -(1/4) log(1 + z^2) - (3/4) (J1(z) - 1) has no z^2
    term, so neither has exp(J3)."""
    table = oracles.index_chern_coeffs(F(-1, 2), 0, 1, 1, 2)
    assert table[(0, 0, 2)] == 0
    assert table[(0, 0, 0)] == 1 and table[(0, 0, 4)] != 0


def test_index_chern_coeffs_window():
    """The table holds every cell (i, 2j, 2l) of its window and no other
    key: f_(5,0,0) = (1/2)^5 / 5! = 1/3840 lies past imax = 2, and a key
    outside the window raises KeyError rather than reading as 0."""
    table = oracles.index_chern_coeffs(3, 1, 2, 2, 2)
    for key in ((5, 0, 0), (0, 6, 0), (0, 0, 6), (0, 1, 0), (-1, 0, 0)):
        with pytest.raises(KeyError):
            table[key]
    assert sorted(table) == [(i, 2 * j, 2 * l) for i in range(3)
                             for j in range(3) for l in range(3)]
    assert oracles.index_chern_coeffs(3, 1, 5, 0, 0)[(5, 0, 0)] == F(1, 3840)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(1, 4),
       st.lists(st.fractions(-9, 9, max_denominator=5), max_size=12))
def test_series_exp_matches_taylor(ram, lead, coeffs):
    """The exp recurrence agrees with the Taylor sum of a^s / s! on the
    Taylor sum's window, and knows at least as much."""
    a = QSeries(ram, lead, coeffs, lead + len(coeffs))
    got, want = oracles.series_exp(a), oracles.taylor_exp(a)
    assert (got - want).is_zero()
    assert got.prec_q() >= want.prec_q()


def test_series_exp_refuses_exact_nonzero():
    """exp of an exact nonzero series has no finite window to stop at."""
    with pytest.raises(ValueError):
        oracles.series_exp(QSeries.monomial(1, F(1, 2)))
    with pytest.raises(ValueError):
        oracles.series_exp(QSeries.from_terms({0: F(1)}, 5))
    assert oracles.series_exp(QSeries.zero()) == QSeries.one()


def test_phi_euler_combo_negative_degrees():
    """m, n < 0 are refused, not read off the end of the Goettsche
    cells."""
    for nf, k, m, n in ((2, 2, -1, 1), (2, 2, 1, -1), (3, 4, -1, 1)):
        with pytest.raises(BadParameter, match="m, n must be"):
            oracles.phi_euler_combo(nf, k, m, n)


def test_phi_euler_combo_constraints():
    with pytest.raises(BadParameter, match="nf=2 needs k even"):
        oracles.phi_euler_combo(2, 3, 1, 0)
    with pytest.raises(BadParameter, match="nf=2 needs k even"):
        oracles.phi_euler_combo(2, 2, 1, 0)
    with pytest.raises(BadParameter, match="nf=3 needs k even"):
        oracles.phi_euler_combo(3, 4, 1, 1)


PHI_EULER_CELLS = (
    [(2, k, m, k - 2 - m) for k in (2, 4, 6, 8) for m in range(k - 1)]
    + [(3, k, m, k // 2 - 2 - m) for k in (4, 6, 8, 10)
       for m in range(k // 2 - 1)])


def test_phi_euler_combo_delta_kernel(monkeypatch):
    """With the Goettsche values replaced by a delta at p^(m+big) S^(2n),
    only the j = 0 term of the exponential survives: the w^big coefficient
    of exp(nf J3), which the convolution reads off the (0, big) cell of the
    nf-fold Chern table."""
    for nf, k, m, n in PHI_EULER_CELLS[::3]:
        big = k if nf == 2 else 3 * k // 2
        delta = [F(0)] * (2 * k - 1)
        delta[m + big] = F(1)
        monkeypatch.setattr(inv, "goettsche_weight", lambda w: delta)
        value = oracles.phi_euler_combo(nf, k, m, n)
        assert value == oracles.phi_euler_convolution(nf, k, m, n) != 0
        j3 = oracles._chern_series(k, 0, big + 1)[2]
        assert value == oracles.series_exp(nf * j3).coeff(big)


@pytest.mark.parametrize("nf, k, m, n", PHI_EULER_CELLS)
def test_phi_euler_combo_matches_convolution(nf, k, m, n):
    """The series exponential gives the nf-fold convolution of the Chern
    table on every valid cell of these k."""
    assert oracles.phi_euler_combo(nf, k, m, n) == \
        oracles.phi_euler_convolution(nf, k, m, n)


def test_phi_euler_combo_values_frozen():
    # no printed targets exist, and no fixed ratio to the u-plane values
    # holds (the table of phi / D in CHANGES.md); freeze the derived
    # values as regressions
    assert oracles.phi_euler_combo(2, 2, 0, 0) == F(-17, 240)
    assert oracles.phi_euler_combo(2, 4, 1, 1) == F(-125917, 58060800)
    assert oracles.phi_euler_combo(3, 4, 0, 0) == F(1456153, 3587584000)


def test_nf4_partition():
    z4 = inv.nf4_partition(6)
    assert (z4.shift_tau(2) - z4).is_zero()
    # g-factor leading term: -(1/36) q^(-1/3)
    eta_inv = forms.eta_quotient([(1, -1)], 8)
    r2 = forms.vartheta(2, 8) * eta_inv
    r3 = forms.vartheta(3, 8) * eta_inv
    g = F(-1, 36) * (r2 ** 8 - r2 ** 4 * r3 ** 4 + r3 ** 8)
    assert g.valuation() == F(-1, 3)
    assert g.coeff(F(-1, 3)) == F(-1, 36)


@pytest.mark.parametrize("p", [0, F(1, 3), F(1, 2), 1, 2, 3, F(7, 2),
                               F(15, 4), 8, 12, 16, F(33, 2), 100, 1000],
                         ids=str)
def test_nf4_partition_matches_theta_route(p):
    """The modular differential operator on E4 gives the series of the
    theta polynomial route: the same grid, window, denominator and
    integers."""
    assert stored(inv.nf4_partition(p)) == \
        stored(oracles.nf4_partition_theta(p))


def test_nf4_partition_asks_no_theta_and_makes_five_products(monkeypatch):
    """Past Q+ (whose M divides by Theta2), nf4_partition builds eta^-1 and
    eta^-4, asks once for E4, which holds no memo entry, and calls no theta
    constant, and from its factors it makes five series products."""
    with counting_memo_builds() as (builds, requests):
        mock.q_plus(factor_window(12, F(-1, 2)))
        builds.clear()
        requests.clear()
        with theta_forbidden():
            inv.nf4_partition(12)
    assert set(builds) == {("_eta_quotient", (((1, -1),),)),
                           ("_eta_quotient", (((1, -4),),))}
    assert requests["eisenstein_e4", ()] == 1
    products = []
    mul = QSeries.__mul__

    def counted(a, b):
        if isinstance(b, QSeries):
            products.append(b)
        return mul(a, b)
    monkeypatch.setattr(QSeries, "__mul__", counted)
    inv.nf4_partition(12)
    assert len(products) == 5


@pytest.mark.parametrize("p", [F(1, 8), F(5, 2), 6, 20])
def test_shifts_of_z_and_nf4_are_sign_twists(p):
    """Z lives on (1/2)Z of its 1/8 grid and the nf = 4 partition function
    on 1/2 + Z of its 1/24 grid, so these shifts multiply each term by 1 or
    -1: each is a rational series, and equals the reference twist."""
    z = inv.z_bold(p)
    z4 = inv.nf4_partition(p)
    for s, k in ((z, 1), (z, 2), (z, 3), (z4, 2)):
        assert oracles.is_sign_twist(s, k)
        assert s.shift_tau(k) == oracles.twist(s, k).to_rational()


def test_z_transformation_lemma():
    p = 20
    z = inv.z_bold(p)
    lhs = z - z.shift_tau(1)
    rhs = 56 * forms.eta_quotient([(2, 8), (1, -4)], p)
    assert (lhs - rhs).is_zero()
    alt = (z - z.shift_tau(1) + z.shift_tau(2) - z.shift_tau(3)) \
        * forms.eta_quotient([(1, -4)], p)
    assert (alt - 28 * inv.rho4(p)).is_zero()
    assert (alt - 112 * forms.eta_quotient([(2, 8), (1, -8)], p)).is_zero()
    h = mock.h_coefficients(2 * p + 2)
    odd = QSeries.from_terms({m: h[2 * m + 1] for m in range(p)}, p)
    via_h = 4 * odd.shift_exponent(F(3, 8)) * forms.eta_quotient([(1, -1)], p)
    assert (alt - via_h).is_zero()


def test_z_alternating_sum_closed_forms():
    """The alternating shift sum equals 28 rho^4 eta^4 = 112 eta(2t)^8/eta^4;
    it also equals twice Z(tau) - Z(tau+1), pinning the normalization that
    the corresponding proof display understates by a factor of two."""
    p = 16
    z = inv.z_bold(p)
    alt = z - z.shift_tau(1) + z.shift_tau(2) - z.shift_tau(3)
    closed = 112 * forms.eta_quotient([(2, 8), (1, -4)], p)
    assert (alt - closed).is_zero()
    assert (alt - 2 * (z - z.shift_tau(1))).is_zero()


def test_q_plus_shift_two_invariance():
    """zeta8^2 Q+(tau+2) = Q+(tau).  Q+(tau+2) = -i Q+(tau) is no rational
    series: shift_tau refuses it, and the reference twist computes it."""
    from qdonald.exact import root_of_unity
    q = mock.q_plus(10)
    with pytest.raises(NotRational):
        q.shift_tau(2)
    twisted = root_of_unity(8, 2) * oracles.twist(q, 2)
    assert (twisted - q).is_zero() and twisted.prec == q.prec


@pytest.mark.parametrize("weight, step", [
    (partial(inv.uplane_weight, 0), 1), (partial(inv.uplane_weight, 2), 1),
    (partial(inv.uplane_weight, 3), 1), (inv.goettsche_weight, 2),
    (inv.criterion_weight, 1),
], ids=["0", "2", "3", "goettsche", "criterion"])
def test_invariant_table_builds_each_series_once(weight, step, memo_builds):
    """A table runs its weights from the highest down, and each weight asks
    a series at its widest window first: every memo entry is built once.
    nf=2 reads E2 at tau/2 as well as at tau."""
    inv.weight_table(weight, 7, step)
    assert memo_builds and set(memo_builds.values()) == {1}, memo_builds


def test_invariant_table_shape():
    """Cells are keyed by weight, then by m; step keeps the weights that
    are its multiples, and the passes run from the highest weight down."""
    passes = []

    def weight(w):
        passes.append(w)
        return [(m, w - m) for m in range(w + 1)]
    table = inv.weight_table(weight, 2)
    assert list(table) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert all(cell == key for key, cell in table.items())
    assert passes == [2, 1, 0]
    passes.clear()
    assert list(inv.weight_table(weight, 5, step=2)) == [
        (0, 0), (0, 2), (1, 1), (2, 0),
        (0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]
    assert passes == [4, 2, 0]
    assert inv.weight_table(partial(inv.uplane_weight, 0), 0)[0, 0].value == -1
