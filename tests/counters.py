"""Counters of the memo requests and builds of ``forms`` and ``mock``, of
the calls of the integer kernel's entries, of the multiply-adds of its pair
loops and of the bytes its Kronecker products pack, and the stored form,
window and agreement that tests compare series by.  They import no pytest,
so the golden script counts as the ``memo_builds`` fixture does, under any
interpreter."""

from collections import Counter
from contextlib import contextmanager
from functools import update_wrapper
from math import gcd

from qdonald import QSeries, exact, forms, invariants, mock, series

# the kernel entries counted: the two product branches, and the power
# recurrence where the ring calls it, so that the call that raises a base on
# its sublattice is not counted again
KERNEL_ENTRIES = ((exact, "_pairs"), (exact, "_kronecker"),
                  (series, "int_power"))

# constructors that hold no memo entry, since no command asks one of them
# twice with one key: their requests are counted, so that a test sees one
# asked again
UNMEMOIZED = ((forms, "eisenstein_e4"), (forms, "eisenstein_eodd"),
              (forms, "form_fm"), (mock, "lerch_mu_weighted"))


def memoized() -> list:
    """(module, name, constructor) of every memoized constructor of
    ``forms``, ``mock`` and ``invariants``."""
    return [(module, name, fn) for module in (forms, mock, invariants)
            for name, fn in vars(module).items() if hasattr(fn, "entries")]


def constructors() -> list:
    """(module, name, constructor) of every memoized constructor and of each
    ``UNMEMOIZED`` one: the constructors whose requests are counted."""
    found = memoized()
    held = {name for _, name, _ in found}
    return found + [(module, name, getattr(module, name))
                    for module, name in UNMEMOIZED if name not in held]


# the keys that the memo tests ask each of the ``constructors`` for: for the
# eta quotients eta, eta^3, eta^-4, the nf=0 kernel base, h's quotient and
# the divisors 1/Theta2, 1/Theta3 and 1/Theta4
MEMO_KEYS = {
    "_eta_quotient": [(f,) for f in (
        ((1, 1),), ((1, 3),), ((1, -4),), ((1, 24), (2, -21)),
        ((2, 4), (4, -8)), *forms._THETA_INVERSE.values())],
    "eisenstein_e2": [()], "eisenstein_e4": [()], "eisenstein_estar": [()],
    "eisenstein_eodd": [()], "form_a38": [()], "form_a78": [()],
    "form_h": [()], "form_fm": [(0,), (3,)], "_cal_f": [(0,), (2,)],
    "mock_m": [()], "lerch_mu_weighted": [(0,), (2,)], "cal_q": [()],
    "q_transform_s_ren": [()]}


def stored(result):
    """Each series of a result as it is stored, (ram, lead, prec, den,
    nums): grid, window and integers, in a dict, a list or a tuple alike."""
    if isinstance(result, QSeries):
        return result.ram, result.lead, result.prec, result.den, result.nums
    if isinstance(result, dict):
        return {key: stored(v) for key, v in result.items()}
    if isinstance(result, (list, tuple)):
        return [stored(v) for v in result]
    return result


def canonical(s: QSeries) -> QSeries:
    """s, checked to be stored in canonical form: integers over a positive
    denominator in lowest terms, no leading zero, no trailing zero when
    exact, and the empty window at its bound over 1."""
    assert type(s.den) is int and s.den > 0
    assert all(type(v) is int for v in s.nums)
    assert gcd(s.den, *s.nums) == 1
    if s.nums:
        assert s.nums[0] and (s.prec is not None or s.nums[-1])
    else:
        assert s.den == 1 and s.lead == (0 if s.prec is None else s.prec)
    if s.prec is not None:
        assert len(s.nums) == s.prec - s.lead
    return s


def window(s: QSeries):
    """The Fraction view of canonical s: grid, window, coefficients and
    their types."""
    canonical(s)
    return s.ram, s.lead, s.prec, s.coeffs, [type(c) for c in s.coeffs]


def agree(a: QSeries, b: QSeries, window) -> bool:
    """a and b agree below their common window, which reaches ``window``."""
    common = min(a.prec_q(), b.prec_q())
    return common >= window and a.truncate(common) == b.truncate(common)


def clear_memos() -> None:
    """Empty every memo of ``forms`` and ``mock``, so that each series asked
    for next is built anew."""
    for _, _, fn in memoized():
        fn.clear()


@contextmanager
def _wrapped(entries, wrap):
    """Inside the block, each ``module.name`` of *entries* (module, name)
    is ``wrap(name, fn)``, fn the function it held; after it, fn again."""
    held = [(module, name, getattr(module, name)) for module, name in entries]
    try:
        for module, name, fn in held:
            setattr(module, name, wrap(name, fn))
        yield
    finally:
        for module, name, fn in held:
            setattr(module, name, fn)


@contextmanager
def counting_memo_builds():
    """Empty every memoized constructor and count, inside the block, the
    requests of it and of each ``UNMEMOIZED`` constructor, and the builds of
    the memoized ones: (builds, requests), each {(name, key): count}, key
    the arguments before the precision.  A call builds when its memo entry
    holds a new series afterwards; a request served by truncation builds
    nothing.  Each counting wrapper keeps its memo's ``entries`` and
    ``clear``, so that :func:`clear_memos` still empties every memo."""
    builds, requests = Counter(), Counter()

    def wrap(name, fn):
        entries = getattr(fn, "entries", {})

        def counted(*args):
            key = args[:-1]
            requests[name, key] += 1
            held = entries.get(key)
            out = fn(*args)
            if entries.get(key) is not held:
                builds[name, key] += 1
            return out
        entries.clear()
        return update_wrapper(counted, fn)
    with _wrapped([(module, name) for module, name, _ in constructors()],
                  wrap):
        yield builds, requests


@contextmanager
def counting_kernel_calls():
    """Count the calls of the ``KERNEL_ENTRIES`` inside the block:
    {name: calls}.  A product takes one of the two branches once."""
    calls = Counter()

    def wrap(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted
    with _wrapped(KERNEL_ENTRIES, wrap):
        yield calls


@contextmanager
def counting_packed_bytes():
    """The bytes that ``_kronecker`` packs inside the block: a list with
    the k len(x) bytes of each ``_pack(x, k)``, two per Kronecker product.
    A slot one byte wider than the product needs shows here, where no value
    or call count changes."""
    packed = []

    def wrap(name, fn):
        def counted(x, k):
            packed.append(len(x) * k)
            return fn(x, k)
        return counted
    with _wrapped(((exact, "_pack"),), wrap):
        yield packed


@contextmanager
def counting_pair_products():
    """The multiply-adds that ``_pairs`` makes inside the block: a list with
    the count of each call.  Each nonzero term of its first operand comes in
    as an int that counts the products it takes part in, so a loop that
    multiplies pairs past its window shows here, where no value or call
    count changes."""
    counts = []

    class Counted(int):
        def __mul__(self, other):
            counts[-1] += 1
            return int(self) * other
        __rmul__ = __mul__

    def wrap(name, fn):
        def counted(x, y, n, ix, iy):
            counts.append(0)
            x = list(x)
            for i in ix:
                x[i] = Counted(x[i])
            return fn(x, y, n, ix, iy)
        return counted
    with _wrapped(((exact, "_pairs"),), wrap):
        yield counts
