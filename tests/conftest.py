"""Fixtures shared by the test modules."""

from collections import Counter
from contextlib import contextmanager
from functools import update_wrapper

import pytest

from qdonald import exact, forms, mock, series


def memoized() -> list:
    """(module, name, constructor) of every memoized constructor of
    ``forms`` and ``mock``."""
    return [(module, name, fn) for module in (forms, mock)
            for name, fn in vars(module).items() if hasattr(fn, "entries")]


def clear_memos() -> None:
    """Empty every memo of ``forms`` and ``mock``, so that each series asked
    for next is built anew."""
    for _, _, fn in memoized():
        fn.clear()


@contextmanager
def counting_memo_builds():
    """Empty every memoized constructor of ``forms`` and ``mock`` and count
    its builds inside the block: {(name, key): builds}, key the arguments
    before the precision.  A call builds when its memo entry holds a new
    series afterwards; a request served by truncation builds nothing.  Each
    counting wrapper keeps its memo's ``entries`` and ``clear``, so that
    :func:`clear_memos` still empties every memo."""
    builds = Counter()
    with pytest.MonkeyPatch.context() as patch:
        for module, name, fn in memoized():
            fn.clear()

            def counted(*args, fn=fn, name=name):
                held = fn.entries.get(args[:-1])
                out = fn(*args)
                if fn.entries.get(args[:-1]) is not held:
                    builds[name, args[:-1]] += 1
                return out
            patch.setattr(module, name, update_wrapper(counted, fn))
        yield builds


@pytest.fixture
def memo_builds() -> Counter:
    """The memo builds from here on, as :func:`counting_memo_builds` counts
    them."""
    with counting_memo_builds() as builds:
        yield builds


# the integer kernel's entries whose calls are counted: the two product
# branches, and the power recurrence where the ring calls it, once a power
KERNEL_ENTRIES = ((exact, "_pairs"), (exact, "_kronecker"),
                  (series, "int_power"))


@contextmanager
def counting_kernel_calls():
    """Count the calls of ``exact._pairs``, ``exact._kronecker`` and
    ``exact.int_power`` inside the block: {name: calls}.  A product takes
    one of the two branches once; int_power is counted as ``series`` calls
    it, so the call that raises a base on its sublattice is not counted
    again."""
    calls = Counter()
    with pytest.MonkeyPatch.context() as patch:
        for module, name in KERNEL_ENTRIES:
            def counted(*args, fn=getattr(module, name), name=name):
                calls[name] += 1
                return fn(*args)
            patch.setattr(module, name, counted)
        yield calls


@pytest.fixture
def kernel_calls() -> Counter:
    """Empty every memo of ``forms`` and ``mock`` and count the kernel calls
    from then on, as :func:`counting_kernel_calls` counts them."""
    clear_memos()
    with counting_kernel_calls() as calls:
        yield calls


@contextmanager
def theta_forbidden():
    """Fail on any call of ``forms.theta_big`` or ``forms.vartheta`` inside
    the block: the code run there builds no theta constant.  (Each theta
    constant is one lattice pass without a memo, so no memo can show it.)"""
    def refuse(*args):
        raise AssertionError(f"a theta constant was built: {args}")
    with pytest.MonkeyPatch.context() as patch:
        for name in ("theta_big", "vartheta"):
            patch.setattr(forms, name, refuse)
        yield
