"""Counters of the memo builds of ``forms`` and ``mock`` and of the calls of
the integer kernel's entries.  They import no pytest, so the golden script
counts as the ``memo_builds`` fixture does, under any interpreter."""

from collections import Counter
from contextlib import contextmanager
from functools import update_wrapper

from qdonald import exact, forms, mock, series

# the kernel entries counted: the two product branches, and the power
# recurrence where the ring calls it, so that the call that raises a base on
# its sublattice is not counted again
KERNEL_ENTRIES = ((exact, "_pairs"), (exact, "_kronecker"),
                  (series, "int_power"))


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
    """Empty every memoized constructor and count its builds inside the
    block: {(name, key): builds}, key the arguments before the precision.
    A call builds when its memo entry holds a new series afterwards; a
    request served by truncation builds nothing.  Each counting wrapper
    keeps its memo's ``entries`` and ``clear``, so that
    :func:`clear_memos` still empties every memo."""
    builds = Counter()

    def wrap(name, fn):
        def counted(*args):
            held = fn.entries.get(args[:-1])
            out = fn(*args)
            if fn.entries.get(args[:-1]) is not held:
                builds[name, args[:-1]] += 1
            return out
        fn.clear()
        return update_wrapper(counted, fn)
    with _wrapped([(module, name) for module, name, _ in memoized()], wrap):
        yield builds


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
