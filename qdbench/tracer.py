"""Outside-in span tracer for the qdonald layers.

``install()`` replaces the public entry points of ``series``, ``exact``,
``forms``, ``mock``, ``sw``, ``invariants`` and ``cli`` with wrappers that
record one span per call.  The library source is not touched: the wrappers
are set as module and class attributes before ``cli.main`` runs, and every
cross-module call in the library goes through those attributes.

A span is ``[name_id, start_ns, end_ns, parent, overhead_ns, counts]``.
``overhead_ns`` is the tracer's own bookkeeping inside the span but outside
its child spans, so that self times exclude it.  ``counts`` holds the work
counted from the operands (``series.mul`` and ``series.inverse`` only).
Spans stay in memory until the process ends; ``Tracer.dump()`` returns them.

The stack of open spans is shared by all threads.  That is exact when one
thread at a time runs library code, which holds for the CLI with its worker
pool at the default size of one.
"""

from __future__ import annotations

import functools
import inspect
import time
from bisect import bisect_left
from math import gcd

_clock = time.perf_counter_ns

# QSeries methods by layer name; every other wrapped method is "other".
SERIES_OPS = {
    "__mul__": "series.mul",
    "inverse": "series.inverse",
    "__pow__": "series.pow",
    "__add__": "series.other.add",
    "__sub__": "series.other.sub",
    "truncate": "series.other.truncate",
    "rescale": "series.other.rescale",
    "shift_tau": "series.other.shift_tau",
    "qdq": "series.other.qdq",
    "to_ram": "series.other.to_ram",
    "reduce_ram": "series.other.reduce_ram",
    "from_terms": "series.other.from_terms",
}
CYCLO_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
             "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "inverse")


def _nonzero_exponents(s, step: int) -> list:
    return [(s.lead + i) * step for i, c in enumerate(s.coeffs) if c]


def mul_counts(result, a, b) -> tuple:
    """(nominal products, products from dense-by-dense calls) of ``a * b``.

    A nominal product is a pair of nonzero terms whose exponent sum lies
    inside the product's known window.  Pairs are counted by bisection, not
    by multiplying.  A scalar operand is a one-term series.
    """
    if type(b) is not type(a):
        if not b:
            return 0, 0
        n = sum(1 for c in a.coeffs if c)
        return n, (n if 2 * n >= len(a.coeffs) else 0)
    ram = a.ram * b.ram // gcd(a.ram, b.ram)
    sa, sb = ram // a.ram, ram // b.ram
    ea, eb = _nonzero_exponents(a, sa), _nonzero_exponents(b, sb)
    if not ea or not eb:
        return 0, 0
    bounds = [p * s + other.lead * t for p, s, other, t in
              ((a.prec, sa, b, sb), (b.prec, sb, a, sa)) if p is not None]
    if bounds:
        hi = min(bounds)
        n = sum(bisect_left(eb, hi - x) for x in ea)
    else:
        n = len(ea) * len(eb)
    dense = 2 * len(ea) >= len(a.coeffs) and 2 * len(eb) >= len(b.coeffs)
    return n, (n if dense else 0)


def inverse_counts(result, s, prec=None) -> tuple:
    """(output window terms, nonzero divisor terms inside that window)."""
    window = result.prec + s.lead
    return window, sum(1 for c in s.coeffs[:window] if c)


class Tracer:
    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn, counts=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, _clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            parent = stack[-1] if stack else -1
            span = [name_id, 0, 0, parent, 0, None]
            stack.append(len(spans))
            spans.append(span)
            t1 = span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = span[2] = clock()
                stack.pop()
            if counts is not None:
                span[5] = counts(result, *args, **kwargs)
            if parent >= 0:
                spans[parent][4] += (t1 - t0) + (clock() - t2)
            return result
        return traced

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


def _public_callables(module):
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield attr, obj


def install(tracer: Tracer) -> None:
    """Wrap the qdonald entry points in place; call before ``cli.main``."""
    from qdonald import cli, exact, forms, invariants, mock, series, sw

    counters = {"series.mul": mul_counts, "series.inverse": inverse_counts}
    qs = series.QSeries
    for attr, name in SERIES_OPS.items():
        raw = inspect.getattr_static(qs, attr)
        if isinstance(raw, staticmethod):
            setattr(qs, attr, staticmethod(tracer.wrap(name, raw.__func__)))
        else:
            setattr(qs, attr, tracer.wrap(name, raw, counters.get(name)))
    for attr in CYCLO_OPS:
        setattr(exact.Cyclo, attr,
                tracer.wrap(f"exact.cyclo.{attr.strip('_')}",
                            inspect.getattr_static(exact.Cyclo, attr)))
    for module in (forms, mock, sw, invariants):
        layer = module.__name__.rsplit(".", 1)[1]
        for attr, fn in list(_public_callables(module)):
            setattr(module, attr, tracer.wrap(f"{layer}.{attr}", fn))
    cli.main = tracer.wrap("cli.main", cli.main)
