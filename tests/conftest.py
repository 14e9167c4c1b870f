"""Fixtures shared by the test modules."""

from collections import Counter

import pytest

from qdonald import forms, mock


@pytest.fixture
def memo_builds(monkeypatch) -> Counter:
    """Empty every memoized constructor of ``forms`` and ``mock`` and count
    its builds from then on: {(name, key): builds}, key the arguments before
    the precision.  A call builds when its memo entry holds a new series
    afterwards; a request served by truncation builds nothing."""
    builds = Counter()
    for module in (forms, mock):
        for name, fn in list(vars(module).items()):
            if not hasattr(fn, "entries"):
                continue
            fn.clear()

            def counted(*args, fn=fn, name=name):
                held = fn.entries.get(args[:-1])
                out = fn(*args)
                if fn.entries.get(args[:-1]) is not held:
                    builds[name, args[:-1]] += 1
                return out
            monkeypatch.setattr(module, name, counted)
    return builds
