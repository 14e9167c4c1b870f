"""Fixtures shared by the test modules."""

from collections import Counter
from contextlib import contextmanager

import pytest

from counters import counting_memo_builds
from qdonald import forms


@pytest.fixture
def memo_builds() -> Counter:
    """Empty every memo of ``forms`` and ``mock`` and count the memo builds
    from then on, as :func:`counters.counting_memo_builds` counts them."""
    with counting_memo_builds() as (builds, _):
        yield builds


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
