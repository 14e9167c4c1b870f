"""The mutation list stays aimed: each mutant's old text occurs exactly
once in its file, so a refactor that rewrites a targeted line fails here
rather than only in the full mutation run (``python3 tests/mutants.py``),
and each named killer is a test that Tier-1 collects."""

import importlib
import os
import subprocess

import pytest
from hypothesis import is_hypothesis_test

from mutants import MUTANTS, ROOT, TIER1


@pytest.mark.parametrize("name, file, old", [m[:3] for m in MUTANTS],
                         ids=[m[0] for m in MUTANTS])
def test_mutant_old_text_occurs_once(name, file, old):
    assert (ROOT / file).read_text().count(old) == 1, name


def test_mutant_names_are_unique():
    names = [m[0] for m in MUTANTS]
    assert len(set(names)) == len(names)


def test_mutant_killers_are_tier1_tests():
    """Every mutant names its killer, and the Tier-1 command of the
    mutation run collects each killer by its ID."""
    assert [m[0] for m in MUTANTS if not m[4]] == []
    killers = [m[4] for m in MUTANTS]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(TIER1 + ["--collect-only", *killers], cwd=ROOT,
                          env=env, text=True, capture_output=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert set(killers) <= set(done.stdout.splitlines())


def test_mutant_killers_are_not_hypothesis_properties():
    """A killer fails on its mutant every time: none is a @given property,
    whose examples may miss the fault."""
    properties = []
    for name, _, _, _, killer, _ in MUTANTS:
        path, test = killer.split("::")
        module = importlib.import_module(os.path.basename(path)[:-3])
        if is_hypothesis_test(getattr(module, test.split("[")[0])):
            properties.append((name, killer))
    assert not properties
