"""The mutation list stays aimed: each mutant's old text occurs exactly
once in its file, so a refactor that rewrites a targeted line fails here
rather than only in the full mutation run (``python3 tests/mutants.py``)."""

import pytest

from mutants import EQUIVALENT, MUTANTS, ROOT


@pytest.mark.parametrize("name, file, old", [m[:3] for m in MUTANTS],
                         ids=[m[0] for m in MUTANTS])
def test_mutant_old_text_occurs_once(name, file, old):
    assert (ROOT / file).read_text().count(old) == 1, name


def test_mutant_names_are_unique():
    names = [m[0] for m in MUTANTS]
    assert len(set(names)) == len(names) and EQUIVALENT <= set(names)
