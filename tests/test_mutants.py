"""The committed mutant set stays applicable: every snippet of the table in
`tests/mutants.py` occurs exactly once in `src/`. Running the mutants
themselves is opt-in (`python3 tests/mutants.py`)."""

from __future__ import annotations

import pytest

from tests.mutants import MUTANTS, occurrences


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_snippet_occurs_once_in_src(mutant):
    assert occurrences(mutant) == 1
    assert mutant.kill and mutant.snippet != mutant.replacement
