"""The mutation catalogue (``tests/mutants.py``) stays applicable: its
entries are run by ``python tests/mutants.py``, not here."""

import os

import pytest

from mutants import MUTANTS, ROOT, _occurrences


@pytest.mark.parametrize("m", MUTANTS, ids=[m.id for m in MUTANTS])
def test_each_mutant_text_occurs_exactly_once(m):
    assert _occurrences(m) == 1
    assert m.replacement != m.text
    for sel in m.tests:  # a test file, not this one, which every mutant fails
        path = sel.split("::")[0]
        assert path.endswith(".py") and path != "tests/test_mutants.py", sel
        assert os.path.exists(os.path.join(ROOT, path)), sel


def test_mutant_ids_are_unique():
    assert len({m.id for m in MUTANTS}) == len(MUTANTS) >= 12
