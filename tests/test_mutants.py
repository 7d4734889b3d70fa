"""Every mutant of ``tests/mutants.py`` still applies: its old text occurs once in ``src/``.

The mutation round itself runs in CI (``python tests/mutants.py``); this
check is cheap, so a change to the program that moves a mutant's old
text is caught on every tier-1 run.
"""

import pytest

from mutants import MUTANTS, ROOT, occurrences


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant[0] for mutant in MUTANTS])
def test_the_old_text_occurs_once(mutant):
    name, file, old, new, tests = mutant
    assert old != new and tests
    assert occurrences(ROOT / "src" / file, old) == 1


def test_mutant_ids_are_unique():
    assert len({mutant[0] for mutant in MUTANTS}) == len(MUTANTS)
