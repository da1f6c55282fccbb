"""The mutant register in ``mutants.py`` stays applicable.

Running the register takes minutes; this check takes milliseconds, so a
refactor that moves or duplicates a registered snippet fails here rather
than as "snippet not found" when the register next runs.
"""

from mutants import MUTANTS, ROOT


def test_every_registered_snippet_occurs_exactly_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        source = (ROOT / mutant.path).read_text()
        assert source.count(mutant.snippet) == 1, mutant.name
        assert mutant.replacement != mutant.snippet, mutant.name
        for test in mutant.tests:
            assert (ROOT / test.split("::")[0]).is_file(), (mutant.name, test)
