"""The standing corpus: every spec file under every option set, byte for byte.

``tests/corpus/regenerate.py`` rewrites the expected files; a behaviour
change is then reviewed as their diff.
"""

import pytest

from corpus.regenerate import EXPECTED, OPTION_SETS, corpus_text, spec_files

SPECS = spec_files()


def test_corpus_holds_every_spec_and_option_set():
    assert len(SPECS) == 26 and len(OPTION_SETS) == 5
    assert sorted(p.name for p in EXPECTED.glob("*.txt")) == [p.name for p in SPECS]


@pytest.mark.parametrize("spec", SPECS, ids=lambda p: p.stem)
def test_corpus_runs_match_expected(spec):
    assert corpus_text(spec) == (EXPECTED / spec.name).read_text(encoding="utf-8")
