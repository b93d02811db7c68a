"""tools/mutants.py: every mutant still applies to today's source."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_each_old_text_occurs_once(mutant):
    # an edit whose anchor has gone or become ambiguous would plant nothing,
    # or the wrong fault
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
