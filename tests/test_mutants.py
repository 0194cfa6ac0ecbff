"""The mutation gate's table (tools/mutants.py) follows the code: each
mutant's old text occurs exactly once in its file, and each killing test
names a test that exists (a parametrized case names its function)."""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_applies_to_exactly_one_place(mutant):
    assert mutants.occurrences(mutant) == 1
    assert mutant.old != mutant.new
    for test in mutant.tests:
        path, name = test.split("[")[0].split("::")
        assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8"), test
