"""scripts/mutate_kernels.py's list of edits still fits the source it mutates.

The mutants themselves run in CI's own step; this only checks, without
running any, that each edit applies exactly once to the current code.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutate_kernels",
                                              ROOT / "scripts" / "mutate_kernels.py")
mutate_kernels = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutate_kernels)


@pytest.mark.parametrize("mutant", mutate_kernels.MUTANTS, ids=lambda m: m.name)
def test_each_edit_applies_once_and_changes_the_source(mutant):
    source = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert mutate_kernels.mutated(mutant, ROOT) != source


def test_an_edit_whose_text_moved_is_refused(tmp_path):
    (tmp_path / "k.py").write_text("a = 1\na = 1\n", encoding="utf-8")
    for old in ("a = 1\n", "b = 2\n"):  # twice, then not at all
        with pytest.raises(ValueError, match="not once"):
            mutate_kernels.mutated(mutate_kernels.Mutant("m", "k.py", old, ""), tmp_path)
