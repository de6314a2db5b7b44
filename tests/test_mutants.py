"""The mutant catalogue (``mutants.py``) still fits the code."""

from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def test_each_anchor_occurs_exactly_once_in_its_module():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    misplaced = []
    for mutant in MUTANTS:
        text = (ROOT / mutant.module).read_text(encoding="utf-8")
        for anchor, replacement in mutant.edits:
            if text.count(anchor) != 1 or anchor == replacement:
                misplaced.append((mutant.name, anchor, text.count(anchor)))
        for killer in mutant.killers:
            path, *_, test = killer.split("::")
            if f"def {test.split('[')[0]}(" not in (ROOT / path).read_text(encoding="utf-8"):
                misplaced.append((mutant.name, killer))
    assert misplaced == []
