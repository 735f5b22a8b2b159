"""mutants/catalogue.py names exact source text; these checks keep it in step
with the code, so a refactor that moves a mutated line updates the catalogue."""

import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def catalogue():
    spec = importlib.util.spec_from_file_location("catalogue", ROOT / "mutants" / "catalogue.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CATALOGUE


def test_ids_are_unique():
    repeated = [i for i, n in Counter(m.id for m in catalogue()).items() if n > 1]
    assert not repeated


def test_every_old_text_occurs_once_in_its_file():
    for m in catalogue():
        path = ROOT / m.file
        assert path.is_file(), f"{m.id}: no file {m.file}"
        assert path.read_text(encoding="utf-8").count(m.old) == 1, m.id
