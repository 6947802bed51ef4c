"""The README's knob table lists exactly the ``REPRO_*`` environment
variables the library reads, so the knob count cannot drift from its
documentation."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOB = re.compile(r"\bREPRO_[A-Z0-9_]+")
COUNTS = "zero one two three four five six seven eight nine ten eleven twelve".split()


def _table_rows():
    readme = (ROOT / "README.md").read_text()
    return readme, re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", readme, flags=re.MULTILINE)


def test_readme_knob_table_lists_the_knobs_read_under_src():
    read = set()
    for path in (ROOT / "src").rglob("*.py"):
        read.update(KNOB.findall(path.read_text()))
    _, rows = _table_rows()
    assert read == set(rows)


def test_readme_states_the_knob_count():
    readme, rows = _table_rows()
    assert f"The library reads {COUNTS[len(rows)]} `REPRO_*` variables." in readme
