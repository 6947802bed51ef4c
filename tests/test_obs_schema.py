"""Every instrument the obs schema pre-declares has a producer under ``src/``.

``_DEFAULT_SCHEMA`` makes every exported snapshot report its names, at zero
when nothing ran.  An entry whose producer was deleted would report a
permanent zero that reads like a measurement, so each ``(kind, name)``
entry must be created by a ``counter``/``gauge``/``histogram``/``probe``
call somewhere in the library.
"""

import re
from pathlib import Path

from repro.obs.registry import _DEFAULT_SCHEMA

ROOT = Path(__file__).resolve().parents[1]
INSTRUMENT = re.compile(r"\b(counter|gauge|histogram|probe)\(\s*\"([a-z_]+\.[a-z_.]+)\"")
REGISTRY = ROOT / "src" / "repro" / "obs" / "registry.py"


def test_every_schema_entry_has_a_producer():
    produced = set()
    for path in (ROOT / "src").rglob("*.py"):
        if path != REGISTRY:  # the schema itself produces nothing
            produced.update(INSTRUMENT.findall(path.read_text()))
    orphans = sorted(entry for entry in _DEFAULT_SCHEMA if entry not in produced)
    assert not orphans, f"schema entries nothing under src/ creates: {orphans}"

