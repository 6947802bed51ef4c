"""Every committed ``BENCH_<name>.json`` has a producer: a benchmark that
records ``<name>`` (``record="<name>"`` in ``benchmarks/*.py``) or a
registered sweep whose default artifact name is ``<name>``.  Deleting a
producer therefore cannot leave a stale artifact behind."""

import re
from pathlib import Path

from repro.exp import list_sweeps

ROOT = Path(__file__).resolve().parents[1]
RECORD = re.compile(r'\brecord="([^"]+)"')


def _produced_names():
    names = set()
    for path in (ROOT / "benchmarks").glob("*.py"):
        names.update(RECORD.findall(path.read_text()))
    names.update(spec.artifact_name() for spec in list_sweeps())
    return names


def _committed_names():
    artifacts = (ROOT / "benchmarks" / "artifacts").glob("BENCH_*.json")
    return {path.name[len("BENCH_") : -len(".json")] for path in artifacts}


def test_every_committed_artifact_has_a_producer():
    orphans = sorted(_committed_names() - _produced_names())
    assert not orphans, f"committed artifacts with no producer: {orphans}"


def test_producer_scan_sees_benchmarks_and_sweeps():
    produced = _produced_names()
    # one benchmark-only record and one sweep-only default artifact name
    assert {"delta_speedup", "scaleout_permutation"} <= produced
