"""Artifact recording: compact JSON snapshots of sweep results.

``BENCH_<name>.json`` artifacts are committed to track the output and
performance trajectory of the reproduction across PRs, so they must stay
reviewable: floats are rounded to a few significant digits and long
numeric series are decimated to a bounded number of points (full fidelity
lives in the result cache and in the printed benchmark output, not in
git).  The compaction settings are recorded in the artifact itself so
:mod:`repro.exp.cli`'s ``diff`` can apply the same compaction to a fresh
run before comparing.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .._knobs import number_knob

__all__ = [
    "FLOAT_DIGITS",
    "MAX_SERIES",
    "MemoryProbe",
    "peak_rss_bytes",
    "anon_rss_bytes",
    "host_metadata",
    "to_jsonable",
    "compact",
    "write_artifact",
    "read_artifact",
]

#: significant digits kept for floats in committed artifacts
FLOAT_DIGITS = number_knob("REPRO_BENCH_FLOAT_DIGITS", 6)
#: longest numeric series kept verbatim; longer ones are decimated
MAX_SERIES = number_knob("REPRO_BENCH_MAX_SERIES", 256)


def to_jsonable(value: Any) -> Any:
    """Convert results (numpy, dataclasses, tuple keys) to JSON types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return to_jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {
            k if isinstance(k, str) else repr(k): to_jsonable(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple, set)):
        return [to_jsonable(v) for v in value]
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return value.tolist()
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _round_float(value: float, digits: int) -> float:
    if not math.isfinite(value):
        return value
    return float(f"{value:.{digits}g}")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_series_point(value: Any) -> bool:
    """A scalar or a short (<= 8) all-number tuple such as an (x, y) pair."""
    if _is_number(value):
        return True
    return (
        isinstance(value, list)
        and 0 < len(value) <= 8
        and all(_is_number(v) for v in value)
    )


def _decimate(series: list, cap: int) -> list:
    """Evenly subsample to at most ``cap`` points, keeping first and last."""
    stride = -(-len(series) // cap)  # ceil division
    sampled = series[::stride]
    if sampled[-1] != series[-1]:
        if len(sampled) >= cap:
            sampled[-1] = series[-1]
        else:
            sampled.append(series[-1])
    return sampled


def compact(value: Any, *, float_digits: int = FLOAT_DIGITS, max_series: int = MAX_SERIES) -> Any:
    """Round floats and cap numeric series in an already-JSONable structure."""
    if isinstance(value, float):
        return _round_float(value, float_digits)
    if isinstance(value, dict):
        return {
            k: compact(v, float_digits=float_digits, max_series=max_series)
            for k, v in value.items()
        }
    if isinstance(value, list):
        if len(value) > max_series and all(_is_series_point(v) for v in value):
            value = _decimate(value, max_series)
        return [
            compact(v, float_digits=float_digits, max_series=max_series) for v in value
        ]
    return value


def peak_rss_bytes() -> int:
    """This process's peak resident set size, in bytes.

    ``ru_maxrss`` is a monotonic high-water mark: kibibytes on Linux, bytes
    on macOS.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak) * (1 if sys.platform == "darwin" else 1024)


def anon_rss_bytes() -> Optional[int]:
    """Current *anonymous* resident memory in bytes (Linux), else ``None``.

    Reads ``RssAnon`` from ``/proc/self/status``.  Unlike ``ru_maxrss``
    this is a current value, not a high-water mark, and it excludes
    file-backed and shared-memory pages.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("RssAnon:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def host_metadata(*, workers: Optional[int] = None) -> Dict[str, Any]:
    """Host context for BENCH artifacts (pass as ``extra={"host": ...}``).

    Parallel numbers are meaningless without the machine they ran on:
    records the CPU count and the worker count actually used.
    """
    return {"cpu_count": os.cpu_count(), "workers": workers}


class MemoryProbe:
    """Capture a block's memory footprint (the BENCH memory axis).

    Records three complementary signals:

    * ``peak_rss_bytes`` — the OS-level high-water mark at block exit, plus
      ``rss_growth_bytes`` (exit minus entry).  Essentially free, but
      monotonic across the process lifetime: a block after a bigger block
      reports the bigger peak.
    * ``anon_rss_bytes`` / ``anon_growth_bytes`` — current anonymous
      resident memory (Linux only, ``None`` elsewhere).  Excludes
      file-backed and shared-memory pages such as mapped libraries.
    * ``tracemalloc_peak_bytes`` — the peak of *Python* allocations inside
      the block, which resets per block and so isolates the block's own
      footprint.  Only measured when tracing is active: pass ``trace=True``
      to own a :mod:`tracemalloc` session for the block (2-4x slowdown — use
      for memory-focused benchmarks, not hot sweeps), or start tracemalloc
      yourself; when tracing is off the field is ``None``.
    """

    def __init__(self, *, trace: bool = False) -> None:
        self._trace = trace
        self._owns_trace = False
        self.entry_rss_bytes = 0
        self.peak_rss_bytes = 0
        self.rss_growth_bytes = 0
        self.entry_anon_rss_bytes: Optional[int] = None
        self.anon_rss_bytes: Optional[int] = None
        self.anon_growth_bytes: Optional[int] = None
        self.tracemalloc_peak_bytes: Optional[int] = None

    def __enter__(self) -> "MemoryProbe":
        self.entry_rss_bytes = peak_rss_bytes()
        self.entry_anon_rss_bytes = anon_rss_bytes()
        if self._trace and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_trace = True
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        return self

    def __exit__(self, *exc: Any) -> None:
        if tracemalloc.is_tracing():
            _, peak = tracemalloc.get_traced_memory()
            self.tracemalloc_peak_bytes = int(peak)
            if self._owns_trace:
                tracemalloc.stop()
        self.peak_rss_bytes = peak_rss_bytes()
        self.rss_growth_bytes = self.peak_rss_bytes - self.entry_rss_bytes
        self.anon_rss_bytes = anon_rss_bytes()
        if self.anon_rss_bytes is not None and self.entry_anon_rss_bytes is not None:
            self.anon_growth_bytes = self.anon_rss_bytes - self.entry_anon_rss_bytes

    def as_dict(self) -> Dict[str, Optional[int]]:
        """JSON-ready snapshot (artifact/``CellResult`` payload shape)."""
        return {
            "peak_rss_bytes": self.peak_rss_bytes,
            "rss_growth_bytes": self.rss_growth_bytes,
            "anon_rss_bytes": self.anon_rss_bytes,
            "anon_growth_bytes": self.anon_growth_bytes,
            "tracemalloc_peak_bytes": self.tracemalloc_peak_bytes,
        }


def write_artifact(
    name: str,
    result: Any,
    wall_seconds: float,
    *,
    directory: Union[str, Path],
    float_digits: int = FLOAT_DIGITS,
    max_series: int = MAX_SERIES,
    extra: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write ``BENCH_<name>.json`` with the compacted result and timing."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    payload: Dict[str, Any] = {
        "benchmark": name,
        "wall_seconds": _round_float(float(wall_seconds), 4),
        "compaction": {"float_digits": float_digits, "max_series": max_series},
        "result": compact(
            to_jsonable(result), float_digits=float_digits, max_series=max_series
        ),
    }
    if extra:
        payload.update(to_jsonable(extra))
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def read_artifact(path: Union[str, Path]) -> Dict[str, Any]:
    """Load an artifact written by :func:`write_artifact`."""
    return json.loads(Path(path).read_text())
