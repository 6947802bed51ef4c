"""``repro.obs`` -- unified metrics, tracing, and profiling layer.

One lightweight observability subsystem shared by the simulators
(:mod:`repro.sim`), the experiment engine (:mod:`repro.exp`), and the
cluster twin (:mod:`repro.cluster`):

* a process-local **metrics registry** (:mod:`repro.obs.registry`) of
  counters, gauges, histograms, and bounded time-series probes, named by
  ``family.metric`` convention (``routing.*``, ``flowsim.*``,
  ``packet.*``, ``exp.*``, ``cluster.*``);
* **span tracing** (:mod:`repro.obs.tracing`) with nested wall-clock spans
  and deterministic simulation-time spans;
* a **global switch**: collection is disabled by default and near-zero
  overhead when off.  Turn it on with :func:`enable` or ``REPRO_OBS=1``;
  counters/gauges stay live either way (they back always-on ``.stats``
  views), while histograms, probes, and spans only record when enabled.
  The switch never changes simulation results -- only whether measurement
  data is collected.
* a **reporting surface**: :func:`export_trace` / :func:`write_trace`
  produce the deterministic JSON trace consumed by
  ``python -m repro.obs.report`` (and by ``python -m repro.exp run
  --trace out.json``).

Worker protocol: a process-pool worker calls :func:`capture` before its
chunk and :func:`export_delta` after; the parent folds the payload back
with :func:`merge_state`.  Aggregates therefore agree between serial and
parallel executions of the same work, modulo timing values.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from . import registry as _registry
from . import tracing as _tracing
from .registry import (
    REGISTRY,
    MetricsRegistry,
    counter,
    disable,
    enable,
    gauge,
    histogram,
    is_enabled,
    probe,
    snapshot,
)
from .tracing import TRACER, Tracer, add_span, span, span_summary

__all__ = [
    "REGISTRY",
    "TRACER",
    "MetricsRegistry",
    "Tracer",
    "enable",
    "disable",
    "is_enabled",
    "counter",
    "gauge",
    "histogram",
    "probe",
    "span",
    "add_span",
    "span_summary",
    "snapshot",
    "capture",
    "export_delta",
    "merge_state",
    "export_trace",
    "write_trace",
    "metrics_summary",
    "reset",
]

#: schema version of the exported trace JSON
TRACE_VERSION = 1


def capture() -> Dict[str, Any]:
    """Marker of the current observability state (metrics + span count)."""
    return {"metrics": _registry.capture(), "num_spans": len(TRACER.finished)}


def export_delta(marker: Dict[str, Any]) -> Dict[str, Any]:
    """Everything recorded since ``marker`` as a mergeable payload."""
    return {
        "metrics": _registry.export_delta(marker["metrics"]),
        "spans": TRACER.finished[marker.get("num_spans", 0):],
    }


def merge_state(payload: Optional[Dict[str, Any]]) -> None:
    """Fold a worker's :func:`export_delta` payload into this process."""
    if not payload:
        return
    _registry.merge_state(payload.get("metrics"))
    TRACER.merge(payload.get("spans"))


def export_trace() -> Dict[str, Any]:
    """The full observability state as a deterministic JSON structure."""
    return {
        "version": TRACE_VERSION,
        "enabled": is_enabled(),
        "metrics": snapshot(),
        "spans": TRACER.export(),
        "span_summary": span_summary(),
    }


def write_trace(path: Union[str, Path]) -> Path:
    """Write :func:`export_trace` to ``path`` as indented JSON."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(export_trace(), indent=2, sort_keys=True) + "\n")
    return path


def metrics_summary() -> Dict[str, Any]:
    """Compact non-zero metrics view (what BENCH artifacts embed)."""
    snap = snapshot()
    out: Dict[str, Any] = {}
    counters = {n: v for n, v in snap["counters"].items() if v}
    gauges = {n: v for n, v in snap["gauges"].items() if v}
    hists = {
        n: {"count": h["count"], "mean": h["mean"], "max": h["max"]}
        for n, h in snap["histograms"].items()
        if h["count"]
    }
    if counters:
        out["counters"] = counters
    if gauges:
        out["gauges"] = gauges
    if hists:
        out["histograms"] = hists
    return out


def reset() -> None:
    """Zero metrics and drop spans (instrument identities survive)."""
    _registry.reset()
    TRACER.reset()
