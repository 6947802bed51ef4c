"""Process-local metrics registry: counters, gauges, histograms, probes.

The registry is the measurement substrate every subsystem shares (see
DESIGN.md, "Observability").  Four instrument kinds cover the repository's
needs:

* :class:`Counter` -- monotone event count.  Counters are **always live**
  (an increment is one native int add), because they double as the
  always-available ``.stats`` views the test suite reads (e.g.
  :class:`repro.sim.routing.RouteTableStats`).  A counter may have a
  *parent*: incrementing a table-local counter also bumps the registry's
  subsystem aggregate, so per-object views and global roll-ups stay
  consistent without double bookkeeping at call sites.
* :class:`Gauge` -- a level (``set``/``add``).  Always live; used for
  slow-moving quantities such as the estimated CSR memory of the route
  tables.
* :class:`Histogram` -- bounded distribution summary (count/sum/min/max
  plus power-of-two bucket counts).  ``observe`` is a **no-op while
  observability is disabled**, so per-round/per-wave call sites cost one
  early return.
* :class:`Probe` -- a bounded time series of numeric tuples.  Recording is
  disabled-gated like histograms; on overflow the series is decimated
  (every other sample dropped, stride doubled), so memory stays bounded on
  arbitrarily long runs while first/last behaviour is preserved.

The **global switch** is process-local: ``enable()`` / ``disable()`` /
``is_enabled()``, initialised from the ``REPRO_OBS`` environment variable.
Instrumented code never changes simulation *results* either way -- the
switch only gates whether timing/series data is collected (the regression
tests pin this bit-identically).

Worker processes of the experiment engine capture a **delta** of their
registry (``capture()`` / ``export_delta()``) per executed chunk and ship
it back; :func:`merge_state` folds such snapshots into the local registry
(counters/gauges add, histograms merge, probes extend).  Snapshots are
plain JSON structures with deterministically sorted keys.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from .._knobs import switch_knob

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Probe",
    "MetricsRegistry",
    "REGISTRY",
    "enable",
    "disable",
    "is_enabled",
    "counter",
    "gauge",
    "histogram",
    "probe",
    "snapshot",
    "merge_state",
    "capture",
    "export_delta",
    "reset",
]

#: default sample capacity of a bounded time-series probe
DEFAULT_PROBE_CAPACITY = 512

_ENABLED = switch_knob("REPRO_OBS")


def is_enabled() -> bool:
    """Whether span/histogram/probe collection is on for this process."""
    return _ENABLED


def enable() -> None:
    """Turn observability collection on (also settable via ``REPRO_OBS=1``)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn observability collection off (the default)."""
    global _ENABLED
    _ENABLED = False


# ------------------------------------------------------------------ instruments
class Counter:
    """Monotone event counter; optionally chained to a parent aggregate."""

    __slots__ = ("name", "value", "parent")

    def __init__(self, name: str, parent: Optional["Counter"] = None):
        self.name = name
        self.value = 0
        self.parent = parent

    def inc(self, n: int = 1) -> None:
        self.value += n
        parent = self.parent
        if parent is not None:
            parent.value += n


class Gauge:
    """A level: last-set value, with delta support for roll-up gauges."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """Bounded distribution summary over power-of-two buckets.

    ``observe`` is gated by the global switch; a disabled histogram stays
    empty at the cost of one early return per call.  Bucket ``b`` counts
    observations with ``2**(b-1) < value <= 2**b`` (bucket 0 holds
    ``value <= 1``), which is plenty for round counts, wave sizes, and the
    other integer-ish distributions the simulators produce.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        if not _ENABLED:
            return
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        bucket = max(0, math.ceil(math.log2(value))) if value > 0 else 0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class Probe:
    """Bounded time series of numeric tuples, decimated on overflow.

    Samples are ``(t, v1, v2, ...)`` tuples.  When the series reaches its
    capacity, every other sample is dropped and the keep-stride doubles, so
    a probe holds at most ``capacity`` samples spread over the whole run
    regardless of how many were recorded.
    """

    __slots__ = ("name", "capacity", "samples", "stride", "_skip")

    def __init__(self, name: str, capacity: int = DEFAULT_PROBE_CAPACITY):
        self.name = name
        self.capacity = capacity
        self.samples: List[Tuple[float, ...]] = []
        self.stride = 1
        self._skip = 0

    def record(self, *values: float) -> None:
        if not _ENABLED:
            return
        self._skip += 1
        if self._skip < self.stride:
            return
        self._skip = 0
        self.samples.append(values)
        if len(self.samples) >= self.capacity:
            del self.samples[1::2]
            self.stride *= 2


# -------------------------------------------------------------------- registry
#: instruments pre-declared on every registry, so exported snapshots always
#: contain the standard subsystem metric families even when a run never
#: touched one of them (a sweep with no packet cells still reports the
#: ``packet.*`` family at zero -- consumers can rely on the schema).
_DEFAULT_SCHEMA: Tuple[Tuple[str, str], ...] = (
    ("counter", "routing.pair_hits"),
    ("counter", "routing.pair_misses"),
    ("counter", "routing.tables_built"),
    # bytes of live route tables' pair indexes and CSR arrays: O(routed pairs)
    ("gauge", "routing.csr_mem_bytes"),
    ("counter", "flowsim.maxmin_solves"),
    ("histogram", "flowsim.batch_size"),
    ("histogram", "flowsim.active_links"),
    ("counter", "flowsim.assignments_built"),
    ("counter", "flowsim.assignment_cache_hits"),
    ("histogram", "flowsim.maxmin_rounds"),
    ("histogram", "flowsim.frozen_per_round"),
    ("counter", "flowsim.delta_solves"),
    ("counter", "flowsim.delta_warm_hits"),
    ("counter", "flowsim.delta_fallbacks"),
    ("histogram", "flowsim.delta_changed_flows"),
    ("histogram", "flowsim.delta_active_subflows"),
    ("histogram", "flowsim.delta_batch_size"),
    ("counter", "search.steps"),
    ("counter", "search.accepts"),
    ("counter", "search.best_updates"),
    ("counter", "packet.messages"),
    ("counter", "packet.packets"),
    ("counter", "packet.events"),
    ("probe", "packet.queue_depth"),
    ("probe", "packet.link_utilization"),
    ("counter", "faults.events"),
    ("counter", "faults.links_dead"),
    ("counter", "faults.tables_degraded"),
    # degraded-provider evaluations of a pair, not distinct pairs: a pair
    # routed again (another table, a halved block) counts again
    ("counter", "faults.pairs_rerouted"),
    ("counter", "faults.pairs_disconnected"),
    ("counter", "faults.packets_dropped"),
    ("counter", "faults.packets_retried"),
    ("counter", "faults.packets_lost"),
    ("counter", "exp.cells_live"),
    ("counter", "exp.cells_cached"),
    ("counter", "exp.cache_corrupt"),
    ("counter", "exp.worker_retries"),
    ("counter", "exp.cells_quarantined"),
    ("counter", "exp.cell_timeouts"),
    ("counter", "cluster.jobs_completed"),
    ("counter", "cluster.evictions"),
    ("counter", "cluster.failures"),
    ("counter", "cluster.repairs"),
    ("probe", "cluster.state"),
)


class MetricsRegistry:
    """Name-keyed store of instruments with deterministic snapshots."""

    def __init__(self, *, declare_defaults: bool = True):
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.probes: Dict[str, Probe] = {}
        if declare_defaults:
            for kind, name in _DEFAULT_SCHEMA:
                getattr(self, kind)(name)

    # ------------------------------------------------------------ get-or-create
    def counter(self, name: str) -> Counter:
        inst = self.counters.get(name)
        if inst is None:
            inst = self.counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self.gauges.get(name)
        if inst is None:
            inst = self.gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self.histograms.get(name)
        if inst is None:
            inst = self.histograms[name] = Histogram(name)
        return inst

    def probe(self, name: str, capacity: int = DEFAULT_PROBE_CAPACITY) -> Probe:
        inst = self.probes.get(name)
        if inst is None:
            inst = self.probes[name] = Probe(name, capacity)
        return inst

    # ---------------------------------------------------------------- snapshot
    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready state of every instrument (deterministic key order)."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: _hist_dict(h) for n, h in sorted(self.histograms.items())
            },
            "probes": {
                n: {"stride": p.stride, "samples": [list(s) for s in p.samples]}
                for n, p in sorted(self.probes.items())
            },
        }

    def merge(self, state: Dict[str, Any]) -> None:
        """Fold a snapshot (e.g. a worker delta) into this registry."""
        for name, value in state.get("counters", {}).items():
            if value:
                self.counter(name).value += value
        for name, value in state.get("gauges", {}).items():
            if value:
                self.gauge(name).add(value)
        for name, data in state.get("histograms", {}).items():
            if not data.get("count"):
                continue
            hist = self.histogram(name)
            hist.count += data["count"]
            hist.total += data["sum"]
            hist.min = min(hist.min, data["min"])
            hist.max = max(hist.max, data["max"])
            for bucket, count in data.get("buckets", {}).items():
                bucket = int(bucket)
                hist.buckets[bucket] = hist.buckets.get(bucket, 0) + count
        for name, data in state.get("probes", {}).items():
            samples = data.get("samples", [])
            if not samples:
                continue
            probe = self.probe(name)
            probe.samples.extend(tuple(s) for s in samples)
            while len(probe.samples) >= probe.capacity:
                del probe.samples[1::2]
                probe.stride *= 2

    def reset(self) -> None:
        """Zero every instrument **in place** (live references stay valid)."""
        for c in self.counters.values():
            c.value = 0
        for g in self.gauges.values():
            g.value = 0.0
        for h in self.histograms.values():
            h.count = 0
            h.total = 0.0
            h.min = math.inf
            h.max = -math.inf
            h.buckets.clear()
        for p in self.probes.values():
            p.samples.clear()
            p.stride = 1
            p._skip = 0


def _hist_dict(h: Histogram) -> Dict[str, Any]:
    return {
        "count": h.count,
        "sum": h.total,
        "min": h.min if h.count else 0.0,
        "max": h.max if h.count else 0.0,
        "mean": h.mean,
        "buckets": {str(b): n for b, n in sorted(h.buckets.items())},
    }


#: the process-global registry every instrumented subsystem reports into
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    return REGISTRY.histogram(name)


def probe(name: str, capacity: int = DEFAULT_PROBE_CAPACITY) -> Probe:
    return REGISTRY.probe(name, capacity)


def snapshot() -> Dict[str, Any]:
    return REGISTRY.snapshot()


def merge_state(state: Optional[Dict[str, Any]]) -> None:
    if state:
        REGISTRY.merge(state)


def reset() -> None:
    """Zero the global registry (tests / fresh measurement windows)."""
    REGISTRY.reset()


# ------------------------------------------------------------- delta capture
def capture() -> Dict[str, Any]:
    """Marker for :func:`export_delta`: the current registry snapshot."""
    return REGISTRY.snapshot()


def export_delta(marker: Dict[str, Any]) -> Dict[str, Any]:
    """What happened since ``marker``, as a mergeable snapshot.

    Counters and gauges subtract; histograms subtract counts/sums/buckets
    (min/max are taken from the current state -- a bounded-diagnostic
    approximation); probes ship the samples appended since the marker, or
    the full current series if decimation rewrote it in between.
    """
    now = REGISTRY.snapshot()
    delta: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}, "probes": {}}
    base_c = marker.get("counters", {})
    for name, value in now["counters"].items():
        diff = value - base_c.get(name, 0)
        if diff:
            delta["counters"][name] = diff
    base_g = marker.get("gauges", {})
    for name, value in now["gauges"].items():
        diff = value - base_g.get(name, 0.0)
        if diff:
            delta["gauges"][name] = diff
    base_h = marker.get("histograms", {})
    for name, data in now["histograms"].items():
        base = base_h.get(name, {})
        count = data["count"] - base.get("count", 0)
        if count <= 0:
            continue
        buckets = {}
        base_buckets = base.get("buckets", {})
        for bucket, n in data["buckets"].items():
            diff = n - base_buckets.get(bucket, 0)
            if diff:
                buckets[bucket] = diff
        delta["histograms"][name] = {
            "count": count,
            "sum": data["sum"] - base.get("sum", 0.0),
            "min": data["min"],
            "max": data["max"],
            "buckets": buckets,
        }
    base_p = marker.get("probes", {})
    for name, data in now["probes"].items():
        base = base_p.get(name, {})
        if data["stride"] == base.get("stride", 1):
            fresh = data["samples"][len(base.get("samples", ())):]
        else:
            fresh = data["samples"]
        if fresh:
            delta["probes"][name] = {"stride": data["stride"], "samples": fresh}
    return delta
