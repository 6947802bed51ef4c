"""Tests for the unified observability layer (repro.obs).

Covers the metrics registry and tracer in isolation, the worker-delta
merge protocol through the experiment engine (serial and parallel runs of
one grid must produce identical metric/span aggregates), the report
renderer, and the regression that flipping the global switch never changes
simulation *results* — only whether measurement data is collected.
"""

import json

import numpy as np
import pytest

import repro.obs as obs
from repro.cluster import ClusterSimConfig, ClusterSimulator, FailureModel
from repro.core import build_hammingmesh
from repro.exp import Grid, Runner, kernel_ref
from repro.exp.cells import flow_alltoall_cell
from repro.obs import registry, report
from repro.obs.registry import MetricsRegistry
from repro.sim import FlowSimulator, clear_route_tables, get_backend, random_permutation


@pytest.fixture
def enabled():
    """Clean enabled window; restores the disabled default afterwards."""
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture
def disabled():
    """Clean disabled window (the default state, made explicit)."""
    obs.reset()
    obs.disable()
    yield
    obs.disable()
    obs.reset()


class TestRegistry:
    def test_counter_parent_chain(self, disabled):
        parent = obs.counter("test.aggregate")
        child = registry.Counter("local", parent=parent)
        child.inc()
        child.inc(4)
        assert child.value == 5
        assert parent.value == 5  # counters are always live, even disabled

    def test_histogram_gated_by_switch(self, enabled):
        hist = obs.histogram("test.hist")
        obs.disable()
        hist.observe(10)
        assert hist.count == 0
        obs.enable()
        for value in (1, 3, 1000):
            hist.observe(value)
        assert hist.count == 3
        assert hist.min == 1 and hist.max == 1000
        assert hist.mean == pytest.approx(1004 / 3)
        assert hist.buckets == {0: 1, 2: 1, 10: 1}  # 2**10 = 1024 >= 1000

    def test_probe_bounded_by_decimation(self, enabled):
        probe = registry.Probe("test.series", capacity=8)
        for t in range(100):
            probe.record(float(t), float(t * 2))
        assert len(probe.samples) < 8
        assert probe.stride > 1
        assert probe.samples[0] == (0.0, 0.0)  # first sample survives

    def test_default_schema_families(self, disabled):
        snap = obs.snapshot()
        names = (
            list(snap["counters"])
            + list(snap["gauges"])
            + list(snap["histograms"])
            + list(snap["probes"])
        )
        families = {name.split(".", 1)[0] for name in names}
        assert {"routing", "flowsim", "packet", "faults", "exp", "cluster"} <= families

    def test_reset_keeps_live_instrument_references(self, disabled):
        counter = obs.counter("test.live_ref")
        counter.inc(7)
        obs.reset()
        assert counter.value == 0
        counter.inc()
        assert obs.snapshot()["counters"]["test.live_ref"] == 1

    def test_delta_roundtrip_merges_exactly(self, enabled):
        marker = registry.capture()
        obs.counter("test.delta_c").inc(3)
        obs.gauge("test.delta_g").add(2.5)
        hist = obs.histogram("test.delta_h")
        hist.observe(4)
        hist.observe(4)
        obs.probe("test.delta_p").record(1.0, 9.0)
        delta = registry.export_delta(marker)
        target = MetricsRegistry(declare_defaults=False)
        target.merge(delta)
        snap = target.snapshot()
        assert snap["counters"]["test.delta_c"] == 3
        assert snap["gauges"]["test.delta_g"] == 2.5
        assert snap["histograms"]["test.delta_h"]["count"] == 2
        assert snap["histograms"]["test.delta_h"]["buckets"] == {"2": 2}
        assert snap["probes"]["test.delta_p"]["samples"] == [[1.0, 9.0]]
        # Pre-marker state did not leak into the delta.
        assert "exp.cells_live" not in snap["counters"]


class TestTracing:
    def test_disabled_tracer_records_nothing(self, disabled):
        with obs.span("should_not_appear"):
            obs.add_span("nor_this", 0.0, 1.0)
        assert obs.TRACER.finished == []

    def test_nested_spans_build_slash_paths(self, enabled):
        with obs.span("outer", kind="test"):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
        paths = [rec["path"] for rec in obs.TRACER.finished]
        assert paths == ["outer/inner", "outer/inner", "outer"]
        summary = obs.span_summary()
        assert summary["outer"]["count"] == 1
        assert summary["outer/inner"]["count"] == 2
        assert summary["outer"]["clock"] == "wall"

    def test_manual_sim_clock_spans(self, enabled):
        obs.add_span("cluster.job", 10.0, 50.0, job_id=3)
        obs.add_span("running", 12.0, 50.0, parent="cluster.job")
        summary = obs.span_summary()
        assert summary["cluster.job"]["clock"] == "sim"
        assert summary["cluster.job"]["total_seconds"] == 40.0
        assert summary["cluster.job/running"]["total_seconds"] == 38.0

    def test_span_annotate(self, enabled):
        with obs.span("work") as sp:
            sp.annotate(rows=17)
        assert obs.TRACER.finished[0]["attrs"]["rows"] == 17


class TestTraceExportAndReport:
    def test_trace_roundtrip_and_renderer(self, enabled, tmp_path):
        obs.counter("test.render_c").inc(2)
        with obs.span("render.outer"):
            with obs.span("leaf"):
                pass
        path = obs.write_trace(tmp_path / "trace.json")
        trace = json.loads(path.read_text())
        assert trace["version"] == obs.TRACE_VERSION
        assert trace["enabled"] is True
        assert trace["metrics"]["counters"]["test.render_c"] == 2
        assert trace["span_summary"]["render.outer/leaf"]["count"] == 1
        text = report.format_trace(trace)
        assert "[test]" in text and "test.render_c" in text
        assert "render.outer" in text and "leaf" in text
        assert report.main([str(path), "--top", "5"]) == 0

    def test_empty_trace_renders(self, disabled):
        text = report.format_trace(obs.export_trace())
        assert "(none recorded)" in text


def _small_grid() -> Grid:
    """A fig12-style grid: two topologies, chunked by topology, 3 seeds each."""
    grid = Grid(
        kernel_ref(flow_alltoall_cell),
        common={"max_paths": 2, "num_phases": 2},
        chunk="topo",
        drop=("topo",),
    )
    grid.cross(("a", "b", "x", "y"), [(1, 1, 4, 4), (2, 2, 2, 2)])
    grid.cross(seed=[1, 2, 3])
    grid.derive(lambda p: {"topo": f"hm-{p['a']}x{p['b']}x{p['x']}x{p['y']}"})
    return grid


def _run_with_aggregates(workers: int):
    """Run the small grid and return (values, counters, histograms, span counts)."""
    clear_route_tables()
    obs.reset()
    obs.enable()
    try:
        run = Runner(workers=workers, cache=False).run(_small_grid())
    finally:
        obs.disable()
    snap = obs.snapshot()
    hists = {
        name: {"count": h["count"], "sum": h["sum"], "buckets": h["buckets"]}
        for name, h in snap["histograms"].items()
    }
    spans = {path: agg["count"] for path, agg in obs.span_summary().items()}
    return run.values(), dict(snap["counters"]), hists, spans


class TestRunnerAggregates:
    """The worker-merge protocol: serial == parallel, modulo timing floats."""

    def test_serial_and_parallel_aggregates_identical(self):
        serial_values, serial_counters, serial_hists, serial_spans = _run_with_aggregates(1)
        parallel_values, parallel_counters, parallel_hists, parallel_spans = (
            _run_with_aggregates(2)
        )
        assert serial_values == parallel_values
        assert serial_counters == parallel_counters
        assert serial_hists == parallel_hists
        assert serial_spans == parallel_spans
        # Sanity on the aggregates themselves, not just their equality.
        assert serial_counters["exp.cells_live"] == 6
        assert serial_counters["exp.cells_cached"] == 0
        # One table per cell: route_table_for shares by topology *object*,
        # and every cell invocation builds its own topology.
        assert serial_counters["routing.tables_built"] == 6
        assert serial_counters["flowsim.assignments_built"] > 0
        assert serial_counters["routing.pair_misses"] > 0
        assert serial_spans["exp.cell"] == 6

    def test_cached_cells_attributed_distinctly(self, tmp_path):
        clear_route_tables()
        obs.reset()
        obs.enable()
        try:
            runner = Runner(workers=1, cache=tmp_path)
            cold = runner.run(_small_grid())
            obs.TRACER.reset()
            warm = runner.run(_small_grid())
        finally:
            obs.disable()
        assert warm.values() == cold.values()
        stats = warm.stats()
        assert stats["cache_hits"] == 6
        assert stats["compute_seconds"] == 0.0
        assert stats["replayed_seconds"] > 0.0
        # A warm cell's spent time is the cache lookup, far below its compute.
        assert stats["wall_seconds"] < stats["replayed_seconds"]
        cached_spans = [
            rec for rec in obs.TRACER.finished if rec["attrs"].get("cached")
        ]
        assert len(cached_spans) == 6
        assert obs.snapshot()["counters"]["exp.cells_cached"] == 6


class TestSwitchNeverChangesResults:
    """REPRO_OBS only toggles measurement: results stay bit-identical."""

    def _flow_rates(self):
        topo = build_hammingmesh(2, 2, 2, 2)
        sim = FlowSimulator(topo, max_paths=2)
        flows = random_permutation(topo.num_accelerators, seed=5)
        return sim.maxmin_rates(flows).flow_rates

    def _packet_rates(self):
        topo = build_hammingmesh(2, 2, 2, 2)
        flows = random_permutation(topo.num_accelerators, seed=5)
        backend = get_backend("packet", topo, max_paths=2, message_size=1 << 12)
        return backend.phase_rates(flows)

    def _cluster_run(self):
        config = ClusterSimConfig(
            x=6,
            y=6,
            num_jobs=40,
            seed=7,
            failures=FailureModel(mtbf_hours=200.0),
        )
        return ClusterSimulator(config).run()

    def _both_modes(self, fn):
        clear_route_tables()
        obs.reset()
        obs.disable()
        off = fn()
        clear_route_tables()
        obs.reset()
        obs.enable()
        try:
            on = fn()
        finally:
            obs.disable()
            obs.reset()
        return off, on

    def test_flow_solver_bit_identical(self):
        off, on = self._both_modes(self._flow_rates)
        assert np.array_equal(off, on)

    def test_packet_simulator_bit_identical(self):
        # The enabled path drives the engine in sampled slices; the slicing
        # must not change a single event outcome.
        off, on = self._both_modes(self._packet_rates)
        assert np.array_equal(off, on)

    def test_cluster_twin_bit_identical_and_spans_emitted(self):
        off, on = self._both_modes(self._cluster_run)
        assert off.fingerprint() == on.fingerprint()

    def test_cluster_spans_and_state_probe(self, enabled):
        clear_route_tables()
        run = self._cluster_run()
        summary = obs.span_summary()
        completed = sum(1 for job in run.jobs if job.finish_time is not None)
        assert summary["cluster.job"]["count"] == completed
        assert summary["cluster.job"]["clock"] == "sim"
        assert summary["cluster.job/running"]["count"] >= 1
        assert obs.snapshot()["counters"]["cluster.jobs_completed"] == completed
        assert len(obs.probe("cluster.state").samples) > 0
