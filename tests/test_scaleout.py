"""Scale-out path tests: the route index and batched max-min.

The two legs of the scale-out contract:

* route tables store O(routed pairs) bytes, answer batched lookups
  **bit-identically** to one-pair lookups on every topology family, and
  fail with one line when they would outgrow their ``mem_budget``;
* :meth:`FlowSimulator.maxmin_rates_batch` returns bit-identical results to
  per-scenario solves, both called directly and through the experiment
  engine's batch grouping.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.core import build_hammingmesh
from repro.exp import Runner, run_sweep
from repro.exp.cells import maxmin_permutation_cell
from repro.exp.recording import MemoryProbe
from repro.sim import (
    FlowSimulator,
    RouteBudgetError,
    RouteTable,
    clear_route_tables,
    live_route_tables,
    parse_mem_budget,
    random_permutation,
    route_table_for,
)


# --------------------------------------------------------------------------
# Route index: O(routed pairs) storage under a hard byte budget
# --------------------------------------------------------------------------
class TestRouteIndex:
    def test_paths_bit_identical_all_families(self, all_small_topologies):
        """One batched lookup stores the paths that one-pair lookups do."""
        for name, topo in all_small_topologies.items():
            accels = list(topo.accelerators)[:6]
            pairs = [(s, d) for s in accels for d in accels if s != d]
            batched = RouteTable(topo, max_paths=4)
            src, dst = (np.array(side) for side in zip(*pairs))
            batched.pair_arrays(src, dst)
            single = RouteTable(topo, max_paths=4)
            for src, dst in pairs:
                assert batched.paths(src, dst) == single.paths(src, dst), (
                    f"{name}: paths differ for pair ({src}, {dst})"
                )
            assert batched.stats.misses == single.stats.misses == len(pairs)

    def test_flow_rates_bit_identical_all_families(self, all_small_topologies):
        """Rates do not depend on which pairs a table routed first."""
        for name, topo in all_small_topologies.items():
            flows = random_permutation(topo.num_accelerators, seed=3)
            warmed = RouteTable(topo, max_paths=4)
            for flow in reversed(flows[::2]):  # other pairs, other id order
                warmed.pair_slice(topo.accelerators[flow.dst], topo.accelerators[flow.src])
            a = FlowSimulator(topo, table=RouteTable(topo, max_paths=4)).maxmin_rates(flows)
            b = FlowSimulator(topo, table=warmed).maxmin_rates(flows)
            assert np.array_equal(a.flow_rates, b.flow_rates), name
            assert np.array_equal(a.link_utilization, b.link_utilization), name
            assert a.bottleneck_link == b.bottleneck_link, name

    def test_storage_is_linear_in_routed_pairs(self):
        """No per-node-pair term: an empty table holds a few bytes, and
        each routed pair adds 32 bytes of index to the CSR arrays."""
        topo = build_hammingmesh(2, 2, 16, 16)
        table = RouteTable(topo, max_paths=4)
        assert table.estimated_csr_bytes() < 64
        flows = random_permutation(topo.num_accelerators, seed=0)
        FlowSimulator(topo, table=table).maxmin_rates(flows)
        csr = sum(a.nbytes for a in (table._offsets, table._links, table._weights))
        assert table.num_pairs_routed == len(flows)
        assert table.estimated_csr_bytes() == csr + 32 * len(flows)
        assert table.estimated_csr_bytes() < 0.05 * 24 * topo.num_nodes**2

    def test_mem_budget_is_a_hard_cap(self, hx2mesh_4x4):
        topo = hx2mesh_4x4
        flows = random_permutation(topo.num_accelerators, seed=0)
        table = RouteTable(topo, max_paths=4, mem_budget="4K")
        with pytest.raises(RouteBudgetError) as err:
            FlowSimulator(topo, table=table).maxmin_rates(flows)
        message = str(err.value)
        assert "\n" not in message
        assert repr(table) in message and "mem_budget of 4096 bytes" in message
        needed = int(message.split(" needs ")[1].split()[0])
        assert needed > 4096
        assert table.estimated_csr_bytes() <= 4096
        assert table.num_pairs_routed == table.stats.misses == 0
        # a budget the routes fit in changes nothing
        fits = RouteTable(topo, max_paths=4, mem_budget="1M")
        a = FlowSimulator(topo, table=fits).maxmin_rates(flows)
        b = FlowSimulator(topo, table=RouteTable(topo, max_paths=4)).maxmin_rates(flows)
        assert np.array_equal(a.flow_rates, b.flow_rates)
        assert fits.estimated_csr_bytes() <= 1 << 20

    def test_clear_route_tables_resets_live_tables(self):
        clear_route_tables()
        topo = build_hammingmesh(2, 2, 4, 4)
        sim = FlowSimulator(topo, max_paths=4, mem_budget="1M")
        sim.maxmin_rates(random_permutation(topo.num_accelerators, seed=1))
        table = sim.table
        table.pair_path_lists(topo.accelerators[0], topo.accelerators[5])
        assert live_route_tables() == [table] and table._pylists
        clear_route_tables()
        assert live_route_tables() == [] and not table._pylists
        assert route_table_for(topo, max_paths=4, mem_budget="1M") is not table

    def test_parse_mem_budget(self):
        assert parse_mem_budget(None) is None
        assert parse_mem_budget("") is None
        assert parse_mem_budget(4096) == 4096
        assert parse_mem_budget("256M") == 256 << 20
        assert parse_mem_budget("4G") == 4 << 30
        with pytest.raises(ValueError):
            parse_mem_budget("4Q")


# --------------------------------------------------------------------------
# Batched max-min
# --------------------------------------------------------------------------
class TestMaxminBatch:
    def test_batch_bit_identical_fig12_grid(self, all_small_topologies):
        for name, topo in all_small_topologies.items():
            sim = FlowSimulator(topo, max_paths=4)
            flow_sets = [
                random_permutation(topo.num_accelerators, seed=7 + p) for p in range(4)
            ]
            solo = [sim.maxmin_rates(flows) for flows in flow_sets]
            batch = sim.maxmin_rates_batch(flow_sets)
            assert len(batch) == len(solo)
            for a, b in zip(solo, batch):
                assert np.array_equal(a.flow_rates, b.flow_rates), name
                assert np.array_equal(a.link_utilization, b.link_utilization), name
                assert a.bottleneck_link == b.bottleneck_link, name

    def test_batch_handles_empty_and_mixed_scenarios(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, max_paths=4)
        perm = random_permutation(hx2mesh_4x4.num_accelerators, seed=11)
        flow_sets = [perm, [], perm[: len(perm) // 2]]
        solo = [sim.maxmin_rates(flows) for flows in flow_sets]
        batch = sim.maxmin_rates_batch(flow_sets)
        for a, b in zip(solo, batch):
            assert np.array_equal(a.flow_rates, b.flow_rates)
            assert np.array_equal(a.link_utilization, b.link_utilization)
        assert sim.maxmin_rates_batch([]) == []

    def test_batch_observes_instruments(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, max_paths=4)
        flow_sets = [
            random_permutation(hx2mesh_4x4.num_accelerators, seed=p) for p in range(3)
        ]
        solves_before = obs.counter("flowsim.maxmin_solves").value
        hist = obs.histogram("flowsim.batch_size")
        count_before = hist.count
        was_enabled = obs.is_enabled()
        obs.enable()
        try:
            sim.maxmin_rates_batch(flow_sets)
        finally:
            if not was_enabled:
                obs.disable()
        assert obs.counter("flowsim.maxmin_solves").value == solves_before + 3
        assert hist.count == count_before + 1
        assert hist.max >= 3


# --------------------------------------------------------------------------
# Experiment-engine batching (the scale-out sweep path)
# --------------------------------------------------------------------------
class TestEngineBatching:
    def test_runner_batches_chunk_and_matches_solo(self):
        clear_route_tables()
        params = dict(a=2, b=2, x=2, y=2, max_paths=4)
        batched_before = obs.counter("exp.cells_batched").value
        run = run_sweep(
            "scaleout_permutation",
            runner=Runner(workers=1, cache=False),
            num_permutations=3,
            mem_budget=None,
            **params,
        )
        assert obs.counter("exp.cells_batched").value == batched_before + 3
        solo = [maxmin_permutation_cell(seed=s, **params) for s in range(3)]
        assert run.payload["permutations"] == solo
        assert run.payload["num_permutations"] == 3
        fractions = [p["mean_fraction"] for p in solo]
        assert run.payload["mean_fraction"] == pytest.approx(np.mean(fractions))
        # Process-parallel execution produces the same bits as the batched
        # in-process chunk and the solo calls.
        parallel = run_sweep(
            "scaleout_permutation",
            runner=Runner(workers=2, cache=False),
            num_permutations=3,
            mem_budget=None,
            **params,
        )
        assert parallel.payload["permutations"] == solo
        clear_route_tables()

    def test_sweep_reports_peak_memory(self):
        run = run_sweep(
            "scaleout_permutation",
            runner=Runner(workers=1, cache=False),
            a=2,
            b=2,
            x=2,
            y=2,
            max_paths=4,
            num_permutations=2,
            mem_budget=None,
        )
        stats = run.report.stats()
        assert stats["peak_rss_bytes"] is not None
        assert stats["peak_rss_bytes"] > 0
        clear_route_tables()

    def test_memory_probe_tracks_rss(self):
        with MemoryProbe() as probe:
            ballast = np.ones(1 << 16)
        assert probe.peak_rss_bytes > 0
        assert probe.rss_growth_bytes >= 0
        assert ballast.shape == (1 << 16,)
