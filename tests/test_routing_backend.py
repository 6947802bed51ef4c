"""Tests for the shared route tables and the pluggable network backends."""

import numpy as np
import pytest

from repro.collectives.schedule import CommSchedule, Transfer
from repro.core import build_hammingmesh
from repro.sim import (
    AnalyticBackend,
    FlowBackend,
    FlowSimulator,
    NetworkModel,
    PacketBackend,
    PacketNetwork,
    PacketSimConfig,
    RouteTable,
    available_backends,
    clear_route_tables,
    get_backend,
    path_provider_for,
    random_permutation,
    ring_neighbor_flows,
    route_table_for,
)
from repro.sim.traffic import Flow


def sample_pairs(topo, num=40, seed=0):
    """A deterministic sample of distinct accelerator node pairs."""
    rng = np.random.default_rng(seed)
    accs = list(topo.accelerators)
    pairs = []
    for _ in range(num):
        s, d = rng.choice(len(accs), size=2, replace=False)
        pairs.append((accs[int(s)], accs[int(d)]))
    return pairs


class TestRouteTable:
    def test_paths_match_providers_on_all_families(self, all_small_topologies):
        """The table serves exactly what the structured providers enumerate."""
        for family, topo in all_small_topologies.items():
            provider = path_provider_for(topo)
            table = RouteTable(topo, max_paths=4)
            for s, d in sample_pairs(topo, num=30, seed=7):
                assert table.paths(s, d) == provider.paths(s, d, max_paths=4), (
                    family,
                    s,
                    d,
                )

    def test_paths_narrowing_and_self_pair(self, hx2mesh_4x4):
        table = RouteTable(hx2mesh_4x4, max_paths=4)
        s, d = sample_pairs(hx2mesh_4x4, num=1, seed=3)[0]
        full = table.paths(s, d)
        narrowed = table.paths(s, d, max_paths=1)
        assert narrowed == full[:1]
        assert table.paths(s, s) == [[]]

    def test_memoized_per_topology_and_width(self, hx2mesh_4x4, fat_tree_64):
        clear_route_tables()
        t4 = route_table_for(hx2mesh_4x4, max_paths=4)
        assert route_table_for(hx2mesh_4x4, max_paths=4) is t4
        assert route_table_for(hx2mesh_4x4, max_paths=8) is not t4
        assert route_table_for(fat_tree_64, max_paths=4) is not t4

    def test_cache_hit_reuse_across_simulator_instances(self, hx2mesh_4x4):
        """A second simulator on the same topology reuses the routed pairs."""
        clear_route_tables()
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=2)

        sim1 = FlowSimulator(hx2mesh_4x4, max_paths=4)
        sim1.maxmin_rates(flows)
        table = sim1.table
        misses_after_first = table.stats.misses
        assert misses_after_first == table.num_pairs_routed > 0

        sim2 = FlowSimulator(hx2mesh_4x4, max_paths=4)
        assert sim2.table is table
        hits_before = table.stats.hits
        sim2.maxmin_rates(flows)
        # every pair of the repeated pattern is a cache hit, no new misses
        assert table.stats.misses == misses_after_first
        assert table.stats.hits >= hits_before + len(flows)

    def test_packet_network_shares_the_flow_table(self, hx2mesh_4x4):
        clear_route_tables()
        sim = FlowSimulator(hx2mesh_4x4, max_paths=4)
        net = PacketNetwork(hx2mesh_4x4, config=PacketSimConfig(max_paths=4))
        assert net.table is sim.table

    def test_assignment_cache_reuses_identical_patterns(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, max_paths=4)
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=5)
        asg1 = sim.assign(flows)
        asg2 = sim.assign(list(flows))
        assert asg1 is asg2
        # different demands are a different pattern
        scaled = [Flow(f.src, f.dst, demand=2.0) for f in flows]
        assert sim.assign(scaled) is not asg1

    def test_vectorized_assign_matches_reference_loop(self, all_small_topologies):
        """CSR-gathered incidence arrays equal the per-flow Python loop's."""
        for family, topo in all_small_topologies.items():
            sim = FlowSimulator(topo, max_paths=4)
            flows = random_permutation(topo.num_accelerators, seed=11)
            asg = sim.assign(flows)

            # reference: the pre-refactor per-flow construction
            entry_link, entry_subflow, subflow_flow, subflow_weight = [], [], [], []
            sub = 0
            for fi, flow in enumerate(flows):
                paths = sim.table.paths(sim.ranks[flow.src], sim.ranks[flow.dst])
                w = 1.0 / len(paths)
                for path in paths:
                    subflow_flow.append(fi)
                    subflow_weight.append(w)
                    for li in path:
                        entry_link.append(li)
                        entry_subflow.append(sub)
                    sub += 1

            assert asg.num_flows == len(flows)
            assert asg.num_subflows == sub, family
            np.testing.assert_array_equal(asg.entry_link, entry_link)
            np.testing.assert_array_equal(asg.entry_subflow, entry_subflow)
            np.testing.assert_array_equal(asg.subflow_flow, subflow_flow)
            np.testing.assert_allclose(asg.subflow_weight, subflow_weight)


class TestBackendSelection:
    def test_all_three_backends_selectable_by_name(self, fat_tree_64):
        assert available_backends() == ["analytic", "flow", "packet"]
        for name, cls in (
            ("analytic", AnalyticBackend),
            ("flow", FlowBackend),
            ("packet", PacketBackend),
        ):
            model = get_backend(name, fat_tree_64)
            assert isinstance(model, cls)
            assert isinstance(model, NetworkModel)
            assert model.name == name

    def test_unknown_backend_raises(self, fat_tree_64):
        with pytest.raises(ValueError, match="unknown network backend"):
            get_backend("bogus", fat_tree_64)
        with pytest.raises(ValueError):
            get_backend("flow")  # no topology

    def test_instance_passthrough(self, fat_tree_64, hx2mesh_4x4):
        model = get_backend("flow", fat_tree_64, max_paths=4)
        assert get_backend(model) is model
        assert get_backend(model, fat_tree_64) is model
        with pytest.raises(ValueError):
            get_backend(model, hx2mesh_4x4)

    def test_fractions_ordering_across_fidelities(self, fat_tree_64):
        analytic = get_backend("analytic", fat_tree_64)
        flow = get_backend("flow", fat_tree_64, max_paths=8)
        a_frac = analytic.alltoall_fraction()
        f_frac = flow.alltoall_fraction(num_phases=8, seed=1)
        assert a_frac == 1.0
        assert 0.0 < f_frac <= a_frac
        assert analytic.allreduce_fraction() >= flow.allreduce_fraction() - 1e-9

    def test_analytic_wraps_cost_models(self, fat_tree_64):
        from repro.collectives.cost_models import allreduce_time

        model = AnalyticBackend(fat_tree_64, alpha=1e-6)
        size = 1 << 26
        assert model.allreduce_time(size, algorithm="rings") == pytest.approx(
            allreduce_time("rings", 64, size, 1e-6, model.beta)
        )
        assert model.allreduce_bus_bandwidth(size, algorithm="tree") > 0

    def test_analytic_permutation_is_uncongested(self, fat_tree_64):
        model = AnalyticBackend(fat_tree_64)
        fractions = model.permutation_fractions(num_permutations=1, seed=0)
        np.testing.assert_allclose(fractions, 1.0)


class TestBackendAgreement:
    def test_flow_vs_packet_steady_state_through_backends(self, hx2mesh_4x4):
        """The two simulation fidelities agree on permutation throughput."""
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=4)
        flow = get_backend("flow", hx2mesh_4x4, max_paths=4)
        packet = get_backend("packet", hx2mesh_4x4, max_paths=4, message_size=1 << 18)
        flow_mean = float(flow.phase_rates(flows, exact=True).mean())
        packet_mean = float(packet.phase_rates(flows).mean())
        assert 0.6 < packet_mean / flow_mean < 1.4

    def test_permutation_fractions_agree_with_legacy_measurement(self, hx2mesh_4x4):
        from repro.analysis import measure_permutation_fractions

        sim = FlowSimulator(hx2mesh_4x4, max_paths=4)
        legacy = measure_permutation_fractions(
            hx2mesh_4x4, num_permutations=2, seed=3, sim=sim
        )
        via_backend = measure_permutation_fractions(
            hx2mesh_4x4, num_permutations=2, max_paths=4, seed=3, backend="flow"
        )
        np.testing.assert_allclose(legacy, via_backend)

    def test_measure_topology_backend_selection(self, hx2mesh_4x4):
        from repro.analysis import measure_topology

        flow = measure_topology(hx2mesh_4x4, num_phases=8, max_paths=4, backend="flow")
        ideal = measure_topology(hx2mesh_4x4, backend="analytic")
        assert 0.0 < flow.alltoall_fraction < 1.0
        assert ideal.alltoall_fraction == 1.0


class TestScheduleBackends:
    def _uniform_ring_schedule(self, p, size=4096.0):
        schedule = CommSchedule()
        schedule.add_phase(
            Transfer(i, (i + 1) % p, size) for i in range(p)
        )
        return schedule

    def test_symmetric_matches_maxmin_on_uniform_ring_phase(self, hx2mesh_4x4):
        """The fast symmetric solver is exact for a uniform-size ring phase.

        The ring must follow a topology-symmetric order (a Hamiltonian cycle
        of the grid); a rank-order ring mixes on-board and mesh hops, where
        max-min fairness legitimately gives unequal rates.
        """
        from repro.collectives.ring import ring_orders_for

        sim = FlowSimulator(hx2mesh_4x4, max_paths=4)
        order = ring_orders_for(hx2mesh_4x4)[0]
        flows = [
            Flow(f.src, f.dst, demand=4096.0) for f in ring_neighbor_flows(order)
        ]
        sym = sim.symmetric_rate(flows)
        mm = sim.maxmin_rates(flows)
        assert sym.min_rate == pytest.approx(mm.min_rate, rel=1e-6)
        np.testing.assert_allclose(sym.flow_rates, mm.flow_rates, rtol=1e-6)

    def test_time_accepts_backend_by_name(self, hx2mesh_4x4):
        schedule = self._uniform_ring_schedule(hx2mesh_4x4.num_accelerators)
        t_flow = schedule.time(
            "flow", 1e-6, topo=hx2mesh_4x4, max_paths=4, bytes_per_unit=50e9
        )
        t_analytic = schedule.time(
            "analytic", 1e-6, topo=hx2mesh_4x4, bytes_per_unit=50e9
        )
        assert 0 < t_analytic <= t_flow

    def test_time_flowsim_wrapper_unchanged(self, hx2mesh_4x4):
        schedule = self._uniform_ring_schedule(hx2mesh_4x4.num_accelerators)
        sim = FlowSimulator(hx2mesh_4x4, max_paths=4)
        t_legacy = schedule.time_flowsim(sim, 1e-6, bytes_per_unit=50e9)
        t_backend = schedule.time(FlowBackend(sim=sim), 1e-6, bytes_per_unit=50e9)
        assert t_legacy == pytest.approx(t_backend)


# ------------------------------------------------------- cross-process tables
PROBE_PAIRS = 12


def _probe_pairs(topo, count=PROBE_PAIRS):
    """A deterministic spread of (src, dst) accelerator pairs."""
    accels = list(topo.accelerators)
    step = max(1, len(accels) // count)
    return [
        (accels[i], accels[(i + len(accels) // 2) % len(accels)])
        for i in range(0, step * count, step)
    ]


def _query_table(table, pairs, flows):
    """The query battery both processes run: slices, link gathers, a solve."""
    slices = [table.pair_slice(s, d) for s, d in pairs]
    path_ids = np.concatenate(
        [np.arange(first, first + count, dtype=np.int64) for first, count in slices]
    )
    links, lengths = table.gather_links(path_ids)
    sim = FlowSimulator(table.topo, max_paths=table.max_paths, table=table)
    res = sim.maxmin_rates(flows)
    return {
        "slices": slices,
        "links": np.asarray(links),
        "lengths": np.asarray(lengths),
        "flow_rates": np.asarray(res.flow_rates),
        "link_utilization": np.asarray(res.link_utilization),
        "bottleneck_link": int(res.bottleneck_link),
        "mem_budget": table.mem_budget,
    }


def _child_rebuild_and_query(topo, max_paths, mem_budget, pairs, flows):
    """Spawned-child worker: build the table from the pickled topology."""
    table = route_table_for(topo, max_paths=max_paths, mem_budget=mem_budget)
    return _query_table(table, pairs, flows)


@pytest.fixture(scope="module")
def spawn_pool():
    """One spawned worker shared by the module (spawn start-up is slow)."""
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=1, mp_context=mp.get_context("spawn")) as pool:
        yield pool


class TestCrossProcessBitIdentity:
    """A spawned worker inherits nothing: it rebuilds its route tables from
    the pickled topology, and must answer exactly as the parent does."""

    @staticmethod
    def _assert_same(got, expected, name):
        assert got["slices"] == expected["slices"], name
        for key in ("links", "lengths", "flow_rates", "link_utilization"):
            assert np.array_equal(got[key], expected[key]), (name, key)
        assert got["bottleneck_link"] == expected["bottleneck_link"], name
        assert got["mem_budget"] == expected["mem_budget"], name

    def test_all_families_match_across_processes(self, all_small_topologies, spawn_pool):
        clear_route_tables()
        for name, topo in all_small_topologies.items():
            pairs = _probe_pairs(topo)
            flows = random_permutation(topo.num_accelerators, seed=11)
            expected = _query_table(route_table_for(topo, max_paths=4), pairs, flows)
            got = spawn_pool.submit(
                _child_rebuild_and_query, topo, 4, None, pairs, flows
            ).result(timeout=120)
            self._assert_same(got, expected, name)
        clear_route_tables()

    def test_budgeted_table_matches_across_processes(self, hx2mesh_4x4, spawn_pool):
        clear_route_tables()
        table = route_table_for(hx2mesh_4x4, max_paths=4, mem_budget="64K")
        assert table.mem_budget == 64 << 10
        pairs = _probe_pairs(hx2mesh_4x4)
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=5)
        expected = _query_table(table, pairs, flows)
        got = spawn_pool.submit(
            _child_rebuild_and_query, hx2mesh_4x4, 4, "64K", pairs, flows
        ).result(timeout=120)
        self._assert_same(got, expected, "hx2mesh-4x4 @ 64K")
        clear_route_tables()
