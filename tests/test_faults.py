"""Tests for the fault-injection layer (repro.sim.faults) and its backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_hammingmesh
from repro.sim import (
    FaultEventSolver,
    FaultSet,
    FlowBackend,
    FlowSimulator,
    PacketBackend,
    PacketNetwork,
    PacketSimConfig,
    degraded_route_table,
    link_fault_schedule,
    random_permutation,
    route_table_for,
    sample_link_faults,
    sample_switch_faults,
    split_connected,
)
from repro.sim.faults import DegradedPathProvider, cable_partner, fault_candidate_links
from repro.topology.base import TopologyError


class TestFaultSet:
    def test_empty_singleton(self):
        assert FaultSet.empty() is FaultSet.empty()
        assert FaultSet.empty().is_empty
        assert not FaultSet(dead_links=frozenset([0])).is_empty

    def test_from_links_kills_both_directions(self, hx2mesh_4x4):
        topo = hx2mesh_4x4
        li = fault_candidate_links(topo)[0]
        fs = FaultSet.from_links(topo, [li])
        assert li in fs.dead_links
        assert cable_partner(topo, li) in fs.dead_links
        assert len(fs.dead_links) == 2

    def test_from_nodes_kills_incident_links(self, hx2mesh_4x4):
        topo = hx2mesh_4x4
        node = topo.accelerators[0]
        fs = FaultSet.from_nodes(topo, [node])
        assert node in fs.dead_nodes
        assert set(topo.out_links(node)) <= fs.dead_links
        assert set(topo.in_links(node)) <= fs.dead_links

    def test_from_boards_requires_hammingmesh(self, torus_4x4_boards):
        with pytest.raises(TopologyError):
            FaultSet.from_boards(torus_4x4_boards, [(0, 0)])

    def test_from_boards_kills_all_board_accelerators(self):
        topo = build_hammingmesh(2, 2, 2, 2)
        fs = FaultSet.from_boards(topo, [(0, 1)])
        coord_of = topo.meta["coord_of"]
        expected = {acc for acc, c in coord_of.items() if tuple(c[:2]) == (0, 1)}
        assert fs.dead_nodes == frozenset(expected)
        with pytest.raises(ValueError):
            FaultSet.from_boards(topo, [(9, 9)])

    def test_union_difference_roundtrip(self, hx2mesh_4x4):
        a = sample_link_faults(hx2mesh_4x4, 2, seed=0)
        b = sample_link_faults(hx2mesh_4x4, 4, seed=0)
        assert a.union(b).cache_key() == b.cache_key()  # nested prefix
        assert b.difference(a).union(a).cache_key() == b.cache_key()
        assert a.union(FaultSet.empty()) is a

    def test_out_of_range_rejected(self, hx2mesh_4x4):
        with pytest.raises(ValueError):
            FaultSet.from_links(hx2mesh_4x4, [hx2mesh_4x4.num_links])
        with pytest.raises(ValueError):
            FaultSet.from_nodes(hx2mesh_4x4, [-1])


class TestSamplers:
    def test_samples_nested_and_deterministic(self, hx2mesh_4x4):
        topo = hx2mesh_4x4
        for k in range(4):
            small = sample_link_faults(topo, k, seed=3)
            large = sample_link_faults(topo, k + 1, seed=3)
            assert small.dead_links < large.dead_links
        assert (
            sample_link_faults(topo, 3, seed=3).cache_key()
            == sample_link_faults(topo, 3, seed=3).cache_key()
        )

    def test_seed_changes_the_sample(self, hx2mesh_4x4):
        a = fault_candidate_links(hx2mesh_4x4, seed=0)
        b = fault_candidate_links(hx2mesh_4x4, seed=1)
        assert sorted(a) == sorted(b)  # same eligible cables
        assert a != b  # different order

    def test_access_links_excluded_on_switched_fabrics(self, fat_tree_64):
        topo = fat_tree_64
        for li in fault_candidate_links(topo):
            link = topo.link(li)
            assert topo.is_accelerator(link.src) == topo.is_accelerator(link.dst)

    def test_oversized_request_rejected(self, hx2mesh_4x4):
        eligible = len(fault_candidate_links(hx2mesh_4x4))
        with pytest.raises(ValueError):
            sample_link_faults(hx2mesh_4x4, eligible + 1)

    def test_schedule_is_cumulative(self, hx2mesh_4x4):
        schedule = link_fault_schedule(hx2mesh_4x4, 4, seed=1)
        assert len(schedule) == 5
        assert schedule[0].is_empty
        for prev, cur in zip(schedule, schedule[1:]):
            assert prev.dead_links < cur.dead_links
            assert len(cur.dead_links) - len(prev.dead_links) == 2

    def test_switch_fault_sampler(self, dragonfly_small_fixture):
        topo = dragonfly_small_fixture
        fs = sample_switch_faults(topo, 2, seed=0)
        assert len(fs.dead_nodes) == 2
        assert all(not topo.is_accelerator(n) for n in fs.dead_nodes)
    def test_switch_faults_need_switches(self, torus_4x4_boards):
        if torus_4x4_boards.num_switches:
            pytest.skip("torus fixture unexpectedly has switches")
        with pytest.raises(TopologyError):
            sample_switch_faults(torus_4x4_boards, 1)


class TestEmptyFaultBitIdentity:
    """An empty FaultSet must be the fault-free path, not merely close to it."""

    def test_empty_faults_share_the_fault_free_table(self, all_small_topologies):
        for name, topo in all_small_topologies.items():
            table = degraded_route_table(topo, FaultSet.empty(), max_paths=4)
            assert table is route_table_for(topo, max_paths=4), name

    def test_flow_backend_rates_identical_on_all_families(self, all_small_topologies):
        for name, topo in all_small_topologies.items():
            flows = random_permutation(topo.num_accelerators, seed=7)
            plain = FlowBackend(topo, max_paths=4).phase_rates(flows)
            masked = FlowBackend(topo, max_paths=4, faults=FaultSet.empty()).phase_rates(flows)
            assert np.array_equal(plain, masked), name

    def test_packet_network_identical_with_empty_faults(self, hx2mesh_4x4):
        def run(faults):
            net = PacketNetwork(
                hx2mesh_4x4, config=PacketSimConfig(max_paths=2), faults=faults
            )
            msgs = [net.send(i, (i + 5) % len(net.ranks), 4096) for i in range(8)]
            result = net.run()
            return result.finish_time, [m.completion_time for m in msgs]

        assert run(None) == run(FaultSet.empty())


class TestDegradedRouting:
    def test_pairs_reroute_over_survivors(self, hx2mesh_4x4):
        topo = hx2mesh_4x4
        faults = sample_link_faults(topo, 4, seed=1)
        backend = FlowBackend(topo, max_paths=4, faults=faults)
        rates = backend.phase_rates(random_permutation(topo.num_accelerators, seed=0))
        assert backend.disconnected_pairs == 0
        assert (rates > 0).all()

    def test_dead_endpoint_reported_not_crashed(self, hx2mesh_4x4):
        topo = hx2mesh_4x4
        victim_rank = 3
        victim_node = topo.accelerators[victim_rank]
        faults = FaultSet.from_nodes(topo, [victim_node])
        backend = FlowBackend(topo, max_paths=4, faults=faults)
        flows = random_permutation(topo.num_accelerators, seed=0)
        rates = backend.phase_rates(flows)
        dead = [
            i for i, f in enumerate(flows)
            if f.src == victim_rank or f.dst == victim_rank
        ]
        assert dead
        assert backend.disconnected_pairs == len(dead)
        assert (rates[dead] == 0.0).all()
        alive = np.ones(len(flows), dtype=bool)
        alive[dead] = False
        assert (rates[alive] > 0).all()

    def test_provider_raises_and_split_connected_reports(self, hx2mesh_4x4):
        topo = hx2mesh_4x4
        victim = topo.accelerators[0]
        other = topo.accelerators[1]
        faults = FaultSet.from_nodes(topo, [victim])
        provider = DegradedPathProvider(topo, faults)
        assert not provider.connected(other, victim)
        with pytest.raises(TopologyError, match="no surviving path"):
            provider.paths(other, victim)
        table = degraded_route_table(topo, faults, max_paths=4)
        ok, dead = split_connected(
            table, [(other, victim), (other, topo.accelerators[2])]
        )
        assert ok == [1] and dead == [0]

    def test_split_connected_trivial_on_fault_free_table(self, hx2mesh_4x4):
        table = route_table_for(hx2mesh_4x4, max_paths=4)
        ok, dead = split_connected(table, [(0, 1), (1, 2)])
        assert ok == [0, 1] and dead == []

    def test_valiant_detours_avoid_dead_links(self, hx2mesh_4x4):
        topo = hx2mesh_4x4
        faults = sample_link_faults(topo, 3, seed=2)
        flows = random_permutation(topo.num_accelerators, seed=1)
        solver = FaultEventSolver(topo, flows, policy="valiant", max_paths=4)
        solver.apply(faults)
        used = solver._state.asg.entry_link
        assert not np.isin(used, np.fromiter(faults.dead_links, dtype=np.int64)).any()


class TestFaultEventSolver:
    def _cold_rates(self, topo, flows, faults, policy="minimal"):
        table = degraded_route_table(topo, faults, max_paths=4, policy=policy)
        sim = FlowSimulator(topo, table=table)
        provider = sim.table.provider
        if isinstance(provider, DegradedPathProvider):
            active = [
                f for f in flows
                if provider.connected(sim.ranks[f.src], sim.ranks[f.dst])
            ]
        else:
            active = list(flows)
        return sim.maxmin_rates(active).flow_rates

    @pytest.mark.parametrize("policy", ["minimal", "ecmp", "valiant"])
    def test_schedule_replay_matches_cold(self, hx2mesh_4x4, policy):
        topo = hx2mesh_4x4
        flows = random_permutation(topo.num_accelerators, seed=4)
        solver = FaultEventSolver(topo, flows, policy=policy, max_paths=4)
        schedule = link_fault_schedule(topo, 5, seed=4)
        reports = solver.apply_schedule(schedule)
        for fs, rep in zip(schedule, reports):
            cold = self._cold_rates(topo, flows, fs, policy=policy)
            assert np.array_equal(
                rep.connected_rates, cold
            ), f"parity broke at {len(fs.dead_links) // 2} faults"

    def test_randomized_fault_sequences_match_cold(self, torus_4x4_boards):
        topo = torus_4x4_boards
        flows = random_permutation(topo.num_accelerators, seed=9)
        rng = np.random.default_rng(5)
        candidates = fault_candidate_links(topo, seed=7)
        solver = FaultEventSolver(topo, flows, max_paths=4)
        cumulative = FaultSet.empty()
        for _ in range(4):
            pick = [int(candidates[i]) for i in rng.choice(len(candidates), 2, replace=False)]
            cumulative = cumulative.union(FaultSet.from_links(topo, pick))
            rep = solver.apply(cumulative)
            cold = self._cold_rates(topo, flows, cumulative)
            assert np.array_equal(rep.connected_rates, cold)

    def test_repair_resolves_cold_and_exact(self, hx2mesh_4x4):
        topo = hx2mesh_4x4
        flows = random_permutation(topo.num_accelerators, seed=4)
        solver = FaultEventSolver(topo, flows, max_paths=4)
        big = sample_link_faults(topo, 4, seed=4)
        small = sample_link_faults(topo, 2, seed=4)
        solver.apply(big)
        rep = solver.apply(small)  # repair: fault set shrinks
        cold = self._cold_rates(topo, flows, small)
        assert np.array_equal(rep.connected_rates, cold)

    def test_disconnection_reported_with_zero_rates(self, hx2mesh_4x4):
        topo = hx2mesh_4x4
        flows = random_permutation(topo.num_accelerators, seed=4)
        solver = FaultEventSolver(topo, flows, max_paths=4)
        victim_rank = 5
        faults = FaultSet.from_nodes(topo, [topo.accelerators[victim_rank]])
        rep = solver.apply(faults)
        assert rep.disconnected
        assert all(
            flows[i].src == victim_rank or flows[i].dst == victim_rank
            for i in rep.disconnected
        )
        assert (rep.rates[list(rep.disconnected)] == 0.0).all()
        assert rep.min_rate > 0.0  # over the survivors

    def test_baseline_matches_fault_free_solve(self, hx2mesh_4x4):
        topo = hx2mesh_4x4
        flows = random_permutation(topo.num_accelerators, seed=4)
        solver = FaultEventSolver(topo, flows, max_paths=4)
        cold = FlowSimulator(topo, max_paths=4).maxmin_rates(flows).flow_rates
        assert np.allclose(solver.baseline.rates, cold, atol=1e-12)


class TestPacketFaults:
    def test_static_faults_through_packet_backend(self, hx2mesh_4x4):
        topo = hx2mesh_4x4
        faults = sample_link_faults(topo, 3, seed=1)
        backend = PacketBackend(topo, max_paths=4, faults=faults)
        flows = random_permutation(topo.num_accelerators, seed=0)[:16]
        rates = backend.phase_rates(flows)
        assert (rates > 0).all()

    def test_reference_impl_rejects_faults(self, hx2mesh_4x4):
        with pytest.raises(ValueError):
            PacketBackend(
                hx2mesh_4x4,
                impl="reference",
                faults=sample_link_faults(hx2mesh_4x4, 1, seed=0),
            )

    def test_mid_flight_link_death_retransmits(self, hx2mesh_4x4):
        topo = hx2mesh_4x4
        table = route_table_for(topo, max_paths=2)
        net = PacketNetwork(topo, config=PacketSimConfig(max_paths=2), table=table)
        msgs = [net.send(i, (i + 7) % len(net.ranks), 64 * 1024) for i in range(16)]
        # find the horizon, then replay with a fault dropped mid-flight
        horizon = net.run().finish_time
        net2 = PacketNetwork(topo, config=PacketSimConfig(max_paths=2), table=table)
        msgs2 = [net2.send(i, (i + 7) % len(net2.ranks), 64 * 1024) for i in range(16)]
        # kill two fabric cables at 30% of the fault-free makespan
        candidates = fault_candidate_links(topo, seed=0)
        net2.schedule_link_faults(0.3 * horizon, [candidates[0], candidates[1]])
        result = net2.run()
        assert all(m.finished for m in msgs2)
        assert result.packets_dropped == result.packets_retried
        assert result.packets_lost == 0
        assert result.finish_time >= horizon - 1e-12

    @pytest.mark.parametrize("sampled", [False, True])
    def test_max_events_bounds_a_faulted_run_and_resumes_exactly(
        self, hx2mesh_4x4, sampled, monkeypatch, request
    ):
        if sampled:  # with obs on, runs drive in slices of _SAMPLE_CHUNK events
            import repro.obs as obs
            import repro.sim.network as netmod

            monkeypatch.setattr(netmod, "_SAMPLE_CHUNK", 64)
            obs.enable()
            request.addfinalizer(obs.disable)
        topo = hx2mesh_4x4
        table = route_table_for(topo, max_paths=2)

        def load():
            net = PacketNetwork(topo, config=PacketSimConfig(max_paths=2), table=table)
            for i in range(16):
                net.send(i, (i + 7) % len(net.ranks), 64 * 1024)
            return net

        clean = load().run()
        # two fabric cables that carry traffic, killed at 30% of the makespan
        busy = [li for li in fault_candidate_links(topo, seed=0) if clean.link_busy_time[li] > 0]

        def faulted():
            net = load()
            net.schedule_link_faults(0.3 * clean.finish_time, busy[:2])
            return net

        whole = faulted().run()
        assert whole.packets_dropped > 0
        for budget in (50, 200, 400):  # stops before and after the fault time
            net = faulted()
            net.run(max_events=budget)
            assert net.engine.processed_events == budget
            resumed = net.run()
            assert [m.completion_time for m in resumed.messages] == [
                m.completion_time for m in whole.messages
            ]
            assert np.array_equal(resumed.link_busy_time, whole.link_busy_time)
            assert resumed.packets_dropped == whole.packets_dropped

    def test_disconnected_destination_counts_lost_packets(self, hx2mesh_4x4):
        topo = hx2mesh_4x4
        victim_rank = 2
        faults = FaultSet.from_nodes(topo, [topo.accelerators[victim_rank]])
        net = PacketNetwork(
            topo, config=PacketSimConfig(max_paths=2), faults=faults
        )
        msg = net.send(0, victim_rank, 4096)
        net.run()
        assert not msg.finished
        assert net.packets_lost > 0
