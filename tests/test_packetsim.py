"""Tests for the discrete-event engine and the packet-level simulator."""

import numpy as np
import pytest

from repro.core import build_hammingmesh
from repro.sim import (
    EventEngine,
    FlowSimulator,
    PacketNetwork,
    PacketSimConfig,
    RouteTable,
    random_permutation,
    ring_neighbor_flows,
)
from repro.topology import CableClass, build_fat_tree


class TestEventEngine:
    def test_events_run_in_time_order(self):
        engine = EventEngine()
        order = []
        engine.schedule(3.0, lambda: order.append("c"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(2.0, lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == pytest.approx(3.0)
        assert engine.processed_events == 3

    def test_simultaneous_events_fifo(self):
        engine = EventEngine()
        order = []
        for i in range(5):
            engine.schedule(1.0, lambda i=i: order.append(i))
        engine.run()
        assert order == [0, 1, 2, 3, 4]

    def test_events_can_schedule_more_events(self):
        engine = EventEngine()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 4:
                engine.schedule(1.0, lambda: chain(n + 1))

        engine.schedule(0.0, lambda: chain(0))
        engine.run()
        assert seen == [0, 1, 2, 3, 4]
        assert engine.now == pytest.approx(4.0)

    def test_until_limit(self):
        engine = EventEngine()
        hits = []
        for t in (1.0, 2.0, 3.0):
            engine.schedule(t, lambda t=t: hits.append(t))
        engine.run(until=2.5)
        assert hits == [1.0, 2.0]
        assert engine.pending_events == 1

    def test_cannot_schedule_in_the_past(self):
        engine = EventEngine()
        engine.schedule(1.0, lambda: engine.schedule(-2.0, lambda: None))
        with pytest.raises(ValueError):
            engine.run()

    def test_reset(self):
        engine = EventEngine()
        engine.schedule(1.0, lambda: None)
        engine.reset()
        assert engine.pending_events == 0
        assert engine.now == 0.0

    def test_account_folds_in_an_outside_calendar(self):
        engine = EventEngine()
        engine.schedule(5.0, lambda: None)
        engine.account(2.0, 7, 3)
        assert (engine.now, engine.processed_events, engine.pending_events) == (2.0, 7, 4)
        assert engine.peek() == 5.0  # only scheduled events are peeked
        engine.account(3.0, 3, 0)
        assert (engine.now, engine.processed_events, engine.pending_events) == (3.0, 10, 1)
        engine.reset()
        assert engine.pending_events == 0


class TestPacketNetwork:
    @pytest.mark.parametrize(
        "config",
        [
            PacketSimConfig(),
            PacketSimConfig(packet_size=4096, bytes_per_capacity_unit=12.5e9, cable_latency=3e-8),
        ],
    )
    def test_link_timing_tables_match_a_per_link_loop(self, config):
        topo = build_hammingmesh(2, 2, 4, 4)  # PCB and cabled links
        net = PacketNetwork(topo, config=config)
        serialization, latency = [], []
        for link in topo.links:
            serialization.append(
                config.packet_size / (link.capacity * config.bytes_per_capacity_unit)
            )
            latency.append(
                config.board_latency if link.cable is CableClass.PCB else config.cable_latency
            )
        assert net._ser_list == serialization
        assert net._lat_list == latency

    def test_single_message_latency_and_bandwidth(self, fat_tree_64):
        config = PacketSimConfig(max_paths=1)
        net = PacketNetwork(fat_tree_64, config=config)
        msg = net.send(0, 1, 65536)
        result = net.run()
        assert result.all_finished
        assert msg.completion_time > 0
        # 64 KiB over a 200 GB/s access link: at least the pure serialisation time
        assert msg.completion_time >= 65536 / 200e9

    def test_zero_sized_message_still_completes(self, fat_tree_64):
        net = PacketNetwork(fat_tree_64)
        msg = net.send(0, 2, 1)
        net.run()
        assert msg.finished
        assert msg.packets_total == 1

    def test_rejects_self_send(self, fat_tree_64):
        net = PacketNetwork(fat_tree_64)
        with pytest.raises(ValueError):
            net.send(3, 3, 100)

    def test_empty_message_completes_with_one_packet(self, fat_tree_64):
        net = PacketNetwork(fat_tree_64)
        msg = net.send(0, 1, 0)
        net.run()
        assert msg.finished and msg.packets_total == 1

    @pytest.mark.parametrize("size", [-5.0, float("nan"), float("inf")])
    def test_rejects_a_negative_or_non_finite_size(self, fat_tree_64, size):
        net = PacketNetwork(fat_tree_64)
        with pytest.raises(ValueError, match=r"^message size .* must be finite and >= 0$"):
            net.send(0, 1, size)
        assert net.engine.pending_events == 0

    def test_engine_counts_the_calendar(self, fat_tree_64):
        net = PacketNetwork(fat_tree_64)
        net.send(0, 1, 100)
        net.send(2, 3, 100, start_time=1e-6)
        assert net.engine.pending_events == 2
        assert net.engine.peek() is None  # no closure events
        net.run(until=5e-7)
        assert net.engine.now == 5e-7
        assert net.engine.pending_events == 1
        assert net.engine.processed_events == 3  # inject, hop, delivery
        net.run()
        assert net.engine.pending_events == 0
        assert net.engine.processed_events == 6

    def test_rejects_a_start_in_the_past(self, fat_tree_64):
        net = PacketNetwork(fat_tree_64)
        net.send(0, 1, 1 << 16)
        net.run(until=1e-7)
        with pytest.raises(ValueError, match="cannot schedule into the past"):
            net.send(2, 3, 100, start_time=5e-8)
        assert net.send(2, 3, 100, start_time=1e-7).start_time == 1e-7

    def test_contention_slows_messages_down(self, fat_tree_64):
        # Two senders to the same destination share its ejection link.
        lone = PacketNetwork(fat_tree_64)
        lone.send(0, 5, 1 << 20)
        t_alone = lone.run().finish_time

        shared = PacketNetwork(fat_tree_64)
        shared.send(0, 5, 1 << 20)
        shared.send(1, 5, 1 << 20)
        t_shared = shared.run().finish_time
        assert t_shared > t_alone * 1.6

    def test_permutation_matches_flowsim_on_hxmesh(self, hx2mesh_4x4):
        """Packet-level and flow-level simulators agree on steady-state rates."""
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=2)
        size = 1 << 18
        net = PacketNetwork(hx2mesh_4x4, config=PacketSimConfig(max_paths=4))
        net.send_flows(flows, size)
        result = net.run()
        assert result.all_finished
        packet_mean = result.message_bandwidths().mean()

        sim = FlowSimulator(hx2mesh_4x4, max_paths=4)
        flow_mean = sim.maxmin_rates(flows).flow_rates.mean() * 50e9
        assert packet_mean == pytest.approx(flow_mean, rel=0.35)

    def test_ring_traffic_full_rate(self, hx2mesh_4x4):
        """Neighbour ring traffic should run close to one port of bandwidth."""
        order = list(range(hx2mesh_4x4.num_accelerators))
        from repro.collectives import grid_ring_orders

        order = grid_ring_orders(hx2mesh_4x4)[0]
        flows = ring_neighbor_flows(order)
        size = 1 << 18
        net = PacketNetwork(hx2mesh_4x4, config=PacketSimConfig(max_paths=2))
        net.send_flows(flows, size)
        result = net.run()
        bw = result.message_bandwidths()
        assert bw.min() > 0.5 * 50e9

    def test_link_busy_time_accounting(self, fat_tree_64):
        net = PacketNetwork(fat_tree_64)
        net.send(0, 9, 1 << 20)
        result = net.run()
        assert result.link_busy_time.sum() > 0
        util = result.link_utilization()
        assert util.max() <= 1.0 + 1e-9
        # a lone message keeps its bottleneck link busy almost continuously
        assert util.max() > 0.5

    def test_send_flows_routes_its_pairs_in_one_batch(self, hx2mesh_4x4):
        """send_flows stores every pair before the run; the run equals one
        that routes each pair as its first packet is injected."""
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=4)
        results = []
        for batched in (True, False):
            table = RouteTable(hx2mesh_4x4, max_paths=4)
            net = PacketNetwork(hx2mesh_4x4, config=PacketSimConfig(max_paths=4), table=table)
            if batched:
                net.send_flows(flows, 1 << 16)
                assert table.stats.misses == sum(f.src != f.dst for f in flows)
            else:
                for f in flows:
                    net.send(f.src, f.dst, 1 << 16)
                assert table.stats.misses == 0
            result = net.run()
            results.append((result.finish_time, result.link_busy_time.tolist(),
                            [m.completion_time for m in result.messages]))
        assert results[0] == results[1]

    def test_aggregate_bandwidth_positive(self, hx2mesh_4x4):
        net = PacketNetwork(hx2mesh_4x4)
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=1)
        net.send_flows(flows, 1 << 16)
        result = net.run()
        assert result.aggregate_bandwidth() > 0
