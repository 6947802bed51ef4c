"""Parity and engine tests for the vectorized simulator kernels.

The vectorized packet core (:mod:`repro.sim.network`) must reproduce the
reference implementation (:mod:`repro.sim.reference`) *bit for bit* —
identical per-message completion times, link busy times, finish time, and
event counts — on every topology family; the incremental max-min solver
must match the full-rescan reference to 1e-9.  These tests are the oracle
the tentpole optimisation is held to.
"""

import numpy as np
import pytest

from repro.sim import (
    Flow,
    FlowSimulator,
    PacketNetwork,
    PacketSimConfig,
    ReferencePacketNetwork,
    get_backend,
    random_permutation,
    reference_maxmin_rates,
    ring_neighbor_flows,
)
from repro.topology import Topology


# ------------------------------------------------------------- packet parity
def _completion_times(result):
    return np.array([m.completion_time for m in result.messages], dtype=float)


def _run_pair(topo, load, config=None):
    config = config or PacketSimConfig(max_paths=4)
    ref = ReferencePacketNetwork(topo, config=config)
    load(ref)
    ref_result = ref.run()
    vec = PacketNetwork(topo, config=config)
    load(vec)
    vec_result = vec.run()
    return (ref, ref_result), (vec, vec_result)


class TestPacketParityAllFamilies:
    def test_permutation_schedules_bit_identical(self, all_small_topologies):
        for name, topo in all_small_topologies.items():
            flows = random_permutation(topo.num_accelerators, seed=7)
            (ref, rr), (vec, rv) = _run_pair(
                topo, lambda net: net.send_flows(flows, 1 << 16)
            )
            assert rr.all_finished and rv.all_finished, name
            assert np.array_equal(_completion_times(rr), _completion_times(rv)), name
            assert np.array_equal(rr.link_busy_time, rv.link_busy_time), name
            assert rr.finish_time == rv.finish_time, name
            assert ref.engine.processed_events == vec.engine.processed_events, name

    def test_fractional_demands_bit_identical(self, hx2mesh_4x4):
        flows = [Flow(i, (i + 5) % 16, demand=1.0 + 0.3 * i) for i in range(16)]
        (ref, rr), (vec, rv) = _run_pair(
            hx2mesh_4x4, lambda net: net.send_flows(flows, 10000.5)
        )
        assert rr.all_finished and rv.all_finished
        assert np.array_equal(_completion_times(rr), _completion_times(rv))
        assert np.array_equal(rr.link_busy_time, rv.link_busy_time)

    def test_staggered_starts_bit_identical(self, fat_tree_64):
        def load(net):
            for i in range(24):
                net.send(i, (i + 7) % 64, 1 << 15, start_time=1e-7 * (i % 5))

        (ref, rr), (vec, rv) = _run_pair(fat_tree_64, load)
        assert np.array_equal(_completion_times(rr), _completion_times(rv))
        assert rr.finish_time == rv.finish_time

    def test_multipath_fat_tree_bit_identical(self, fat_tree_64_radix16):
        """``fat_tree_64`` is one crossbar; this two-level tree makes the
        packet cores choose between leaf-to-leaf paths."""
        topo = fat_tree_64_radix16
        flows = random_permutation(topo.num_accelerators, seed=7)
        (ref, rr), (vec, rv) = _run_pair(topo, lambda net: net.send_flows(flows, 1 << 16))
        assert rr.all_finished and rv.all_finished
        assert np.array_equal(_completion_times(rr), _completion_times(rv))
        assert np.array_equal(rr.link_busy_time, rv.link_busy_time)
        assert rr.finish_time == rv.finish_time
        assert ref.engine.processed_events == vec.engine.processed_events

    def test_staggered_starts_multipath_fat_tree_bit_identical(self, fat_tree_64_radix16):
        def load(net):
            for i in range(24):
                net.send(i, (i + 7) % 64, 1 << 15, start_time=1e-7 * (i % 5))

        (ref, rr), (vec, rv) = _run_pair(fat_tree_64_radix16, load)
        assert np.array_equal(_completion_times(rr), _completion_times(rv))
        assert np.array_equal(rr.link_busy_time, rv.link_busy_time)
        assert rr.finish_time == rv.finish_time

    def test_packet_vs_flow_steady_state_all_families(self, all_small_topologies):
        """Steady-state packet throughput tracks the max-min flow rates."""
        for name, topo in all_small_topologies.items():
            flows = random_permutation(topo.num_accelerators, seed=3)
            net = PacketNetwork(topo, config=PacketSimConfig(max_paths=4))
            net.send_flows(flows, 1 << 17)
            result = net.run()
            assert result.all_finished, name
            packet_mean = result.message_bandwidths().mean() / 50e9
            flow_mean = FlowSimulator(topo, max_paths=4).maxmin_rates(flows).flow_rates.mean()
            ratio = packet_mean / flow_mean
            assert 0.5 < ratio < 1.5, f"{name}: packet/flow ratio {ratio:.2f}"

    def test_max_events_cut_inside_a_wave_resumes_exactly(self, hx2mesh_4x4):
        """A run stopped inside a bucket of simultaneous events resumes
        where it stopped: the rest of the bucket runs first."""
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=2)
        config = PacketSimConfig(max_paths=4)
        whole = PacketNetwork(hx2mesh_4x4, config=config)
        whole.send_flows(flows, 1 << 15)
        expected = whole.run()
        for budget in (10, 200, 333):  # 64 injections share t=0; then hop waves
            net = PacketNetwork(hx2mesh_4x4, config=config)
            net.send_flows(flows, 1 << 15)
            net.run(max_events=budget)
            assert net.engine.processed_events == budget
            assert net.engine.pending_events > 0
            result = net.run()
            assert np.array_equal(_completion_times(result), _completion_times(expected))
            assert np.array_equal(result.link_busy_time, expected.link_busy_time)
            assert result.finish_time == expected.finish_time
            assert net.engine.processed_events == whole.engine.processed_events

    def test_run_with_closure_events_mixed_in(self, fat_tree_64):
        """A closure pending on the packet engine fails the run with one
        line instead of being silently dropped."""
        net = PacketNetwork(fat_tree_64)
        net.send(0, 1, 1 << 14)
        net.engine.schedule(1e-9, lambda: None)
        with pytest.raises(RuntimeError, match="closure event is pending on net.engine") as err:
            net.run()
        assert "\n" not in str(err.value)

    def test_run_until_and_resume(self, fat_tree_64):
        net = PacketNetwork(fat_tree_64)
        net.send(0, 1, 1 << 16)
        partial = net.run(until=1e-7)
        assert partial.finish_time == 1e-7
        assert not partial.all_finished
        assert net.engine.pending_events > 0
        full = net.run()
        assert full.all_finished
        # identical to an uninterrupted run
        solo = PacketNetwork(fat_tree_64)
        solo.send(0, 1, 1 << 16)
        assert solo.run().finish_time == full.finish_time

    def test_reference_backend_knob(self, hx2mesh_4x4):
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=1)
        fast = get_backend("packet", hx2mesh_4x4, max_paths=4)
        slow = get_backend("packet", hx2mesh_4x4, max_paths=4, impl="reference")
        np.testing.assert_array_equal(fast.phase_rates(flows), slow.phase_rates(flows))
        with pytest.raises(ValueError):
            get_backend("packet", hx2mesh_4x4, impl="bogus")


class TestTypedRecords:
    """Packet calendar records and closure events share one engine's counts."""

    def test_records_interleave_with_closures(self, fat_tree_64):
        """Records and closures interleave in the engine's counts, never in
        execution: a refused run leaves the calendar intact, and once the
        closure is cancelled the run equals one that never saw it."""
        net = PacketNetwork(fat_tree_64)
        msg = net.send(0, 1, 1 << 14)
        records = net.engine.pending_events
        assert records > 0
        fired = []
        handle = net.engine.schedule(1e-9, lambda: fired.append(net.engine.now))
        assert net.engine.pending_events == records + 1
        with pytest.raises(RuntimeError):
            net.run()
        assert net.engine.pending_events == records + 1
        assert net.engine.processed_events == 0 and not msg.finished
        assert net.engine.cancel(handle)
        assert net.engine.pending_events == records
        result = net.run()
        assert fired == [] and result.all_finished
        solo = PacketNetwork(fat_tree_64)
        solo.send(0, 1, 1 << 14)
        expected = solo.run()
        assert result.finish_time == expected.finish_time
        assert np.array_equal(result.link_busy_time, expected.link_busy_time)
        assert net.engine.processed_events == solo.engine.processed_events
        assert net.engine.pending_events == 0


class TestPayloadExactness:
    def test_fractional_message_delivers_exact_bytes(self, fat_tree_64):
        net = PacketNetwork(fat_tree_64)
        msg = net.send(0, 1, 100000.5)
        net.run()
        assert msg.finished
        assert msg.packets_total == int(np.ceil(100000.5 / 8192))
        state = net.packet_state()
        assert state["size"].sum() == 100000.5
        # full packets carry packet_size; only the last carries the remainder
        assert (state["size"][:-1] == 8192).all()

    def test_integer_message_split_unchanged(self, fat_tree_64):
        net = PacketNetwork(fat_tree_64)
        net.send(0, 1, 3 * 8192 + 100)
        net.run()
        state = net.packet_state()
        assert state["size"].tolist() == [8192.0, 8192.0, 8192.0, 100.0]

    def test_packet_state_is_struct_of_arrays(self, hx2mesh_4x4):
        net = PacketNetwork(hx2mesh_4x4, config=PacketSimConfig(max_paths=4))
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=5)
        net.send_flows(flows, 1 << 14)
        net.run(max_events=200)
        state = net.packet_state()
        n = len(state["message"])
        assert n > 0
        for key in ("message", "hop", "path_start", "path_end", "path_links"):
            assert state[key].dtype == np.int64
        assert state["size"].dtype == np.float64
        # CSR invariants: ranges are within the flat array and hops within range
        assert (state["path_end"] > state["path_start"]).all()
        assert state["path_end"].max() <= len(state["path_links"])
        assert (state["hop"] >= 1).all()
        assert (state["hop"] <= state["path_end"] - state["path_start"]).all()
        net.run()
        done = net.packet_state()
        assert (done["hop"] == done["path_end"] - done["path_start"]).all()

    def test_link_utilization_is_busy_fraction(self, fat_tree_64):
        net = PacketNetwork(fat_tree_64)
        net.send(0, 9, 1 << 20)
        result = net.run()
        util = result.link_utilization()
        expected = result.link_busy_time / result.finish_time
        np.testing.assert_allclose(util, expected)


# ------------------------------------------------------------ max-min parity
def _multi_bottleneck_topology():
    """Two shared bottlenecks of different capacity plus a private fat link.

    Flows overlap so progressive filling freezes them across several rounds
    — the pattern the incremental solver must replay exactly.
    """
    topo = Topology("multi-bottleneck")
    a, b, c, d = (topo.add_accelerator() for _ in range(4))
    s1 = topo.add_switch()
    s2 = topo.add_switch()
    topo.add_link(a, s1, capacity=4.0)
    topo.add_link(b, s1, capacity=4.0)
    topo.add_link(s1, s2, capacity=1.0)   # tight shared bottleneck
    topo.add_link(s2, c, capacity=2.0)    # looser second bottleneck
    topo.add_link(s2, d, capacity=4.0)
    topo.meta["injection_capacity"] = 4.0
    return topo


class TestMaxMinIncremental:
    def test_multi_bottleneck_matches_reference(self):
        topo = _multi_bottleneck_topology()
        sim = FlowSimulator(topo)
        flows = [Flow(0, 2), Flow(1, 2), Flow(0, 3), Flow(1, 3, demand=2.0)]
        inc = sim.maxmin_rates(flows)
        ref = reference_maxmin_rates(sim, flows)
        np.testing.assert_allclose(inc.flow_rates, ref.flow_rates, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(
            inc.link_utilization, ref.link_utilization, rtol=1e-9, atol=1e-9
        )
        assert inc.bottleneck_link == ref.bottleneck_link
        # the tight shared link must saturate
        assert inc.link_utilization.max() == pytest.approx(1.0, abs=1e-6)

    def test_permutations_match_reference_all_families(self, all_small_topologies):
        for name, topo in all_small_topologies.items():
            sim = FlowSimulator(topo, max_paths=8)
            for seed in (0, 1, 2):
                flows = random_permutation(topo.num_accelerators, seed=seed)
                inc = sim.maxmin_rates(flows)
                ref = reference_maxmin_rates(sim, flows)
                np.testing.assert_allclose(
                    inc.flow_rates, ref.flow_rates, rtol=1e-9, atol=1e-9,
                    err_msg=f"{name} seed={seed}",
                )

    def test_ring_and_demand_weighting_match_reference(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, max_paths=4)
        ring = ring_neighbor_flows(list(range(hx2mesh_4x4.num_accelerators)))
        weighted = [
            Flow(f.src, f.dst, demand=1.0 + (i % 3)) for i, f in enumerate(ring)
        ]
        for flows in (ring, weighted):
            inc = sim.maxmin_rates(flows)
            ref = reference_maxmin_rates(sim, flows)
            np.testing.assert_allclose(inc.flow_rates, ref.flow_rates, rtol=1e-9, atol=1e-9)
