"""Tests for the flow-level max-min fair simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    Flow,
    FlowSet,
    FlowSimulator,
    random_permutation,
    ring_neighbor_flows,
    swap_destinations,
)
from repro.topology import Topology, build_fat_tree


def line_topology(capacities):
    """acc - sw - sw - ... - acc chain with the given link capacities."""
    topo = Topology("line")
    a = topo.add_accelerator("a")
    b = topo.add_accelerator("b")
    prev = a
    for i, cap in enumerate(capacities[:-1]):
        sw = topo.add_switch(f"s{i}")
        topo.add_link(prev, sw, capacity=cap)
        prev = sw
    topo.add_link(prev, b, capacity=capacities[-1])
    topo.meta["injection_capacity"] = max(capacities)
    return topo, a, b


class TestSymmetricRate:
    def test_single_flow_bottleneck(self):
        topo, a, b = line_topology([4.0, 1.0, 2.0])
        sim = FlowSimulator(topo)
        result = sim.symmetric_rate([Flow(0, 1)])
        assert result.min_rate == pytest.approx(1.0)
        assert topo.link(result.bottleneck_link).capacity == pytest.approx(1.0)

    def test_two_flows_share_a_link(self):
        topo = Topology("shared")
        a, b, c = (topo.add_accelerator() for _ in range(3))
        sw = topo.add_switch()
        topo.add_link(a, sw, capacity=2.0)
        topo.add_link(b, sw, capacity=2.0)
        topo.add_link(sw, c, capacity=2.0)
        sim = FlowSimulator(topo)
        result = sim.symmetric_rate([Flow(0, 2), Flow(1, 2)])
        # both flows share the sw->c link of capacity 2
        assert result.min_rate == pytest.approx(1.0)

    def test_demand_weighting(self):
        topo, a, b = line_topology([2.0, 2.0])
        sim = FlowSimulator(topo)
        result = sim.symmetric_rate([Flow(0, 1, demand=2.0)])
        # rate is per unit of demand: demand 2 on a capacity-2 path -> 2.0 total
        assert result.flow_rates[0] == pytest.approx(2.0)

    def test_rejects_self_flow(self, fat_tree_64):
        sim = FlowSimulator(fat_tree_64)
        with pytest.raises(ValueError):
            sim.symmetric_rate([Flow(0, 0)])

    def test_link_utilization_bounded(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4)
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=0)
        result = sim.symmetric_rate(flows)
        assert result.link_utilization.max() <= 1.0 + 1e-9

    @pytest.mark.filterwarnings("error")
    def test_zero_demands_give_the_maxmin_zero_rates(self, hx2mesh_4x4):
        """With every demand 0 no link carries load; the rates and link
        utilisation are 0, as max-min gives, not ``0 * inf``."""
        sim = FlowSimulator(hx2mesh_4x4)
        ranks = np.arange(8)
        flows = FlowSet(ranks, (ranks + 3) % 8, np.zeros(8))
        sym, mm = sim.symmetric_rate(flows), sim.maxmin_rates(flows)
        for field in ("flow_rates", "link_utilization"):
            assert np.array_equal(getattr(sym, field), getattr(mm, field))
        assert not sym.flow_rates.any() and not sym.link_utilization.any()


class TestMaxMin:
    def test_matches_symmetric_for_uniform_pattern(self, fat_tree_64):
        sim = FlowSimulator(fat_tree_64)
        flows = ring_neighbor_flows(list(range(64)))
        sym = sim.symmetric_rate(flows).min_rate
        mm = sim.maxmin_rates(flows)
        assert mm.flow_rates.min() == pytest.approx(sym, rel=1e-6)

    def test_unequal_paths_get_unequal_rates(self):
        # Two flows: one through a fat link, one through a thin link.
        topo = Topology("uneven")
        a, b, c, d = (topo.add_accelerator() for _ in range(4))
        topo.add_link(a, b, capacity=4.0)
        topo.add_link(c, d, capacity=1.0)
        topo.meta["injection_capacity"] = 4.0
        sim = FlowSimulator(topo)
        result = sim.maxmin_rates([Flow(0, 1), Flow(2, 3)])
        assert result.flow_rates[0] == pytest.approx(4.0)
        assert result.flow_rates[1] == pytest.approx(1.0)

    def test_conservation_no_link_oversubscribed(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, max_paths=4)
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=3)
        result = sim.maxmin_rates(flows)
        assert result.link_utilization.max() <= 1.0 + 1e-6
        assert (result.flow_rates > 0).all()

    def test_maxmin_dominates_symmetric_minimum(self, hx2mesh_4x4):
        """Max-min fairness never gives the worst flow less than the
        all-equal allocation."""
        sim = FlowSimulator(hx2mesh_4x4, max_paths=4)
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=5)
        sym = sim.symmetric_rate(flows).min_rate
        mm = sim.maxmin_rates(flows).flow_rates.min()
        assert mm >= sym - 1e-9

    @given(
        seed=st.integers(0, 10_000),
        family=st.sampled_from(
            ["hammingmesh", "fattree", "dragonfly", "torus", "hyperx"]
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_rates_positive_and_feasible(
        self, all_small_topologies, seed, family
    ):
        """Every max-min solve is certified against the definition, and the
        other entry points reproduce the certified results."""
        topo = all_small_topologies[family]
        sim = FlowSimulator(topo, max_paths=4)
        p = topo.num_accelerators
        rng = np.random.default_rng(seed)
        demands = rng.choice([0.0, 0.25, 1.0, 3.0], size=p)
        flows = [
            Flow(f.src, f.dst, float(d))
            for f, d in zip(random_permutation(p, seed=seed), demands)
        ]
        state = sim.maxmin_warm_state(flows)
        certify_maxmin(sim, state)
        rates = state.result.flow_rates
        assert (rates[demands > 0] > 0).all()
        assert (rates[demands == 0] == 0).all()

        # A local move (usually solved warm by the delta batch) and a new
        # demand for every flow (always its exact cold fallback).
        i, j = (int(v) for v in rng.choice(p, size=2, replace=False))
        near = list(swap_destinations(flows, i, j))
        if any(f.src == f.dst for f in near):
            near = list(flows)
        near[i] = Flow(near[i].src, near[i].dst, 2.0)
        far = [
            Flow(f.src, f.dst, float(d) + 0.5) for f, d in zip(flows, demands[::-1])
        ]
        near_state = sim.maxmin_warm_state(near)
        far_state = sim.maxmin_warm_state(far)
        certify_maxmin(sim, near_state)
        certify_maxmin(sim, far_state)

        # Cold entry points run the same kernel as maxmin_warm_state.
        assert_same_result(sim.maxmin_rates(flows), state.result)
        for got, ref in zip(
            sim.maxmin_rates_batch([far, flows]), (far_state.result, state.result)
        ):
            assert_same_result(got, ref)
        batch = sim.maxmin_rates_delta_batch(state, [near, far, flows])
        assert batch[2].result is state.result
        assert not batch[1].warm
        assert_same_result(batch[1].result, far_state.result)
        # A warm candidate is re-filled in a different summation order than
        # the cold solve: equal to 1e-12.
        np.testing.assert_allclose(
            batch[0].result.flow_rates, near_state.result.flow_rates, rtol=0, atol=1e-12
        )


def assert_same_result(a, b):
    """Bit-identical :class:`PhaseResult` values."""
    assert np.array_equal(a.flow_rates, b.flow_rates)
    assert np.array_equal(a.link_utilization, b.link_utilization)
    assert int(a.bottleneck_link) == int(b.bottleneck_link)


def certify_maxmin(sim, state, tol=1e-9):
    """Assert the Bertsekas-Gallager conditions on a solved :class:`WarmState`.

    A feasible allocation in which every positive-weight subflow crosses a
    saturated link on which its (demand-weighted) level is maximal is the
    unique weighted max-min fair point.  The state's rates, link use and
    utilisation must also follow from its levels.
    """
    cap = sim.capacity
    asg = state.asg
    weights = asg.subflow_weights()
    entry_level = state.levels[asg.entry_subflow]
    used = np.bincount(
        asg.entry_link,
        weights=(weights * state.levels)[asg.entry_subflow],
        minlength=len(cap),
    )
    slack = tol * (1.0 + cap)
    # No link is oversubscribed.
    assert (used <= cap + slack).all()
    # Every positive-weight subflow has a saturated bottleneck link on which
    # no positive-weight subflow sits at a higher level.
    positive = weights[asg.entry_subflow] > 0
    link_level = np.full(len(cap), -np.inf)
    np.maximum.at(link_level, asg.entry_link[positive], entry_level[positive])
    saturated = used >= cap - slack
    lam = link_level[asg.entry_link]
    ok_entry = saturated[asg.entry_link] & (entry_level >= lam - tol * (1.0 + np.abs(lam)))
    ok_subflow = np.zeros(asg.num_subflows, dtype=bool)
    np.logical_or.at(ok_subflow, asg.entry_subflow, ok_entry)
    assert ok_subflow[weights > 0].all()
    # The reported result follows from the levels.
    np.testing.assert_allclose(state.used, used, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        state.result.flow_rates,
        np.bincount(asg.subflow_flow, weights=weights * state.levels, minlength=asg.num_flows),
        rtol=0,
        atol=1e-12,
    )
    np.testing.assert_allclose(
        state.result.link_utilization,
        np.where(cap > 0, used / cap, 0.0),
        rtol=0,
        atol=1e-12,
    )


class TestFlowValidation:
    """Malformed flows fail with one line naming the flow, at every entry."""

    @pytest.mark.parametrize(
        "bad, match",
        [
            (Flow(0, -1), r"flow 2 \(0 -> -1\) has a rank outside \[0, 64\)"),
            (Flow(0, 67), r"flow 2 \(0 -> 67\) has a rank outside \[0, 64\)"),
            (Flow(-3, 5), r"flow 2 \(-3 -> 5\) has a rank outside"),
            (Flow(0, 5, -1.0), r"flow 2 has demand -1.0; demands must be finite"),
            (Flow(0, 5, float("nan")), r"flow 2 has demand nan"),
            (Flow(0, 5, float("inf")), r"flow 2 has demand inf"),
        ],
    )
    def test_bad_flow_rejected_everywhere(self, hx2mesh_4x4, bad, match):
        sim = FlowSimulator(hx2mesh_4x4, max_paths=4)
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=4)
        state = sim.maxmin_warm_state(flows)
        cand = list(flows)
        cand[2] = bad
        for solve in (
            lambda: sim.maxmin_rates(cand),
            lambda: sim.maxmin_rates_batch([flows, cand]),
            lambda: sim.maxmin_warm_state(cand),
            lambda: sim.symmetric_rate(cand),
            lambda: sim.maxmin_rates_delta_batch(state, [flows, cand]),
            lambda: sim.maxmin_rates_delta_batch(state, [cand], changed=[[2]]),
        ):
            with pytest.raises(ValueError, match=match):
                solve()

    def test_zero_demand_is_legal(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, max_paths=4)
        result = sim.maxmin_rates([Flow(0, 5, 0.0), Flow(1, 6)])
        assert result.flow_rates[0] == 0.0
        assert result.flow_rates[1] > 0.0


class TestDerivedMetrics:
    def test_alltoall_nonblocking_fat_tree_near_full(self, fat_tree_64):
        sim = FlowSimulator(fat_tree_64, max_paths=8)
        bw = sim.alltoall_bandwidth(num_phases=16, seed=1)
        assert bw > 0.85

    def test_alltoall_hxmesh_limited(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, max_paths=8)
        bw = sim.alltoall_bandwidth(num_phases=16, seed=1)
        # around the bisection-related bound of 1/4, certainly below 1/2
        assert 0.1 < bw < 0.55

    def test_alltoall_phased_not_higher_than_aggregate(self, fat_tree_64):
        sim = FlowSimulator(fat_tree_64, max_paths=8)
        agg = sim.alltoall_bandwidth(num_phases=8, seed=1, method="aggregate")
        phased = sim.alltoall_bandwidth(num_phases=8, seed=1, method="phased")
        assert phased <= agg + 1e-6

    def test_alltoall_unknown_method(self, fat_tree_64):
        sim = FlowSimulator(fat_tree_64)
        with pytest.raises(ValueError):
            sim.alltoall_bandwidth(num_phases=4, method="bogus")

    def test_permutation_bandwidths_per_rank(self, fat_tree_64):
        sim = FlowSimulator(fat_tree_64, max_paths=8)
        flows = random_permutation(64, seed=0)
        fractions = sim.permutation_bandwidths(flows)
        assert fractions.shape == (64,)
        assert (fractions > 0).all()
        assert fractions.max() <= 1.0 + 1e-9

    def test_phase_bandwidth_exact_flag(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, max_paths=4)
        flows = ring_neighbor_flows(list(range(hx2mesh_4x4.num_accelerators)))
        fast = sim.phase_bandwidth(flows)
        exact = sim.phase_bandwidth(flows, exact=True)
        assert exact >= fast - 1e-9
