"""``FlowSet``: flows as arrays, read by the solver without a per-flow pass.

A :class:`FlowSet` must behave exactly like the equivalent ``List[Flow]``
everywhere a flow set goes in: the same :class:`FlowAssignment` arrays, the
same :class:`PhaseResult` bits, and the same assignment-cache entry, under
every routing policy.  Reading a ``FlowSet`` must never build a
:class:`Flow`, and bad input fails with one line naming the first bad flow.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    Flow,
    FlowSet,
    FlowSimulator,
    PacketNetwork,
    alltoall_phases,
    anneal_adversary,
    get_backend,
    random_permutation,
    sampled_alltoall_phases,
    swap_destinations,
)
from repro.sim.traffic import alltoall_flows, alltoall_shifts

POLICIES = ("minimal", "ecmp", "valiant", "ugal")
FAMILIES = ("hammingmesh", "dragonfly", "torus")
ASSIGNMENT_FIELDS = (
    "num_flows",
    "num_subflows",
    "entry_link",
    "entry_subflow",
    "subflow_flow",
    "subflow_weight",
    "flow_demand",
)


def _same_assignment(a, b) -> None:
    for name in ASSIGNMENT_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        else:
            assert x == y, name


def _same_result(a, b) -> None:
    assert a.flow_rates.tobytes() == b.flow_rates.tobytes()
    assert a.link_utilization.tobytes() == b.link_utilization.tobytes()
    assert a.bottleneck_link == b.bottleneck_link


@st.composite
def flow_columns(draw, p: int):
    """Up to 24 flows with repeated pairs and zero/fractional demands."""
    n = draw(st.integers(1, 24))
    src = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    off = draw(st.lists(st.integers(1, p - 1), min_size=n, max_size=n))
    if draw(st.booleans()):  # repeat the first pair
        src[-1], off[-1] = src[0], off[0]
    demand = draw(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]), min_size=n, max_size=n)
    )
    return src, [(s + o) % p for s, o in zip(src, off)], demand


class TestEquivalence:
    @given(
        family=st.sampled_from(FAMILIES),
        policy=st.sampled_from(POLICIES),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_flowset_matches_list(self, all_small_topologies, family, policy, data):
        topo = all_small_topologies[family]
        p = topo.num_accelerators
        src, dst, demand = data.draw(flow_columns(p))
        flows = FlowSet(src, dst, demand)
        listed = [Flow(s, d, w) for s, d, w in zip(src, dst, demand)]
        other = random_permutation(p, seed=len(src))
        assert flows == listed

        by_list = FlowSimulator(topo, max_paths=4, policy=policy, assign_cache=0)
        by_set = FlowSimulator(topo, max_paths=4, policy=policy, assign_cache=0)
        _same_assignment(by_list.assign(listed), by_set.assign(flows))
        _same_result(by_list.symmetric_rate(listed), by_set.symmetric_rate(flows))
        _same_result(by_list.maxmin_rates(listed), by_set.maxmin_rates(flows))
        for a, b in zip(
            by_list.maxmin_rates_batch([listed, list(other)]),
            by_set.maxmin_rates_batch([flows, other]),
        ):
            _same_result(a, b)

        cached = FlowSimulator(topo, max_paths=4, policy=policy)
        assert cached.assign(listed) is cached.assign(flows)
        assert len(cached._assignments) == 1


class TestNoPerFlowPass:
    def test_solver_never_builds_a_flow(self, hx2mesh_4x4, monkeypatch):
        p = hx2mesh_4x4.num_accelerators
        flows = random_permutation(p, seed=3)
        j = next(j for j in range(1, p) if flows.dst[j] != 0 and flows.dst[0] != j)
        cand = swap_destinations(flows, 0, j)

        def refuse(*args):
            raise AssertionError("a Flow was built from a FlowSet")

        monkeypatch.setattr(FlowSet, "__getitem__", refuse)
        monkeypatch.setattr(FlowSet, "__iter__", refuse)
        for policy in POLICIES:
            sim = FlowSimulator(hx2mesh_4x4, max_paths=4, policy=policy, assign_cache=0)
            sim.assign(flows)
            sim.symmetric_rate(flows)
            sim.maxmin_rates(flows)
            sim.maxmin_rates_batch([flows, cand])
            state = sim.maxmin_warm_state(flows)
            sim.maxmin_rates_delta_batch(state, [cand], changed=[(0, j)])
            sim.permutation_bandwidths(flows)
            sim.alltoall_bandwidth(num_phases=8, seed=1)
        backend = get_backend("flow", hx2mesh_4x4, max_paths=4)
        backend.allreduce_fraction()
        backend.permutation_sample(flows)
        PacketNetwork(hx2mesh_4x4).send_flows(flows, 1.0)


class TestAlltoallFlows:
    @pytest.mark.parametrize("p", [2, 3, 16, 64, 257])
    @pytest.mark.parametrize("num_phases", [None, 1, 8, 24, 48])
    def test_one_broadcast_is_the_phases_in_order(self, p, num_phases):
        """The aggregate alltoall's flows are its phases' flows, phase by
        phase, as the list of all phases' flows was before."""
        if num_phases is None:
            phases = alltoall_phases(p)
        else:
            phases = sampled_alltoall_phases(p, num_phases, seed=3)
        shifts = alltoall_shifts(p, num_phases, seed=3)
        assert len(shifts) == len(phases)
        assert alltoall_flows(p, shifts) == [f for phase in phases for f in phase]


class TestSequence:
    def test_reads_as_a_sequence_of_flows(self):
        flows = FlowSet([0, 1, 2], [1, 2, 0], [1.0, 0.5, 2.0])
        assert len(flows) == 3
        assert flows[1] == Flow(1, 2, 0.5)
        assert flows[-1] == Flow(2, 0, 2.0)
        assert type(flows[0].src) is int and type(flows[0].demand) is float
        assert isinstance(flows[1:], FlowSet) and flows[1:] == [Flow(1, 2, 0.5), Flow(2, 0, 2.0)]
        assert flows[[2, 0]] == [Flow(2, 0, 2.0), Flow(0, 1, 1.0)]
        assert flows[np.array([False, True, True])] == [Flow(1, 2, 0.5), Flow(2, 0, 2.0)]
        assert flows[flows.demand > 1.0] == [Flow(2, 0, 2.0)]
        assert flows[[]] == [] and flows[np.zeros(3, dtype=bool)] == []
        assert list(flows) == [Flow(0, 1, 1.0), Flow(1, 2, 0.5), Flow(2, 0, 2.0)]
        assert FlowSet.of(list(flows)) == flows
        assert FlowSet.of(flows) is flows
        assert FlowSet.concat([flows[:1], flows[1:]]) == flows
        assert pickle.loads(pickle.dumps(flows)) == flows
        with pytest.raises(IndexError):
            flows[3]
        with pytest.raises(IndexError):
            flows[np.array([True, False])]  # a mask of the wrong length
        with pytest.raises(IndexError):
            flows[[[0, 1]]]

    def test_immutable(self):
        src = np.array([0, 1])
        flows = FlowSet(src, [1, 0])
        src[0] = 1  # the set holds its own copy
        assert flows[0] == Flow(0, 1)
        with pytest.raises(ValueError):
            flows.dst[0] = 0
        with pytest.raises(AttributeError):
            flows.src = src

    def test_swap_returns_a_new_flowset(self):
        flows = random_permutation(8, seed=1)
        swapped = swap_destinations(flows, 2, 5)
        assert isinstance(swapped, FlowSet)
        assert swapped.dst.tolist() == [
            flows.dst[{2: 5, 5: 2}.get(k, k)] for k in range(8)
        ]
        from_list = swap_destinations(list(flows), 2, 5)
        assert isinstance(from_list, FlowSet) and from_list == swapped
        assert flows == random_permutation(8, seed=1)  # not modified

    def test_search_result_is_a_flowset(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, max_paths=4)
        result = anneal_adversary(sim, steps=4, seed=1, batch=2)
        assert isinstance(result.best_flows, FlowSet)


class TestBadInput:
    @pytest.mark.parametrize(
        "columns, message",
        [
            (([0, 1, 2], [1, 2], 1.0), "flow 2 is incomplete: src, dst and demand have 3, 2 and 3 entries"),
            (([0, 1], [1, 0], [1.0]), "flow 1 is incomplete: src, dst and demand have 2, 2 and 1 entries"),
            (([[0, 1]], [[1, 0]], 1.0), "flow set src must be 1-D, got shape (1, 2)"),
            (([0, 1], [[1], [0]], 1.0), "flow set dst must be 1-D, got shape (2, 1)"),
            (([0, 1], [1, 0], [[1.0, 1.0]]), "flow set demand must be 1-D, got shape (1, 2)"),
            (([0, 1.5], [1, 0], 1.0), "flow 1 (1.5 -> 0) has a non-integer rank"),
            (([0, 1, 2], [1, 2, np.nan], 1.0), "flow 2 (2 -> nan) has a non-integer rank"),
            (([0, 1], [1, 0], [1.0, np.nan]), "flow 1 has demand nan; demands must be finite and >= 0"),
            (([0, 1], [1, 0], [np.inf, 1.0]), "flow 0 has demand inf; demands must be finite and >= 0"),
            (([0, 1], [1, 0], [1.0, -0.5]), "flow 1 has demand -0.5; demands must be finite and >= 0"),
        ],
    )
    def test_one_line_naming_the_first_bad_flow(self, columns, message):
        with pytest.raises(ValueError) as err:
            FlowSet(*columns)
        assert str(err.value) == message

    def test_list_conversion_names_the_flow(self):
        flows = [Flow(0, 1), Flow(1, 2), Flow(2, 0, float("nan"))]
        with pytest.raises(ValueError, match=r"^flow 2 has demand nan"):
            FlowSet.of(flows)

    def test_list_names_a_bad_rank_before_a_later_bad_demand(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, max_paths=4)
        flows = [Flow(64, 1), Flow(1, 2, float("nan"))]
        for solve in (sim.assign, sim.maxmin_rates, sim.maxmin_warm_state):
            with pytest.raises(
                ValueError, match=r"^flow 0 \(64 -> 1\) has a rank outside \[0, 64\)$"
            ):
                solve(flows)

    def test_rank_outside_the_topology(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, max_paths=4)
        with pytest.raises(ValueError, match=r"^flow 1 \(1 -> 64\) has a rank outside \[0, 64\)$"):
            sim.maxmin_rates(FlowSet([0, 1], [1, 64]))

    @pytest.mark.parametrize(
        "i, j, message",
        [
            (0, 8, r"^swap_destinations index 8 is outside \[0, 8\)$"),
            (-1, 2, r"^swap_destinations index -1 is outside \[0, 8\)$"),
            (3, 3, r"^swap_destinations needs two distinct flow indices$"),
        ],
    )
    def test_swap_destinations_bad_index(self, i, j, message):
        with pytest.raises(ValueError, match=message):
            swap_destinations(random_permutation(8, seed=0), i, j)
