"""Unit tests for the core topology graph model."""

import re

import pytest

from repro.topology import (
    CableClass,
    Link,
    NodeKind,
    Topology,
    TopologyError,
    available_topologies,
    build_topology,
)


def make_line(n=3, capacity=1.0):
    topo = Topology("line")
    nodes = [topo.add_accelerator(f"a{i}") for i in range(n)]
    for a, b in zip(nodes, nodes[1:]):
        topo.add_link(a, b, capacity=capacity)
    return topo, nodes


class TestNodes:
    def test_node_ids_are_sequential(self):
        topo = Topology("t")
        ids = [topo.add_accelerator(f"a{i}") for i in range(5)]
        assert ids == list(range(5))

    def test_kinds_are_recorded(self):
        topo = Topology("t")
        acc = topo.add_accelerator("acc")
        sw = topo.add_switch("sw")
        assert topo.kind(acc) is NodeKind.ACCELERATOR
        assert topo.kind(sw) is NodeKind.SWITCH
        assert topo.is_accelerator(acc) and not topo.is_accelerator(sw)
        assert topo.is_switch(sw) and not topo.is_switch(acc)

    def test_accelerator_and_switch_lists(self):
        topo = Topology("t")
        accs = [topo.add_accelerator() for _ in range(3)]
        sws = [topo.add_switch() for _ in range(2)]
        assert list(topo.accelerators) == accs
        assert list(topo.switches) == sws
        assert topo.num_accelerators == 3
        assert topo.num_switches == 2

    def test_labels_and_attrs(self):
        topo = Topology("t")
        n = topo.add_accelerator("hello", coord=(1, 2))
        assert topo.label(n) == "hello"
        assert topo.attrs(n)["coord"] == (1, 2)

    def test_accelerator_index_is_dense(self):
        topo = Topology("t")
        topo.add_switch()
        a = topo.add_accelerator()
        topo.add_switch()
        b = topo.add_accelerator()
        assert topo.accelerator_index() == {a: 0, b: 1}


class TestLinks:
    def test_add_link_creates_two_directed_links(self):
        topo, nodes = make_line(2)
        assert topo.num_links == 2
        assert topo.find_links(nodes[0], nodes[1])
        assert topo.find_links(nodes[1], nodes[0])

    def test_link_attributes(self):
        topo = Topology("t")
        a, b = topo.add_accelerator(), topo.add_switch()
        i, _ = topo.add_link(a, b, capacity=2.5, cable=CableClass.AOC, plane=1, tag="x")
        link = topo.link(i)
        assert link.capacity == 2.5
        assert link.cable is CableClass.AOC
        assert link.plane == 1
        assert link.tag == "x"

    def test_self_link_rejected(self):
        topo = Topology("t")
        a = topo.add_accelerator()
        with pytest.raises(TopologyError):
            topo.add_directed_link(a, a)

    def test_out_of_range_rejected(self):
        topo = Topology("t")
        a = topo.add_accelerator()
        with pytest.raises(TopologyError):
            topo.add_directed_link(a, 42)

    def test_nonpositive_capacity_rejected(self):
        topo = Topology("t")
        a, b = topo.add_accelerator(), topo.add_accelerator()
        with pytest.raises(TopologyError):
            topo.add_link(a, b, capacity=0.0)

    def test_out_and_in_links(self):
        topo, nodes = make_line(3)
        assert len(topo.out_links(nodes[1])) == 2
        assert len(topo.in_links(nodes[1])) == 2
        assert len(topo.out_links(nodes[0])) == 1

    def test_neighbors_are_unique(self):
        topo = Topology("t")
        a, b = topo.add_accelerator(), topo.add_accelerator()
        topo.add_link(a, b)
        topo.add_link(a, b)  # parallel cable
        assert topo.neighbors(a) == [b]
        assert topo.degree(a) == 2

    def test_cable_census(self):
        topo = Topology("t")
        a, b, c = (topo.add_accelerator() for _ in range(3))
        topo.add_link(a, b, cable=CableClass.DAC)
        topo.add_link(b, c, cable=CableClass.AOC)
        topo.add_link(a, c, cable=CableClass.PCB, count_cable=False)
        assert topo.cable_count(CableClass.DAC) == 1
        assert topo.cable_count(CableClass.AOC) == 1
        assert topo.cable_count(CableClass.PCB) == 0

    def test_capacity_array(self):
        topo, _ = make_line(3, capacity=2.0)
        arr = topo.link_capacity_array()
        assert arr.shape == (4,)
        assert (arr == 2.0).all()

    def test_cable_mask(self):
        topo = Topology("t")
        a, b, c = (topo.add_accelerator() for _ in range(3))
        topo.add_link(a, b, cable=CableClass.PCB, count_cable=False)
        topo.add_link(b, c, cable=CableClass.AOC)
        assert topo.link_cable_mask(CableClass.PCB).tolist() == [True, True, False, False]
        assert topo.link_cable_mask(CableClass.DAC).tolist() == [False] * 4


def _snapshot(topo):
    """Everything a rejected batch must leave untouched."""
    nodes = range(topo.num_nodes)
    return (
        topo.num_links,
        topo.links,
        [topo.out_links(n) for n in nodes],
        [topo.in_links(n) for n in nodes],
        [topo.cable_count(c) for c in CableClass],
    )


class TestAddLinks:
    def test_ids_match_successive_add_link_calls(self):
        pairs = [(0, 1), (1, 2), (2, 0), (0, 1)]
        batch, _ = make_line(3)
        single, _ = make_line(3)
        first = batch.add_links(pairs, capacity=2.5, cable=CableClass.AOC, plane=1, tag="x")
        ids = [
            single.add_link(a, b, capacity=2.5, cable=CableClass.AOC, plane=1, tag="x")
            for a, b in pairs
        ]
        assert first == 4
        assert ids == [(first + 2 * k, first + 2 * k + 1) for k in range(len(pairs))]
        assert _snapshot(batch) == _snapshot(single)
        assert batch.link(first + 3) == Link(2, 1, 2.5, CableClass.AOC, 1, "x")

    def test_count_cable_false_and_empty_batch(self):
        topo, _ = make_line(3)
        assert topo.add_links([(0, 2)], cable=CableClass.PCB, count_cable=False) == 4
        assert topo.cable_count(CableClass.PCB) == 0
        assert topo.add_links([]) == topo.num_links == 6

    @pytest.mark.parametrize(
        "pairs,capacity,message",
        [
            ([(0, 2), (1, 3)], 1.0, "link endpoints out of range: 1->3"),
            ([(0, 2), (-1, 1)], 1.0, "link endpoints out of range: -1->1"),
            ([(0, 2), (2, 2)], 1.0, "self links are not allowed"),
            ([(0, 2), (1, 0)], 0.0, "link capacity must be positive"),
            ([(0, 2)], -1.0, "link capacity must be positive"),
            # the first pair's endpoint check comes before the capacity check
            ([(3, 0), (0, 2)], 0.0, "link endpoints out of range: 3->0"),
            ([(1, 1), (0, 2)], 0.0, "self links are not allowed"),
        ],
    )
    def test_rejected_batch_changes_nothing(self, pairs, capacity, message):
        topo, _ = make_line(3)
        before = _snapshot(topo)
        with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
            topo.add_links(pairs, capacity=capacity, cable=CableClass.AOC)
        assert _snapshot(topo) == before
        # the same message as adding the pairs one cable at a time
        with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
            for a, b in pairs:
                topo.add_link(a, b, capacity=capacity, cable=CableClass.AOC)


class TestValidation:
    def test_validate_rejects_disconnected_accelerator(self):
        topo = Topology("t")
        topo.add_accelerator()
        with pytest.raises(TopologyError):
            topo.validate()

    def test_is_connected(self):
        topo, _ = make_line(4)
        assert topo.is_connected()
        lonely = topo.add_accelerator()
        assert not topo.is_connected()
        assert lonely in topo.accelerators

    def test_to_networkx_roundtrip(self):
        topo, nodes = make_line(3)
        g = topo.to_networkx()
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 4
        assert g.nodes[nodes[0]]["kind"] == "accelerator"


class TestRegistry:
    def test_registered_builders_exist(self):
        names = available_topologies()
        for expected in ("fattree", "torus2d", "dragonfly", "hyperx2d", "hammingmesh"):
            assert expected in names

    def test_build_topology_dispatch(self):
        topo = build_topology("fattree", num_accelerators=8)
        assert topo.num_accelerators == 8

    def test_unknown_topology_raises(self):
        with pytest.raises(TopologyError):
            build_topology("does-not-exist")
