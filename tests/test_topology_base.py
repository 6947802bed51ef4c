"""Unit tests for the core topology graph model."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    @pytest.mark.parametrize("pairs", [[(0, 1.5)], [(0, 2), (1.0, 0)], np.array([[0.0, 1.0]])])
    def test_non_integer_endpoints_rejected(self, pairs):
        topo, _ = make_line(3)
        before = _snapshot(topo)
        with pytest.raises(TopologyError, match="^link endpoints must be integers, got float64 values$"):
            topo.add_links(pairs)
        with pytest.raises(TopologyError, match="^link endpoints must be integers"):
            topo.add_directed_link(*pairs[-1])
        assert _snapshot(topo) == before

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


class _Model:
    """Per-node link lists, the way a topology adds links one at a time."""

    def __init__(self):
        self.kinds, self.links, self.out, self.into = [], [], [], []
        self.cables = {c: 0 for c in CableClass}

    def add_node(self, kind):
        self.kinds.append(kind)
        self.out.append([])
        self.into.append([])

    def error(self, a, b, capacity):
        n = len(self.kinds)
        if not (0 <= a < n and 0 <= b < n):
            return f"link endpoints out of range: {a}->{b}"
        if a == b:
            return "self links are not allowed"
        if capacity <= 0:
            return "link capacity must be positive"
        return None

    def add(self, a, b, capacity, cable, tag):
        self.out[a].append(len(self.links))
        self.into[b].append(len(self.links))
        self.links.append(Link(a, b, capacity, cable, 0, tag))


#: an endpoint: mostly an existing node (``v % n``), else out of range
_NODE = st.integers(0, 99)
_CAPACITY = st.sampled_from([1.0, 2.5, 4.0, 1.0, 2.5, 0.0, -1.0])
_CABLE = st.sampled_from(list(CableClass))
_TAG = st.sampled_from(["", "x", "tree-up"])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["accelerator", "switch"])),
        st.tuples(
            st.just("links"),
            st.lists(st.tuples(_NODE, _NODE, _CAPACITY, _CABLE, _TAG), max_size=5),
            # per-pair attributes, or the first pair's for the whole block
            st.booleans(),
            st.booleans(),  # pairs as an (m, 2) array
            st.booleans(),  # count_cable
        ),
        st.tuples(st.just("directed"), _NODE, _NODE, _CAPACITY, _TAG),
        st.tuples(
            st.just("query"),
            st.sampled_from(["out", "in", "find", "neighbors", "degree"]),
            st.integers(0, 99),
            st.integers(0, 99),
        ),
    ),
    max_size=60,
)


def _endpoint(v, n):
    if v < 90:
        return v % max(n, 1)
    return n + v - 90 if v < 95 else 94 - v


class TestAdjacencyModel:
    @settings(max_examples=300, deadline=None)
    @given(_OPS)
    def test_interleaved_adds_and_queries_match_per_node_lists(self, ops):
        topo, model = Topology("t"), _Model()
        for op in ops:
            if op[0] in ("accelerator", "switch"):
                add = topo.add_accelerator if op[0] == "accelerator" else topo.add_switch
                assert add() == len(model.kinds)
                model.add_node(NodeKind(op[0]))
            elif op[0] == "links":
                _, rows, per_pair, as_array, count_cable = op
                n = len(model.kinds)
                pairs = [(_endpoint(a, n), _endpoint(b, n)) for a, b, *_ in rows]
                caps, cables, tags = ([row[k] for row in rows] for k in (2, 3, 4))
                if not per_pair:
                    caps, cables, tags = (
                        [col[0]] * len(rows) if rows else [default]
                        for col, default in ((caps, 1.0), (cables, CableClass.DAC), (tags, ""))
                    )
                before = _snapshot(topo)
                message = next(
                    filter(None, (model.error(a, b, c) for (a, b), c in zip(pairs, caps))), None
                )
                args = dict(
                    capacity=caps if per_pair else caps[0],
                    cable=cables if per_pair else cables[0],
                    tag=tags if per_pair else tags[0],
                    count_cable=count_cable,
                )
                block = np.array(pairs, dtype=np.int64).reshape(-1, 2) if as_array else pairs
                if message is not None:
                    with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
                        topo.add_links(block, **args)
                    assert _snapshot(topo) == before
                    continue
                assert topo.add_links(block, **args) == len(model.links)
                for (a, b), c, cable, tag in zip(pairs, caps, cables, tags):
                    model.add(a, b, c, cable, tag)
                    model.add(b, a, c, cable, tag)
                    model.cables[cable] += count_cable
            elif op[0] == "directed":
                _, a, b, c, tag = op
                a, b = _endpoint(a, len(model.kinds)), _endpoint(b, len(model.kinds))
                message = model.error(a, b, c)
                if message is not None:
                    before = _snapshot(topo)
                    with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
                        topo.add_directed_link(a, b, capacity=c, tag=tag)
                    assert _snapshot(topo) == before
                    continue
                assert topo.add_directed_link(a, b, capacity=c, tag=tag) == len(model.links)
                model.add(a, b, c, CableClass.DAC, tag)
            elif model.kinds:
                _, query, i, j = op
                u, v = i % len(model.kinds), j % len(model.kinds)
                dst = [link.dst for link in model.links]
                expected = {
                    "out": tuple(model.out[u]),
                    "in": tuple(model.into[u]),
                    "find": [li for li in model.out[u] if dst[li] == v],
                    "neighbors": list(dict.fromkeys(dst[li] for li in model.out[u])),
                    "degree": len(model.out[u]),
                }[query]
                got = {
                    "out": topo.out_links,
                    "in": topo.in_links,
                    "find": lambda u: topo.find_links(u, v),
                    "neighbors": topo.neighbors,
                    "degree": topo.degree,
                }[query](u)
                assert got == expected
        nodes = range(len(model.kinds))
        assert _snapshot(topo) == (
            len(model.links),
            tuple(model.links),
            [tuple(model.out[n]) for n in nodes],
            [tuple(model.into[n]) for n in nodes],
            [model.cables[c] for c in CableClass],
        )
        assert [topo.kind(n) for n in nodes] == model.kinds
        assert list(topo.link_src) == [link.src for link in model.links]
        assert list(topo.link_dst) == [link.dst for link in model.links]


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
