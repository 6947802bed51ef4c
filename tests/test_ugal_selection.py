"""UGAL's flow-level group choice, held to the per-flow loop it replaced.

:meth:`FlowSimulator._ugal_paths` scores every flow's candidates at once
in NumPy.  The per-flow loop it replaced is kept here verbatim as the
oracle, and the array version must return the same path ids and counts,
bit for bit, on UGAL route tables of every topology family.  The file also
checks that the choice does not depend on flow order when the link loads
sum exactly, and the one-sort :meth:`FlowAssignment.compact_link_index`
against the ``np.unique`` formulation it replaced.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import build_hammingmesh
from repro.sim import (
    FlowSimulator,
    RouteTable,
    adversarial_permutation,
    random_permutation,
)
from repro.sim.flowsim import FlowAssignment, _pair_range_path_ids, link_order
from repro.topology import (
    build_dragonfly,
    build_fat_tree,
    build_hyperx2d,
    build_torus2d,
)

FAMILIES = ("hx2mesh", "torus", "fattree_tapered", "dragonfly", "hyperx")
MAX_PATHS = (2, 4, 8)


def ugal_paths_loop(
    sim: FlowSimulator,
    flow_demand: np.ndarray,
    first: np.ndarray,
    npaths: np.ndarray,
    nmin: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The per-flow UGAL selection loop, as ``_ugal_paths`` ran it before
    the flows were scored in arrays.

    Latent fault, kept as it was: ``min_entry_ends`` comes from
    ``np.add.reduceat(lengths, cumsum(nmin) - nmin)``, which yields
    ``lengths[i]`` instead of 0 for a flow with ``nmin == 0`` and indexes
    past the end when the last flow has ``nmin == 0``.  Route tables store
    ``nmin == 0`` under UGAL only for an unroutable pair, which has no
    paths at all (``npaths == 0``), so the oracle is only fed inputs where
    this cannot show.  The array version keeps no per-flow offsets, so it
    has no such case.
    """
    self = sim
    L = len(self.capacity)
    # Pass 1: link load if everyone routed minimally (even 1/k split).
    min_ids = _pair_range_path_ids(first, nmin)
    links, lengths = self.table.gather_links(min_ids)
    per_path_w = np.repeat(flow_demand / np.maximum(nmin, 1), nmin)
    load = np.bincount(
        links, weights=np.repeat(per_path_w, lengths), minlength=L
    )
    inv_capacity = np.where(self.capacity > 0, 1.0 / self.capacity, 0.0)
    # Pass 2: per-candidate congestion score, excluding the flow's own
    # minimal-route contribution from the load it samples.
    all_ids = _pair_range_path_ids(first, npaths)
    links_all, lengths_all = self.table.gather_links(all_ids)
    entry_starts = np.concatenate(([0], np.cumsum(lengths_all)))
    path_starts = np.cumsum(npaths) - npaths
    # Per-flow slices of the minimal-entry arrays (pass 1's layout).
    min_entry_ends = np.cumsum(
        np.add.reduceat(lengths, np.cumsum(nmin) - nmin)
    ) if len(lengths) else np.zeros(len(npaths), dtype=np.int64)
    own = np.zeros(L)
    ids: List[int] = []
    counts = np.empty(len(npaths), dtype=np.int64)
    for i in range(len(npaths)):
        m, k = int(nmin[i]), int(npaths[i])
        f0, s = int(first[i]), int(path_starts[i])
        # This flow's own minimal load (what pass 1 charged for it).
        o_start = int(min_entry_ends[i - 1]) if i > 0 else 0
        o_end = int(min_entry_ends[i])
        own_links = links[o_start:o_end]
        # Pass 1 charged demand/m per link occurrence of each of this
        # flow's m minimal paths; undo exactly that (occurrences stack).
        np.add.at(own, own_links, flow_demand[i] / max(m, 1))
        cheaper: List[int] = []
        if 0 < m < k:
            e0, e1 = int(entry_starts[s]), int(entry_starts[s + k])
            seg_links = links_all[e0:e1]
            exclusive = np.maximum(load[seg_links] - own[seg_links], 0.0)
            util = exclusive * inv_capacity[seg_links]
            # Every candidate has >= 1 link (self-pairs are rejected
            # upstream), so the segmented max never sees an empty segment.
            seg_bounds = (entry_starts[s : s + k] - e0).astype(np.int64)
            bottleneck = np.maximum.reduceat(util, seg_bounds)
            cost = lengths_all[s : s + k] * bottleneck
            best_minimal = cost[:m].min()
            cheaper = [f0 + m + j for j in range(k - m) if cost[m + j] < best_minimal]
        own[own_links] = 0.0
        end = m if 0 < m <= k else k
        chosen = list(range(f0, f0 + end)) + cheaper
        ids.extend(chosen)
        counts[i] = len(chosen)
    return np.asarray(ids, dtype=np.int64), counts


@lru_cache(maxsize=None)
def _topo(family: str):
    builders = {
        "hx2mesh": lambda: build_hammingmesh(2, 2, 4, 4),
        "torus": lambda: build_torus2d(4, 4),
        "fattree_tapered": lambda: build_fat_tree(64, radix=16, taper=0.5),
        "dragonfly": lambda: build_dragonfly(
            4, routers_per_group=4, endpoints_per_router=2, global_links_per_router=2
        ),
        "hyperx": lambda: build_hyperx2d(4, 4, terminals=2),
    }
    return builders[family]()


@lru_cache(maxsize=None)
def _ugal_sim(family: str, max_paths: int) -> FlowSimulator:
    """A UGAL simulator on a private route table (the shared tables of the
    rest of the suite are left alone)."""
    topo = _topo(family)
    table = RouteTable(topo, max_paths=max_paths, policy="ugal")
    return FlowSimulator(topo, table=table)


def _route(sim: FlowSimulator, src: np.ndarray, dst: np.ndarray):
    nodes = sim._rank_nodes
    first, npaths = sim.table.pair_arrays(nodes[src], nodes[dst])
    nmin = sim.table.pair_minimal_counts(nodes[src], nodes[dst])
    return first, npaths, nmin


_DEMANDS = st.one_of(
    st.just(0.0),
    st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
    st.floats(1e3, 1e12, allow_nan=False, allow_infinity=False),
)


@st.composite
def _ugal_inputs(draw):
    family = draw(st.sampled_from(FAMILIES))
    max_paths = draw(st.sampled_from(MAX_PATHS))
    sim = _ugal_sim(family, max_paths)
    p = len(sim.ranks)
    if draw(st.booleans()):
        # The family's structural worst case: congested enough that many
        # flows take Valiant detours.
        flows = adversarial_permutation(sim.topo)
        src = np.array([f.src for f in flows], dtype=np.int64)
        dst = np.array([f.dst for f in flows], dtype=np.int64)
    else:
        # A pool of distinct-endpoint pairs; flows pick from it, so the
        # same pair can carry several flows.
        pool = draw(
            st.lists(
                st.tuples(st.integers(0, p - 1), st.integers(1, p - 1)),
                min_size=1,
                max_size=24,
            )
        )
        pool = [(s, (s + off) % p) for s, off in pool]
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=48))
        src = np.array([pool[i][0] for i in picks], dtype=np.int64)
        dst = np.array([pool[i][1] for i in picks], dtype=np.int64)
    n = len(src)
    demand = np.array(
        draw(st.lists(_DEMANDS, min_size=n, max_size=n)),
        dtype=np.float64,
    )
    first, npaths, nmin = _route(sim, src, dst)
    # Some flows count all their candidates as minimal (m == k): a pair
    # with no Valiant alternates.
    full = np.array(
        draw(st.lists(st.booleans(), min_size=n, max_size=n))
    )
    nmin = np.where(full, npaths, nmin)
    return sim, demand, first, npaths, nmin


def _assert_same(got, want):
    ids, counts = got
    ref_ids, ref_counts = want
    assert ids.dtype == ref_ids.dtype == np.int64
    assert counts.dtype == ref_counts.dtype == np.int64
    assert np.array_equal(ids, ref_ids)
    assert np.array_equal(counts, ref_counts)


class TestUgalSelection:
    @settings(max_examples=300, deadline=None)
    @given(inputs=_ugal_inputs())
    def test_matches_per_flow_loop(self, inputs):
        sim, demand, first, npaths, nmin = inputs
        _assert_same(
            sim._ugal_paths(demand, first, npaths, nmin),
            ugal_paths_loop(sim, demand, first, npaths, nmin),
        )

    def test_all_pairs(self):
        """Every ordered pair of the HxMesh at once, unit demands."""
        sim = _ugal_sim("hx2mesh", 4)
        p = len(sim.ranks)
        src = np.repeat(np.arange(p, dtype=np.int64), p - 1)
        dst = (src + np.tile(np.arange(1, p, dtype=np.int64), p)) % p
        first, npaths, nmin = _route(sim, src, dst)
        demand = np.full(len(src), 1.0)
        _assert_same(
            sim._ugal_paths(demand, first, npaths, nmin),
            ugal_paths_loop(sim, demand, first, npaths, nmin),
        )

    def test_adversarial_load_picks_detours(self):
        """The torus tornado makes flows take Valiant detours, so the
        equality holds for the detour choice too, not only the all-minimal
        one."""
        sim = _ugal_sim("torus", 4)
        flows = adversarial_permutation(sim.topo)
        src = np.array([f.src for f in flows], dtype=np.int64)
        dst = np.array([f.dst for f in flows], dtype=np.int64)
        first, npaths, nmin = _route(sim, src, dst)
        demand = np.full(len(src), 1.0)
        ids, counts = sim._ugal_paths(demand, first, npaths, nmin)
        assert (counts > np.minimum(nmin, npaths)).any()
        _assert_same((ids, counts), ugal_paths_loop(sim, demand, first, npaths, nmin))

    def test_empty_flow_set(self):
        sim = _ugal_sim("hx2mesh", 4)
        empty = np.zeros(0, dtype=np.int64)
        ids, counts = sim._ugal_paths(np.zeros(0), empty, empty, empty)
        assert ids.dtype == counts.dtype == np.int64
        assert len(ids) == len(counts) == 0

    def test_flow_without_minimal_group_keeps_all_paths(self):
        """A flow with ``nmin == 0`` keeps all its paths, adds no load and
        leaves the other flows' choices alone (the case the oracle's
        offsets get wrong, checked without it)."""
        sim = _ugal_sim("dragonfly", 4)
        p = len(sim.ranks)
        src = np.arange(p, dtype=np.int64)
        dst = (src + p // 2) % p
        first, npaths, nmin = _route(sim, src, dst)
        demand = np.full(p, 2.0)
        for at in (0, p // 3, p - 1):
            zero = nmin.copy()
            zero[at] = 0
            z_ids, z_counts = sim._ugal_paths(demand, first, npaths, zero)
            assert z_counts[at] == npaths[at]
            starts = np.cumsum(z_counts) - z_counts
            mine = z_ids[starts[at] : starts[at] + z_counts[at]]
            assert np.array_equal(mine, first[at] + np.arange(npaths[at]))
            keep = np.arange(p) != at
            rest = np.delete(z_ids, np.arange(starts[at], starts[at] + z_counts[at]))
            sub_ids, sub_counts = sim._ugal_paths(
                demand[keep], first[keep], npaths[keep], nmin[keep]
            )
            assert np.array_equal(rest, sub_ids)
            assert np.array_equal(z_counts[keep], sub_counts)

    @settings(max_examples=100, deadline=None)
    @given(inputs=_ugal_inputs(), seed=st.integers(0, 2**32 - 1))
    def test_independent_of_flow_order(self, inputs, seed):
        """Reordering the flows reorders each flow's selection with it.

        Demands are whole multiples of 840 = lcm(1..8), so every per-path
        share is an integer and every link load sums exactly in any order;
        with arbitrary fractions the last bit of a load (and so a near-tie)
        can depend on the order of the adds.
        """
        sim, demand, first, npaths, nmin = inputs
        demand = np.round(np.minimum(demand, 1e6)) * 840.0
        perm = np.random.default_rng(seed).permutation(len(demand))
        ids, counts = sim._ugal_paths(demand, first, npaths, nmin)
        p_ids, p_counts = sim._ugal_paths(
            demand[perm], first[perm], npaths[perm], nmin[perm]
        )
        assert np.array_equal(p_counts, counts[perm])
        starts = np.cumsum(counts) - counts
        want = np.concatenate(
            [ids[starts[i] : starts[i] + counts[i]] for i in perm]
            + [np.zeros(0, dtype=np.int64)]
        )
        assert np.array_equal(p_ids, want)


def _compact_by_unique(entry_link: np.ndarray, entry_subflow: np.ndarray):
    """``compact_link_index`` as it was computed with ``np.unique``."""
    uL, inv = np.unique(entry_link, return_inverse=True)
    inv = inv.astype(np.int64, copy=False)
    order = np.argsort(inv, kind="stable").astype(np.int64)
    counts = np.bincount(inv, minlength=len(uL))
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return uL.astype(np.int64, copy=False), inv, offsets, entry_subflow[order]


def _assignment(entry_link: np.ndarray, entry_subflow: np.ndarray) -> FlowAssignment:
    num_subflows = int(entry_subflow[-1]) + 1 if len(entry_subflow) else 0
    return FlowAssignment(
        num_flows=num_subflows,
        num_subflows=num_subflows,
        entry_link=entry_link,
        entry_subflow=entry_subflow,
        subflow_flow=np.arange(num_subflows, dtype=np.int64),
        subflow_weight=np.ones(num_subflows),
        flow_demand=np.ones(num_subflows),
    )


class TestCompactLinkIndex:
    @settings(max_examples=200, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 6), max_size=30),
        num_links=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_unique(self, lengths, num_links, seed):
        rng = np.random.default_rng(seed)
        lengths = np.asarray(lengths, dtype=np.int64)
        entry_subflow = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        entry_link = rng.integers(0, num_links, size=len(entry_subflow)).astype(np.int64)
        got = _assignment(entry_link, entry_subflow).compact_link_index()
        want = _compact_by_unique(entry_link, entry_subflow)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.int64
            assert np.array_equal(g, w)

    @settings(max_examples=100, deadline=None)
    @given(
        size=st.integers(0, 300),
        top=st.sampled_from([1, 40, 1 << 16, (1 << 16) + 1, 1 << 40]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_link_order_is_the_stable_argsort(self, size, top, seed):
        """Link ids below 2**16 sort as ``uint16``, others as they are."""
        entry_link = np.random.default_rng(seed).integers(0, top, size=size)
        assert np.array_equal(link_order(entry_link), np.argsort(entry_link, kind="stable"))

    def test_empty_assignment(self):
        empty = np.zeros(0, dtype=np.int64)
        links, inverse, offsets, subflows = _assignment(empty, empty).compact_link_index()
        for a in (links, inverse, subflows):
            assert a.dtype == np.int64 and len(a) == 0
        assert offsets.dtype == np.int64
        assert offsets.tolist() == [0]

    def test_routed_assignment(self, hx2mesh_4x4):
        sim = FlowSimulator(hx2mesh_4x4, table=RouteTable(hx2mesh_4x4, max_paths=4))
        asg = sim.assign(random_permutation(hx2mesh_4x4.num_accelerators, seed=5))
        got = asg.compact_link_index()
        want = _compact_by_unique(asg.entry_link, asg.entry_subflow)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)
