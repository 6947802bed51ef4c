"""Block routing of the fat tree, torus, HyperX and Dragonfly providers.

Every provider routes whole arrays of pairs, and ``paths()`` is the block
of one pair.  These tests check blocks against that view, against splits
of the same block, and against the definition of a route: a contiguous
directed walk from the source to the destination, as short as the BFS
distance on the families whose routing is minimal.  Pairs without a
structured route fall back to BFS in pair order; a Dragonfly pair whose
groups share no global channel raises.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.routing import csr_to_path_lists
from repro.sim.paths import GenericPathProvider, path_provider_for
from repro.sim.routing import RouteTable
from repro.topology import (
    TopologyError,
    build_dragonfly,
    build_fat_tree,
    build_hyperx2d,
    build_torus2d,
)

#: name -> (builder, args, kwargs)
TOPOLOGIES = {
    "fattree-1level": (build_fat_tree, (12,), {}),
    "fattree-2level": (build_fat_tree, (24,), {"radix": 8}),
    "fattree-2level-tapered": (build_fat_tree, (24,), {"radix": 8, "taper": 0.5}),
    # five leaf uplinks over two spines: parallel leaf-spine links
    "fattree-2level-parallel": (
        build_fat_tree, (9,), {"radix": 8, "leaf_down_ports": 3, "leaf_up_ports": 5}
    ),
    # two uplinks per leaf over five spines: some leaves share no spine
    "fattree-2level-sparse": (
        build_fat_tree, (20,), {"radix": 8, "leaf_down_ports": 1, "leaf_up_ports": 2}
    ),
    "fattree-3level": (build_fat_tree, (40,), {"radix": 8}),
    "fattree-3level-tapered": (build_fat_tree, (40,), {"radix": 8, "taper": 0.5}),
    # 4x4: forward and backward wraps tie half-way round each ring
    "torus-even": (build_torus2d, (2, 2), {}),
    "torus-odd": (build_torus2d, (3, 3), {"board_a": 1, "board_b": 1}),
    # 5 columns, 4 rows
    "torus-mixed": (build_torus2d, (5, 2), {"board_a": 1, "board_b": 2}),
    "hyperx": (build_hyperx2d, (4, 3), {"terminals": 2}),
    "dragonfly": (
        build_dragonfly, (4,),
        {"routers_per_group": 4, "endpoints_per_router": 2, "global_links_per_router": 2},
    ),
    "dragonfly-3group": (
        build_dragonfly, (5,),
        {"routers_per_group": 3, "endpoints_per_router": 1, "global_links_per_router": 3},
    ),
}


@lru_cache(maxsize=None)
def _setup(name):
    builder, args, kwargs = TOPOLOGIES[name]
    topo = builder(*args, **kwargs)
    return topo, path_provider_for(topo), GenericPathProvider(topo)


def _csr(block):
    return tuple(np.asarray(part).tolist() for part in block)


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(TOPOLOGIES)),
    max_paths=st.sampled_from([1, 2, 4, 8]),
    data=st.data(),
)
def test_blocks_route_as_pairs_and_by_definition(name, max_paths, data):
    topo, provider, bfs = _setup(name)
    assert provider.array_routes
    # accelerators mostly; a switch endpoint has no structured route
    nodes = topo.accelerators + topo.switches[:2]
    picks = st.integers(0, len(nodes) - 1)
    src = [nodes[i] for i in data.draw(st.lists(picks, min_size=1, max_size=20))]
    dst = [nodes[i] for i in data.draw(st.lists(picks, min_size=len(src), max_size=len(src)))]
    # duplicate pairs and a pair to itself
    src, dst = src + src[:3] + [src[-1]], dst + dst[:3] + [src[-1]]
    src, dst = np.array(src), np.array(dst)
    block = _csr(provider.paths_block(src, dst, max_paths))

    # the block is the concatenation of its blocks of one ...
    singles = [provider.paths(int(s), int(d), max_paths) for s, d in zip(src, dst)]
    assert csr_to_path_lists(*map(np.array, block)) == singles
    # ... and of any split of it
    cuts = sorted(data.draw(st.lists(st.integers(0, len(src)), max_size=4)))
    parts = [
        provider.paths_block(src[a:b], dst[a:b], max_paths)
        for a, b in zip([0] + cuts, cuts + [len(src)])
    ]
    assert _csr(np.concatenate(arrays) for arrays in zip(*parts)) == block

    for s, d, paths in zip(src.tolist(), dst.tolist(), singles):
        if s == d:
            assert paths == [[]]
            continue
        assert 1 <= len(paths) <= max_paths
        assert len({tuple(p) for p in paths}) == len(paths)
        for path in paths:
            node = s
            for li in path:
                assert topo.link_src[li] == node
                node = topo.link_dst[li]
            assert node == d
        # Dragonfly tops up its strictly minimal candidates with longer
        # ones (local-global-local paths through other channels) when there
        # are fewer than max_paths, so only the other families are minimal.
        if not name.startswith("dragonfly"):
            shortest = len(bfs.paths(s, d, 1)[0])
            assert all(len(p) == shortest for p in paths)


def test_pair_without_tree_path_falls_back_to_bfs_in_pair_order():
    """On a two-level tree whose leaves have two of five spines, leaf 0's
    spine 41 has no link to leaf 2, and leaves 0 and 1 share no spine: the
    pair (0, 1) is routed by BFS, between the tree-routed pairs around it.
    The expected routes are those of one-pair enumeration."""
    topo, provider, bfs = _setup("fattree-2level-sparse")
    net = topo.meta["network"]
    leaves = net.leaf_switches
    assert net.spines_of_leaf[leaves[0]] == [40, 41]
    assert (leaves[2], 41) not in net.leaf_spine
    assert not set(net.spines_of_leaf[leaves[0]]) & set(net.spines_of_leaf[leaves[1]])
    src = np.array([0, 0, 3, 5, 0, 19])
    dst = np.array([2, 1, 0, 5, 1, 4])
    around = [[0, 42, 53, 54, 45, 3], [0, 42, 73, 74, 45, 3],
              [0, 42, 93, 94, 45, 3], [0, 42, 113, 114, 45, 3]]
    expected = [
        [[0, 40, 51, 5]],
        around,
        [[6, 52, 43, 1]],
        [[]],
        around,
        [[38, 116, 57, 9], [38, 118, 59, 9]],
    ]
    assert net.paths(0, 1, 4) == []
    assert bfs.paths(0, 1, 4) == around
    assert csr_to_path_lists(*provider.paths_block(src, dst, 4)) == expected
    table = RouteTable(topo, max_paths=4)
    table.pair_arrays(src, dst)
    assert [table.paths(int(s), int(d)) for s, d in zip(src, dst)] == expected


def test_dragonfly_pair_without_channel_raises_after_earlier_pairs_are_stored():
    """Six groups of two routers with one global link each: most group
    pairs share no channel.  The route table halves the block down to the
    failing pair, stores the pairs before it and raises."""
    topo = build_dragonfly(
        6, routers_per_group=2, endpoints_per_router=2, global_links_per_router=1
    )
    provider = path_provider_for(topo)
    group = {acc: topo.meta["router_group"][r] for acc, r in topo.meta["acc_router"].items()}
    links = topo.meta["group_links"]
    accs = topo.accelerators
    linked = [(s, d) for s in accs for d in accs if (group[s], group[d]) in links]
    unlinked = [(s, d) for s in accs for d in accs
                if group[s] != group[d] and (group[s], group[d]) not in links]
    assert linked and unlinked
    bad = unlinked[0]
    with pytest.raises(TopologyError, match="no global channel"):
        provider.paths(*bad)
    with pytest.raises(TopologyError, match="no global channel"):
        provider.paths_block(np.array([linked[0][0], bad[0]]), np.array([linked[0][1], bad[1]]))
    before = linked[:37]
    pairs = before + [bad] + linked[37:40]
    src, dst = (np.array(side) for side in zip(*pairs))
    table = RouteTable(topo, max_paths=4)
    with pytest.raises(TopologyError, match=f"between groups {group[bad[0]]} and {group[bad[1]]}"):
        table.pair_arrays(src, dst)
    assert table.num_pairs_routed == len(before)
    assert table.stats.misses == len(before)
    for s, d in before:
        assert table.paths(s, d) == provider.paths(s, d)
