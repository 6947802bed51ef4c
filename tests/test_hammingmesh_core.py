"""Tests for HammingMesh construction, parameters, routing and sub-meshes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    HxMeshParams,
    HxMeshRouter,
    VirtualSubMesh,
    accelerator_coordinates,
    board_mesh_path,
    build_hammingmesh,
    find_submesh_rows,
    hx1mesh,
    hx2mesh,
    hx4mesh,
    is_valid_submesh,
    virtual_channel_of,
)
from repro.core.routing import MAX_VIRTUAL_CHANNELS
from repro.topology import TopologyError, bfs_diameter


class TestParams:
    def test_counts(self):
        p = hx2mesh(16, 16)
        assert p.num_accelerators == 1024
        assert p.num_boards == 256
        assert p.board_size == 4
        assert p.row_ports == 32
        assert p.col_ports == 32
        assert p.injection_capacity == pytest.approx(4.0)

    def test_names(self):
        assert hx2mesh(16, 16).name == "16x16 Hx2Mesh"
        assert hx4mesh(8, 8).name == "8x8 Hx4Mesh"
        assert HxMeshParams(a=2, b=4, x=3, y=3).name == "3x3 H2x4Mesh"

    def test_hx1_is_single_accelerator_boards(self):
        p = hx1mesh(4, 4)
        assert p.board_size == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(a=0, b=2, x=2, y=2),
            dict(a=2, b=2, x=1, y=1),
            dict(a=2, b=2, x=2, y=2, global_taper=0.0),
            dict(a=2, b=2, x=2, y=2, global_taper=1.5),
            dict(a=2, b=2, x=2, y=2, planes=0),
            dict(a=2, b=2, x=2, y=2, link_capacity=-1.0),
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            HxMeshParams(**kwargs)

    def test_with_taper(self):
        p = hx2mesh(4, 4).with_taper(0.5)
        assert p.global_taper == 0.5 and p.x == 4

    def test_board_of(self):
        p = hx2mesh(4, 4)
        assert p.board_of(0) == (0, 0)
        assert p.board_of(4) == (0, 1)
        assert p.board_of(p.num_accelerators - 1) == (3, 3)
        with pytest.raises(ValueError):
            p.board_of(p.num_accelerators)


class TestConstruction:
    def test_counts(self, hx2mesh_4x4):
        assert hx2mesh_4x4.num_accelerators == 64
        # 4 rows x 2 on-board rows + 4 cols x 2 on-board cols, single switch each
        assert hx2mesh_4x4.num_switches == 16

    def test_every_accelerator_has_four_ports(self, hx2mesh_4x4):
        for acc in hx2mesh_4x4.accelerators:
            assert hx2mesh_4x4.degree(acc) == 4

    def test_coordinates_roundtrip(self, hx2mesh_4x4):
        for acc in hx2mesh_4x4.accelerators:
            gr, gc, br, bc = accelerator_coordinates(hx2mesh_4x4, acc)
            board = hx2mesh_4x4.meta["boards"][(gr, gc)]
            assert board.node_at(br, bc) == acc

    def test_coordinates_reject_switches(self, hx2mesh_4x4):
        with pytest.raises(TopologyError):
            accelerator_coordinates(hx2mesh_4x4, hx2mesh_4x4.switches[0])

    def test_rectangular_boards(self, hx4mesh_2x3):
        params = hx4mesh_2x3.meta["params"]
        assert params.x == 2 and params.y == 3
        assert hx4mesh_2x3.num_accelerators == 96

    def test_single_board_rejected(self):
        with pytest.raises((TopologyError, ValueError)):
            build_hammingmesh(2, 2, 1, 1)

    def test_diameter_matches_paper_formula(self, hx2mesh_4x4):
        from repro.topology import analytic_diameter

        assert analytic_diameter(hx2mesh_4x4) == 4
        assert bfs_diameter(hx2mesh_4x4, sources=list(hx2mesh_4x4.accelerators)[:8]) == 4

    def test_row_networks_connect_edge_ports(self, hx2mesh_4x4):
        nets = hx2mesh_4x4.meta["row_networks"]
        assert len(nets) == 8  # 4 board rows x 2 on-board rows
        for (gr, br), net in nets.items():
            assert len(net.attachments) == 2 * 4  # 2 ports per board, x=4 boards


class TestBoardMeshPath:
    def test_straight_line(self, hx2mesh_4x4):
        board = hx2mesh_4x4.meta["boards"][(0, 0)]
        path = board_mesh_path(board, (0, 0), (0, 1), "xy")
        assert len(path) == 1

    def test_xy_and_yx_differ(self, hx4mesh_2x3):
        board = hx4mesh_2x3.meta["boards"][(0, 0)]
        p_xy = board_mesh_path(board, (0, 0), (2, 2), "xy")
        p_yx = board_mesh_path(board, (0, 0), (2, 2), "yx")
        assert len(p_xy) == len(p_yx) == 4
        assert p_xy != p_yx

    def test_identity(self, hx2mesh_4x4):
        board = hx2mesh_4x4.meta["boards"][(0, 0)]
        assert board_mesh_path(board, (1, 1), (1, 1)) == []

    def test_invalid_order(self, hx2mesh_4x4):
        board = hx2mesh_4x4.meta["boards"][(0, 0)]
        with pytest.raises(ValueError):
            board_mesh_path(board, (0, 0), (1, 1), "zz")


class TestRouting:
    def _check_path(self, topo, src, dst, path):
        """A path must start at src, end at dst, and be link-connected."""
        node = src
        for li in path:
            link = topo.link(li)
            assert link.src == node
            node = link.dst
        assert node == dst

    def test_same_board_paths(self, hx2mesh_4x4):
        router = HxMeshRouter(hx2mesh_4x4)
        board = hx2mesh_4x4.meta["boards"][(1, 1)]
        src, dst = board.node_at(0, 0), board.node_at(1, 1)
        for path in router.paths(src, dst):
            self._check_path(hx2mesh_4x4, src, dst, path)
            assert len(path) == 2

    def test_same_row_paths_cross_one_network(self, hx2mesh_4x4):
        router = HxMeshRouter(hx2mesh_4x4)
        b0 = hx2mesh_4x4.meta["boards"][(2, 0)]
        b3 = hx2mesh_4x4.meta["boards"][(2, 3)]
        src, dst = b0.node_at(0, 0), b3.node_at(1, 1)
        paths = router.paths(src, dst, max_paths=8)
        assert paths
        for path in paths:
            self._check_path(hx2mesh_4x4, src, dst, path)
            switches = [li for li in path if hx2mesh_4x4.is_switch(hx2mesh_4x4.link(li).dst)]
            assert len(switches) == 1  # exactly one global network crossed

    def test_two_dimension_paths_cross_two_networks(self, hx2mesh_4x4):
        router = HxMeshRouter(hx2mesh_4x4)
        b_src = hx2mesh_4x4.meta["boards"][(0, 0)]
        b_dst = hx2mesh_4x4.meta["boards"][(3, 3)]
        src, dst = b_src.node_at(0, 0), b_dst.node_at(1, 1)
        paths = router.paths(src, dst, max_paths=8)
        assert paths
        for path in paths:
            self._check_path(hx2mesh_4x4, src, dst, path)
            switch_entries = [
                li for li in path if hx2mesh_4x4.is_switch(hx2mesh_4x4.link(li).dst)
            ]
            assert len(switch_entries) == 2

    def test_all_pairs_have_paths(self, hx4mesh_2x3):
        router = HxMeshRouter(hx4mesh_2x3)
        accs = list(hx4mesh_2x3.accelerators)[::7]
        for src in accs:
            for dst in accs:
                if src == dst:
                    continue
                paths = router.paths(src, dst)
                assert paths
                for path in paths:
                    self._check_path(hx4mesh_2x3, src, dst, path)

    def test_hx1mesh_routing(self, hx1mesh_4x4):
        router = HxMeshRouter(hx1mesh_4x4)
        accs = list(hx1mesh_4x4.accelerators)
        paths = router.paths(accs[0], accs[-1], max_paths=4)
        assert paths
        for path in paths:
            self._check_path(hx1mesh_4x4, accs[0], accs[-1], path)

    def test_minimal_slack_zero_keeps_only_shortest(self, hx2mesh_4x4):
        router = HxMeshRouter(hx2mesh_4x4)
        accs = list(hx2mesh_4x4.accelerators)
        for src, dst in [(accs[0], accs[5]), (accs[3], accs[60])]:
            paths = router.paths(src, dst, max_paths=8)
            assert max(len(p) for p in paths) - min(len(p) for p in paths) <= 0

    def test_virtual_channels_bounded(self, hx2mesh_4x4):
        router = HxMeshRouter(hx2mesh_4x4)
        accs = list(hx2mesh_4x4.accelerators)
        for dst in accs[1:20]:
            for path in router.paths(accs[0], dst, max_paths=4):
                vcs = virtual_channel_of(hx2mesh_4x4, path)
                assert len(vcs) == len(path)
                assert all(0 <= vc < MAX_VIRTUAL_CHANNELS for vc in vcs)
                assert vcs == sorted(vcs)  # VCs never decrease along a path

    def test_router_rejects_foreign_topology(self, fat_tree_64):
        with pytest.raises(TopologyError):
            HxMeshRouter(fat_tree_64)


_ROUTERS = {}


def _router(shape, radix, taper, slack):
    """Memoized router: a hypothesis draw repeats shapes."""
    key = (shape, radix, taper, slack)
    if key not in _ROUTERS:
        topo = build_hammingmesh(*shape, radix=radix, global_taper=taper)
        _ROUTERS[key] = HxMeshRouter(topo, minimal_slack=slack)
    return _ROUTERS[key]


class TestBlockRouting:
    """Every routed path is a valid near-minimal walk, and a block of pairs
    routes exactly as the same pairs one at a time."""

    @given(
        a=st.integers(1, 4),
        b=st.integers(1, 4),
        x=st.integers(1, 5),
        y=st.integers(1, 5),
        radix=st.sampled_from([4, 64]),
        taper=st.sampled_from([1.0, 0.5]),
        slack=st.integers(0, 2),
        max_paths=st.sampled_from([1, 2, 4, 8]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_paths_are_valid_and_match_single_pairs(
        self, a, b, x, y, radix, taper, slack, max_paths, data
    ):
        if x * y == 1:  # a single board has no global network
            return
        router = _router((a, b, x, y), radix, taper, slack)
        topo = router.topo
        accs = topo.accelerators
        picks = st.integers(0, len(accs) - 1)
        src = [accs[i] for i in data.draw(st.lists(picks, min_size=1, max_size=12))]
        dst = [accs[i] for i in data.draw(st.lists(picks, min_size=len(src), max_size=len(src)))]
        # duplicate pairs and a pair to itself
        src, dst = src + src[:2] + [src[0]], dst + dst[:2] + [src[0]]
        counts, lengths, links = router.route_block(src, dst, max_paths)
        assert len(counts) == len(src)
        ends = np.cumsum(lengths)
        paths = [links[e - n : e].tolist() for e, n in zip(ends.tolist(), lengths.tolist())]
        first = 0
        for s, d, count in zip(src, dst, counts.tolist()):
            mine = paths[first : first + count]
            first += count
            single = router.route_block([s], [d], max_paths)
            assert single[0].tolist() == [count]
            assert mine == router.paths(s, d, max_paths)
            if s == d:
                assert mine == [[]]
                continue
            assert 1 <= count <= max_paths
            assert len({tuple(p) for p in mine}) == count
            assert max(map(len, mine)) - min(map(len, mine)) <= slack
            for path in mine:
                node = s
                for li in path:
                    assert topo.link_src[li] == node
                    node = topo.link_dst[li]
                assert node == d
                assert max(virtual_channel_of(topo, path)) < MAX_VIRTUAL_CHANNELS
                # a path crosses at most two global networks
                injections = sum(
                    topo.is_accelerator(topo.link_src[li]) and topo.is_switch(topo.link_dst[li])
                    for li in path
                )
                assert injections <= 2
        assert first == len(paths)


class TestSubMesh:
    def test_valid_submesh_property(self):
        assert is_valid_submesh([(0, 0), (0, 2), (3, 0), (3, 2)])
        assert not is_valid_submesh([(0, 0), (0, 2), (3, 0)])
        assert not is_valid_submesh([])

    def test_submesh_accessors(self):
        sm = VirtualSubMesh(rows=(1, 3), cols=(0, 2, 5))
        assert sm.shape == (2, 3)
        assert sm.num_boards == 6
        assert sm.physical(1, 2) == (3, 5)
        assert sm.virtual((3, 5)) == (1, 2)
        assert (1, 2) in sm and (2, 2) not in sm
        with pytest.raises(KeyError):
            sm.virtual((9, 9))

    def test_find_submesh_simple(self):
        avail = [frozenset(range(4)) for _ in range(4)]
        sm = find_submesh_rows(avail, 2, 3)
        assert sm is not None
        assert sm.shape == (2, 3)
        assert is_valid_submesh(sm.boards())

    def test_find_submesh_with_holes(self):
        # Row 1 misses column 1; a 2x2 must avoid it or skip the row.
        avail = [
            frozenset({0, 1, 2, 3}),
            frozenset({0, 2, 3}),
            frozenset({0, 1, 2, 3}),
        ]
        sm = find_submesh_rows(avail, 3, 3)
        assert sm is not None
        assert 1 not in sm.cols or 1 not in sm.rows

    def test_find_submesh_failure(self):
        avail = [frozenset({0}), frozenset({1})]
        assert find_submesh_rows(avail, 2, 1) is None

    def test_find_submesh_validates_args(self):
        with pytest.raises(ValueError):
            find_submesh_rows([frozenset({0})], 0, 1)

    @given(
        rows=st.integers(2, 8),
        cols=st.integers(2, 8),
        u=st.integers(1, 4),
        v=st.integers(1, 4),
        holes=st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_found_submeshes_are_always_valid(self, rows, cols, u, v, holes):
        avail = [
            frozenset(c for c in range(cols) if (r, c) not in holes) for r in range(rows)
        ]
        sm = find_submesh_rows(avail, u, v, try_all_starts=True)
        if sm is not None:
            assert sm.shape == (u, v)
            assert is_valid_submesh(sm.boards())
            for r, c in sm.boards():
                assert c in avail[r]
