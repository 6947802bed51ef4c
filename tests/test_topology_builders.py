"""Unit tests for board, fat-tree, torus, Dragonfly and HyperX builders."""

import pytest

from repro.topology import (
    CableClass,
    GlobalNetwork,
    Topology,
    TopologyError,
    add_board,
    build_dragonfly,
    build_fat_tree,
    build_hx1mesh,
    build_hyperx2d,
    build_torus2d,
    fat_tree_levels_for,
)
from repro.sim.paths import FatTreePathProvider
from repro.topology.board import EAST, NORTH, SOUTH, WEST


class TestBoard:
    def test_board_dimensions(self):
        topo = Topology("t")
        handle = add_board(topo, (0, 0), 4, 2)
        assert handle.a == 4 and handle.b == 2
        assert len(handle.all_nodes()) == 8
        assert topo.num_accelerators == 8

    def test_edge_ports(self):
        topo = Topology("t")
        handle = add_board(topo, (0, 0), 3, 2)
        assert len(handle.east_ports()) == 2
        assert len(handle.west_ports()) == 2
        assert len(handle.north_ports()) == 3
        assert len(handle.south_ports()) == 3
        assert handle.east_ports()[0] == handle.node_at(0, 2)

    def test_mesh_links_exist_between_neighbors(self):
        topo = Topology("t")
        handle = add_board(topo, (0, 0), 2, 2)
        n00 = handle.node_at(0, 0)
        assert handle.has_mesh_link(n00, EAST)
        assert handle.has_mesh_link(n00, SOUTH)
        assert not handle.has_mesh_link(n00, WEST)
        assert not handle.has_mesh_link(n00, NORTH)

    def test_mesh_links_are_pcb(self):
        topo = Topology("t")
        handle = add_board(topo, (0, 0), 2, 2)
        link = topo.link(handle.mesh_link(handle.node_at(0, 0), EAST))
        assert link.cable is CableClass.PCB

    def test_degenerate_board(self):
        topo = Topology("t")
        handle = add_board(topo, (0, 0), 1, 1)
        assert handle.all_nodes() == [0]
        assert not handle.mesh_links

    def test_invalid_board_rejected(self):
        topo = Topology("t")
        with pytest.raises(ValueError):
            add_board(topo, (0, 0), 0, 2)

    def test_node_attrs_record_coordinates(self):
        topo = Topology("t")
        handle = add_board(topo, (3, 5), 2, 2)
        attrs = topo.attrs(handle.node_at(1, 0))
        assert attrs["board"] == (3, 5)
        assert attrs["pos"] == (1, 0)


class TestFatTreeLevels:
    @pytest.mark.parametrize(
        "ports,expected", [(1, 1), (64, 1), (65, 2), (2048, 2), (2049, 3), (65536, 3)]
    )
    def test_levels(self, ports, expected):
        assert fat_tree_levels_for(ports, 64) == expected

    def test_too_many_ports(self):
        with pytest.raises(TopologyError):
            fat_tree_levels_for(64 ** 3, 64)

    def test_invalid_port_count(self):
        with pytest.raises(TopologyError):
            fat_tree_levels_for(0)


class TestGlobalNetwork:
    def test_single_switch(self):
        topo = Topology("t")
        ports = [topo.add_accelerator() for _ in range(8)]
        net = GlobalNetwork(topo, ports, radix=64)
        assert net.levels == 1
        assert net.num_switches == 1
        assert all(net.has_port(p) for p in ports)

    def test_two_level(self):
        topo = Topology("t")
        ports = [topo.add_accelerator() for _ in range(128)]
        net = GlobalNetwork(topo, ports, radix=64)
        assert net.levels == 2
        assert len(net.leaf_switches) == 4
        assert len(net.spine_switches) >= 2

    def test_duplicate_port_attachments(self):
        topo = Topology("t")
        acc = topo.add_accelerator()
        other = topo.add_accelerator()
        net = GlobalNetwork(topo, [acc, acc, other], radix=64)
        assert len(net.attachments_of(acc)) == 2

    def test_paths_through_single_switch(self):
        topo = Topology("t")
        ports = [topo.add_accelerator() for _ in range(4)]
        net = GlobalNetwork(topo, ports, radix=64)
        paths = net.paths(ports[0], ports[3])
        assert paths and all(len(p) == 2 for p in paths)

    def test_paths_through_two_levels(self):
        topo = Topology("t")
        ports = [topo.add_accelerator() for _ in range(128)]
        net = GlobalNetwork(topo, ports, radix=64)
        paths = net.paths(ports[0], ports[127], max_paths=8)
        assert paths
        assert all(len(p) == 4 for p in paths)

    def test_three_level_paths_cross_core(self):
        topo = Topology("t")
        ports = [topo.add_accelerator() for _ in range(4096)]
        net = GlobalNetwork(topo, ports, radix=64)
        assert net.levels == 3
        paths = net.paths(ports[0], ports[4095], max_paths=4)
        assert paths and all(len(p) == 6 for p in paths)

    def test_taper_bounds(self):
        topo = Topology("t")
        ports = [topo.add_accelerator() for _ in range(8)]
        with pytest.raises(TopologyError):
            GlobalNetwork(topo, ports, taper=0.0)
        with pytest.raises(TopologyError):
            GlobalNetwork(topo, [], radix=64)


class TestFatTreeBuilder:
    def test_sizes(self, fat_tree_64):
        assert fat_tree_64.num_accelerators == 64
        assert fat_tree_64.meta["family"] == "fattree"

    def test_tapered_tree_has_fewer_switches(self):
        full = build_fat_tree(256, taper=1.0)
        tapered = build_fat_tree(256, taper=0.25)
        assert tapered.num_switches < full.num_switches

    def test_collapsed_plane_capacity(self, fat_tree_64):
        acc = fat_tree_64.accelerators[0]
        out = fat_tree_64.out_links(acc)
        assert len(out) == 1
        assert fat_tree_64.link(out[0]).capacity == pytest.approx(4.0)

    def test_rejects_tiny_cluster(self):
        with pytest.raises(TopologyError):
            build_fat_tree(1)

    def test_disconnected_leaf_spine_split_raises(self):
        # 15 leaves with 5 uplinks each, round robin over 10 spines: the even
        # leaves reach spines 0-4 and the odd ones spines 5-9
        with pytest.raises(TopologyError) as info:
            build_fat_tree(30, radix=8, leaf_down_ports=2, leaf_up_ports=5)
        assert str(info.value) == (
            "two-level fat tree is disconnected: 15 leaves with 2 down and 5 up "
            "ports wire 10 spines round robin into 2 groups that share no spine "
            "(leaf 1 cannot reach leaf 0)"
        )

    @pytest.mark.parametrize("n", [9, 20, 32])
    @pytest.mark.parametrize("down,up", [(1, 1), (2, 2), (2, 3), (2, 5), (3, 2), (3, 5), (4, 4), (5, 3)])
    def test_two_level_tree_builds_iff_leaves_share_spines(self, n, down, up):
        radix = 8
        assert fat_tree_levels_for(n, radix) == 2
        # reference: union-find over the round-robin leaf -> spine uplinks
        leaves = -(-n // down)
        spines = max(1, -(-(leaves * up) // radix))
        group = list(range(leaves + spines))

        def find(i):
            while group[i] != i:
                i = group[i]
            return i

        for leaf in range(leaves):
            for u in range(up):
                group[find(leaves + (leaf * up + u) % spines)] = find(leaf)
        connected = len({find(leaf) for leaf in range(leaves)}) == 1
        if not connected:
            with pytest.raises(TopologyError, match="^two-level fat tree is disconnected"):
                build_fat_tree(n, radix=radix, leaf_down_ports=down, leaf_up_ports=up)
            return
        topo = build_fat_tree(n, radix=radix, leaf_down_ports=down, leaf_up_ports=up)
        assert topo.is_connected()

    @pytest.mark.parametrize(
        "n,kwargs", [(40, {"radix": 8, "taper": 0.5}), (4096, {"taper": 0.25})]
    )
    def test_tapered_three_level_tree_connects_every_leaf_pair(self, n, kwargs):
        topo = build_fat_tree(n, **kwargs)
        net = topo.meta["network"]
        assert net.levels == 3
        provider = FatTreePathProvider(topo)
        # one accelerator per leaf
        first = {}
        for att in net.attachments:
            first.setdefault(att.leaf, att.node)
        reps = list(first.values())
        leaf_of = {node: leaf for leaf, node in first.items()}
        for a in reps:
            for b in reps:
                if a == b:
                    continue
                # up/down paths through the tree itself, not the BFS fallback
                paths = net.paths(a, b, max_paths=2)
                same_pod = net.leaf_pod[leaf_of[a]] == net.leaf_pod[leaf_of[b]]
                assert paths and all(len(p) == (4 if same_pod else 6) for p in paths)
                assert provider.paths(a, b, max_paths=2) == paths

    @pytest.mark.parametrize("taper", [0.25, 0.5, 1.0])
    def test_tapered_three_level_tree_keeps_core_capacity(self, taper):
        radix, n = 8, 40
        topo = build_fat_tree(n, radix=radix, taper=taper)
        net = topo.meta["network"]
        half = radix // 2
        up = max(1, round(half * taper))
        for leaf in net.leaf_switches:
            assert len(net.spines_of_leaf[leaf]) == up
        # per pod: the leaves' uplinks and the spines' core uplinks balance
        for pod in set(net.spine_pod.values()):
            spines = [s for s in net.spine_switches if net.spine_pod[s] == pod]
            core_up = sum(len(v) for (s, _), v in net.spine_core.items() if s in spines)
            assert core_up == half * up
        for sw in topo.switches:
            assert topo.degree(sw) <= radix


class TestTorusBuilder:
    def test_grid_dimensions(self, torus_4x4_boards):
        meta = torus_4x4_boards.meta
        assert (meta["rows"], meta["cols"]) == (8, 8)
        assert torus_4x4_boards.num_accelerators == 64
        assert torus_4x4_boards.num_switches == 0

    def test_every_accelerator_has_four_ports(self, torus_4x4_boards):
        for acc in torus_4x4_boards.accelerators:
            assert torus_4x4_boards.degree(acc) == 4

    def test_dir_links_cover_grid(self, torus_4x4_boards):
        meta = torus_4x4_boards.meta
        for r in range(meta["rows"]):
            for c in range(meta["cols"]):
                for d in "ENSW":
                    assert (r, c, d) in meta["dir_links"]

    def test_wraparound_exists(self, torus_4x4_boards):
        meta = torus_4x4_boards.meta
        east_link = meta["dir_links"][(0, meta["cols"] - 1, "E")]
        link = torus_4x4_boards.link(east_link)
        assert meta["coord_of"][link.dst] == (0, 0)

    def test_rejects_degenerate_grid(self):
        with pytest.raises(TopologyError):
            build_torus2d(1, 1, board_a=2, board_b=1)


class TestDragonflyBuilder:
    def test_counts(self, dragonfly_small_fixture):
        topo = dragonfly_small_fixture
        assert topo.num_accelerators == 4 * 4 * 2
        assert topo.num_switches == 16

    def test_local_all_to_all(self, dragonfly_small_fixture):
        meta = dragonfly_small_fixture.meta
        group0 = meta["routers"][0]
        for i in range(len(group0)):
            for j in range(len(group0)):
                if i != j:
                    assert (group0[i], group0[j]) in meta["local_links"]

    def test_every_group_pair_connected(self, dragonfly_small_fixture):
        meta = dragonfly_small_fixture.meta
        g = meta["num_groups"]
        for a in range(g):
            for b in range(g):
                if a != b:
                    assert meta["group_links"][(a, b)]

    def test_paper_configurations(self):
        from repro.topology import dragonfly_large, dragonfly_small

        small = dragonfly_small()
        assert small.num_accelerators == 1024
        # The large configuration (16,320 endpoints) is exercised in the
        # benchmarks; here we only check the parameterisation helper exists.
        assert callable(dragonfly_large)

    def test_rejects_single_group(self):
        with pytest.raises(TopologyError):
            build_dragonfly(1)


class TestHyperXBuilder:
    def test_switch_grid(self, hyperx_4x4):
        meta = hyperx_4x4.meta
        assert meta["x"] == 4 and meta["y"] == 4
        assert hyperx_4x4.num_switches == 16
        assert hyperx_4x4.num_accelerators == 16

    def test_row_and_column_fully_connected(self, hyperx_4x4):
        meta = hyperx_4x4.meta
        grid = meta["switch_grid"]
        for r in range(4):
            for c1 in range(4):
                for c2 in range(4):
                    if c1 != c2:
                        assert (grid[r][c1], grid[r][c2]) in meta["switch_links"]

    def test_terminals_parameter(self):
        topo = build_hyperx2d(3, 3, terminals=2)
        assert topo.num_accelerators == 18

    def test_rejects_single_column(self):
        with pytest.raises(TopologyError):
            build_hyperx2d(1, 4)

    def test_hx1mesh_is_hammingmesh(self):
        topo = build_hx1mesh(3, 3)
        assert topo.meta["family"] == "hammingmesh"
        assert topo.meta["is_hyperx"]
        assert topo.num_accelerators == 9
