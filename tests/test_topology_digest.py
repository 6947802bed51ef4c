"""Golden digests of built topologies: link storage changes must be bit-identical.

Each digest is a sha256 over everything routing, the simulators and the
cost model read from a :class:`Topology`: node kinds, labels and
attributes; every directed link's ``(src, dst, capacity, cable, plane,
tag)`` in link-id order; every node's ``out_links``/``in_links``; the
cable count per class; and the ``meta`` handles (boards, tree networks,
link lookup tables), whose link ids must name the same links.  The
expected digests were recorded before links were stored as columns, so
any change to a link id, its attributes or the adjacency order fails here.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib

import pytest

from repro.analysis import small_cluster_configs
from repro.core import build_hammingmesh
from repro.topology import (
    CableClass,
    GlobalNetwork,
    build_dragonfly,
    build_fat_tree,
    build_hx1mesh,
    build_hyperx2d,
    build_topology,
    build_torus2d,
)

#: name -> (builder, args, kwargs)
TOPOLOGIES = {
    # every registered builder, at small sizes
    "registry-hammingmesh": (build_topology, ("hammingmesh",), dict(a=2, b=2, x=4, y=4)),
    "registry-fattree": (build_topology, ("fattree",), dict(num_accelerators=24)),
    "registry-dragonfly": (
        build_topology, ("dragonfly",),
        dict(num_groups=4, routers_per_group=4, endpoints_per_router=2,
             global_links_per_router=2),
    ),
    "registry-torus2d": (build_topology, ("torus2d",), dict(board_cols=4, board_rows=4)),
    "registry-hyperx2d": (build_topology, ("hyperx2d",), dict(x=4, y=3, terminals=2)),
    "hxmesh-a3b2-3x3": (build_hammingmesh, (3, 2, 3, 3), {}),
    "hxmesh-a1b3-3x2": (build_hammingmesh, (1, 3, 3, 2), {}),
    "fattree-2level-tapered": (build_fat_tree, (128,), {"taper": 0.25}),
    "fattree-2level-pinned": (
        build_fat_tree, (200,), {"leaf_down_ports": 42, "leaf_up_ports": 22},
    ),
    "fattree-3level": (build_fat_tree, (40,), {"radix": 8}),
    "torus-3x2-boards": (build_torus2d, (2, 3), {"board_a": 3, "board_b": 2}),
    "hx1mesh-4x4": (build_hx1mesh, (4, 4), {}),
    # radix 4: 12-port row trees have three levels, 6-port column trees two
    "hx2mesh-multilevel": (build_hammingmesh, (2, 2, 6, 3), {"radix": 4}),
    # radix 4, tapered two-level row and column trees
    "hx2mesh-tapered": (build_hammingmesh, (2, 2, 4, 4), {"radix": 4, "global_taper": 0.5}),
    # the 4,096-endpoint scale-out Hx2Mesh and a 16,384-endpoint
    # three-level tapered fat tree, recorded before the block builders
    "hx2mesh-4096": (build_hammingmesh, (2, 2, 32, 32), {}),
    "fattree-16384-tapered": (build_fat_tree, (16384,), {"taper": 0.5}),
    **{
        f"small-{config.key}": (config.build, (), {})
        for config in small_cluster_configs()
    },
}

#: name -> sha256 of the built topology
TOPOLOGY_DIGESTS = {
    'registry-hammingmesh': '1d98c05134f1b33ca8bc0d424b11587d845ae330f2256925aeeaa5c185188b52',
    'registry-fattree': '6f773c56d3888734898e7739f6029ed29ef017f9e9a7f192f467141f296fbdc9',
    'registry-dragonfly': '50d6726d32362d1f5e3f6d8310244cbd22696b7af60a56ef8ca35bfb7791b8e7',
    'registry-torus2d': '07d2f0356268c09ebf45e735cd15c076323432fc04106a01f0691527168bf28c',
    'registry-hyperx2d': 'cf66ea4eb9c30496dcbd9e29ae39c86013c219cba3359ab1550e37874a39ad4c',
    'hxmesh-a3b2-3x3': 'dfdb6d00189f70e28cf7c31a0529c188fb0816ab2dec8ea02f2d8fcbe40c7013',
    'hxmesh-a1b3-3x2': '2f4d766e1c7680301cedd241d85d2406857bf8f2e149b163543173f30fde83dc',
    'fattree-2level-tapered': 'c997ab6a5a04e7691c5ccb9f70c818eb368d801f0ecabb6c7730a25753da018e',
    'fattree-2level-pinned': '40eb77f7474477ef0ccedd34df84b0451ee7f9be3f60d286c197aec32232d511',
    'fattree-3level': '5fffd67ffb94e87e2c8b11b44ff33f6629365ccc67fa39516028b32a6a81a166',
    'torus-3x2-boards': 'e90e6c6e5b993079cc24e783af8c7efefa85ef2d5bd180ca2a881bd0335659f3',
    'hx1mesh-4x4': '6018ed12ff5272466627d0632d2230efff177c32d946d468445bd7412656d2fa',
    'hx2mesh-multilevel': 'c143f383c32273943ba94724f87f3653203c278685b88dd187faef42702a33e8',
    'hx2mesh-tapered': '824608545ec410ce87e9976392ea3fd4cac60f47a92944c07de13180014f7161',
    'small-ft_nonblocking': '4a6df09e203ec83b97708b34b986d9d66f56b92636235b12d7afc65ca9128e25',
    'small-ft_tapered50': 'dc82f379d45df14ee507d8b305258872ebf1538b2ea0d6fcde6126b9fdcd5e22',
    'small-ft_tapered75': '4da9d0d8244854e18ffe1daad66e3bbb590b6756a0e9a6858332f8f98788b4ba',
    'small-dragonfly': 'b38e2626b7b23aa151558155bfc9caaff386a584145c94ce8e81c07e18166d9f',
    'small-hyperx': '78eb34ca775d637de8221096ad617aa64ec393f55adae99a3ec49b1acd75eff5',
    'small-hx2mesh': 'c1e69cdeb9b5c8e20555e3c3605272478ee89ff5e9c107e36747f0fa5601d1eb',
    'small-hx4mesh': '4b7de1ec57d414ee1321ba0aee6dfc9cea4af54f4a91088b3be1813f8d8bb1f8',
    'small-torus': 'd7c4b0617b69c1d1d8cef40d2b1205ccff9a2ea5ea845709d57fd83042ee1101',
    'hx2mesh-4096': 'fe11905a0681c7d2b400f55c63090cd3a45dade691616b6528bffd15f56134b4',
    'fattree-16384-tapered': '1daf5a7463376e4ee25dab85242285e41d5d5d1040e3bbce974a215420a31182',
}


def _plain(obj):
    """Nested builtins for ``obj``; tree networks lose their topology back-link."""
    if isinstance(obj, GlobalNetwork):
        obj = {k: v for k, v in vars(obj).items() if k != "topo"}
    elif dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return [(_plain(k), _plain(v)) for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, [_plain(v) for v in obj])
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, float):
        return obj.hex()
    return obj


def topology_digest(topo) -> str:
    nodes = range(topo.num_nodes)
    parts = [
        topo.name,
        [(topo.kind(n).value, topo.label(n), _plain(topo.attrs(n))) for n in nodes],
        [
            (l.src, l.dst, float(l.capacity).hex(), l.cable.value, l.plane, l.tag)
            for l in topo.links
        ],
        [(tuple(topo.out_links(n)), tuple(topo.in_links(n))) for n in nodes],
        [topo.cable_count(c) for c in CableClass],
        _plain(topo.meta),
    ]
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"#")
    return h.hexdigest()


@pytest.mark.parametrize("name", list(TOPOLOGIES))
def test_topology_digest(name):
    builder, args, kwargs = TOPOLOGIES[name]
    assert topology_digest(builder(*args, **kwargs)) == TOPOLOGY_DIGESTS[name]
