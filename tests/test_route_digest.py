"""Golden digests of stored routes: enumeration changes must be bit-identical.

Every ordered accelerator pair of a set of small topologies is routed
through a :class:`RouteTable` and its stored paths,
their order, their split weights and the pair's ``num_minimal`` are hashed.
The expected digests were recorded before the HxMesh router and the
fat-tree segment code were restructured, so any change to a single stored
route (or to its hash rotation) fails here.  The cluster-sized
HammingMeshes of Table II and the 4,096-endpoint scale-out mesh are
digested from sampled sources, recorded before the HxMesh router routed
whole pair blocks.

A second group checks that populating many pairs in one ``pair_arrays``
call -- duplicates and already-routed pairs included -- assigns the same
path ids and counts the same hits and misses as populating them one at a
time, and that random interleavings of every lookup agree with looking
each pair up alone.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.obs as obs
from repro.core import HxMeshRouter, build_hammingmesh
from repro.core.routing import csr_to_path_lists
from repro.sim import routing
from repro.sim.faults import (
    board_fault_set,
    degraded_route_table,
    sample_link_faults,
    sample_switch_faults,
    split_connected,
)
from repro.sim.paths import GenericPathProvider, HxMeshPathProvider, path_lists_to_csr
from repro.sim.routing import RouteTable
from repro.topology import (
    TopologyError,
    build_dragonfly,
    build_fat_tree,
    build_hx1mesh,
    build_hyperx2d,
    build_torus2d,
)
from route_oracles import RouteSet, route_block

#: name -> (builder, args, kwargs)
TOPOLOGIES = {
    "hx2mesh-4x4": (build_hammingmesh, (2, 2, 4, 4), {}),
    "hx1mesh-4x4": (build_hx1mesh, (4, 4), {}),
    "hxmesh-a1b3-3x2": (build_hammingmesh, (1, 3, 3, 2), {}),
    "hxmesh-a3b2-3x3": (build_hammingmesh, (3, 2, 3, 3), {}),
    "hx4mesh-2x3": (build_hammingmesh, (4, 4, 2, 3), {}),
    "hxmesh-single-row": (build_hammingmesh, (2, 2, 4, 1), {}),
    # radix 4: 12-port row trees have three levels, 6-port column trees two
    "hx2mesh-multilevel": (build_hammingmesh, (2, 2, 6, 3), {"radix": 4}),
    # radix 4, 8-port two-level row trees with one uplink per leaf
    "hx2mesh-tapered": (build_hammingmesh, (2, 2, 4, 2), {"radix": 4, "global_taper": 0.5}),
    "fattree-1level": (build_fat_tree, (24,), {}),
    "fattree-2level-tapered": (build_fat_tree, (128,), {"taper": 0.25}),
    "fattree-3level": (build_fat_tree, (40,), {"radix": 8}),
    "dragonfly": (
        build_dragonfly, (4,),
        {"routers_per_group": 4, "endpoints_per_router": 2, "global_links_per_router": 2},
    ),
    "torus": (build_torus2d, (4, 4), {}),
    "hyperx": (build_hyperx2d, (4, 4), {"terminals": 1}),
}

#: Table II's small-cluster HammingMeshes and the 4,096-endpoint scale-out
#: Hx2Mesh: single-switch row and column networks with 16-64 ports
CLUSTER_TOPOLOGIES = {
    "hx2mesh-16x16": (build_hammingmesh, (2, 2, 16, 16), {}),
    "hx4mesh-8x8": (build_hammingmesh, (4, 4, 8, 8), {}),
    "hx2mesh-32x32": (build_hammingmesh, (2, 2, 32, 32), {}),
}

#: (topology, policy, max_paths) -> sha256 of every pair's stored routes
ROUTE_DIGESTS = {
    ('hx2mesh-4x4', 'minimal', 4): '9696e4663b0dde1538166a60093f8b9977f0d548c4d7c6f3a6967399775a615b',
    ('hx1mesh-4x4', 'minimal', 4): '229852c9e942e9bf55a100a09efc13901cae992b00bd4af4babf7a774e203c1c',
    ('hxmesh-a1b3-3x2', 'minimal', 4): 'b6e18878f3f4a1449d655729272a81fc0c6377bab60979563dd76131f428d2f1',
    ('hxmesh-a3b2-3x3', 'minimal', 4): '6f91b5c1f94cc3e7ba024e33b01a8c8a8d1a59b09a41334c66e43345f9049890',
    ('hx4mesh-2x3', 'minimal', 4): 'b86989e150f85c3590a61218714d9f42f24af9115d5ae48420bbc0eb9edcd1eb',
    ('hxmesh-single-row', 'minimal', 4): '2bc10d9fd43f2f0a13907313a81d0a42e06b3ba2d66979580d585cb5ec20c9de',
    ('hx2mesh-multilevel', 'minimal', 4): 'd95c25a14142b6f9e7b03130ca6487efb15d11376fb6f8c9bb086d6eeb5ec2a0',
    ('hx2mesh-tapered', 'minimal', 4): 'c63f97c38613c70065750990e562b5a1b6cbaab58ebb6f16e2382a90ee97f7cf',
    ('fattree-1level', 'minimal', 4): '06f3c52198c9c038913d1cb89521b8605d1e8c33613227297908dc38cc8f5a5c',
    ('fattree-2level-tapered', 'minimal', 4): 'cf50bc53656830e11ea696a5b560656b21579b484d56be61bea26bbe69cd7773',
    ('fattree-3level', 'minimal', 4): '9c124f60fc4fb19128fb711cf25f8427cf050fd5d693cc63bdf5f3a4cef300cd',
    ('dragonfly', 'minimal', 4): 'c5e38839330a3b53a188c94a05c730c9d2e95b1e39862aba5f6ba57f4a5311d7',
    ('torus', 'minimal', 4): '985172ab6a2ded2a42b0254099f4d79bffbe18c7ce9ea2d44f79325911a3b525',
    ('hyperx', 'minimal', 4): 'b443e3c7516399859b7328a70e7918501927bbc8a67b8bc565904fc041b1e6f7',
    ('hx2mesh-4x4', 'minimal', 1): 'c0ddd58c0427f52c3f2da67bee85f789eacd3686b5d8cf5316f564ea0055fa5c',
    ('hx4mesh-2x3', 'minimal', 8): 'adfc099b0421717faa1ad7121675b0912861149b8cdb1910b91eb2f5b9b84d43',
    ('hx2mesh-multilevel', 'minimal', 8): '6eb42d0bb3125ce20cda0a8bd6049a0cd930ef3316454a5465acbeb599d54fff',
    ('fattree-3level', 'minimal', 8): '9c124f60fc4fb19128fb711cf25f8427cf050fd5d693cc63bdf5f3a4cef300cd',
    ('hx2mesh-4x4', 'ugal', 4): '43dc82f2824361899a27acfe1b340eda5b9244436e961eecc6ef3c96dcf4b0cd',
    ('hx2mesh-4x4', 'valiant', 4): 'bbdff27459600e7db32c668b73920655d73f2e3d089898f24ef204ca4fa904bf',
    ('hx2mesh-4x4', 'ecmp', 4): 'e275fec609496328ed5c372c85a38e65103790595542a9f40d49ee42ecdd29c2',
    ('hxmesh-a3b2-3x3', 'ugal', 4): '41ee251d99c58f51b438df0601053bc6ce381f3fb72df4927c8fa29d1005d439',
    # recorded before Valiant detours were built in blocks
    ('hx1mesh-4x4', 'valiant', 4): '559121a2a5db6a089c8aaeacd2b32f98178e195f16f93cf107d2003927b477e1',
    ('hxmesh-a1b3-3x2', 'valiant', 4): '566f2c0d89c572350a37effa73190d7b51764d6fd0360ca512af0f3de6a4259e',
    ('hxmesh-a3b2-3x3', 'valiant', 4): 'de109cf0f583bd532ed9f162406a93b4c6505fb5b153afc798273ae2ddc6c04f',
    ('hx4mesh-2x3', 'valiant', 4): '4a443bcb6783e6842609f40ea39fa84cb4b8352147b618ae6a55ecd30199f351',
    ('hxmesh-single-row', 'valiant', 4): 'b99f318f7286212d83b0bafb9b399590adc920fdb84dd663c2f44f48174d1491',
    ('hx2mesh-multilevel', 'valiant', 4): 'ad4f0860b6a2f576644ff922311a19a0e78e9dbec6b04cf37af6849c48d57a5e',
    ('hx2mesh-tapered', 'valiant', 4): '7658bf82297a93d1cb0a52a22c3cc9d06f86f792094c17a40ab4609a66fc753d',
    ('fattree-1level', 'valiant', 4): 'c1c56ee7e4a0349f9fbc93f431c637cbbcc3c7a92195bf16b7f5f8f79fd101da',
    ('fattree-2level-tapered', 'valiant', 4): 'ce2c4e0b7ab1f5d83c2e1807c05ae8493f347f46cc3be904c55e7f85f1869775',
    ('fattree-3level', 'valiant', 4): '3d0159ef1750247ab7f890a2eb3ef01ece91c2a1f3b4abd1811bc5845a01d1d0',
    ('dragonfly', 'valiant', 4): '75bf852af912f6c7779231461fa2e7dcba0c9d8be931a57d0408a8483a40b16b',
    ('torus', 'valiant', 4): '0bb81b9dedbb11b3b82906c8f4a40c4717f1ac7b0976c682ff1702cd5b370da2',
    ('hyperx', 'valiant', 4): 'c85fe8f1e4b8742f2106b323dd76255a8532f6f74bf7e166378fd1aceb918294',
    ('hx1mesh-4x4', 'ugal', 4): '221a6925009eb03f58da47b0f4a8ba43427ff128f3890c0d5cffe8619a884c52',
    ('hxmesh-a1b3-3x2', 'ugal', 4): 'd6faede85e436967cd015ac810fd6bc1e1f366020c5f4f69d547bb55afe82025',
    ('hx4mesh-2x3', 'ugal', 4): 'ab58d059319f333e749b70a2e62265fc1c27930ff9856098a288489704f4ffc7',
    ('hxmesh-single-row', 'ugal', 4): 'c61fed374e07b66ce4fa0d79da872490722ed4c82eca75642aee3ca69f05183e',
    ('hx2mesh-multilevel', 'ugal', 4): '217d6c509f9c6205b8ed78ce71c1cab31cc296882b2d8f5c66339537133a1f58',
    ('hx2mesh-tapered', 'ugal', 4): 'e7f8e6a5ef396a3e895bf18b8323e8ea8fd37df7422da4e8bc2fb5da120ae6a5',
    ('fattree-1level', 'ugal', 4): '9194c9cb25b203f099da964bd33672e18661f2528fdb1702ee5040a7e3ae47fb',
    ('fattree-2level-tapered', 'ugal', 4): '643c364b2d4d489e882e9d45ccb54e2d468f209c84ecf4f7e01dd27955de26b4',
    ('fattree-3level', 'ugal', 4): '8464326812fafda8121aca22417d2a1cecd88c12bcd05d19e9dd6249454a1488',
    ('dragonfly', 'ugal', 4): '6924fe76a4fcbdff54edc810e9101f0b775c370e90b86f9a4f6158be92832786',
    ('torus', 'ugal', 4): 'b8c49bbddd378c56259c31d14b2ca6f56326af6e43a438998e95853a4e71271e',
    ('hyperx', 'ugal', 4): 'd72c6f68e52d37c054f2776031b137a65bedd6162feaf304bf09a854b42f0e41',
}

#: (topology, minimal_slack, max_paths) -> sha256 of HxMeshRouter.paths
ROUTER_DIGESTS = {
    ('hx2mesh-4x4', 2, 8): 'fc2e3430eee6e83e7c324da8de45e19db639a2e37f35f46ce7cb29194e159510',
    ('hxmesh-a3b2-3x3', 1, 8): '0bbd0b7138a3244bde24063ab02c98ccd5fbf83baf19ee73fab97245bf2377ed',
    ('hx2mesh-multilevel', 2, 16): 'c8eb831eff12c98cdcd63aed8258b77b9eca39f3f4f40b97fc41e1c209d4ff74',
}

#: (topology, max_paths) -> sha256 of the stored routes of sampled sources
#: to every accelerator on cluster-sized HammingMeshes
CLUSTER_DIGESTS = {
    ('hx2mesh-16x16', 4): '158b93d9b7b0b7414c0b4bd4c94a8e4bd57e83fab350e4b981d4751856123b27',
    ('hx2mesh-16x16', 8): '158b93d9b7b0b7414c0b4bd4c94a8e4bd57e83fab350e4b981d4751856123b27',
    ('hx4mesh-8x8', 4): 'fb8ea4cc1a92f07ff4af465f2806d86f1e1ef9a31105a0995f06fc3342938a6d',
    ('hx4mesh-8x8', 8): '8f0454461a7a16b9c15619e45d32b22c90f8f2bb97192ce4ed17c015a9e53fe4',
    ('hx2mesh-32x32', 4): 'c69343891d199c1916ba0b016dd6b5c1790b27f71e96fae394dcfe1b6803b362',
    ('hx2mesh-32x32', 8): 'c69343891d199c1916ba0b016dd6b5c1790b27f71e96fae394dcfe1b6803b362',
}

_BUILT = {}


def _topology(name):
    if name not in _BUILT:
        builder, args, kwargs = {**TOPOLOGIES, **CLUSTER_TOPOLOGIES}[name]
        _BUILT[name] = builder(*args, **kwargs)
    return _BUILT[name]


#: sources per topology; each is paired with every other accelerator
NUM_SOURCES = 8


def _all_pairs(topo, num_sources=NUM_SOURCES):
    """Pairs from up to ``num_sources`` sources spread over the topology."""
    accs = np.asarray(topo.accelerators, dtype=np.int64)
    n = len(accs)
    # 37 is coprime to every accelerator count above, so sources spread
    # over all board positions, not one column of them
    sources = accs[(np.arange(min(n, num_sources)) * 37 + 3) % n]
    src = np.repeat(sources, n)
    dst = np.tile(accs, len(sources))
    keep = src != dst
    return src[keep], dst[keep]


def _table_digest(table, src, dst) -> str:
    """sha256 of every pair's path count, minimal count, links and weights."""
    first, npaths = table.pair_arrays(src, dst)
    nmin = table.pair_minimal_counts(src, dst)
    ids = np.concatenate([np.arange(f, f + c, dtype=np.int64) for f, c in zip(first, npaths)])
    links, lengths = table.gather_links(ids)
    weights = table.gather_path_weights(ids)
    h = hashlib.sha256()
    for arr in (npaths, nmin, lengths, links):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(weights, dtype=np.float64).tobytes())
    return h.hexdigest()


def _route_cases():
    cases = [(name, "minimal", 4) for name in TOPOLOGIES]
    cases += [
        ("hx2mesh-4x4", "minimal", 1),
        ("hx4mesh-2x3", "minimal", 8),
        ("hx2mesh-multilevel", "minimal", 8),
        ("fattree-3level", "minimal", 8),
        ("hx2mesh-4x4", "ecmp", 4),
    ]
    cases += [(name, policy, 4) for policy in ("valiant", "ugal") for name in TOPOLOGIES]
    return cases


@pytest.mark.parametrize("name,policy,max_paths", _route_cases())
def test_route_table_digest(name, policy, max_paths):
    topo = _topology(name)
    # the non-minimal policies enumerate several minimal routes per pair
    src, dst = _all_pairs(topo, NUM_SOURCES if policy in ("minimal", "ecmp") else 2)
    table = RouteTable(topo, max_paths=max_paths, policy=policy)
    assert _table_digest(table, src, dst) == ROUTE_DIGESTS[(name, policy, max_paths)]


#: topologies whose degraded route tables are digested
DEGRADED_TOPOLOGIES = (
    "hx2mesh-4x4", "hx2mesh-multilevel", "torus", "fattree-2level-tapered", "dragonfly", "hyperx",
)

#: (topology, policy, dead cables) -> sha256 of the degraded table's stored
#: routes of every connected pair, recorded before Valiant detours and
#: fault-filtered routes were built in blocks
DEGRADED_DIGESTS = {
    ('hx2mesh-4x4', 'minimal', 1): '75692bc54470376f2cc0dd957ec95a65b8210c1ca60a71c630f3937ede0ce2ec',
    ('hx2mesh-4x4', 'minimal', 2): '96853a73f4cef2a6cdb2c6e4550ca657b4e2fc7684ca26fe0dbfc5b3764c7447',
    ('hx2mesh-4x4', 'minimal', 8): '279774b3afe578dac843b0d66a056d9750217a13238c12875a0341d3bdaf78e4',
    ('hx2mesh-4x4', 'ugal', 1): 'e934544c71619fa9015f89d4891aa51daaafe4bf776c387a89d34f2346723df7',
    ('hx2mesh-4x4', 'ugal', 2): 'b2584d16d06cc9d67a5f52f8dd62a8b6dad10bd8304b3d37e8c001d8b8ff19ef',
    ('hx2mesh-4x4', 'ugal', 8): 'f0c56178d28279d04ce16aedd25352b04f15e17aa763e333382be042820b5407',
    ('hx2mesh-multilevel', 'minimal', 1): 'd95c25a14142b6f9e7b03130ca6487efb15d11376fb6f8c9bb086d6eeb5ec2a0',
    ('hx2mesh-multilevel', 'minimal', 2): 'c548224f389946cb45250ea25272d6729f34dbfb9bf44d02f071996b9dbc1cb6',
    ('hx2mesh-multilevel', 'minimal', 8): '959c27a23ba0050f137c8c1cfda8e174807066468f52398187675a2d5afdb848',
    ('hx2mesh-multilevel', 'ugal', 1): '217d6c509f9c6205b8ed78ce71c1cab31cc296882b2d8f5c66339537133a1f58',
    ('hx2mesh-multilevel', 'ugal', 2): '2b163a2de50d5580e77d36f148e63cf56cf22876d42be2c2f37fa0b46bf51c92',
    ('hx2mesh-multilevel', 'ugal', 8): '94c9ef794ea1591aa3703e764621f826a5d7b7e8c01ac948f149501e6aab3580',
    ('torus', 'minimal', 1): '0df6b0c5073406f9eacb31fb9f9f0329c7edd53b68ee73d31b7fd5177bf8fa77',
    ('torus', 'minimal', 2): '1ca5302fe5c90db305b22fe67f6decaa0ff92cce922614db9a9cf20fe54bbbf2',
    ('torus', 'minimal', 8): 'a72edd442947b6692bd6f7677b94d82c7359d284511cb9415e09e28757d27bd2',
    ('torus', 'ugal', 1): '91cdba3978c6768ca46f122514d2b90a556f90b1fa13792538eeaaad24461e7b',
    ('torus', 'ugal', 2): '15af325eaf2ffd14d41f6eda2d04828c367ce777e3dd9bf2e61c771e9536819c',
    ('torus', 'ugal', 8): '5dcc2a695dd5ab576a3c53f6148a3c874571420036943d756e08cdcd4c7d3ac0',
    ('fattree-2level-tapered', 'minimal', 1): 'ff42e158a3871679f834b7a079f667332e413fc303e84eee4bd5a74369e191c7',
    ('fattree-2level-tapered', 'minimal', 2): 'ff8a15f34140cfe93583bf11a04057cf6de28f3fc9a1a14ed5d884f2f511eaed',
    ('fattree-2level-tapered', 'minimal', 8): 'd7b8d0acfea8ff8a1f03da9cf62ea5c2eea424a500c31a2b5239f5fa1e4138fe',
    ('fattree-2level-tapered', 'ugal', 1): '81054af6823ae93f7c559654b0b54e5526170d58cc003f6a2ce72116ed9219f6',
    ('fattree-2level-tapered', 'ugal', 2): '281bcce7688e44e6f53ba6f6af93c079e1bccece107aaa229a0dbc957654b1e6',
    ('fattree-2level-tapered', 'ugal', 8): 'aeabbedc30bbe5ff793170d34b91b9ced1232c0d047d9c80b9f41d40db824e22',
    ('dragonfly', 'minimal', 1): 'cdad7e95a8cbc1b084f52462138b51929062edb1022e035c7a18fd61b41ddd46',
    ('dragonfly', 'minimal', 2): '282a064b26523becfccdfd5ba10b8ee8639ea8cae1395eecf2b5992c1235ae4c',
    ('dragonfly', 'minimal', 8): '4225da91fd02cbad49cf15b638bc5a5377e443266e326c13c809d489ca825995',
    ('dragonfly', 'ugal', 1): '828373db6858e8d72643f433c42263dc2443b6476d010df7f0fb0913efa8c1f9',
    ('dragonfly', 'ugal', 2): 'd4ce161bf3e73eb09bdf89d7c54caf932a836ef49dc0d62c7571001ab54d28a5',
    ('dragonfly', 'ugal', 8): 'c032710607cad8ab74a886315855d1150cfca4b410173af5c59ead93899ab87f',
    ('hyperx', 'minimal', 1): 'bfa4228e213bc00e110fb79e7de06754bb10ee92755eaab67709c641cddf2b3b',
    ('hyperx', 'minimal', 2): 'c0f8bb9e94e841ab35893f098077244816947dae2a02faba3f2fe6af337c5d33',
    ('hyperx', 'minimal', 8): '88bd585739a833449dc3ba564adb0a4a8ab043c72a57190909409dbdc4ce4a66',
    ('hyperx', 'ugal', 1): 'da3d4db79ba722f6c0a973bd3f01fcb1f3ea91ed28c5d047613d964bdaa32b19',
    ('hyperx', 'ugal', 2): 'd45cd584ddfb1a5842cc16749bcb0951f5869ae2496726ae47f05c466b01b30d',
    ('hyperx', 'ugal', 8): '70bc3c72bb1c8b90741f55fa695d73dfe7ae1880bf1da7f377ae70d8edd9cbd0',
}


@pytest.mark.parametrize("dead", [1, 2, 8])
@pytest.mark.parametrize("policy", ["minimal", "ugal"])
@pytest.mark.parametrize("name", DEGRADED_TOPOLOGIES)
def test_degraded_route_table_digest(name, policy, dead):
    """Every connected pair's routes under ``dead`` sampled cable faults."""
    topo = _topology(name)
    src, dst = _all_pairs(topo, NUM_SOURCES if policy == "minimal" else 2)
    faults = sample_link_faults(topo, dead, seed=0)
    table = degraded_route_table(topo, faults, max_paths=4, policy=policy)
    ok, _ = split_connected(table, list(zip(src.tolist(), dst.tolist())))
    digest = _table_digest(table, src[ok], dst[ok])
    assert digest == DEGRADED_DIGESTS[(name, policy, dead)]


#: (topology, dead nodes): a dead board or switch disconnects the pairs
#: with a dead endpoint, and detour phases through it raise
NODE_FAULT_CASES = (("hx2mesh-4x4", "board"), ("fattree-2level-tapered", "switch"),
                    ("dragonfly", "switch"))

#: (topology, policy) -> sha256 of the degraded table's stored routes of
#: every connected pair under the node faults of ``NODE_FAULT_CASES``,
#: recorded before Valiant detours and fault-filtered routes were built in
#: blocks
NODE_FAULT_DIGESTS = {
    ('hx2mesh-4x4', 'minimal'): 'ca66667efcef26bfe21c979f808c890e8131fe3820a7e4468e4f33c79f55ce6b',
    ('hx2mesh-4x4', 'valiant'): '0b8ffd956e669ae823e6bc1959c9be19fd19cd563dab69b6dc30810decb62da5',
    ('hx2mesh-4x4', 'ugal'): 'b772d89c4fde3de2ef456e39594152a7e532cff058a38c415d84ead83f9f50e8',
    ('fattree-2level-tapered', 'minimal'): '61a83c0e5d861720a940ba337e39b0bef93ec93c68cc0b0d30ba8f24b834b49a',
    ('fattree-2level-tapered', 'valiant'): 'f56533c0978ff3caed3448e8a9894afa08868c286d22447c98d8e63d415ad131',
    ('fattree-2level-tapered', 'ugal'): '710a8aa84d67d54690715c7e374543afac63eb59a917ec3203a2fb4e491edba1',
    ('dragonfly', 'minimal'): 'f79fcec70be53f68ba86634da560f745f969bbdcbcbce2b873c9fd5ee6a90dfb',
    ('dragonfly', 'valiant'): '54c4d80f1437c9a552f6bd7827652b8876cfc66a7fe9bac41d0a12eb05c99349',
    ('dragonfly', 'ugal'): '796bc80fb6578d8f4c103a5f785e10b77e555f7285a3e546f6a338334f00ef21',
}


def _node_faults(topo, kind):
    if kind == "board":
        return board_fault_set(topo, [(1, 1)])
    return sample_switch_faults(topo, 1, seed=0)


@pytest.mark.parametrize("policy", ["minimal", "valiant", "ugal"])
@pytest.mark.parametrize("name,kind", NODE_FAULT_CASES)
def test_node_fault_route_table_digest(name, kind, policy):
    topo = _topology(name)
    src, dst = _all_pairs(topo, 2)
    table = degraded_route_table(topo, _node_faults(topo, kind), max_paths=4, policy=policy)
    ok, dead = split_connected(table, list(zip(src.tolist(), dst.tolist())))
    assert dead
    assert _table_digest(table, src[ok], dst[ok]) == NODE_FAULT_DIGESTS[(name, policy)]


_CLUSTER_CASES = [
    (name, max_paths)
    for name in CLUSTER_TOPOLOGIES
    for max_paths in (4, 8)
]


@pytest.mark.parametrize("name,max_paths", _CLUSTER_CASES)
def test_cluster_route_digest(name, max_paths):
    """Sampled sources to every accelerator on cluster-sized HxMeshes.

    The 4,096-endpoint mesh samples half as many sources.
    """
    topo = _topology(name)
    table = RouteTable(topo, max_paths=max_paths)
    num_sources = NUM_SOURCES // 2 if topo.num_accelerators > 1024 else NUM_SOURCES
    digest = _table_digest(table, *_all_pairs(topo, num_sources))
    assert digest == CLUSTER_DIGESTS[(name, max_paths)]


_ROUTER_CASES = [
    ("hx2mesh-4x4", 2, 8),
    ("hxmesh-a3b2-3x3", 1, 8),
    ("hx2mesh-multilevel", 2, 16),
]


@pytest.mark.parametrize("name,slack,max_paths", _ROUTER_CASES)
def test_router_digest_with_slack(name, slack, max_paths):
    """Near-minimal candidates (``minimal_slack``) keep their exact order."""
    topo = _topology(name)
    router = HxMeshRouter(topo, minimal_slack=slack)
    h = hashlib.sha256()
    for s, d in zip(*_all_pairs(topo)):
        for path in router.paths(int(s), int(d), max_paths=max_paths):
            h.update(np.asarray(path, dtype=np.int64).tobytes())
            h.update(b"|")
        h.update(b"#")
    assert h.hexdigest() == ROUTER_DIGESTS[(name, slack, max_paths)]


# ----------------------------------------------------------- batched population
def _batch(topo, seed):
    """Pairs with duplicates, spread over many source shards."""
    rng = np.random.default_rng(seed)
    accs = np.asarray(topo.accelerators, dtype=np.int64)
    src = rng.choice(accs, 300)
    dst = rng.choice(accs, 300)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    # repeat a block of pairs later in the same call
    return np.concatenate([src, src[40:90]]), np.concatenate([dst, dst[40:90]])


def _counter_values():
    return obs.counter("routing.pair_hits").value, obs.counter("routing.pair_misses").value


@pytest.mark.parametrize("route_batch", [None, 7])
@pytest.mark.parametrize("prerouted", [False, True])
@pytest.mark.parametrize("name", ["hx2mesh-4x4", "fattree-3level"])
def test_batched_population_matches_per_pair(name, prerouted, route_batch, monkeypatch):
    if route_batch is not None:  # appends split across many batches
        monkeypatch.setattr(routing, "_ROUTE_BATCH", route_batch)
        monkeypatch.setattr(routing, "_ARRAY_BATCH", route_batch)
    topo = _topology(name)
    src, dst = _batch(topo, seed=5)
    pre_src, pre_dst = _batch(topo, seed=6)
    batched = RouteTable(topo, max_paths=4)
    single = RouteTable(topo, max_paths=4)
    if prerouted:  # some pairs of the batch are routed before it, by an earlier call
        batched.pair_arrays(pre_src[:60], pre_dst[:60])
        batched.pair_arrays(src[100:120], dst[100:120])
        for s, d in zip(np.concatenate([pre_src[:60], src[100:120]]),
                        np.concatenate([pre_dst[:60], dst[100:120]])):
            single.pair_arrays(np.array([s]), np.array([d]))

    before = _counter_values()
    first, npaths = batched.pair_arrays(src, dst)
    batched_delta = tuple(b - a for a, b in zip(before, _counter_values()))
    before = _counter_values()
    per_pair = [single.pair_arrays(np.array([s]), np.array([d])) for s, d in zip(src, dst)]
    single_delta = tuple(b - a for a, b in zip(before, _counter_values()))

    assert np.array_equal(first, np.concatenate([f for f, _ in per_pair]))
    assert np.array_equal(npaths, np.concatenate([c for _, c in per_pair]))
    assert batched_delta == single_delta
    assert batched_delta[0] > 0 and batched_delta[1] > 0
    assert (batched.stats.hits, batched.stats.misses) == (single.stats.hits, single.stats.misses)
    # arrays grow to the capacities per-pair appends reach
    assert batched.estimated_csr_bytes() == single.estimated_csr_bytes()
    assert _table_digest(batched, src, dst) == _table_digest(single, src, dst)


def _grown(arr, size, keep):
    out = np.zeros(size, dtype=arr.dtype)
    out[:keep] = arr[:keep]
    return out


def _append_one_pair(arrays, paths, weights):
    """Reference: the per-pair CSR append that batched population replaced."""
    offsets, links, wts, num, used = arrays
    need = num + len(paths)
    if need + 1 > len(offsets):
        offsets = _grown(offsets, max(need + 1, 4 * len(offsets)), num + 1)
    if need > len(wts):
        wts = _grown(wts, max(need, 4 * max(len(wts), 16)), num)
    total = used + sum(len(p) for p in paths)
    if total > len(links):
        links = _grown(links, max(total, 4 * max(len(links), 16)), used)
    wts[num : num + len(paths)] = weights
    for path in paths:
        links[used : used + len(path)] = path
        used += len(path)
        num += 1
        offsets[num] = used
    return [offsets, links, wts, num, used]


def test_append_csr_matches_per_pair_reference():
    """Contents, path ids and array capacities equal per-pair appends."""
    rng = np.random.default_rng(11)
    ref = [np.zeros(1, np.int64), np.zeros(0, np.int64), np.zeros(0), 0, 0]
    offsets, links, weights, num = ref[0], ref[1], ref[2], 0
    for size in (1, 3, 40, 2, 700, 5, 90):
        batch = []
        for _ in range(size):
            k = int(rng.integers(1, 9))
            paths = [rng.integers(0, 10**6, int(rng.integers(0, 13))).tolist() for _ in range(k)]
            batch.append(RouteSet(paths, [1.0 / k] * k, k))
        firsts = []
        for routes in batch:
            firsts.append(ref[3])
            ref = _append_one_pair(ref, routes.paths, routes.weights)
        offsets, links, weights, got = routing._append_csr(
            offsets, links, weights, num, route_block(batch)
        )
        num = ref[3]
        assert got.tolist() == firsts
        for mine, theirs in zip((offsets, links, weights), ref[:3]):
            assert len(mine) == len(theirs) and np.array_equal(mine, theirs)



def test_switch_endpoints_fall_back_to_bfs(hx2mesh_4x4):
    """Pairs the router cannot route (a switch endpoint) are routed by BFS
    and spliced into the block in pair order."""
    topo = hx2mesh_4x4
    accs, (switch, other) = topo.accelerators, topo.switches[:2]
    src = np.array([accs[0], switch, accs[1], accs[7], accs[2]])
    dst = np.array([accs[5], accs[3], accs[1], other, accs[60]])
    provider = HxMeshPathProvider(topo)
    got = csr_to_path_lists(*provider.paths_block(src, dst, 4))
    assert got == [provider.paths(int(s), int(d), 4) for s, d in zip(src, dst)]
    bfs = GenericPathProvider(topo)
    assert got[1] == bfs.paths(switch, accs[3], 4)
    assert got[3] == bfs.paths(accs[7], other, 4)


class _NoPathFor:
    """An HxMesh provider under which one pair has no path: it gets no
    paths, or its routing raises."""

    def __init__(self, topo, missing, array_routes, raises):
        self.topo, self.base, self.missing = topo, HxMeshPathProvider(topo), missing
        self.array_routes, self.raises = array_routes, raises

    def paths(self, src, dst, max_paths=4):
        if (src, dst) != self.missing:
            return self.base.paths(src, dst, max_paths)
        if self.raises:
            raise TopologyError("unroutable pair")
        return []

    def paths_block(self, src, dst, max_paths=4):
        lists = csr_to_path_lists(*self.base.paths_block(src, dst, max_paths))
        pairs = list(zip(src.tolist(), dst.tolist()))
        if self.raises and self.missing in pairs:
            raise TopologyError("unroutable pair")
        return path_lists_to_csr([[] if p == self.missing else l for p, l in zip(pairs, lists)])


@pytest.mark.parametrize("raises", [False, True])
@pytest.mark.parametrize("array_routes", [True, False])
@pytest.mark.parametrize("prerouted", [False, True])
def test_pair_without_path_raises_after_earlier_pairs_are_stored(raises, array_routes, prerouted):
    topo = _topology("hx2mesh-4x4")
    accs = topo.accelerators
    src, dst = np.array(accs[0:4]), np.array(accs[9:13])
    provider = _NoPathFor(topo, (accs[2], accs[11]), array_routes, raises)
    table = RouteTable(topo, max_paths=4, provider=provider)
    if prerouted:  # the call then hits its first pair and routes the second
        table.pair_slice(accs[0], accs[9])
    message = "unroutable pair" if raises else f"no path between nodes {accs[2]} and {accs[11]}"
    with pytest.raises(TopologyError, match=message):
        table.pair_arrays(src, dst)
    assert table.num_pairs_routed == 2
    assert table.stats.misses == 2
    assert table.stats.hits == int(prerouted)
    reference = RouteTable(topo, max_paths=4)
    assert _table_digest(table, src[:2], dst[:2]) == _table_digest(reference, src[:2], dst[:2])


# ------------------------------------------------------- interleaved lookups
_LOOKUPS = ("pair_arrays", "pair_minimal_counts", "pair_slice", "paths", "pair_path_lists")


def _lookup(table, op, pairs, max_paths):
    """One lookup call over ``pairs``: the whole batch, or one pair per call."""
    src, dst = (np.array(side, dtype=np.int64) for side in zip(*pairs))
    if op == "pair_arrays":
        first, count = table.pair_arrays(src, dst)
        return list(zip(first.tolist(), count.tolist()))
    if op == "pair_minimal_counts":
        return table.pair_minimal_counts(src, dst).tolist()
    extra = () if op == "pair_slice" else (max_paths,)
    return [getattr(table, op)(*pair, *extra) for pair in pairs]


def _alone(table, op, pairs, max_paths):
    """The same lookups made for one pair at a time, stopping at an error;
    ``paths`` stands in for the memoized ``pair_path_lists``."""
    op = "paths" if op == "pair_path_lists" else op
    out = []
    for pair in pairs:
        out += _lookup(table, op, [pair], max_paths)
    return out


def _outcome(call):
    try:
        return call()
    except TopologyError as err:
        return str(err)


@settings(max_examples=60, deadline=None)
@given(
    calls=st.lists(
        st.tuples(
            st.sampled_from(_LOOKUPS),
            st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=7),
        ),
        min_size=1,
        max_size=8,
    ),
    max_paths=st.sampled_from([None, 2]),
)
def test_interleaved_lookups_match_one_pair_lookups(calls, max_paths):
    """Any sequence of lookups -- duplicates, ``src == dst`` and a pair
    without a path included -- stores the same paths under the same ids,
    and counts the same hits, misses and routed pairs, as looking every
    pair up alone."""
    topo = _topology("hx2mesh-4x4")
    accs = topo.accelerators
    nodes = [accs[0], accs[2], accs[5], accs[11], topo.switches[0]]
    provider = _NoPathFor(topo, (accs[2], accs[11]), array_routes=True, raises=False)
    table = RouteTable(topo, max_paths=4, provider=provider)
    alone = RouteTable(topo, max_paths=4, provider=provider)
    for op, picks in calls:
        pairs = [(nodes[a], nodes[b]) for a, b in picks]
        got = _outcome(lambda: _lookup(table, op, pairs, max_paths))
        assert got == _outcome(lambda: _alone(alone, op, pairs, max_paths)), op
        assert (table.stats.hits, table.stats.misses) == (alone.stats.hits, alone.stats.misses)
        assert table.num_pairs_routed == alone.num_pairs_routed
    routed = np.arange(table._num_paths)
    assert table._num_paths == alone._num_paths
    for got, want in zip(table.gather_links(routed), alone.gather_links(routed)):
        assert np.array_equal(got, want)
    fresh = RouteTable(topo, max_paths=4)
    for key, first, count in zip(*(a.tolist() for a in (table._keys, table._first, table._npaths))):
        src, dst = divmod(key, topo.num_nodes)
        stored = [table._links[table._offsets[p] : table._offsets[p + 1]].tolist()
                  for p in range(first, first + count)]
        if src != dst:
            assert stored == fresh.paths(src, dst)
