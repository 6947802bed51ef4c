"""Golden digests of the traffic generators: flow order must be bit-identical.

Every generator of :mod:`repro.sim.traffic` and the ring steady-state flows
of :mod:`repro.collectives.ring` are run on the small topologies of the
route digests (the cluster-sized HammingMeshes for the Table II
generators: sampled alltoall phases and dual rings), and the
``(src, dst, demand)`` arrays of every returned flow
set are hashed in order.  The expected digests were recorded while the
generators still built lists of :class:`~repro.sim.Flow` records, so a
change of representation that reorders, drops or re-types a single flow
fails here.  Only the ``Sequence[Flow]`` protocol (``len`` and iteration)
is used to read the flows.

Run ``python tests/test_traffic_digest.py`` to print the table afresh.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Dict, Iterable, Sequence

import numpy as np
import pytest

from repro.collectives import dual_ring_steady_flows, ring_orders_for
from repro.sim import (
    Flow,
    adversarial_permutation,
    alltoall_phase,
    nearest_neighbor_2d_flows,
    random_permutation,
    sampled_alltoall_phases,
    swap_destinations,
    uniform_pair_sample,
)
from test_route_digest import CLUSTER_TOPOLOGIES, TOPOLOGIES


def _update(h, flows: Sequence[Flow]) -> None:
    """Hash one flow set: its length, then its three columns."""
    rows = [(f.src, f.dst, f.demand) for f in flows]
    h.update(len(rows).to_bytes(8, "little"))
    h.update(np.array([r[0] for r in rows], dtype=np.int64).tobytes())
    h.update(np.array([r[1] for r in rows], dtype=np.int64).tobytes())
    h.update(np.array([r[2] for r in rows], dtype=np.float64).tobytes())


def _digest(flow_sets: Iterable[Sequence[Flow]]) -> str:
    h = hashlib.sha256()
    for flows in flow_sets:
        _update(h, flows)
    return h.hexdigest()


def _swap_chain(p: int, seed: int, steps: int = 12):
    """A permutation after ``steps`` seeded destination swaps (every step)."""
    rng = np.random.default_rng(seed)
    flows = random_permutation(p, seed=seed)
    out = [flows]
    for _ in range(steps):
        i, j = (int(k) for k in rng.choice(p, size=2, replace=False))
        flows = swap_destinations(flows, i, j)
        out.append(flows)
    return out


def _grid_shape(p: int):
    """The most square ``rows x cols`` factorisation of ``p``."""
    rows = max(r for r in range(1, int(p ** 0.5) + 1) if p % r == 0)
    return rows, p // rows


@lru_cache(maxsize=None)
def generator_digests(name: str) -> Dict[str, str]:
    """Digest of every generator's flow sets on one topology."""
    builder, args, kwargs = TOPOLOGIES[name]
    topo = builder(*args, **kwargs)
    p = topo.num_accelerators
    rows, cols = _grid_shape(p)
    out = {
        "alltoall_phase": _digest(alltoall_phase(p, s) for s in (1, p // 2, p - 1)),
        "random_permutation": _digest(random_permutation(p, seed=s) for s in (0, 1, 2)),
        "adversarial_permutation": _digest([adversarial_permutation(topo)]),
        "dual_ring": _digest([dual_ring_steady_flows(ring_orders_for(topo))]),
        "uniform_pair_sample": _digest(
            [uniform_pair_sample(p, 97, seed=3), uniform_pair_sample(p, 1, seed=[4, 5])]
        ),
        "nearest_neighbor_2d": _digest(
            [
                nearest_neighbor_2d_flows(rows, cols),
                nearest_neighbor_2d_flows(rows, cols, wrap=False),
            ]
        ),
        "swap_chain": _digest(_swap_chain(p, seed=7)),
    }
    for num_phases in (1, 24, 48):
        out[f"sampled_alltoall_{num_phases}"] = _digest(
            sampled_alltoall_phases(p, num_phases, seed=1)
        )
    return out


@lru_cache(maxsize=None)
def cluster_digests(name: str) -> Dict[str, str]:
    """Digest of the Table II generators on one cluster-sized HammingMesh."""
    builder, args, kwargs = CLUSTER_TOPOLOGIES[name]
    topo = builder(*args, **kwargs)
    p = topo.num_accelerators
    out = {
        "adversarial_permutation": _digest([adversarial_permutation(topo)]),
        "dual_ring": _digest([dual_ring_steady_flows(ring_orders_for(topo))]),
    }
    for num_phases in (1, 24, 48):
        out[f"sampled_alltoall_{num_phases}"] = _digest(
            sampled_alltoall_phases(p, num_phases, seed=1)
        )
    return out


#: topology -> generator -> sha256 of its flow sets' (src, dst, demand)
DIGESTS: Dict[str, Dict[str, str]] = {
    'dragonfly': {
        'alltoall_phase': '457538fb2b5a5175b2e95e4ac809f4332ddf0bb2df0ff59cae5b83d63d1a92f2',
        'random_permutation': '96a35987b97f0ce684ca857e2b832573d3d641f4bcb4db5a12083209fe2e2c88',
        'adversarial_permutation': '068504341211e8433796d39d4498dcf89cd243f0910bf88ebec72ad6b2c896de',
        'dual_ring': 'fc9b704a10dae96f98df658d03d448744af0dae280f2f75cbcb9c74cd4756714',
        'uniform_pair_sample': '802879a3a8809eea7f14a2f51eec5e6df0906db8f52c381f754ad5381ebb722a',
        'nearest_neighbor_2d': 'b28c535f005ce1b772a72b0e109faaffefbf58f88c1f83490f4be064d321e0f8',
        'swap_chain': '8ba73fe9d4a08ae01d51435f63eee2606ecba9a2719fc800545ddc1e7ca584a4',
        'sampled_alltoall_1': 'fb1c506d8182171f4525e914c8709ea9c19207d905f14b5917aec20242a0bb03',
        'sampled_alltoall_24': 'c05d070b16a99c516f9f89a4667d8e6588d2ae44c16129948cb22b8274e5fda2',
        'sampled_alltoall_48': '7324e417f14ca0d0f075d2a84bc3ffe306aa28dd7699a165a4ba800940fab6ac',
    },
    'fattree-1level': {
        'alltoall_phase': '953f3ab7c1e19f3349b05fc52a96f2dbaf1b39f7f05ff481d3f567fd8c6647c1',
        'random_permutation': '3fa77e97c76a481f2d065e9d93b56d36633a9f27a35ceb8ccafef9faea3021e7',
        'adversarial_permutation': '2ee1c4c5be713ced682d809e2ba63fdf3cc1c1a021a7498dfb25f7da42d0cddb',
        'dual_ring': '6097d03880c75a38590451451c87186302df09d79f34e2b96498e1509c4ada1d',
        'uniform_pair_sample': '2f85183636127e12e38546f3a8b7f6cb5cea3d880feae3f328da0a0a35add4a2',
        'nearest_neighbor_2d': '764a7d3ebd1d8443b718a9ec2f59d5cfd9bc60fbbc08c581614124caf709ff29',
        'swap_chain': '0562977b857a54fbb5031da100281193a5d9d87e6386039a322cf5c2f0db76bd',
        'sampled_alltoall_1': 'eb3591803071658a3699634117c0c4da58e0fab0641dee191f039162728d0380',
        'sampled_alltoall_24': 'e64170dc6efbfe2b62033e110ef36db2d3901b50291d95202e92e03f775e959d',
        'sampled_alltoall_48': 'e64170dc6efbfe2b62033e110ef36db2d3901b50291d95202e92e03f775e959d',
    },
    'fattree-2level-tapered': {
        'alltoall_phase': '9aed0f225ecd7109024bc2993832d768ebbfc63cf70f2a1ae12fc52c0bed2afc',
        'random_permutation': 'e0a770beaf8e58dc15d1b005c1ab4e1e9b3e27d66112a312d25e766c3e91bb88',
        'adversarial_permutation': 'fe965f7d9585d5a23f8ddeb569252888a82d02b78e32b9bece0f2bb0fae0ca8b',
        'dual_ring': 'e64b29bdb9830285f8ed1c598370d2dd2f4d4174956a7340aab6206834356b16',
        'uniform_pair_sample': 'ee38640b6ad926d94115c3f214f95ea870c8a5ee5206b95d7296ac3eb3d58d43',
        'nearest_neighbor_2d': 'b7af2746cee6c4509fc1bcd99c695cbf826ad5bace3e9baa44cc72964a1eaa82',
        'swap_chain': '19c2ad03507e0893f338a3f342b902379719b058ac071f85b341669d22aefc08',
        'sampled_alltoall_1': '2784991ecd12fe3e2ae36c006b740e52c23b9b62c1d526f5b8a50fcf1a5134a4',
        'sampled_alltoall_24': '8e745e4421c3ade4977ff10464e44f914cbfc882a6b71813041a521bf2a3c981',
        'sampled_alltoall_48': '956c070f01c172b2e3b8c4b9c7782bcb50a36add5b18e90498fb8f2ad4ece91e',
    },
    'fattree-3level': {
        'alltoall_phase': '18b878afbde3734ee1971692ff624916afdecc551b9ae5df67bd6020c1ce2f4b',
        'random_permutation': 'f63e41a4eaab6a9a62bb97da6e8fbc76134b78a8a92a75e297555fd808fe388b',
        'adversarial_permutation': 'bbec80d1db2ef175abcaa5c804bc19cac0aab30fc8f37681d1762e29dfea9859',
        'dual_ring': '2883b2666578bd111ba7dd8e0c543f9e960549e1216bd284592cc2864fde833a',
        'uniform_pair_sample': 'be20bee108f656eb6d10acd88bc1d4e94edda1e12a15c5c5e3625d25ddc7e66c',
        'nearest_neighbor_2d': '7948e1a3f4b7ef1c3193466b3689c3060b75a977d64b9e1bcf627910adb1a418',
        'swap_chain': '2b421a1296389b25734c074df603f5ae2c9bbdefd4e1532e2c9dbccaba0dd45c',
        'sampled_alltoall_1': 'd6e7f0c73af1c4aca266e39a14a5e11ef4c3c7cdcf2a78d8c3ba68e35e457263',
        'sampled_alltoall_24': '6ee4de6a3c189058f2ec26812390b3e1640b06cfc4d60f0625f7b9d199e036f6',
        'sampled_alltoall_48': '5b153b55f140e13899921a48d9dee109aa7b337b1fcd8b296b72f935dfd7fb09',
    },
    'hx1mesh-4x4': {
        'alltoall_phase': '689b9324a9408ebf3ebe0b5b7a256897777bd36ec7a42d7a22b079d241f0c841',
        'random_permutation': '3e60690a424ae4f993e5f1f428bd306fa3c0108c4c5e7afaa7473220b704328e',
        'adversarial_permutation': 'a660e3a9185db4cfb3894d898beb46decc2ecad9d42c8c383e5f3e7c0e9933c2',
        'dual_ring': 'f269f40323f2866aadb36022e7cb7e811e6d76c14c8d82e15779c989e880ec1b',
        'uniform_pair_sample': '79ce7b93c5173d1a5cd06999542b6d54379d91917d057e265b37691260963be7',
        'nearest_neighbor_2d': '7c1d66cbfcdee94e5dfec9f04b4e77b7aab01b632476f6e6bf5b42afbdb2e647',
        'swap_chain': 'b53540f97b161987f2fd9756d651dc11166d6af94820964d834a5e89dd39cc3c',
        'sampled_alltoall_1': '9178de4af4c95122fce2f2005b05f311513be3775c4e338082d9a3c226cef42f',
        'sampled_alltoall_24': 'a64ec76ba0832f848735f3c8e062f1a1c00c49d2994eae2157da82f2d33b1669',
        'sampled_alltoall_48': 'a64ec76ba0832f848735f3c8e062f1a1c00c49d2994eae2157da82f2d33b1669',
    },
    'hx2mesh-4x4': {
        'alltoall_phase': '5e08ab9bf12a6162dcc0fda299184bca567c4e09e3ae880eafbca5ecfd24f9aa',
        'random_permutation': '2cec242f2dd7bbf4baf8d6494cbc5c0d790031c31301d0de0ada062a87bc0b19',
        'adversarial_permutation': '538bef7be9423f8b30d37dbfb0e90f3b53a7624597d1d02a6cdb40dd3e45da15',
        'dual_ring': '2f9f13231952801c1eb4f52f79f3c8ac8a91333678f6e4eb5fbcab5fb9d44561',
        'uniform_pair_sample': '4189e22955ce79ca148e03d9845fa717cae9f556ac6368e13e7cc11859290135',
        'nearest_neighbor_2d': '732a5d6c35f5506a2ed055d7d19835c3489ddfbfe7b1dd9c9fc45b3929212cc0',
        'swap_chain': '51a3bb5eb83913ebba0fe890580c8dda243c6abe040a17f128cde4bb3c7c5c56',
        'sampled_alltoall_1': '59fd2b1bf30056f63278aca2b19222df9624a0852c24338be3a9b273301f0488',
        'sampled_alltoall_24': '20f17f20d38b93f4cad05ea2a4f629bb783c3a22982544aa4774cfbd0d84de67',
        'sampled_alltoall_48': '2628bd722e2d28e63c471b296b1d9445674c35c05248b0956642327a32c20f41',
    },
    'hx2mesh-multilevel': {
        'alltoall_phase': '1eb5197274e145567312027d3f18a4f43da0ec3c06cb374d33d8a95c446f41f0',
        'random_permutation': '81dd474beb1633cec19f79949d699cf1a8ad8f94fda7a40aef80c0f632907202',
        'adversarial_permutation': '2ee1c4c5be713ced682d809e2ba63fdf3cc1c1a021a7498dfb25f7da42d0cddb',
        'dual_ring': '15b41b63fa8d0c24639a4bf0a27f17f207cb16afd096119a9a4eb39b2d022072',
        'uniform_pair_sample': 'f18e03b2fa1a6f3cbf97e05d001469dae83222b4fe6130c6eec543f7782bd8d9',
        'nearest_neighbor_2d': 'fd01bd12eb81ca07d111532bad96aad57fcf246d7b7c2dd858e59b6dc7f5c573',
        'swap_chain': '7582e97b0b64e7198e62d52f4396885d70374499cd759e9a9e953770277080c0',
        'sampled_alltoall_1': '409a82b405687799d78bdf36860b9087c41291a054886f8eae26f70cfaf71870',
        'sampled_alltoall_24': '6bd6bbf5f57f589c3aef8cd486663a00395a530e110e3c45b464f814c0ca2d54',
        'sampled_alltoall_48': '6b289f55e114e4ee709930a26289180c9f5552840e62fb3ce528db8829b3b4f9',
    },
    'hx2mesh-tapered': {
        'alltoall_phase': '457538fb2b5a5175b2e95e4ac809f4332ddf0bb2df0ff59cae5b83d63d1a92f2',
        'random_permutation': '96a35987b97f0ce684ca857e2b832573d3d641f4bcb4db5a12083209fe2e2c88',
        'adversarial_permutation': '538bef7be9423f8b30d37dbfb0e90f3b53a7624597d1d02a6cdb40dd3e45da15',
        'dual_ring': '3a3ffdd6a88ad00b91bd45d7a24c79f391847980c2096efd5c2df268cc3679f1',
        'uniform_pair_sample': '802879a3a8809eea7f14a2f51eec5e6df0906db8f52c381f754ad5381ebb722a',
        'nearest_neighbor_2d': 'b28c535f005ce1b772a72b0e109faaffefbf58f88c1f83490f4be064d321e0f8',
        'swap_chain': '8ba73fe9d4a08ae01d51435f63eee2606ecba9a2719fc800545ddc1e7ca584a4',
        'sampled_alltoall_1': 'fb1c506d8182171f4525e914c8709ea9c19207d905f14b5917aec20242a0bb03',
        'sampled_alltoall_24': 'c05d070b16a99c516f9f89a4667d8e6588d2ae44c16129948cb22b8274e5fda2',
        'sampled_alltoall_48': '7324e417f14ca0d0f075d2a84bc3ffe306aa28dd7699a165a4ba800940fab6ac',
    },
    'hx4mesh-2x3': {
        'alltoall_phase': '0297edbedc6d776c5baad3c97c072494da47e96c421098a24c42ee04daf3cd10',
        'random_permutation': 'f03edf8fa7934bc01cae7c4a977cae8181427f9195ebfa6c231c3f3daa83bbc8',
        'adversarial_permutation': '068504341211e8433796d39d4498dcf89cd243f0910bf88ebec72ad6b2c896de',
        'dual_ring': 'e65cd8941efd4945808d6c2f4e88bee4b7fe717a8e98b22bdab37168ea74c0cd',
        'uniform_pair_sample': '00d005dbcb1219c7b5b4fbff9e8da735aedcce75dcc2c16e9f9087eca5147499',
        'nearest_neighbor_2d': 'b3d9ce29ffe62523bcd8227dc90e37c7e80675b319920e0691532f7ee75601a3',
        'swap_chain': '3b03866c16981b3dff890808dfd87f4409ce648d9adeada4849865bfdbeb86a4',
        'sampled_alltoall_1': '118173738ed8172104e818562d09f664aa01b526de5ed4b62244128d404d0cc3',
        'sampled_alltoall_24': '0488ed054ef1982799994d2f509d82444ef00976a06eee6b55b78de60bbea2e9',
        'sampled_alltoall_48': '5713d2644fc2bd33cc3d392ce27abbf484a58070a3156055b07103876d31e668',
    },
    'hxmesh-a1b3-3x2': {
        'alltoall_phase': '17513da7d4adcd720e5daccbd318ce28f9720e493306246ce785c659e12b6a2e',
        'random_permutation': '1ad93618718334c3cbd2692ae6566e2a5efd44b6ee631486450805e412c135fd',
        'adversarial_permutation': '103c9bf4e6449c451d031bd3714e1a59138b8e11111d410541ba142a72595566',
        'dual_ring': 'd8209f9b571151ff181b1567a683a7cc91f44c90e24cb4fafbc9b99e6fffa358',
        'uniform_pair_sample': '32e9bb9bedaff30d6d689e735641b1a8e9dce4b4f4c526157364be5d9b0518b8',
        'nearest_neighbor_2d': '37de2c6bf004e6653657720894a2aad127ef7b1b0ce5a13727f2d8ecf8fb32ed',
        'swap_chain': '7b01737d0560f698b9a59e8a67128c14f906af85249745b51f2d1b8da1057ec0',
        'sampled_alltoall_1': '8bbec60b744391096107d088d609d8863c2942aa007971c67eb975111b2de1cf',
        'sampled_alltoall_24': 'd5b8e6a121556950a5a47294bf848eabe01622742a8fa8e06fb91aff9ce93133',
        'sampled_alltoall_48': 'd5b8e6a121556950a5a47294bf848eabe01622742a8fa8e06fb91aff9ce93133',
    },
    'hxmesh-a3b2-3x3': {
        'alltoall_phase': '6755db463012e5cfebb5a28a79a0cb0f7a0d69d0cf6c8578faeb98bae85907d9',
        'random_permutation': '8e3e24f49f1a4ee2ec596a851f788afa3e7bdc352be14ceb58da2b63821b567b',
        'adversarial_permutation': '7a9a8320ce437fb8fd73099c6954323c8c01eac7bce5c186c9a4209d30d45792',
        'dual_ring': 'af265b29b4d51782a67033e59fce5852349223cc2cde7dd9133851fd9e773968',
        'uniform_pair_sample': '99d68d7fbdf83f27fac640c9843cb4d8dabba5c577a4e179a3c55b7006f0deba',
        'nearest_neighbor_2d': '86eac60533de36fd32168824dcb43f9dbe779ed05e4a7e09f6c0cdbef59b8dce',
        'swap_chain': 'ea07ddf18d767a116f796a786b055cbcb2ccdc3df739e0007d486a498de9a294',
        'sampled_alltoall_1': '5efd26241131088119d98e6212f61a6551e6b0b10a3a38049ae412d0fbf4b1b5',
        'sampled_alltoall_24': '18448213d08257dabea4c523c5ff83998d7671832246fe749ecda94acc1982b9',
        'sampled_alltoall_48': '5fc9544425689652ff1f1ce259b661aaf79709165eaf9688448e21abc79d9f83',
    },
    'hxmesh-single-row': {
        'alltoall_phase': '689b9324a9408ebf3ebe0b5b7a256897777bd36ec7a42d7a22b079d241f0c841',
        'random_permutation': '3e60690a424ae4f993e5f1f428bd306fa3c0108c4c5e7afaa7473220b704328e',
        'adversarial_permutation': '538bef7be9423f8b30d37dbfb0e90f3b53a7624597d1d02a6cdb40dd3e45da15',
        'dual_ring': 'b364609ed501af0e586befafbad3c03563fc1b50309fe4bf10458c91302b4d7e',
        'uniform_pair_sample': '79ce7b93c5173d1a5cd06999542b6d54379d91917d057e265b37691260963be7',
        'nearest_neighbor_2d': '7c1d66cbfcdee94e5dfec9f04b4e77b7aab01b632476f6e6bf5b42afbdb2e647',
        'swap_chain': 'b53540f97b161987f2fd9756d651dc11166d6af94820964d834a5e89dd39cc3c',
        'sampled_alltoall_1': '9178de4af4c95122fce2f2005b05f311513be3775c4e338082d9a3c226cef42f',
        'sampled_alltoall_24': 'a64ec76ba0832f848735f3c8e062f1a1c00c49d2994eae2157da82f2d33b1669',
        'sampled_alltoall_48': 'a64ec76ba0832f848735f3c8e062f1a1c00c49d2994eae2157da82f2d33b1669',
    },
    'hyperx': {
        'alltoall_phase': '689b9324a9408ebf3ebe0b5b7a256897777bd36ec7a42d7a22b079d241f0c841',
        'random_permutation': '3e60690a424ae4f993e5f1f428bd306fa3c0108c4c5e7afaa7473220b704328e',
        'adversarial_permutation': '40eabceca518c59b63db5ff6d764221c022f559e41ace1f94ee50deeeb9777c6',
        'dual_ring': '5bc80e398a780b34446c6bc56199011e7e2681c5d8a3fc1b06d9d645c921429b',
        'uniform_pair_sample': '79ce7b93c5173d1a5cd06999542b6d54379d91917d057e265b37691260963be7',
        'nearest_neighbor_2d': '7c1d66cbfcdee94e5dfec9f04b4e77b7aab01b632476f6e6bf5b42afbdb2e647',
        'swap_chain': 'b53540f97b161987f2fd9756d651dc11166d6af94820964d834a5e89dd39cc3c',
        'sampled_alltoall_1': '9178de4af4c95122fce2f2005b05f311513be3775c4e338082d9a3c226cef42f',
        'sampled_alltoall_24': 'a64ec76ba0832f848735f3c8e062f1a1c00c49d2994eae2157da82f2d33b1669',
        'sampled_alltoall_48': 'a64ec76ba0832f848735f3c8e062f1a1c00c49d2994eae2157da82f2d33b1669',
    },
    'torus': {
        'alltoall_phase': '5e08ab9bf12a6162dcc0fda299184bca567c4e09e3ae880eafbca5ecfd24f9aa',
        'random_permutation': '2cec242f2dd7bbf4baf8d6494cbc5c0d790031c31301d0de0ada062a87bc0b19',
        'adversarial_permutation': '6278af1fec2c9903fa6bc4a56c2a136386c72d0604fba047420dd27cc329ea1b',
        'dual_ring': '2f9f13231952801c1eb4f52f79f3c8ac8a91333678f6e4eb5fbcab5fb9d44561',
        'uniform_pair_sample': '4189e22955ce79ca148e03d9845fa717cae9f556ac6368e13e7cc11859290135',
        'nearest_neighbor_2d': '732a5d6c35f5506a2ed055d7d19835c3489ddfbfe7b1dd9c9fc45b3929212cc0',
        'swap_chain': '51a3bb5eb83913ebba0fe890580c8dda243c6abe040a17f128cde4bb3c7c5c56',
        'sampled_alltoall_1': '59fd2b1bf30056f63278aca2b19222df9624a0852c24338be3a9b273301f0488',
        'sampled_alltoall_24': '20f17f20d38b93f4cad05ea2a4f629bb783c3a22982544aa4774cfbd0d84de67',
        'sampled_alltoall_48': '2628bd722e2d28e63c471b296b1d9445674c35c05248b0956642327a32c20f41',
    },
}


#: cluster topology -> generator -> sha256
CLUSTER_DIGESTS: Dict[str, Dict[str, str]] = {
    'hx2mesh-16x16': {
        'adversarial_permutation': '2ad2b2ddf178564cfe33acd1b119d6e74f01d9571617c1c2006c36b01b507a02',
        'dual_ring': '70c0abec612ab2741ed085028434db8116cdad3094997f3b11dabb623834896c',
        'sampled_alltoall_1': '3583fca5ed204d797e862acec1f1870956184049ca75f230e443de2d76d3508c',
        'sampled_alltoall_24': 'e1c50a4312f4b00eeed6b659dcd2fa74024e52658dccc2915a08e6b9efdf5a2f',
        'sampled_alltoall_48': 'a5be856cfa6fec07db72c073663a8ff9665c1145e39ebe1c82d03e5040890dd3',
    },
    'hx2mesh-32x32': {
        'adversarial_permutation': 'fe965f7d9585d5a23f8ddeb569252888a82d02b78e32b9bece0f2bb0fae0ca8b',
        'dual_ring': '25f442fee9aef7c34f411734cc6215a9db319ac64dac83036756c9a7fe3d9fb4',
        'sampled_alltoall_1': '964e99aa65486fabcd42bb824e299189a544bc7308ae313551b3f5a3048424ec',
        'sampled_alltoall_24': '5e297ef3d8b1d6e01781610fc4d06edbed9b21f427ea501969f9ca4ec1358411',
        'sampled_alltoall_48': '821fb2bdcbc1fe70b7104cb820ec85362582862f05dbb264f21e1d9b5ae73867',
    },
    'hx4mesh-8x8': {
        'adversarial_permutation': 'fe965f7d9585d5a23f8ddeb569252888a82d02b78e32b9bece0f2bb0fae0ca8b',
        'dual_ring': '9e34613d05b1f7a9efa17e22330e8a372a94eb852465f3b515ccc95f4d912202',
        'sampled_alltoall_1': '3583fca5ed204d797e862acec1f1870956184049ca75f230e443de2d76d3508c',
        'sampled_alltoall_24': 'e1c50a4312f4b00eeed6b659dcd2fa74024e52658dccc2915a08e6b9efdf5a2f',
        'sampled_alltoall_48': 'a5be856cfa6fec07db72c073663a8ff9665c1145e39ebe1c82d03e5040890dd3',
    },
}


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_generator_digests(name):
    assert generator_digests(name) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CLUSTER_TOPOLOGIES))
def test_cluster_generator_digests(name):
    assert cluster_digests(name) == CLUSTER_DIGESTS[name]


def _print_table(title: str, names, digests) -> None:
    print(f"{title}: Dict[str, Dict[str, str]] = {{")
    for name in sorted(names):
        print(f"    {name!r}: {{")
        for key, value in digests(name).items():
            print(f"        {key!r}: {value!r},")
        print("    },")
    print("}")


if __name__ == "__main__":
    _print_table("DIGESTS", TOPOLOGIES, generator_digests)
    _print_table("CLUSTER_DIGESTS", CLUSTER_TOPOLOGIES, cluster_digests)
