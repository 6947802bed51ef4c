"""Golden digests of packet schedules: simulator changes must be bit-identical.

:class:`PacketNetwork` runs on an Hx2Mesh, a fat tree and a Dragonfly under
the ``minimal`` and ``ugal`` policies, and every run's per-message
completion times, per-link busy times, finish time, engine event counts,
fault counters and :meth:`PacketNetwork.packet_state` are hashed.  The runs
cover fractional message sizes, staggered starts, ``run(max_events=...)``
budgets that stop inside a bucket and then resume, scheduled link faults
that drop, retransmit and lose packets, and the sampled drive used while
observability is on.  :class:`ReferencePacketNetwork` has no fault model,
so for faulted schedules these digests are the only oracle.

The expected digests were recorded before the packet core's forwarding
paths were folded into its one drive loop.

Run ``python tests/test_packet_digest.py`` to print the table afresh.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Callable, Dict

import numpy as np
import pytest

import repro.obs as obs
import repro.sim.network as netmod
from repro.core import build_hammingmesh
from repro.sim import (
    Flow,
    FaultSet,
    PacketNetwork,
    PacketSimConfig,
    random_permutation,
)
from repro.sim.faults import cable_partner, fault_candidate_links
from repro.topology import build_dragonfly, build_fat_tree

FAMILIES = ("hx2mesh", "fattree", "dragonfly")
POLICIES = ("minimal", "ugal")
MAX_PATHS = 4
#: ``run(max_events=...)`` budgets: inside the t=0 injection bucket, and
#: inside later hop buckets
BUDGETS = (10, 200, 333)


@lru_cache(maxsize=None)
def _topo(family: str):
    if family == "hx2mesh":
        return build_hammingmesh(2, 2, 4, 4)
    if family == "fattree":
        return build_fat_tree(64, radix=16, taper=0.5)
    return build_dragonfly(
        4, routers_per_group=4, endpoints_per_router=2, global_links_per_router=2
    )


def _update(h, net: PacketNetwork, result) -> None:
    """Hash one run's observable outcome into ``h``."""
    done = [
        np.nan if m.completion_time is None else m.completion_time
        for m in result.messages
    ]
    h.update(np.asarray(done, dtype=np.float64).tobytes())
    h.update(np.asarray([m.packets_arrived for m in result.messages], dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(result.link_busy_time, dtype=np.float64).tobytes())
    h.update(
        repr(
            (
                float(result.finish_time).hex(),
                net.engine.now.hex(),
                net.engine.processed_events,
                net.engine.pending_events,
                result.packets_dropped,
                result.packets_retried,
                result.packets_lost,
            )
        ).encode()
    )
    state = net.packet_state()
    for key in sorted(state):
        h.update(key.encode())
        h.update(np.ascontiguousarray(state[key]).tobytes())


def _net(family: str, policy: str) -> PacketNetwork:
    return PacketNetwork(
        _topo(family), config=PacketSimConfig(max_paths=MAX_PATHS, policy=policy)
    )


def _permutation(net: PacketNetwork) -> None:
    net.send_flows(random_permutation(len(net.ranks), seed=7), 1 << 15)


def _fractional(net: PacketNetwork) -> None:
    p = len(net.ranks)
    flows = [Flow(i, (i + 5) % p, demand=1.0 + 0.3 * (i % 7)) for i in range(p)]
    net.send_flows(flows, 10000.5)


def _staggered(net: PacketNetwork) -> None:
    p = len(net.ranks)
    for i in range(24):
        net.send(i, (i + 7) % p, 4096.0 * (1 + i % 4) + 0.25, start_time=1e-7 * (i % 5))


def _digest_of(family: str, policy: str, load: Callable[[PacketNetwork], None]) -> str:
    h = hashlib.sha256()
    net = _net(family, policy)
    load(net)
    _update(h, net, net.run())
    return h.hexdigest()


def _cut_and_resume(family: str, policy: str) -> str:
    """Each budget stops mid-run; the state at the cut and the resumed run
    are hashed."""
    h = hashlib.sha256()
    for budget in BUDGETS:
        net = _net(family, policy)
        _permutation(net)
        _update(h, net, net.run(max_events=budget))
        _update(h, net, net.run())
    return h.hexdigest()


def _faulted(family: str, policy: str) -> str:
    """Two fabric cables and one accelerator die mid-run.

    The cables are the first fault candidates that packets in flight at the
    fault time still have to cross, so packets are dropped and
    retransmitted on a surviving path; packets bound for the dead
    accelerator, in flight or injected after the fault, are lost.  The run
    is hashed whole, and stopped by a budget and resumed.
    """
    topo = _topo(family)
    victim = 2

    def load() -> PacketNetwork:
        net = _net(family, policy)
        p = len(net.ranks)
        for i in range(p):
            if i != victim:
                net.send(i, victim if i in (0, 9) else (i + 7) % p, 65536.5)
        return net

    t_fault = 0.3 * load().run().finish_time
    probe = load()
    probe.run(until=t_fault)
    state = probe.packet_state()
    ahead = set()
    for start, hop, end in zip(state["path_start"], state["hop"], state["path_end"]):
        ahead.update(state["path_links"][start + hop : end].tolist())
    cables = [
        li
        for li in fault_candidate_links(topo, seed=0)
        if li in ahead or cable_partner(topo, li) in ahead
    ][:2]
    node = FaultSet.from_nodes(topo, [topo.accelerators[victim]])
    h = hashlib.sha256()
    for budget in (None, 150):
        net = load()
        net.schedule_link_faults(t_fault, cables)
        net.schedule_link_faults(t_fault, node)
        net.send(0, victim, 20000.0, start_time=2 * t_fault)
        if budget is not None:
            _update(h, net, net.run(max_events=budget))
        result = net.run()
        assert result.packets_retried > 0 and result.packets_lost > 0
        _update(h, net, result)
    return h.hexdigest()


def _sampled(family: str, policy: str) -> str:
    """The permutation and a cut run, driven in 64-event sampled slices."""
    chunk, was_enabled = netmod._SAMPLE_CHUNK, obs.is_enabled()
    netmod._SAMPLE_CHUNK = 64
    obs.enable()
    try:
        h = hashlib.sha256()
        net = _net(family, policy)
        _permutation(net)
        _update(h, net, net.run())
        net = _net(family, policy)
        _staggered(net)
        _update(h, net, net.run(max_events=BUDGETS[-1]))
        _update(h, net, net.run())
        return h.hexdigest()
    finally:
        netmod._SAMPLE_CHUNK = chunk
        if not was_enabled:
            obs.disable()


@lru_cache(maxsize=None)
def packet_digests(family: str, policy: str) -> Dict[str, str]:
    """Digest of every run kind for one (family, policy) pair."""
    return {
        "permutation": _digest_of(family, policy, _permutation),
        "fractional": _digest_of(family, policy, _fractional),
        "staggered": _digest_of(family, policy, _staggered),
        "cut_resume": _cut_and_resume(family, policy),
        "faults": _faulted(family, policy),
        "sampled": _sampled(family, policy),
    }


#: (family, policy) -> run kind -> sha256
PACKET_DIGESTS: Dict[tuple, Dict[str, str]] = {
    ('hx2mesh', 'minimal'): {
        'permutation': '048bb09985612fcb578f79eb3d5ade7c56377bf0f897513b2ae0ac06b96805de',
        'fractional': 'c990985c31578e0c01ca67e81c2d2f989367ef35526cba26ae8e4ef9e0b2a210',
        'staggered': 'dcb04875cbae83c2381d053d9e15925a21e048acace48fdbd6cdd7cd062c1f62',
        'cut_resume': '13dd57a043267d03fdd97b644d35f74906dc2f040f6260abc3a21f98931e828b',
        'faults': 'daa049033f0bb20dcc4d2900e5b51a45b5df3dd10c8d05ac611e810df0bc121a',
        'sampled': '2903b4067933fb47b86655ce420ea1794c261a7d48722477f80b719677da261b',
    },
    ('hx2mesh', 'ugal'): {
        'permutation': '6ec14e4537711f9f57da025a5899ddd4b3b43ffedd0ce14af753aecb02e6a2f1',
        'fractional': '0c39f137b35f649982b487ea67669b238375d5f442305a6279315ef633dc3218',
        'staggered': '03b8a3c29ef54167fa59d48ef78cfdee4f7e260c808a5cce9a84d2394a954f10',
        'cut_resume': 'e55f081e0285b47c0840fd38be94a3f8c5d63c6af7f179f98af98ce5e696cfed',
        'faults': 'a3391920df3594b50b6a879d7b29075729501150f152a708fdb5e6047630f296',
        'sampled': 'f9e73fbce651c6d4c2811fdedc7124886c4420a33f6c9186eafde6c45394569b',
    },
    ('fattree', 'minimal'): {
        'permutation': '23b569b7161259f58c30e3dd514bab18fefdd9a8da5bd3b4094b04a2f0bba21b',
        'fractional': '210710a0508aba137f39d4f1b3bc2b398ecb22debde973e88ce05d3cbd790ea1',
        'staggered': '34c8a86c32f72e26ba6913a8dd8be2756ba5b82509bfb4de1018b878d2a61b90',
        'cut_resume': '6203eecbdaeb95bd2a39476c722d57516688277d3f79e9e4d2433c1dee1fdd92',
        'faults': '9c64b3513b653e5a4a625a456291f4724cfb600fd556c5bd5c284fe00079e10a',
        'sampled': '0341f54423e7aed8eb24a0377d12d3d9ce665d99bb784569ac06697a9160b3ef',
    },
    ('fattree', 'ugal'): {
        'permutation': 'c9ef3ac0a91799427af9399f55cdd6f1c0dc8ba67e6f8d9e36f95efa46ffff4a',
        'fractional': '4b4b030a3e9edaf0f57237b5080ca4a135b162c6298e03bdcd477ef0d1bab222',
        'staggered': '99bff7114394ad521fd30f5d1f3c7ab85802ca4aa9850ed08b29d67859d1c10f',
        'cut_resume': '1b8412554f6372a61a08778eb51c45bda723073be2fc239596420298b6fda8b8',
        'faults': '1abfa4008b0377bdbe9a472868cf3a3cd5b30c6090d1773f389fc6055391e075',
        'sampled': '65cf90c19ee7652a479d2f5ae4d873714ab7e2a13362ee85f8320ee6e3ae5d2f',
    },
    ('dragonfly', 'minimal'): {
        'permutation': '33cc0ab9b67ea4a41fdd416b9b122cdc47dab9e3b113d22e5d33cfb503db6e9b',
        'fractional': '0046ad3679ca3ca2e50fc221afcdd6bcbd6b4fcdcc651dc3ff55af11b778a508',
        'staggered': '7ad7033afc226412f087c1794e71d5195296a4d4fe75fe037c25fe30e8eab271',
        'cut_resume': '2e130e6635ce349d5acef353ec31fbc9cb9f33018fc2d3083029b2f8cc826aba',
        'faults': '0d95b13727ecb173c21b3668e89112fe6bfebebd882c27dfbc7714b9e408d7e9',
        'sampled': 'bf578c0d5908b32494b3161b498434f30b08529c00d186b9567e18a580d8fc0c',
    },
    ('dragonfly', 'ugal'): {
        'permutation': '18d94a2bfd1a7dc8abe1451b37362f56efe674d3ad62e7a1c64eb31822db21df',
        'fractional': 'ced3a002f925a5a9612ddefcbffc7929712e992467e082dc5cf793db6a19b802',
        'staggered': 'e530e9835314eaafa6c6543a43728ada98d1730465c202b1ce20dba960ad4479',
        'cut_resume': '0a83d25a3d8e34e5154cd95ade4c4b14af0276e52a01b99ffcc35a63ca30cdce',
        'faults': '5ea4a897bfa4c0ae40939dc009c6d951ec445c0e96dbd3831ac9c672d514c35a',
        'sampled': '193d15955db9699d98b71e06a9b64bb7891b6dd6d724e54b1985be2fe269b778',
    },
}


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("family", FAMILIES)
def test_packet_digest(family, policy):
    expected = PACKET_DIGESTS[(family, policy)]
    got = packet_digests(family, policy)
    wrong = sorted(k for k in expected if got.get(k) != expected[k])
    assert not wrong, f"{family}/{policy}: packet schedules changed: {wrong}"
    assert sorted(got) == sorted(expected)


@pytest.mark.parametrize("budget", BUDGETS)
def test_budget_stops_inside_a_bucket(budget):
    """Each digest budget stops inside a bucket of simultaneous records:
    the rest of that bucket is still on the calendar at the stop time."""
    net = _net("hx2mesh", "minimal")
    _permutation(net)
    net.run(max_events=budget)
    assert net._rtimes[0] == net.engine.now


if __name__ == "__main__":
    print("PACKET_DIGESTS: Dict[tuple, Dict[str, str]] = {")
    for fam in FAMILIES:
        for pol in POLICIES:
            print(f"    ({fam!r}, {pol!r}): {{")
            for k, v in packet_digests(fam, pol).items():
                print(f"        {k!r}: {v!r},")
            print("    },")
    print("}")
