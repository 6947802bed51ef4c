"""Golden digests of max-min solves: solver changes must be bit-identical.

Every cold and warm max-min entry point of :class:`FlowSimulator` is run on
the five routing-policy study families under all four routing policies, and
each result's ``flow_rates``, ``link_utilization`` and ``bottleneck_link``
are hashed.  The expected digests were recorded before the three cold
progressive-filling loops (solo, dense batch, sparse batch) were folded into
one kernel, so any change to a single rate bit fails here.

The solves cover both sides of the old batch density gate: full random
permutations load most links, 8-rank slabs load only a few.

Run ``python tests/test_maxmin_digest.py`` to print the table afresh.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Dict, Iterable, List

import numpy as np
import pytest

from repro.analysis.figures import _routing_policy_topo
from repro.sim import (
    Flow,
    FlowSimulator,
    anneal_adversary,
    random_permutation,
    swap_destinations,
)

FAMILIES = ("hx2mesh", "torus", "dragonfly", "hyperx", "fattree_tapered")
POLICIES = ("minimal", "ecmp", "valiant", "ugal")
MAX_PATHS = 4


def _digest(results: Iterable) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(np.ascontiguousarray(r.flow_rates, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(r.link_utilization, dtype=np.float64).tobytes())
        h.update(int(r.bottleneck_link).to_bytes(8, "little", signed=True))
    return h.hexdigest()


def _weighted(flows: List[Flow], seed: int) -> List[Flow]:
    """The same endpoints with demands drawn from {0, 0.5, 1, 2}."""
    rng = np.random.default_rng(seed)
    demands = rng.choice([0.0, 0.5, 1.0, 2.0], size=len(flows))
    return [Flow(f.src, f.dst, float(d)) for f, d in zip(flows, demands)]


def _slab_sets(p: int, slab: int = 8, scenarios: int = 4) -> List[List[Flow]]:
    """Job-local scenarios: a shifted ring inside each small rank slab."""
    sets = []
    for s in range(scenarios):
        ranks = [(s * slab + i) % p for i in range(slab)]
        sets.append(
            [Flow(r, ranks[(i + 1 + s) % slab]) for i, r in enumerate(ranks)]
        )
    return sets


@lru_cache(maxsize=None)
def solve_digests(family: str, policy: str) -> Dict[str, str]:
    """Digest of every solve kind for one (family, policy) pair."""
    topo = _routing_policy_topo(family)
    sim = FlowSimulator(topo, max_paths=MAX_PATHS, policy=policy)
    p = topo.num_accelerators
    perm = random_permutation(p, seed=1)
    weighted = _weighted(perm, seed=2)
    out = {
        "solo": _digest([sim.maxmin_rates(perm), sim.maxmin_rates(weighted)]),
        "batch_full": _digest(
            sim.maxmin_rates_batch(
                [random_permutation(p, seed=s) for s in (3, 4, 5)] + [weighted]
            )
        ),
        "batch_slab": _digest(sim.maxmin_rates_batch(_slab_sets(p))),
    }
    state = sim.maxmin_warm_state(weighted)
    out["warm_state"] = _digest([state.result])
    # Small moves (served warm where the policy allows it) and a whole new
    # permutation (always the exact cold fallback).
    cands = [
        swap_destinations(weighted, 0, p // 2),
        swap_destinations(weighted, 3, p - 1),
        _weighted(random_permutation(p, seed=6), seed=7),
    ]
    out["delta_batch"] = _digest(
        d.result
        for d in sim.maxmin_rates_delta_batch(state, cands + [list(weighted)])
    )
    res = anneal_adversary(sim, steps=12, batch=4, seed=3)
    summary = hashlib.sha256(
        repr(
            (
                res.best_objective.hex(),
                res.seed_objective.hex(),
                res.steps,
                res.accepted,
                res.warm_evals,
                res.cold_evals,
                [(f.src, f.dst) for f in res.best_flows],
            )
        ).encode()
    )
    out["anneal"] = summary.hexdigest()
    return out


#: (family, policy) -> solve kind -> sha256
MAXMIN_DIGESTS: Dict[tuple, Dict[str, str]] = {
    ('hx2mesh', 'minimal'): {
        'solo': '1546099fdadce7f2944ba993217ba52e606a430ede53949ed31febd403b5a47f',
        'batch_full': '87489e4f3671da8247a9fe695e40e16097dbf0feca821f243b9300b71a9a3d5f',
        'batch_slab': '8f62e3bdf9f79fa55d90121489d08f4037e2d91b1c1246d6912ba86b7b9e2066',
        'warm_state': '59a029402984ac046448f2d0ecb7958437ddbf24bc5f90d5e41dd137221e4c2d',
        'delta_batch': '10eb5ed2dc9dfed4471ea41a4cc7d8e3f87f201081e2e91278a8c371e45f4f3c',
        'anneal': '7017cf5cff02fdae528a82706632eeef523b1063ed98cccb6161a394993ec8b4',
    },
    ('hx2mesh', 'ecmp'): {
        'solo': 'f8cdc9b7e011f2f98cd73ef8808697b0545b453389deb23bbd393f79ddcf5892',
        'batch_full': '5d16d7f9f57ce420e8b46b4f65bea64a321386613672c29b457ebc7d2bd49228',
        'batch_slab': '43f0dbccf93d6a8a013eb1a60328e1d74d253c99a38b7620b045b3f014a994d2',
        'warm_state': '2565a37667fbf2f2c2e2ca3364aa773765eeac0bcfc32743a2f80b9a8d44ac08',
        'delta_batch': '1409e1a66185466e2428f8e54c4a161d055e774981a93989a3ca3832714a9332',
        'anneal': '3766a68fcbf955f1046cca125443e890eb638a3a28fc14132c1d5af1e2ec342c',
    },
    ('hx2mesh', 'valiant'): {
        'solo': '77617195c19976b92ce08a732b558229e9c1ecc01c06b596ce787c6917536283',
        'batch_full': '4b3ac557907f0e095de82aa3f148ae142b0eb7c3a55897161ca2506ee26ddacf',
        'batch_slab': '5a1ac5263e711e79e3b5f5d1f5020afa28c50be10e71874eda0bcfca98eeb148',
        'warm_state': '285db8c6f793a97891432b44d881cf993f863be901dc2dc31c09cc2fad5231d6',
        'delta_batch': '3fb45ec5b6d9a3d821a74b86713f487198b1ec042b268981e08cf3a0c7b17536',
        'anneal': 'dcf79d8343b5317bfd4c3f1f9bde66cbe5379c69d926aae98ab94e2cb9e8593b',
    },
    ('hx2mesh', 'ugal'): {
        'solo': 'cb0521e38cf1accab55dfddaf63ac7d0ce6ab526b2138ccc6458bea96c5e9a19',
        'batch_full': '64a7e060d786d3b1a80513c863df9136e2c33ea504c3f2949556655564854e8f',
        'batch_slab': '11b7aead5ae60b9a60a48df2654403b30a67ffca0f3116b5dc8af46d57dc48ac',
        'warm_state': '59a029402984ac046448f2d0ecb7958437ddbf24bc5f90d5e41dd137221e4c2d',
        'delta_batch': '51f616e958f92a50c20b25237fdccbd69755460fed36e79ccbe81d9da01ed2d0',
        'anneal': '1e215cf916ea3e0d635d6a48aafe65ecf703d7453c83c7e2a402e68f7f086b5f',
    },
    ('torus', 'minimal'): {
        'solo': 'e136323f7d538f53aca36ec9ce2ead8d083e691ebd566c3df6a5c4fc39d580b5',
        'batch_full': '20d5561432fa45bc126adfac31c0aa3b45c14a491a08428e9f6b1b2e730560cf',
        'batch_slab': '572680dc3d5c6173d3d15796c278b463fdfad1a9d264c08edf719d157312ff5b',
        'warm_state': 'e80be50041ce10211b255042c804462eeb939a281e5b927ee571b0fbeaaee234',
        'delta_batch': '9d78ae76917d93f1faf763f93340810889884f45898aad6bb09b46e7b023ca37',
        'anneal': '8242360c636e587507df6b802cdc597edf271dfd18c4001c75bfb37af1a09ee6',
    },
    ('torus', 'ecmp'): {
        'solo': '5c321199bb12d1adf9e57c513ae3a9b3df8a0bcd5f7b80d587c5d9b8ab226bfd',
        'batch_full': '59e05c905059455e7e7f335baf426233c8966233f0212a88e93da35348ba6890',
        'batch_slab': 'c3b67abed14e12d67334087bf687ffc9aa007739f2f41049a5296691f5ea679d',
        'warm_state': '1daa1bb9e0fae92be82489bf26e5b73a5168acbb4d3ad49bd8ad721e7d07e249',
        'delta_batch': '5a4c54a00bffa834971590d2194729520b05de3f9e19da72617603e721165aee',
        'anneal': 'f6697a1c37fe827dff98a5dc9b35daa2b25df1f2353aa8bb3b1417ef0834777a',
    },
    ('torus', 'valiant'): {
        'solo': '92b63e402f2a30e8d32222216c8049b758711ae61f740b5359087f3d9cc5a575',
        'batch_full': '71d844e9d156dd61537bbaa305ce9d40a6fbc4f8e31a404baeb2cd4c2dc07631',
        'batch_slab': '1cdfc1ed928bb2502d10e31e9cae98e1e49622aada8995cec2686f389675c257',
        'warm_state': '47b57230f07d446ba71b12f28e3e532a0f56e675a7e75b1f2f0507bf5af4a9c1',
        'delta_batch': '753a1df73e1fa07155996313a8e9c2f313221d0e7496de33ca745338d1cdcaac',
        'anneal': 'e50f9bbd8c8618730ab8881c445ab99d13cdc9a7f15b10a94d599d8278c8f181',
    },
    ('torus', 'ugal'): {
        'solo': '55b3f28e8b807d7c5fb45d10515269cc465b965a9b92bafdee71be21e50774b7',
        'batch_full': '2a363415f3ef394c703e92a090f42bed18f0119a49285977502fa4da619a1592',
        'batch_slab': '629f39151b792f851556813c5dfb05a9f8e84748978e3eb3142c4191a59c3d46',
        'warm_state': '2109627ac63f096144a052bb15190f21e0d8b48f8e9bea070d0b1fba531d7364',
        'delta_batch': '4ad4d6cdc7a8b45a2a164566e1b8cd47dcee75a5c1e0ca65135d6ff68335d9db',
        'anneal': 'ce0f783aaf4f016bab164441d8bcbcc618dda7e7477a1fdc0f5c111ddea5358c',
    },
    ('dragonfly', 'minimal'): {
        'solo': 'f2384c73ea30b4151ecbebcfc38a0fe5b6e270ede8ee61bcc093799119eadd47',
        'batch_full': 'd7e06178d4b8044ddeaf54440ec640178600b1777b78bc6e7b5ab71a05d847b5',
        'batch_slab': '9b7fb668ee5724acb11dca3921d81a8add1e4c2bcd35e886b293c641c843302b',
        'warm_state': 'dfd0a2a41e0e1f60f83910b27deca89dae06471bdcaea08f9a70d06b8c2cadad',
        'delta_batch': '8dcb457ac2c1b612a659821403e58c1e7a1a207d85cd548b96cbf4252849c165',
        'anneal': '1ea98fe026e7e71c403a123046719f0940268673e94adfe9ac105f1eb529215d',
    },
    ('dragonfly', 'ecmp'): {
        'solo': 'ba0063aaf9942695e995dcd9720b9f6c7343e42bec749b7129115d4efe7c1c68',
        'batch_full': 'b9b8051ded75484ba71876fe010545cb2af66a5c152a05f92789fc7777fd2e56',
        'batch_slab': '9b7fb668ee5724acb11dca3921d81a8add1e4c2bcd35e886b293c641c843302b',
        'warm_state': 'c4c7191e3ee605d2e786faa980fb89a01bcc7c5b03cb556f99c3154aab142df7',
        'delta_batch': '073a86885d6112e1fcfae637fc5fa3dc4aead58754ec134ed7cda01a2fa55150',
        'anneal': 'ad739c7a96cb4ae4eaec17dae1f0a794e5e4f076b79612409e7c8adb5eacb563',
    },
    ('dragonfly', 'valiant'): {
        'solo': 'd4479da9234543a5a4822159a4a6247b75b1c4736d3cf03b35b009a24b6ad2c3',
        'batch_full': '6a60066d2070171e086d4db1783ce3a6eb62acf05a9a814fa22bf37ab68b8391',
        'batch_slab': 'd582590ca99b287e33e4a8bdd0d1a9a9d7fa038b309a0becd5e2ca85a529bccd',
        'warm_state': '9f702c1f3f6d0643306a56e111314ef5e80129a49505d3bea81340028d0db4e5',
        'delta_batch': 'ca52c2ff37a4c23c0ff94c0f01ebf107706036fb9bbd7d301026e1a98d34ac61',
        'anneal': '07c8f107fcec71445d9b3fa87eb43f66d31d9d92b8032ec5b617a49c62f34ef7',
    },
    ('dragonfly', 'ugal'): {
        'solo': '1a4b0e17514f8e6163a4b93eb4c376ce2978227f14d74b664aacaed1e44e95fe',
        'batch_full': '9809be32b279f1a6db8c1ea5f3ae2352cbd78f0a2bfe32f9a2791944dbc58beb',
        'batch_slab': 'eb4923d8665b70ed39ae12a8f54a8efd77de951f660f1a0877fc9d644a1cd1a3',
        'warm_state': 'a97b59d296ecb60ae7e0d59d3d4d511c1406fe05abfbc63cfd32801520b52a11',
        'delta_batch': 'dba69d97128936980121dd97fe28b25f805ebb28c8ad89c381d88e5e76a850d3',
        'anneal': '8e6f5bd65e0f6540050c909dc3c61768cc72291ef60da4ce320e18606a5d83ef',
    },
    ('hyperx', 'minimal'): {
        'solo': '0bf966ef83d536ffce773012750889a2e7dd1afcd7b3c5a56a112673edbd17dc',
        'batch_full': 'a86a39fcfc96dd9421de42110774fcb62310cf1fc7acd236e793360bf92e00b5',
        'batch_slab': 'cb59f91a56fd550d4b0a4a9a7edf8182f4c7a4cde86d389b641c3223bf04b67b',
        'warm_state': '1c590c3521b585310f9e46d132c22c4c2e20b1e464b61893139605e21286c5c0',
        'delta_batch': 'fad25c987c03c2d0bf0bd59ee9145f65573c00b45588eaf12f845b47d9edc6af',
        'anneal': '2f8d34e1d71d9a7a52b6e8159151e393af2e9bfe5d967b10398831783cbb75b9',
    },
    ('hyperx', 'ecmp'): {
        'solo': '8e9d8392d74337eb7b31a02c102f368cec2cd2b49d95857e1e489d84bb653740',
        'batch_full': '36cd8b569981ddf291abddfffcd5666a961808d01382520d7ec3f30e20f65abb',
        'batch_slab': 'cb59f91a56fd550d4b0a4a9a7edf8182f4c7a4cde86d389b641c3223bf04b67b',
        'warm_state': '40d58e5fdbf23a0f66da3e3ce9212b1d4217cf3733cff25307542e7631bfc9d1',
        'delta_batch': '9a6075f2865988965de7cc462be7864bbcd63f6f652857d2119fa8a4018f5d3e',
        'anneal': '2f8d34e1d71d9a7a52b6e8159151e393af2e9bfe5d967b10398831783cbb75b9',
    },
    ('hyperx', 'valiant'): {
        'solo': '7c85a0ebf88031e81aa23b8182d6d3b4c513c152800d91a636ba5a0e32ce6313',
        'batch_full': '25af34027dac879ebae6116b7b216ff95bce19f0941456781952926a6d5e3e23',
        'batch_slab': '5a56943bca042e0d9d43773c16701871c51939432ffca91a274f6aed0d05c1f4',
        'warm_state': '4087febe1fa58dfac38393707a3b3dd4beda6c36ef360195b94250f0ca11472e',
        'delta_batch': 'bc0794efd3782e6cc0ae2014edb822c5432cc8dc5d1ee9ae955bbd57ec1fa06c',
        'anneal': 'c3b7ec4a29017cabcd8db639dc158c4dfedc86599a841ca085e4275630acdec8',
    },
    ('hyperx', 'ugal'): {
        'solo': 'f08a93cea8a98ba266dbb045b76d1e6e48d7288e91001371ba11b000a3279051',
        'batch_full': '28eaac490230386a5aef292103b814806ce4cc73600a793ed18485c45d45cfdf',
        'batch_slab': '1b5bef1c35740d8cf5f2e5a17c51d62a671b02abcd7fcf9911994c46f41fc8d5',
        'warm_state': '00c3fc095170e0b35df8c41e01b3d03f8e5f0566e04a79addb964a61139a52cc',
        'delta_batch': 'f23e47232e11e64ea53a29d6f367974141411984d39371afec0bdaff66000e1b',
        'anneal': 'ac4aad9c7171c1e204441856845f9c53b2391fd3b2dd82383294fcb7b616bb63',
    },
    ('fattree_tapered', 'minimal'): {
        'solo': '7b8d23b6df06e0c5a7526a38be64b86f97cc8554ac04eae87f69e44330150007',
        'batch_full': 'e23089c8a031fec4b5e36b8a8b7c98ae898303b696cc7faf5339b4b6f8a46245',
        'batch_slab': 'df1423e901924ba89fc23d63215a3d6be197014269b6c2dc8b0ff94cef5e4175',
        'warm_state': '735c55620302bfbf1e7e58efc7e8175fa9e68045deb2beb2272f08be0d11f7cc',
        'delta_batch': '0cc6b00c3f7ee65ace90c81567e5271a321e610199894948c1d040de29c687e7',
        'anneal': 'ecebda563afde557792dae449d506daf3a9abccc8a88cc6f34b6b18241019f2f',
    },
    ('fattree_tapered', 'ecmp'): {
        'solo': '7b8d23b6df06e0c5a7526a38be64b86f97cc8554ac04eae87f69e44330150007',
        'batch_full': 'e23089c8a031fec4b5e36b8a8b7c98ae898303b696cc7faf5339b4b6f8a46245',
        'batch_slab': 'df1423e901924ba89fc23d63215a3d6be197014269b6c2dc8b0ff94cef5e4175',
        'warm_state': '735c55620302bfbf1e7e58efc7e8175fa9e68045deb2beb2272f08be0d11f7cc',
        'delta_batch': '0cc6b00c3f7ee65ace90c81567e5271a321e610199894948c1d040de29c687e7',
        'anneal': 'ecebda563afde557792dae449d506daf3a9abccc8a88cc6f34b6b18241019f2f',
    },
    ('fattree_tapered', 'valiant'): {
        'solo': '75d26c93a693695b94ea777350d3327282d471ca65a3c73fe50955564f8efd79',
        'batch_full': '37d2c33732e760b75a356cf1a71c2d19fcec259df8a5f449874a728f2137535f',
        'batch_slab': '21cabdce4577efe20f4996f6b920b0c8a66252cf94aa929791d24b087da8136c',
        'warm_state': 'd44c7d250c201b305f7fc42831153030e653ef2a42efd3c953d9d50e6e6e9363',
        'delta_batch': 'b6776276aad88e7321d37f3e41b03a21f875bb030470697a529f96c543925f97',
        'anneal': 'b95741b1943c0f083904842ba7fc5cc2f1a418b4d880f892e500ae277c9652c1',
    },
    ('fattree_tapered', 'ugal'): {
        'solo': '510fb0fa416762fe7d666f7a9df04a3fa40b9c725613dd6bfafeba8d9e273655',
        'batch_full': 'f87a4e5656411a3acbeb1356193c44655377583308779c7d961263e230c068b1',
        'batch_slab': 'df1423e901924ba89fc23d63215a3d6be197014269b6c2dc8b0ff94cef5e4175',
        'warm_state': '6613de2cdbcd56bd1e32379a2f685ed7c5b2649052714cb511e02464b3fff64d',
        'delta_batch': '4f02c0eb038ca4e34b9fb960378dc573b936d9a58a6e41e3ce423e1605f40253',
        'anneal': '992253be87196cc78b4b0a57890ec6e363b5297990a6bddcf68ca433652f2f51',
    },
}


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("family", FAMILIES)
def test_maxmin_digest(family, policy):
    expected = MAXMIN_DIGESTS[(family, policy)]
    got = solve_digests(family, policy)
    wrong = sorted(k for k in expected if got.get(k) != expected[k])
    assert not wrong, f"{family}/{policy}: solves changed: {wrong}"
    assert sorted(got) == sorted(expected)


if __name__ == "__main__":
    print("MAXMIN_DIGESTS: Dict[tuple, Dict[str, str]] = {")
    for fam in FAMILIES:
        for pol in POLICIES:
            print(f"    ({fam!r}, {pol!r}): {{")
            for k, v in solve_digests(fam, pol).items():
                print(f"        {k!r}: {v!r},")
            print("    },")
    print("}")
