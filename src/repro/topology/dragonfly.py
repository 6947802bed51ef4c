"""Canonical Dragonfly baseline topology (Kim et al. 2008).

The paper compares HammingMesh against full-bandwidth Dragonfly networks
built from 64-port switches with the canonical balance ``a = 2p = 2h``
(Section III-D / Appendix C): ``a`` routers per group, ``p`` endpoints per
router, ``h`` global links per router, all-to-all local links inside a group
and (close to) uniformly distributed global links between groups.

As for the other baselines, the four identical network planes are collapsed
into a single simulated plane whose links carry 4x capacity, so every
accelerator has a total injection bandwidth of 4.0 units (1.6 Tb/s).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

import numpy as np

from .base import CableClass, NodeKind, Topology, TopologyError, bulk_build, register_topology

__all__ = ["build_dragonfly", "dragonfly_small", "dragonfly_large"]


@register_topology("dragonfly")
@bulk_build()
def build_dragonfly(
    num_groups: int,
    *,
    routers_per_group: int = 16,
    endpoints_per_router: int = 8,
    global_links_per_router: int = 8,
    link_capacity: float = 4.0,
    plane_count: int = 4,
) -> Topology:
    """Build a Dragonfly with ``num_groups`` groups.

    ``meta`` records the router/group structure and the global-link table
    used by the Dragonfly path provider (minimal local-global-local routing
    with multipath over parallel group-to-group channels).
    """
    a = routers_per_group
    p = endpoints_per_router
    h = global_links_per_router
    g = num_groups
    if g < 2:
        raise TopologyError("a Dragonfly needs at least two groups")
    if a < 2:
        raise TopologyError("a Dragonfly group needs at least two routers")

    topo = Topology(f"dragonfly-g{g}-a{a}-p{p}-h{h}")

    # router (gi, ri) followed by its endpoints, group by group
    cells = list(itertools.product(range(g), range(a)))
    first = topo.add_nodes(
        [NodeKind.SWITCH, *[NodeKind.ACCELERATOR] * p] * len(cells),
        [label for gi, ri in cells
         for label in (f"df-g{gi}-r{ri}", *(f"acc-g{gi}-r{ri}-e{ei}" for ei in range(p)))],
        [attrs for gi, ri in cells
         for attrs in ({"group": gi, "router": ri},
                       *({"group": gi, "router": ri, "endpoint": ei} for ei in range(p)))],
    )
    node = first + np.arange(len(cells) * (p + 1)).reshape(g, a, p + 1)
    router = node[:, :, 0]
    accs = node[:, :, 1:].ravel()
    acc_sw = np.repeat(router.ravel(), p)
    li = topo.add_links(
        np.stack([accs, acc_sw], 1), capacity=link_capacity, cable=CableClass.DAC, tag="df-access"
    )
    acc_router = dict(zip(accs.tolist(), acc_sw.tolist()))
    fwd = (li + 2 * np.arange(len(accs))).tolist()
    access_links = dict(zip(accs.tolist(), zip(fwd, [f + 1 for f in fwd])))
    routers = router.tolist()
    router_group = dict(zip(router.ravel().tolist(), np.repeat(np.arange(g), a).tolist()))

    # Local links: all-to-all within each group (DAC inside the group).
    i, j = np.triu_indices(a, 1)
    pairs = np.stack([router[:, i], router[:, j]], -1).reshape(-1, 2)
    up = topo.add_links(pairs, capacity=link_capacity, cable=CableClass.DAC, tag="df-local")
    ends = np.stack([pairs, pairs[:, ::-1]], 1).reshape(-1, 2).T.tolist()
    ids = up + np.arange(2 * len(pairs))
    local_links: Dict[Tuple[int, int], Tuple[int, int]] = dict(
        zip(zip(*ends), zip(ids.tolist(), ids.reshape(-1, 2)[:, ::-1].ravel().tolist()))
    )

    # Global links: each group owns a*h global channels distributed as evenly
    # as possible over the other g-1 groups (the q-th channel to the
    # (q mod g-1)-th other group); channel endpoints are assigned to routers
    # round-robin.  ``group_links[(g1, g2)]`` lists the physical
    # router-to-router channels between the two groups (both orders stored).
    per, extra = divmod(a * h, g - 1)
    gi, k = np.arange(g)[:, None], np.arange(g - 1)
    directed = np.zeros((g, g), dtype=np.int64)
    directed[gi, k + (k >= gi)] = per + (k < extra)
    # Every channel was counted from both sides; two ports make one cable.
    count = directed + directed.T
    g1, g2 = np.nonzero(np.triu(count, 1))
    cables = np.maximum(1, count[g1, g2] // 2)
    ends = np.stack([np.repeat(g1, cables), np.repeat(g2, cables)], 1)
    # a channel end's port: how many earlier channel ends its group has
    flat = ends.ravel()
    order = np.argsort(flat, kind="stable")
    port = np.empty_like(flat)
    port[order] = np.arange(len(flat)) - np.searchsorted(flat[order], flat[order])
    chan = router[flat, port % a].reshape(-1, 2)
    up = topo.add_links(chan, capacity=link_capacity, cable=CableClass.AOC, tag="df-global")
    group_links: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}
    for (c1, c2), (r1, r2), li in zip(ends.tolist(), chan.tolist(), range(up, up + 2 * len(chan), 2)):
        group_links.setdefault((c1, c2), []).append((r1, r2, li))
        group_links.setdefault((c2, c1), []).append((r2, r1, li + 1))

    topo.meta.update(
        family="dragonfly",
        num_groups=g,
        routers_per_group=a,
        endpoints_per_router=p,
        global_links_per_router=h,
        routers=routers,
        acc_router=acc_router,
        router_group=router_group,
        local_links=local_links,
        group_links=group_links,
        access_links=access_links,
        plane_count=plane_count,
        injection_capacity=link_capacity,
    )
    topo.validate()
    return topo


def dragonfly_small(**kwargs) -> Topology:
    """The paper's ~1k-accelerator Dragonfly: a=16, p=8, h=8, 8 groups."""
    return build_dragonfly(
        8, routers_per_group=16, endpoints_per_router=8, global_links_per_router=8,
        **kwargs,
    )


def dragonfly_large(**kwargs) -> Topology:
    """The paper's ~16k-accelerator Dragonfly: a=32, p=17, h=16, 30 groups."""
    return build_dragonfly(
        30, routers_per_group=32, endpoints_per_router=17, global_links_per_router=16,
        **kwargs,
    )
