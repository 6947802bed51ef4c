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

from typing import Dict, List, Tuple

from .base import CableClass, Topology, TopologyError, register_topology

__all__ = ["build_dragonfly", "dragonfly_small", "dragonfly_large"]


@register_topology("dragonfly")
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

    routers: List[List[int]] = []
    acc_router: Dict[int, int] = {}
    router_group: Dict[int, int] = {}
    for gi in range(g):
        group_routers: List[int] = []
        for ri in range(a):
            sw = topo.add_switch(f"df-g{gi}-r{ri}", group=gi, router=ri)
            group_routers.append(sw)
            router_group[sw] = gi
            for ei in range(p):
                acc = topo.add_accelerator(
                    f"acc-g{gi}-r{ri}-e{ei}", group=gi, router=ri, endpoint=ei
                )
                acc_router[acc] = sw
        routers.append(group_routers)
    li = topo.add_links(
        acc_router.items(), capacity=link_capacity, cable=CableClass.DAC, tag="df-access"
    )
    access_links: Dict[int, Tuple[int, int]] = {}
    for acc in acc_router:
        access_links[acc] = (li, li + 1)
        li += 2

    # Local links: all-to-all within each group (DAC inside the group).
    local_links: Dict[Tuple[int, int], Tuple[int, int]] = {}
    pairs = [(grp[i], grp[j]) for grp in routers for i in range(a) for j in range(i + 1, a)]
    up = topo.add_links(pairs, capacity=link_capacity, cable=CableClass.DAC, tag="df-local")
    for r1, r2 in pairs:
        local_links[(r1, r2)] = (up, up + 1)
        local_links[(r2, r1)] = (up + 1, up)
        up += 2

    # Global links: each group owns a*h global channels distributed as evenly
    # as possible over the other g-1 groups; channel endpoints are assigned to
    # routers round-robin.  ``group_links[(g1, g2)]`` lists the physical
    # router-to-router channels between the two groups (both orders stored).
    group_links: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}
    total_channels = a * h
    # Desired number of channels between every unordered pair of groups.
    pair_count: Dict[Tuple[int, int], int] = {}
    for gi in range(g):
        others = [x for x in range(g) if x != gi]
        for q in range(total_channels):
            peer = others[q % len(others)]
            key = (min(gi, peer), max(gi, peer))
            pair_count[key] = pair_count.get(key, 0) + 1
    # Every channel was counted from both sides; two ports make one cable.
    next_port = [0] * g  # round-robin router assignment per group
    channels: List[Tuple[int, int, int, int]] = []  # (g1, g2, r1, r2)
    for (g1, g2), cnt in sorted(pair_count.items()):
        cables = max(1, cnt // 2)
        for _ in range(cables):
            r1 = routers[g1][next_port[g1] % a]
            r2 = routers[g2][next_port[g2] % a]
            next_port[g1] += 1
            next_port[g2] += 1
            channels.append((g1, g2, r1, r2))
    up = topo.add_links(
        [(r1, r2) for _, _, r1, r2 in channels],
        capacity=link_capacity, cable=CableClass.AOC, tag="df-global",
    )
    for g1, g2, r1, r2 in channels:
        group_links.setdefault((g1, g2), []).append((r1, r2, up))
        group_links.setdefault((g2, g1), []).append((r2, r1, up + 1))
        up += 2

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
