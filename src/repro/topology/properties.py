"""Structural property analysis: diameter, bisection, cable/switch census.

These reproduce the analytic columns of Table II (network diameter counted in
cables, relative bisection bandwidth) and Section III-A/B of the paper.  Two
flavours are provided: closed-form per-family formulas (used for the large
configurations) and exact graph computations (BFS diameter, dimension-cut
bisection) used to validate the formulas on small instances in the tests.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, Iterable, Optional

from .base import CableClass, NodeKind, Topology, TopologyError

__all__ = [
    "analytic_diameter",
    "bfs_diameter",
    "relative_bisection_bandwidth",
    "cable_census",
    "switch_count",
    "fat_tree_global_stage",
]


# --------------------------------------------------------------------- helpers
def fat_tree_global_stage(ports: int, radix: int) -> int:
    """Cable count contributed by one dimension's global network.

    Per Section III-B the per-dimension contribution to the HxMesh diameter is
    ``2 * (ceil(log_{k/2}(q / k)) + 1)`` cables, where ``q`` is the number of
    endpoints of that dimension's tree and ``k`` the switch radix.  A single
    switch (``q <= k``) contributes 2 cables (in and out).
    """
    if ports <= 0:
        raise TopologyError("ports must be positive")
    if ports <= radix:
        return 2
    levels = math.ceil(math.log(ports / radix, radix / 2))
    return 2 * (max(levels, 0) + 1)


# --------------------------------------------------------------------- diameter
def analytic_diameter(topo: Topology) -> int:
    """Closed-form network diameter in cables, per topology family.

    Matches the derivations of Section III-B: fat trees count the endpoint
    cables (diameter 4 for two levels, 6 for three), the torus uses the
    Manhattan distance of the farthest wrap-around pair, Dragonfly is 3 when
    every router reaches every other group directly and 5 otherwise, and
    HammingMesh combines on-board hops with two global-tree traversals.
    """
    family = topo.meta.get("family")
    if family == "fattree":
        # Up/down path through an L-level tree: L cables up, L cables down
        # (including the endpoint cables), i.e. 4 for two levels, 6 for three.
        network = topo.meta["network"]
        return 2 * network.levels
    if family == "torus":
        rows, cols = topo.meta["rows"], topo.meta["cols"]
        return rows // 2 + cols // 2
    if family == "dragonfly":
        g = topo.meta["num_groups"]
        h = topo.meta["global_links_per_router"]
        return 3 if h >= g - 1 else 5
    if family == "hyperx":
        # acc -> switch -> (row hop) -> (column hop) -> switch -> acc
        return 4
    if family == "hammingmesh":
        params = topo.meta["params"]
        board = 2 * ((params.a - 1) // 2 + (params.b - 1) // 2)
        row = fat_tree_global_stage(params.row_ports, params.radix) if params.x > 1 else 0
        col = fat_tree_global_stage(params.col_ports, params.radix) if params.y > 1 else 0
        return board + row + col
    raise TopologyError(f"no analytic diameter for family {family!r}")


def bfs_diameter(topo: Topology, sources: Optional[Iterable[int]] = None) -> int:
    """Exact accelerator-to-accelerator diameter in cables by BFS.

    ``sources`` restricts the BFS roots (all accelerators by default); the
    result is the maximum over the selected sources of the eccentricity with
    respect to all accelerators.  Intended for small topologies and tests.
    """
    if sources is None:
        sources = topo.accelerators
    link_dst = topo.link_dst
    best = 0
    for src in sources:
        dist = [-1] * topo.num_nodes
        dist[src] = 0
        q = deque([src])
        while q:
            u = q.popleft()
            for li in topo.out_links(u):
                v = link_dst[li]
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    q.append(v)
        for acc in topo.accelerators:
            if dist[acc] < 0:
                raise TopologyError(f"accelerator {acc} unreachable from {src}")
            if dist[acc] > best:
                best = dist[acc]
    return best


# -------------------------------------------------------------------- bisection
def relative_bisection_bandwidth(topo: Topology) -> float:
    """Bisection bandwidth as a fraction of total injection bandwidth.

    * Fat tree: the taper factor (1.0 when nonblocking).
    * Dragonfly (full bandwidth): ~1.0 by construction.
    * 2D torus with C columns of accelerators and per-port capacity c:
      cutting the longer dimension cuts ``2 * rows`` links against
      ``rows*cols/2`` accelerators injecting 4c each.
    * HammingMesh with square a x a boards: ``1 / (2a)`` (Section III-A).
    """
    family = topo.meta.get("family")
    if family == "fattree":
        return float(topo.meta.get("taper", 1.0))
    if family in ("dragonfly", "hyperx"):
        return 1.0
    if family == "torus":
        rows, cols = topo.meta["rows"], topo.meta["cols"]
        long_dim, short_dim = max(rows, cols), min(rows, cols)
        # Cut perpendicular to the long dimension: 2 wrap directions per row
        # of the short dimension.
        cut_links = 2 * short_dim
        half_injection = (rows * cols / 2) * 4.0
        return cut_links / half_injection * 1.0
    if family == "hammingmesh":
        params = topo.meta["params"]
        # Cut the y-dimension links of half the boards: a links per board per
        # direction -> 2a per board column crossing, x*a links total per
        # board row... following Section III-A's derivation for square
        # boards the relative bisection bandwidth is 1/(2a); for rectangular
        # boards we use the dimension actually cut.
        a = params.a if params.a == params.b else max(params.a, params.b)
        return 1.0 / (2.0 * a)
    raise TopologyError(f"no bisection model for family {family!r}")


# ----------------------------------------------------------------------- census
def cable_census(topo: Topology) -> Dict[CableClass, int]:
    """Number of physical bidirectional cables per cable class (one plane)."""
    return {c: topo.cable_count(c) for c in CableClass}


def switch_count(topo: Topology) -> int:
    """Number of external switches in the simulated plane."""
    return topo.num_switches
