"""2D HyperX baseline topology.

The paper's "2D HyperX" comparison point is structurally an Hx1Mesh
(footnote 2), and its *cost* is accounted that way (Appendix C).  Its
*bandwidth*, however, is simulated with SST's switch-based HyperX model in
which dimension-wise fully-connected switches forward traffic directly,
without consuming accelerator ports for transit.  We therefore provide two
constructions:

* :func:`build_hyperx2d` -- a switch-based 2D HyperX (switch grid with
  direct row/column links and ``terminals`` accelerators per switch), used
  by the bandwidth simulations; and
* :func:`build_hx1mesh` -- the Hx1Mesh realisation (row/column switch
  networks, accelerator forwarding), used by the cost model and available
  for experiments on endpoint-forwarding effects.

EXPERIMENTS.md discusses the discrepancy between the two views.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .base import CableClass, Topology, TopologyError, register_topology

__all__ = ["build_hyperx2d", "build_hx1mesh"]


@register_topology("hyperx2d")
def build_hyperx2d(
    x: int,
    y: int,
    *,
    terminals: int = 1,
    access_capacity: float = 4.0,
    link_capacity: float = 1.0,
    plane_count: int = 4,
) -> Topology:
    """Build a switch-based ``x`` x ``y`` 2D HyperX.

    Switches form an ``x`` x ``y`` grid; every switch is directly connected
    to all other switches of its row and of its column, and hosts
    ``terminals`` accelerators.  ``meta`` carries the grid lookups used by
    the HyperX path provider (dimension-ordered minimal routing through at
    most one intermediate switch).
    """
    if x < 2 or y < 2:
        raise TopologyError("a 2D HyperX needs at least 2 switches per dimension")
    if terminals < 1:
        raise TopologyError("terminals per switch must be >= 1")
    topo = Topology(f"hyperx2d-{x}x{y}t{terminals}")

    switch_grid: List[List[int]] = []
    acc_switch: Dict[int, int] = {}
    switch_coord: Dict[int, Tuple[int, int]] = {}
    for r in range(y):
        row: List[int] = []
        for c in range(x):
            sw = topo.add_switch(f"hx-sw[{r},{c}]", coord=(r, c))
            row.append(sw)
            switch_coord[sw] = (r, c)
            for t in range(terminals):
                acc = topo.add_accelerator(f"acc[{r},{c},{t}]", coord=(r, c), terminal=t)
                acc_switch[acc] = sw
        switch_grid.append(row)
    li = topo.add_links(
        acc_switch.items(), capacity=access_capacity, cable=CableClass.DAC, tag="hx-access"
    )
    access_links: Dict[int, Tuple[int, int]] = {}
    for acc in acc_switch:
        access_links[acc] = (li, li + 1)
        li += 2

    # (switch_a, switch_b) -> directed link a->b
    switch_links: Dict[Tuple[int, int], int] = {}

    def wire(pairs: List[Tuple[int, int]], cable: CableClass, tag: str) -> None:
        li = topo.add_links(pairs, capacity=link_capacity, cable=cable, tag=tag)
        for a, b in pairs:
            switch_links[(a, b)] = li
            switch_links[(b, a)] = li + 1
            li += 2

    # Row links (DAC within a row per the Hx1Mesh cost convention).
    wire(
        [(row[c1], row[c2]) for row in switch_grid for c1 in range(x) for c2 in range(c1 + 1, x)],
        CableClass.DAC, "hx-row",
    )
    # Column links (AoC, longer runs).
    wire(
        [
            (switch_grid[r1][c], switch_grid[r2][c])
            for c in range(x) for r1 in range(y) for r2 in range(r1 + 1, y)
        ],
        CableClass.AOC, "hx-col",
    )

    topo.meta.update(
        family="hyperx",
        x=x,
        y=y,
        terminals=terminals,
        switch_grid=switch_grid,
        switch_coord=switch_coord,
        acc_switch=acc_switch,
        switch_links=switch_links,
        access_links=access_links,
        plane_count=plane_count,
        injection_capacity=access_capacity,
    )
    topo.validate()
    return topo


def build_hx1mesh(
    x: int,
    y: int,
    *,
    radix: int = 64,
    global_taper: float = 1.0,
    planes: int = 4,
    link_capacity: float = 1.0,
) -> Topology:
    """Build the Hx1Mesh realisation of a 2D HyperX (1x1 boards).

    Every accelerator's East/West ports attach to its row network and its
    North/South ports to its column network; traffic between different rows
    and columns transits through an intermediate accelerator's forwarding
    ports, exactly like on larger HxMeshes.
    """
    # Imported lazily to avoid a package import cycle (core depends on the
    # topology.base/board/fattree siblings of this module).
    from ..core.hammingmesh import build_hammingmesh

    topo = build_hammingmesh(
        1, 1, x, y,
        radix=radix, global_taper=global_taper, planes=planes,
        link_capacity=link_capacity,
    )
    topo.name = f"hx1mesh-{x}x{y}"
    topo.meta["is_hyperx"] = True
    return topo
