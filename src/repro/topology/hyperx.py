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

import itertools

import numpy as np

from .base import CableClass, NodeKind, Topology, TopologyError, bulk_build, register_topology

__all__ = ["build_hyperx2d", "build_hx1mesh"]


@register_topology("hyperx2d")
@bulk_build()
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

    # switch (r, c) followed by its terminals, row by row
    cells = list(itertools.product(range(y), range(x)))
    first = topo.add_nodes(
        [NodeKind.SWITCH, *[NodeKind.ACCELERATOR] * terminals] * len(cells),
        [label for r, c in cells
         for label in (f"hx-sw[{r},{c}]", *(f"acc[{r},{c},{t}]" for t in range(terminals)))],
        [attrs for r, c in cells
         for attrs in ({"coord": (r, c)}, *({"coord": (r, c), "terminal": t} for t in range(terminals)))],
    )
    node = first + np.arange(len(cells) * (terminals + 1)).reshape(y, x, terminals + 1)
    grid = node[:, :, 0]
    accs = node[:, :, 1:].ravel()
    sws = np.repeat(grid.ravel(), terminals)
    li = topo.add_links(
        np.stack([accs, sws], 1), capacity=access_capacity, cable=CableClass.DAC, tag="hx-access"
    )
    acc_switch = dict(zip(accs.tolist(), sws.tolist()))
    fwd = (li + 2 * np.arange(len(accs))).tolist()
    access_links = dict(zip(accs.tolist(), zip(fwd, [f + 1 for f in fwd])))

    # Row links (DAC within a row per the Hx1Mesh cost convention), row by
    # row, then column links (AoC, longer runs), column by column; every
    # pair (c1 < c2, resp. r1 < r2) in triu_indices order.
    c1, c2 = np.triu_indices(x, 1)
    r1, r2 = np.triu_indices(y, 1)
    rows = np.stack([grid[:, c1], grid[:, c2]], -1).reshape(-1, 2)
    cols = np.stack([grid[r1].T, grid[r2].T], -1).reshape(-1, 2)
    li = topo.add_links(rows, capacity=link_capacity, cable=CableClass.DAC, tag="hx-row")
    topo.add_links(cols, capacity=link_capacity, cable=CableClass.AOC, tag="hx-col")
    pairs = np.concatenate([rows, cols])
    # (switch_a, switch_b) -> directed link a->b
    ends = np.stack([pairs, pairs[:, ::-1]], 1).reshape(-1, 2).T.tolist()
    switch_links = dict(zip(zip(*ends), range(li, li + 2 * len(pairs))))
    switch_grid = grid.tolist()
    switch_coord = dict(zip(grid.ravel().tolist(), cells))

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
