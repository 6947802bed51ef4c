"""Traffic pattern generators used by the microbenchmarks (Section V-A).

Patterns are expressed over *ranks* ``0..P-1`` (dense accelerator indices);
the simulators translate ranks to topology node ids.  A pattern is either a
single list of :class:`Flow` objects (one communication phase) or a list of
phases executed one after another (e.g. the balanced-shift alltoall).

Randomised generators accept either an explicit integer seed (the
experiment engine's convention: serialisable and independent of execution
order, so parallel and serial sweeps are bit-identical) or a caller-managed
``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..exp.seeding import SeedLike, as_generator

__all__ = [
    "Flow",
    "alltoall_phase",
    "alltoall_phases",
    "sampled_alltoall_phases",
    "random_permutation",
    "adversarial_permutation",
    "swap_destinations",
    "uniform_pair_sample",
    "ring_neighbor_flows",
    "nearest_neighbor_2d_flows",
]


@dataclass(frozen=True)
class Flow:
    """A point-to-point transfer between two ranks with a relative demand."""

    src: int
    dst: int
    demand: float = 1.0


def alltoall_phase(p: int, shift: int) -> List[Flow]:
    """Phase ``shift`` of the balanced-shift alltoall on ``p`` ranks.

    In phase ``i`` every rank ``j`` sends to rank ``(j + i) mod p``
    (Section V-A1a of the paper).
    """
    if not (1 <= shift < p):
        raise ValueError(f"shift must be in [1, p), got {shift} for p={p}")
    return [Flow(j, (j + shift) % p) for j in range(p)]


def alltoall_phases(p: int) -> List[List[Flow]]:
    """All ``p - 1`` phases of the balanced-shift alltoall."""
    return [alltoall_phase(p, s) for s in range(1, p)]


def sampled_alltoall_phases(p: int, num_phases: int, seed: SeedLike = 0) -> List[List[Flow]]:
    """A stratified sample of alltoall phases for large ``p``.

    Shifts are drawn evenly spaced across ``[1, p/2]`` (with a seeded random
    offset) and every sampled shift ``s`` is paired with its complement
    ``p - s``.  This keeps the sample symmetric under direction reversal
    (East/West, North/South), which removes the directional bias a plain
    random sample of shifts would impose on the link-load estimate, while
    still covering near, medium and far communication distances.
    """
    if num_phases >= p - 1:
        return alltoall_phases(p)
    rng = as_generator(seed)
    half = max(1, num_phases // 2)
    stride = (p // 2) / half
    offset = rng.uniform(0, stride)
    shifts = set()
    for i in range(half):
        s = 1 + int(offset + i * stride) % (p - 1)
        shifts.add(s)
        shifts.add(p - s)
    shifts.discard(0)
    shifts.discard(p)
    return [alltoall_phase(p, s) for s in sorted(shifts)]


def random_permutation(p: int, seed: SeedLike = 0) -> List[Flow]:
    """Random permutation traffic: each rank sends to a unique random peer."""
    rng = as_generator(seed)
    perm = rng.permutation(p)
    # Avoid self-sends by re-drawing fixed points with a cyclic shift.
    fixed = np.nonzero(perm == np.arange(p))[0]
    if len(fixed) == 1:
        other = (fixed[0] + 1) % p
        perm[fixed[0]], perm[other] = perm[other], perm[fixed[0]]
    elif len(fixed) > 1:
        perm[fixed] = np.roll(perm[fixed], 1)
    return [Flow(int(i), int(perm[i])) for i in range(p)]


def adversarial_permutation(topo) -> List[Flow]:
    """Worst-case permutation traffic for ``topo``'s family: the classic
    adversary of minimal routing, which concentrates traffic onto a *few* of
    the parallel global resources while the rest of the network idles —
    exactly the situation non-minimal (Valiant/UGAL) routing exists to fix
    (Section IV-C's minimal-vs-non-minimal discussion).

    The result is a permutation over the *participating* ranks and may be
    **partial**: for HammingMesh the adversary is a job allocated on the
    boards of one global row (the fragmented-allocation scenario of
    Section IV) running a tornado shift among themselves while the rest of
    the machine is silent — minimal routing funnels everything through that
    row's few tapered row networks and cannot touch the idle rows' trees,
    whereas non-minimal detours can.  Per family:

    * **HammingMesh** — hot-row tornado: only the boards of global row 0
      participate, each sending half-way along the row.
    * **torus** — the tornado pattern: a ring shift *strictly* below half
      the ring, so every minimal route takes the same direction and the
      opposite direction idles (all ranks participate).
    * **Dragonfly** — shift by half the groups: each group pair saturates
      its few direct global channels while all other channels idle.
    * **HyperX** — shift the switch column by half the row length: all
      traffic serialises on the single direct row link per switch pair.
    * **fat tree / generic** — shift ranks by ``P/2`` (all traffic crosses
      the tapered upper levels; with only one path class, no policy helps).

    Deterministic (no randomness): this is a structural worst case, not a
    sample.
    """
    p = topo.num_accelerators
    if p < 2:
        raise ValueError("adversarial permutation needs at least two accelerators")
    rank_of = topo.accelerator_index()
    family = topo.meta.get("family")
    perm: Optional[List[int]] = None
    if family == "hammingmesh":
        coord_of = topo.meta["coord_of"]
        params = topo.meta["params"]
        x, y = params.x, params.y
        node_at = {coords: node for node, coords in coord_of.items()}
        hot_row = x > 1  # hot dimension: the global row if there is one
        if hot_row or y > 1:
            flows = []
            for node in topo.accelerators:
                gr, gc, br, bc = coord_of[node]
                if hot_row and gr == 0:
                    target = (0, (gc + max(1, x // 2)) % x, br, bc)
                elif not hot_row and gc == 0:
                    target = ((gr + max(1, y // 2)) % y, 0, br, bc)
                else:
                    continue  # idle rank: the adversary's job is elsewhere
                flows.append(Flow(rank_of[node], rank_of[node_at[target]]))
            return flows
    elif family == "torus":
        rows, cols = topo.meta["rows"], topo.meta["cols"]
        coord_of = topo.meta["coord_of"]
        grid = topo.meta["grid"]
        if cols > 2 or rows > 2:
            perm = []
            for node in topo.accelerators:
                r, c = coord_of[node]
                if cols > 2:
                    # strictly below cols/2, so minimal goes one way only
                    target = grid[r][(c + (cols - 1) // 2) % cols]
                else:
                    target = grid[(r + (rows - 1) // 2) % rows][c]
                perm.append(rank_of[target])
    elif family == "dragonfly":
        acc_router = topo.meta["acc_router"]
        router_group = topo.meta["router_group"]
        by_group: dict = {}
        for node in topo.accelerators:
            by_group.setdefault(router_group[acc_router[node]], []).append(node)
        groups = sorted(by_group)
        if len(groups) > 1 and len({len(v) for v in by_group.values()}) == 1:
            shift = max(1, len(groups) // 2)
            perm = [0] * p
            for gi, g in enumerate(groups):
                peers = by_group[groups[(gi + shift) % len(groups)]]
                for i, node in enumerate(by_group[g]):
                    perm[rank_of[node]] = rank_of[peers[i]]
    elif family == "hyperx":
        acc_switch = topo.meta["acc_switch"]
        switch_coord = topo.meta["switch_coord"]
        switch_grid = topo.meta["switch_grid"]
        cols = len(switch_grid[0])
        by_switch: dict = {}
        for node in topo.accelerators:
            by_switch.setdefault(acc_switch[node], []).append(node)
        if cols > 1 and len({len(v) for v in by_switch.values()}) == 1:
            perm = [0] * p
            for sw, nodes in by_switch.items():
                r, c = switch_coord[sw]
                peers = by_switch[switch_grid[r][(c + max(1, cols // 2)) % cols]]
                for i, node in enumerate(nodes):
                    perm[rank_of[node]] = rank_of[peers[i]]
    if perm is None:
        # fat tree / unknown family / degenerate shapes: half-shift in ranks.
        perm = [(r + max(1, p // 2)) % p for r in range(p)]
    # Degenerate shifts can produce fixed points (e.g. a 2-wide dimension
    # where half-way is the identity after wrap); rotate them away.
    fixed = [r for r in range(p) if perm[r] == r]
    if fixed:
        vals = [perm[r] for r in fixed]
        vals = vals[1:] + vals[:1]
        for r, v in zip(fixed, vals):
            perm[r] = v
    if any(perm[r] == r for r in range(p)):
        raise ValueError("could not build a fixed-point-free adversarial permutation")
    return [Flow(r, perm[r]) for r in range(p)]


def swap_destinations(flows: Sequence[Flow], i: int, j: int) -> List[Flow]:
    """The neighbour move of the adversary search: flows ``i`` and ``j``
    trade destinations (sources and demands stay put), so a permutation
    stays a permutation.  Returns a new list; ``flows`` is not modified.
    Indices must lie in ``[0, len(flows))``; negative ones are rejected.
    """
    for k in (i, j):
        if not 0 <= k < len(flows):
            raise ValueError(f"swap_destinations index {k} is outside [0, {len(flows)})")
    if i == j:
        raise ValueError("swap_destinations needs two distinct flow indices")
    fi, fj = flows[i], flows[j]
    out = list(flows)
    out[i] = Flow(fi.src, fj.dst, fi.demand)
    out[j] = Flow(fj.src, fi.dst, fj.demand)
    return out


def uniform_pair_sample(p: int, num_samples: int, seed: SeedLike = 0) -> List[Flow]:
    """Uniformly sampled ordered (src, dst) pairs, src != dst.

    Used by the flow simulator's uniform-traffic throughput estimator to
    approximate the average link load of an alltoall without enumerating all
    ``p * (p - 1)`` pairs.
    """
    rng = as_generator(seed)
    src = rng.integers(0, p, size=num_samples)
    off = rng.integers(1, p, size=num_samples)
    dst = (src + off) % p
    return [Flow(int(s), int(d)) for s, d in zip(src, dst)]


def ring_neighbor_flows(
    order: Sequence[int], *, bidirectional: bool = False, wrap: bool = True
) -> List[Flow]:
    """Steady-state neighbour flows of a pipelined ring over ``order``.

    Each rank sends to its successor (and, if ``bidirectional``, also to its
    predecessor); this is the per-round communication pattern of the
    pipelined ring allreduce of Section V-A2b.  With ``wrap=False`` the last
    link of the ring is left unused (a pipeline rather than a ring).
    """
    p = len(order)
    flows: List[Flow] = []
    last = p if wrap else p - 1
    for i in range(last):
        flows.append(Flow(order[i], order[(i + 1) % p]))
        if bidirectional:
            flows.append(Flow(order[(i + 1) % p], order[i]))
    return flows


def nearest_neighbor_2d_flows(rows: int, cols: int, *, wrap: bool = True) -> List[Flow]:
    """Nearest-neighbour (halo exchange) flows on a ``rows`` x ``cols`` grid.

    Rank ``r * cols + c`` exchanges with its four neighbours; used to model
    operator-parallel convolution workloads such as CosmoFlow.
    """
    flows: List[Flow] = []
    for r in range(rows):
        for c in range(cols):
            me = r * cols + c
            neighbours = []
            if wrap or c + 1 < cols:
                neighbours.append(r * cols + (c + 1) % cols)
            if wrap or r + 1 < rows:
                neighbours.append(((r + 1) % rows) * cols + c)
            for nb in neighbours:
                if nb != me:
                    flows.append(Flow(me, nb))
                    flows.append(Flow(nb, me))
    return flows
