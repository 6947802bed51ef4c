"""Traffic pattern generators used by the microbenchmarks (Section V-A).

Patterns are expressed over *ranks* ``0..P-1`` (dense accelerator indices);
the simulators translate ranks to topology node ids.  A pattern is either a
single :class:`FlowSet` (one communication phase) or a list of phases
executed one after another (e.g. the balanced-shift alltoall).  A
:class:`FlowSet` holds its flows as three parallel arrays and reads as a
``Sequence[Flow]``, so code that iterates or indexes flows works on it
unchanged while the simulators read its arrays directly.

Randomised generators accept either an explicit integer seed (the
experiment engine's convention: serialisable and independent of execution
order, so parallel and serial sweeps are bit-identical) or a caller-managed
``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exp.seeding import SeedLike, as_generator

__all__ = [
    "Flow",
    "FlowSet",
    "alltoall_phase",
    "alltoall_phases",
    "alltoall_shifts",
    "alltoall_flows",
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


def _rank_column(name: str, values) -> Tuple[np.ndarray, np.ndarray]:
    """``(as_int64, non_integer_mask)`` of one rank column."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"flow set {name} must be 1-D, got shape {arr.shape}")
    if arr.dtype.kind in "iu":
        return arr.astype(np.int64, copy=False), np.zeros(len(arr), dtype=bool)
    arr = arr.astype(np.float64)
    bad = ~np.isfinite(arr) | (arr != np.floor(arr))
    return np.where(bad, 0.0, arr).astype(np.int64), bad


def flow_columns(
    src, dst, demand, *, num_ranks: Optional[int] = None, index: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated ``(src, dst, demand)`` arrays (``int64``, ``int64``,
    ``float64``) of flows given column-wise.

    Raises a one-line :class:`ValueError` naming the first bad flow: a
    non-integer rank, a rank outside ``[0, num_ranks)`` (when given), or a
    negative or non-finite demand; a zero demand is legal.  ``index[k]`` is
    the name of flow ``k`` when the columns are a pick of a larger set.
    Arrays of the right type are returned as they are, not copied.
    """
    src_arr, bad_src = _rank_column("src", src)
    dst_arr, bad_dst = _rank_column("dst", dst)
    dem = np.asarray(demand, dtype=np.float64)
    if dem.ndim == 0:
        dem = np.full(len(src_arr), float(dem))
    elif dem.ndim != 1:
        raise ValueError(f"flow set demand must be 1-D, got shape {dem.shape}")
    sizes = (len(src_arr), len(dst_arr), len(dem))
    if len(set(sizes)) > 1:
        raise ValueError(
            f"flow {min(sizes)} is incomplete: src, dst and demand have "
            f"{sizes[0]}, {sizes[1]} and {sizes[2]} entries"
        )
    bad_int = bad_src | bad_dst
    bad_rank = np.zeros(len(src_arr), dtype=bool)
    if num_ranks is not None:
        bad_rank = (src_arr < 0) | (src_arr >= num_ranks) | (dst_arr < 0) | (dst_arr >= num_ranks)
    # NaN fails ``>= 0``, so one comparison rejects it with the negatives.
    bad_demand = ~(dem >= 0.0) | np.isinf(dem)
    bad = np.flatnonzero(bad_int | bad_rank | bad_demand)
    if len(bad):
        k = int(bad[0])
        i = k if index is None else int(index[k])
        if bad_int[k]:
            s, d = np.asarray(src)[k].item(), np.asarray(dst)[k].item()
            raise ValueError(f"flow {i} ({s} -> {d}) has a non-integer rank")
        if bad_rank[k]:
            raise ValueError(
                f"flow {i} ({int(src_arr[k])} -> {int(dst_arr[k])}) has a rank "
                f"outside [0, {num_ranks})"
            )
        raise ValueError(
            f"flow {i} has demand {float(dem[k])}; demands must be finite and >= 0"
        )
    return src_arr, dst_arr, dem


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class FlowSet(Sequence[Flow]):
    """An immutable set of flows stored as three parallel arrays.

    ``src`` and ``dst`` are ``int64`` ranks and ``demand`` is ``float64``;
    the three are 1-D, equally long and read-only, and are validated once
    here (see :func:`flow_columns`; ``demand`` may be a scalar shared by
    every flow).  A ``FlowSet`` is a ``Sequence[Flow]``: indexing yields a
    :class:`Flow`, a slice, an integer index array or a boolean mask yields
    a ``FlowSet``, and it compares equal to any sequence of the same flows.
    """

    __slots__ = ("src", "dst", "demand")

    def __init__(self, src, dst, demand=1.0):
        columns = flow_columns(src, dst, demand)
        for name, arr in zip(self.__slots__, columns):
            object.__setattr__(self, name, _frozen(np.array(arr)))

    @classmethod
    def _wrap(cls, src: np.ndarray, dst: np.ndarray, demand: np.ndarray) -> "FlowSet":
        """A set over already validated columns (frozen, not copied)."""
        out = object.__new__(cls)
        for name, arr in zip(cls.__slots__, (src, dst, demand)):
            object.__setattr__(out, name, _frozen(arr))
        return out

    @classmethod
    def of(
        cls, flows: Union["FlowSet", Iterable[Flow]], *, num_ranks: Optional[int] = None
    ) -> "FlowSet":
        """``flows`` as a :class:`FlowSet`: returned as is if it is one,
        otherwise read once, in order, and validated in one pass (with the
        rank bound ``num_ranks`` when given, see :func:`flow_columns`)."""
        if isinstance(flows, FlowSet):
            return flows
        flows = flows if isinstance(flows, Sequence) else list(flows)
        return cls._wrap(
            *flow_columns(
                [f.src for f in flows],
                [f.dst for f in flows],
                [f.demand for f in flows],
                num_ranks=num_ranks,
            )
        )

    @classmethod
    def concat(cls, sets: Iterable["FlowSet"]) -> "FlowSet":
        """The flows of ``sets`` one after another."""
        sets = [cls.of(fs) for fs in sets]
        if not sets:
            return cls([], [])
        return cls._wrap(
            *(np.concatenate([getattr(fs, name) for fs in sets]) for name in cls.__slots__)
        )

    def __setattr__(self, name, value):
        raise AttributeError("FlowSet is immutable")

    def __reduce__(self):
        return (FlowSet, (self.src, self.dst, self.demand))

    def __len__(self) -> int:
        return len(self.src)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return Flow(int(self.src[key]), int(self.dst[key]), float(self.demand[key]))
        if not isinstance(key, slice):
            key = np.asarray(key)
            if key.ndim != 1:
                raise IndexError(f"a FlowSet index array must be 1-D, got shape {key.shape}")
            if not key.size:
                key = key.astype(np.int64)  # ``[]`` reads as float64
        return FlowSet._wrap(self.src[key], self.dst[key], self.demand[key])

    def __iter__(self):
        return map(Flow, self.src.tolist(), self.dst.tolist(), self.demand.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, FlowSet):
            return all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in self.__slots__
            )
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"FlowSet({len(self)} flows)"


def alltoall_phase(p: int, shift: int) -> FlowSet:
    """Phase ``shift`` of the balanced-shift alltoall on ``p`` ranks.

    In phase ``i`` every rank ``j`` sends to rank ``(j + i) mod p``
    (Section V-A1a of the paper).
    """
    if not (1 <= shift < p):
        raise ValueError(f"shift must be in [1, p), got {shift} for p={p}")
    return alltoall_flows(p, [shift])


def alltoall_flows(p: int, shifts: Sequence[int]) -> FlowSet:
    """The phases ``shifts`` of the balanced-shift alltoall as one set,
    phase by phase: every rank ``j`` sends to ``(j + s) mod p`` for each
    shift ``s`` in turn."""
    ranks = np.arange(p, dtype=np.int64)
    shifts = np.asarray(shifts, dtype=np.int64)
    dst = (ranks[None, :] + shifts[:, None]) % p
    return FlowSet(np.tile(ranks, len(shifts)), dst.ravel())


def alltoall_phases(p: int) -> List[FlowSet]:
    """All ``p - 1`` phases of the balanced-shift alltoall."""
    return [alltoall_phase(p, s) for s in range(1, p)]


def alltoall_shifts(p: int, num_phases: Optional[int] = None, seed: SeedLike = 0) -> List[int]:
    """The shifts of :func:`sampled_alltoall_phases` in phase order: every
    shift ``1..p-1`` when ``num_phases`` is ``None`` or covers them all."""
    if num_phases is None or num_phases >= p - 1:
        return list(range(1, p))
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
    return sorted(shifts)


def sampled_alltoall_phases(p: int, num_phases: int, seed: SeedLike = 0) -> List[FlowSet]:
    """A stratified sample of alltoall phases for large ``p``.

    Shifts are drawn evenly spaced across ``[1, p/2]`` (with a seeded random
    offset) and every sampled shift ``s`` is paired with its complement
    ``p - s``.  This keeps the sample symmetric under direction reversal
    (East/West, North/South), which removes the directional bias a plain
    random sample of shifts would impose on the link-load estimate, while
    still covering near, medium and far communication distances.
    """
    return [alltoall_phase(p, s) for s in alltoall_shifts(p, num_phases, seed)]


def random_permutation(p: int, seed: SeedLike = 0) -> FlowSet:
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
    return FlowSet(np.arange(p), perm)


def adversarial_permutation(topo) -> FlowSet:
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
            src: List[int] = []
            dst: List[int] = []
            for node in topo.accelerators:
                gr, gc, br, bc = coord_of[node]
                if hot_row and gr == 0:
                    target = (0, (gc + max(1, x // 2)) % x, br, bc)
                elif not hot_row and gc == 0:
                    target = ((gr + max(1, y // 2)) % y, 0, br, bc)
                else:
                    continue  # idle rank: the adversary's job is elsewhere
                src.append(rank_of[node])
                dst.append(rank_of[node_at[target]])
            return FlowSet(src, dst)
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
        perm = (np.arange(p) + max(1, p // 2)) % p
    perm = np.asarray(perm, dtype=np.int64)
    # Degenerate shifts can produce fixed points (e.g. a 2-wide dimension
    # where half-way is the identity after wrap); rotate them away.
    fixed = np.flatnonzero(perm == np.arange(p))
    perm[fixed] = np.roll(perm[fixed], -1)
    if (perm == np.arange(p)).any():
        raise ValueError("could not build a fixed-point-free adversarial permutation")
    return FlowSet(np.arange(p), perm)


def swap_destinations(flows: Sequence[Flow], i: int, j: int) -> FlowSet:
    """The neighbour move of the adversary search: flows ``i`` and ``j``
    trade destinations (sources and demands stay put), so a permutation
    stays a permutation.  Returns a new :class:`FlowSet` (any other
    sequence of flows is converted first); ``flows`` is not modified.
    Indices must lie in ``[0, len(flows))``; negative ones are rejected.
    """
    for k in (i, j):
        if not 0 <= k < len(flows):
            raise ValueError(f"swap_destinations index {k} is outside [0, {len(flows)})")
    if i == j:
        raise ValueError("swap_destinations needs two distinct flow indices")
    flows = FlowSet.of(flows)
    dst = flows.dst.copy()
    dst[i], dst[j] = flows.dst[j], flows.dst[i]
    return FlowSet._wrap(flows.src, dst, flows.demand)


def uniform_pair_sample(p: int, num_samples: int, seed: SeedLike = 0) -> FlowSet:
    """Uniformly sampled ordered (src, dst) pairs, src != dst.

    Used by the flow simulator's uniform-traffic throughput estimator to
    approximate the average link load of an alltoall without enumerating all
    ``p * (p - 1)`` pairs.
    """
    rng = as_generator(seed)
    src = rng.integers(0, p, size=num_samples)
    off = rng.integers(1, p, size=num_samples)
    return FlowSet(src, (src + off) % p)


def ring_neighbor_flows(
    order: Sequence[int], *, bidirectional: bool = False, wrap: bool = True
) -> FlowSet:
    """Steady-state neighbour flows of a pipelined ring over ``order``.

    Each rank sends to its successor (and, if ``bidirectional``, also to its
    predecessor, right after); this is the per-round communication pattern
    of the pipelined ring allreduce of Section V-A2b.  With ``wrap=False``
    the last link of the ring is left unused (a pipeline rather than a
    ring).
    """
    order = np.asarray(order, dtype=np.int64)
    last = len(order) if wrap else max(len(order) - 1, 0)
    src, dst = order[:last], np.roll(order, -1)[:last]
    if bidirectional:
        src, dst = np.stack([src, dst], 1).ravel(), np.stack([dst, src], 1).ravel()
    return FlowSet(src, dst)


def nearest_neighbor_2d_flows(rows: int, cols: int, *, wrap: bool = True) -> FlowSet:
    """Nearest-neighbour (halo exchange) flows on a ``rows`` x ``cols`` grid.

    Rank ``r * cols + c`` exchanges with its four neighbours; used to model
    operator-parallel convolution workloads such as CosmoFlow.  Ranks are
    visited in order, each with its East then its South neighbour, and each
    exchange is the pair ``me -> nb``, ``nb -> me``.
    """
    me = np.arange(rows * cols, dtype=np.int64)
    r, c = np.divmod(me, cols)
    nb = np.stack([r * cols + (c + 1) % cols, ((r + 1) % rows) * cols + c], 1)
    ok = np.stack([wrap | (c + 1 < cols), wrap | (r + 1 < rows)], 1) & (nb != me[:, None])
    mine, theirs = np.broadcast_to(me[:, None], nb.shape)[ok], nb[ok]
    return FlowSet(np.stack([mine, theirs], 1).ravel(), np.stack([theirs, mine], 1).ravel())
