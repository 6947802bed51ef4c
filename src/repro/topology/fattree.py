"""Fat-tree construction: standalone fat-tree clusters and reusable
"global networks" used to connect the rows and columns of a HammingMesh.

Two things live here:

* :class:`GlobalNetwork` -- a switched, logically fully-connected network
  built *inside* an existing :class:`~repro.topology.base.Topology` over an
  arbitrary list of port nodes.  Depending on the port count it is realised
  as a single switch, a two-level folded Clos (fat tree), or a three-level
  fat tree.  HammingMesh uses one of these per global row and per global
  column (Section III of the paper); the standalone fat-tree cluster uses a
  single one spanning all accelerators.

* :func:`build_fat_tree` -- the standalone fat-tree baseline topology
  (nonblocking or tapered) used in Table II and Section V.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._hash import mix64_array
from .base import CableClass, NodeKind, Topology, TopologyError, bulk_build, register_topology

__all__ = ["GlobalNetwork", "TreeRoutes", "build_fat_tree", "fat_tree_levels_for"]


def fat_tree_levels_for(num_ports: int, radix: int = 64) -> int:
    """Number of switch levels a fat tree needs for ``num_ports`` endpoints.

    A single switch covers up to ``radix`` ports, a two-level folded Clos up
    to ``radix^2 / 2`` ports, and a three-level tree up to ``radix^3 / 4``.
    """
    if num_ports <= 0:
        raise TopologyError("num_ports must be positive")
    if num_ports <= radix:
        return 1
    if num_ports <= (radix // 2) * radix:
        return 2
    if num_ports <= (radix // 2) ** 2 * radix:
        return 3
    raise TopologyError(
        f"{num_ports} ports exceed the capacity of a 3-level radix-{radix} fat tree"
    )


@dataclass(slots=True)
class _Attachment:
    """One port attachment of a node to the network edge."""

    node: int
    leaf: int
    up_link: int     # node -> leaf
    down_link: int   # leaf -> node


@dataclass
class _Shape:
    """The switches and cables of one network, numbered locally.

    Local switch ``s`` is the ``s``-th switch created; ``roles[s]`` is its
    ``(role, label index)``.  Cable ``k`` joins ``lo[k]`` to ``hi[k]``: for an
    access cable (``kind[k] == 0``) ``lo`` is a port position and ``hi`` its
    leaf, for a leaf-spine (1) or spine-core (2) trunk both are switches.
    """

    levels: int
    roles: List[Tuple[str, int]]
    leaves: np.ndarray
    spines: np.ndarray
    cores: np.ndarray
    #: pod of each leaf and spine (a single switch records none)
    leaf_pod: np.ndarray
    spine_pod: np.ndarray
    #: position of each spine in its pod (three levels only)
    spine_index: Optional[np.ndarray]
    kind: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def _shape(
    n: int,
    radix: int,
    taper: float,
    leaf_down_ports: Optional[int],
    leaf_up_ports: Optional[int],
) -> _Shape:
    """The :class:`_Shape` of a network over ``n`` ports."""
    levels = fat_tree_levels_for(n, radix)
    none = np.zeros(0, dtype=np.int64)
    ports = np.arange(n)
    if levels == 1:
        return _Shape(1, [("leaf", 0)], np.zeros(1, dtype=np.int64), none, none, none, none,
                      None, np.zeros(n, dtype=np.int64), ports, np.zeros(n, dtype=np.int64))
    if levels == 2:
        down = leaf_down_ports if leaf_down_ports is not None else radix // 2
        up = leaf_up_ports if leaf_up_ports is not None else max(1, round(down * taper))
        if down + up > radix:
            raise TopologyError(f"leaf switch needs {down}+{up} ports but radix is {radix}")
        num_leaves = -(-n // down)
        num_spines = max(1, -(-(num_leaves * up) // radix))
        # each leaf's uplinks go round robin over the spines
        trunk_lo = np.repeat(np.arange(num_leaves), up)
        trunk_hi = num_leaves + np.arange(num_leaves * up) % num_spines
        _check_two_level(trunk_lo, trunk_hi - num_leaves, num_spines, down, up)
        return _Shape(
            2,
            [("leaf", i) for i in range(num_leaves)] + [("spine", i) for i in range(num_spines)],
            np.arange(num_leaves), num_leaves + np.arange(num_spines), none,
            np.zeros(num_leaves, dtype=np.int64), np.zeros(num_spines, dtype=np.int64), None,
            np.repeat([0, 1], [n, len(trunk_lo)]),
            np.concatenate([ports, trunk_lo]),
            np.concatenate([ports // down, trunk_hi]),
        )
    half = radix // 2
    pod_capacity = half * half          # endpoints per pod (nonblocking)
    num_pods = -(-n // pod_capacity)
    down = half
    # Each leaf has ``up`` uplinks, one to each of its pod's ``up`` spines,
    # so every two leaves share every pod spine.  Every spine has ``half``
    # core uplinks: a pod's core-uplink capacity is ``half * up`` links, the
    # leaves' total, so the taper applies once, at the leaves.
    up = max(1, round(down * taper))
    cores_per_index = max(1, -(-(half * num_pods) // radix))
    num_cores = up * cores_per_index
    roles = [("core", i) for i in range(num_cores)]
    leaves, spines, leaf_pod, spine_pod, kind, lo, hi = ([] for _ in range(7))
    for pod in range(num_pods):
        pod_ports = ports[pod * pod_capacity : (pod + 1) * pod_capacity]
        num_leaves = -(-len(pod_ports) // down)
        pod_leaves = len(roles) + np.arange(num_leaves)
        pod_spines = len(roles) + num_leaves + np.arange(up)
        roles += [("leaf", pod * half + i) for i in range(num_leaves)]
        roles += [("spine", pod * half + i) for i in range(up)]
        leaves.append(pod_leaves)
        spines.append(pod_spines)
        leaf_pod.append(np.full(num_leaves, pod))
        spine_pod.append(np.full(up, pod))
        # access cables; every leaf to every pod spine; spine with index s
        # to the core group [s*cores_per_index, (s+1)*cores_per_index), so
        # that same-index spines of different pods share cores (valid
        # up/down paths exist between any two pods)
        core_of = (np.arange(up)[:, None] * cores_per_index
                   + np.arange(half) % cores_per_index).ravel()
        for k, (a, b) in enumerate((
            (pod_ports, pod_leaves[(pod_ports - pod_ports[0]) // down]),
            (np.repeat(pod_leaves, up), np.tile(pod_spines, num_leaves)),
            (np.repeat(pod_spines, half), core_of),
        )):
            kind.append(np.full(len(a), k))
            lo.append(a)
            hi.append(b)
    return _Shape(
        3, roles, *map(np.concatenate, (leaves, spines)), np.arange(num_cores),
        *map(np.concatenate, (leaf_pod, spine_pod)), np.tile(np.arange(up), num_pods),
        *map(np.concatenate, (kind, lo, hi)),
    )


def _check_two_level(leaf: np.ndarray, spine: np.ndarray, num_spines: int, down: int, up: int) -> None:
    """Raise unless the leaf -> spine incidence ``(leaf[k], spine[k])``
    joins every leaf to leaf 0 through shared spines."""
    num_leaves = int(leaf.max()) + 1
    group = np.arange(num_leaves)
    while True:
        # every spine takes its lowest leaf group, every leaf its lowest spine's
        low = np.full(num_spines, num_leaves)
        np.minimum.at(low, spine, group[leaf])
        joined = group.copy()
        np.minimum.at(joined, leaf, low[spine])
        if np.array_equal(joined, group):
            break
        group = joined
    if group.any():
        raise TopologyError(
            f"two-level fat tree is disconnected: {num_leaves} leaves with {down} down "
            f"and {up} up ports wire {num_spines} spines round robin into "
            f"{len(np.unique(group))} groups that share no spine (leaf "
            f"{int(np.argmax(group > 0))} cannot reach leaf 0)"
        )


def _build_family(
    nets: Sequence["GlobalNetwork"],
    topo: Topology,
    ports: Sequence[Sequence[int]],
    tags: Sequence[str],
    *,
    radix: int = 64,
    taper: float = 1.0,
    access_capacity: float = 1.0,
    trunk_capacity: float = 1.0,
    access_cable: CableClass = CableClass.DAC,
    trunk_cable: CableClass = CableClass.AOC,
    plane: int = 0,
    leaf_down_ports: Optional[int] = None,
    leaf_up_ports: Optional[int] = None,
) -> None:
    """Build network ``nets[i]`` over ``ports[i]``, tagged ``tags[i]``: one
    node block for every switch and one link block for every cable, by
    offsetting one :class:`_Shape` per network."""
    ports = np.array(ports, dtype=np.int64).reshape(len(nets), -1)
    if ports.shape[1] == 0:
        raise TopologyError("GlobalNetwork needs at least one port")
    if not (0.0 < taper <= 1.0):
        raise TopologyError(f"taper must be in (0, 1], got {taper}")
    shape = _shape(ports.shape[1], radix, taper, leaf_down_ports, leaf_up_ports)
    num, size = len(nets), len(shape.kind)
    off = topo.add_nodes(
        NodeKind.SWITCH,
        [f"{tag}-{role}{i}" for tag in tags for role, i in shape.roles],
        [{"role": role, "network": tag, "plane": plane} for tag in tags for role, _ in shape.roles],
    ) + len(shape.roles) * np.arange(num)[:, None]
    access = shape.kind == 0
    src = off + shape.lo
    src[:, access] = ports[:, shape.lo[access]]
    trunk = (~access).tolist()
    names = [(f"{tag}-access", f"{tag}-trunk") for tag in tags]
    first = topo.add_links(
        np.stack([src, off + shape.hi], -1).reshape(-1, 2),
        capacity=np.tile(np.where(access, access_capacity, trunk_capacity), num),
        cable=[trunk_cable if t else access_cable for t in trunk] * num,
        plane=plane,
        tag=[pair[t] for pair in names for t in trunk],
    )
    fwd = first + 2 * np.arange(num * size).reshape(num, size)

    # the trunks of each store, (lo, hi) -> cable positions, and each lower
    # switch's upper switches in first-cable order (local switch ids)
    stores: Tuple[Dict[Tuple[int, int], List[int]], ...] = ({}, {})
    for k, (kind, lo, hi) in enumerate(zip(shape.kind.tolist(), shape.lo.tolist(), shape.hi.tolist())):
        if kind:
            stores[kind - 1].setdefault((lo, hi), []).append(k)
    uppers: Tuple[Dict[int, List[int]], ...] = (
        {lo: [] for lo in shape.leaves.tolist()} if shape.levels > 1 else {},
        {lo: [] for lo in shape.spines.tolist()} if shape.levels > 2 else {},
    )
    for store, upper in zip(stores, uppers):
        for lo, hi in store:
            upper[lo].append(hi)

    # per network: its ports, their leaves and access links, all its links,
    # its first switch and its switches by level
    columns = zip(
        ports.tolist(), (off + shape.hi[access]).tolist(), fwd[:, access].tolist(),
        (fwd[:, access] + 1).tolist(), fwd.tolist(), off[:, 0].tolist(),
        *((off + ids).tolist() for ids in (shape.leaves, shape.spines, shape.cores)),
    )
    leaf_pod, spine_pod = shape.leaf_pod.tolist(), shape.spine_pod.tolist()
    spine_index = shape.spine_index.tolist() if shape.spine_index is not None else []
    for net, tag, (nodes, leaf, up, down, links, o, leaves, spines, cores) in zip(nets, tags, columns):
        # attributes in the order the topology digests hash vars() in
        net.radix = radix
        net.taper = taper
        net.plane = plane
        net.tag = tag
        net._access_capacity = access_capacity
        net._trunk_capacity = trunk_capacity
        net._access_cable = access_cable
        net._trunk_cable = trunk_cable
        net.attachments = list(map(_Attachment, nodes, leaf, up, down))
        net.node_attachments = {}
        for idx, node in enumerate(nodes):
            net.node_attachments.setdefault(node, []).append(idx)
        net.leaf_switches = leaves
        net.spine_switches = spines
        net.core_switches = cores
        # (leaf, spine) -> [(up link, down link), ...]; analogous for spine/core
        net.leaf_spine, net.spine_core = (
            {(o + lo, o + hi): [(links[k], links[k] + 1) for k in ks] for (lo, hi), ks in store.items()}
            for store in stores
        )
        net.spines_of_leaf, net.cores_of_spine = (
            {o + lo: [o + hi for hi in his] for lo, his in upper.items()} for upper in uppers
        )
        net.leaf_pod = dict(zip(leaves, leaf_pod))
        net.spine_pod = dict(zip(spines, spine_pod))
        net.spine_index = dict(zip(spines, spine_index))
        net.levels = shape.levels
        # the network's TreeRoutes (node attachments and up/down link
        # tables); built on the first ``paths_block`` call so route
        # enumeration, not topology construction, pays for it.  The name
        # predates TreeRoutes: tests/test_topology_digest.py hashes every
        # attribute of a built network.
        net._node_atts = None


class GlobalNetwork:
    """A logically fully-connected switch network over a set of port nodes.

    Parameters
    ----------
    topo:
        Topology the switches and links are created in.  The network keeps
        no reference to it, so a topology holding its networks in ``meta``
        is freed as soon as it is dropped, without the cycle collector.
    ports:
        Node ids to attach.  A node may appear multiple times if it attaches
        with several physical ports (e.g. the single accelerator of a 1x1
        HyperX board attaches both its East and West port to the same row
        network).
    radix:
        Switch radix (64-port switches throughout the paper).
    taper:
        Ratio of uplink to downlink ports at each level below the top
        (1.0 = nonblocking, 0.5 = "50% tapered", 0.25 = "75% tapered").
    access_capacity / trunk_capacity:
        Link capacities for port-to-leaf and switch-to-switch links in
        normalised 400 Gb/s units.
    access_cable / trunk_cable:
        Cable classes used for the cost census.

    :meth:`family` builds many networks of the same port count at once.
    """

    def __init__(
        self,
        topo: Topology,
        ports: Sequence[int],
        *,
        radix: int = 64,
        taper: float = 1.0,
        access_capacity: float = 1.0,
        trunk_capacity: float = 1.0,
        access_cable: CableClass = CableClass.DAC,
        trunk_cable: CableClass = CableClass.AOC,
        plane: int = 0,
        tag: str = "tree",
        leaf_down_ports: Optional[int] = None,
        leaf_up_ports: Optional[int] = None,
    ):
        _build_family(
            [self], topo, [list(ports)], [tag], radix=radix, taper=taper,
            access_capacity=access_capacity, trunk_capacity=trunk_capacity,
            access_cable=access_cable, trunk_cable=trunk_cable, plane=plane,
            leaf_down_ports=leaf_down_ports, leaf_up_ports=leaf_up_ports,
        )

    @classmethod
    def family(
        cls, topo: Topology, ports: Sequence[Sequence[int]], tags: Sequence[str], **options: Any
    ) -> List["GlobalNetwork"]:
        """One network per row of ``ports`` (all rows of one length), tagged
        ``tags[i]``, with the other parameters as for the constructor.

        The result is the same as constructing the networks one after
        another: the switches of every network, network after network, then
        the cables of every network, network after network, each network's
        in the order its constructor would add them.
        """
        nets = [cls.__new__(cls) for _ in tags]
        _build_family(nets, topo, ports, tags, **options)
        return nets

    # ------------------------------------------------------------------ paths
    @property
    def num_switches(self) -> int:
        return len(self.leaf_switches) + len(self.spine_switches) + len(self.core_switches)

    @property
    def switches(self) -> List[int]:
        return self.leaf_switches + self.spine_switches + self.core_switches

    def attachments_of(self, node: int) -> List[_Attachment]:
        return [self.attachments[i] for i in self.node_attachments.get(node, [])]

    def has_port(self, node: int) -> bool:
        return node in self.node_attachments

    def paths_block(
        self, src: np.ndarray, dst: np.ndarray, max_paths: int = 4
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Minimal up/down paths from node ``src[i]`` to node ``dst[i]``
        through this network, including the access links at both ends, as
        CSR arrays ``(counts, lengths, links)`` (see :class:`TreeRoutes`).
        A pair with no up/down path (an endpoint without a port, or leaves
        that share no spine) has none."""
        if self._node_atts is None:
            self._node_atts = TreeRoutes([self])
        src = np.asarray(src, dtype=np.int64)
        return self._node_atts.paths_block(
            np.zeros(len(src), dtype=np.int64), src, np.asarray(dst, dtype=np.int64), max_paths
        )

    def paths(self, src: int, dst: int, max_paths: int = 4) -> List[List[int]]:
        """:meth:`paths_block` of one pair, as directed-link index lists."""
        _, lengths, links = self.paths_block(np.array([src]), np.array([dst]), max_paths)
        flat, ends = links.tolist(), np.cumsum(lengths).tolist()
        return [flat[end - n : end] for end, n in zip(ends, lengths.tolist())]

    def entry_paths(self, src: int, leaf_target: Optional[int] = None) -> List[_Attachment]:
        """Attachments usable to enter the network from ``src``."""
        return self.attachments_of(src)


def _padded(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """``rows`` as one ``int64`` array, each row padded with -1."""
    width = max([1] + [len(row) for row in rows])
    out = np.full((max(1, len(rows)), width), -1, dtype=np.int64)
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


#: bound on node ids: ``network * _NODE_SPAN + node`` keys a port
_NODE_SPAN = 1 << 32

#: flow-hash salts of the hops (leaf up, spine up, spine down, leaf down)
#: of a path across pods, and of a path within one (which has no spine hops)
_HOP_SALTS = np.array([[0, 1, 2, 3], [0xA5, 0, 0, 0x5A]])[:, :, None]


class TreeRoutes:
    """The up/down routes of one or several :class:`GlobalNetwork` s, over
    padded arrays.

    Switches and attachments of all the networks are numbered in one
    sequence.  A leaf's uplinks are *slots*: slot ``k`` is the ``k``-th
    spine of ``spines_of_leaf[leaf]`` and holds that spine's parallel
    links; a spine's core uplinks are slots likewise.  A spine has a
    *position* (its index in a two-level network, its ``spine_index`` in a
    three-level one) and a core its index in its network, so that
    ``spine_slot[leaf, position]`` finds the slot of a leaf's spine at a
    position, and ``core_slot[spine, index]`` that of a spine's core.

    :meth:`paths_block` enumerates what per-pair up/down routing does:
    every pairing of a source attachment with a different destination
    attachment, in attachment order; for each, the leaf-to-leaf segments,
    spine first, from a flow-hashed rotation of the source leaf's spines,
    skipping spines without a link to the destination leaf; at most
    ``max_paths`` paths in all.  Each spine gives one segment (its
    parallel links picked by a flow hash), so a further round over the
    spines' other parallel links could only add a path if the first round
    found none, and then it finds none either.  Across pods of a three-level
    tree, a source spine pairs with the destination leaf's spine of the
    same position and crosses the first core, in a flow-hashed rotation of
    its cores, that the destination spine links to.
    """

    def __init__(self, networks: Sequence["GlobalNetwork"]):
        leaf_ix: Dict[int, int] = {}
        spine_ix: Dict[int, int] = {}
        core_ix: Dict[int, int] = {}
        spine_pos: List[int] = []
        core_pos: List[int] = []
        leaf_pod: List[int] = []
        att_leaf: List[int] = []
        att_up: List[int] = []
        att_down: List[int] = []
        port_key: List[int] = []
        port_atts: List[List[int]] = []
        for i, net in enumerate(networks):
            for leaf in net.leaf_switches:
                leaf_ix[leaf] = len(leaf_ix)
                leaf_pod.append(net.leaf_pod.get(leaf, 0))
            for pos, spine in enumerate(net.spine_switches):
                spine_ix[spine] = len(spine_ix)
                spine_pos.append(net.spine_index.get(spine, pos))
            for pos, core in enumerate(net.core_switches):
                core_ix[core] = len(core_ix)
                core_pos.append(pos)
            base = len(att_leaf)
            for att in net.attachments:
                att_leaf.append(leaf_ix[att.leaf])
                att_up.append(att.up_link)
                att_down.append(att.down_link)
            for node, idxs in net.node_attachments.items():
                port_key.append(i * _NODE_SPAN + node)
                port_atts.append([base + j for j in idxs])
        order = np.argsort(port_key)
        self.port_key = np.array(port_key, dtype=np.int64)[order]
        self.port_atts = _padded(port_atts)[order]
        self.att_leaf = np.array(att_leaf, dtype=np.int64)
        self.att_up = np.array(att_up, dtype=np.int64)
        self.att_down = np.array(att_down, dtype=np.int64)
        self.leaf_pod = np.array(leaf_pod, dtype=np.int64)
        # one extra entry, so that a missing switch (-1) indexes them
        self.spine_pos = np.array(spine_pos + [0], dtype=np.int64)
        self.core_pos = np.array(core_pos + [0], dtype=np.int64)
        self.leaf_spines, self.leaf_num_spines, self.spine_slot, self.leaf_links = (
            self._slots(networks, "spines_of_leaf", "leaf_spine", leaf_ix, spine_ix, spine_pos)
        )
        self.spine_cores, self.spine_num_cores, self.core_slot, self.spine_links = (
            self._slots(networks, "cores_of_spine", "spine_core", spine_ix, core_ix, core_pos)
        )

    @staticmethod
    def _slots(networks, uppers_of: str, store: str, lo_ix, hi_ix, hi_pos):
        """Per lower switch: its upper switches by slot, their count, the
        slot of the upper switch at each position, and each slot's parallel
        links as ``(up, down)`` arrays padded to the most parallel links."""
        rows = [[] for _ in lo_ix]
        links: List[List[List[Tuple[int, int]]]] = [[] for _ in lo_ix]
        for net in networks:
            for lo, his in getattr(net, uppers_of).items():
                rows[lo_ix[lo]] = [hi_ix[hi] for hi in his]
                links[lo_ix[lo]] = [getattr(net, store)[(lo, hi)] for hi in his]
        uppers = _padded(rows)
        slot = np.full((len(uppers), max(hi_pos + [0]) + 1), -1, dtype=np.int64)
        for lo, row in enumerate(rows):
            for k, hi in enumerate(row):
                if slot[lo, hi_pos[hi]] >= 0:
                    raise TopologyError("a switch links two upper switches at one position")
                slot[lo, hi_pos[hi]] = k
        width = max([1] + [len(pl) for per_lo in links for pl in per_lo])
        pairs = np.full((len(uppers), uppers.shape[1], width, 2), -1, dtype=np.int64)
        count = np.zeros(uppers.shape, dtype=np.int64)
        for lo, per_lo in enumerate(links):
            for k, parallel in enumerate(per_lo):
                pairs[lo, k, : len(parallel)] = parallel
                count[lo, k] = len(parallel)
        num = np.zeros(len(uppers), dtype=np.int64)
        num[: len(rows)] = [len(row) for row in rows]
        return uppers, num, slot, (pairs, count)

    def paths_block(self, net, src, dst, max_paths: int):
        """Up/down paths of every pair ``(src[i], dst[i])`` through network
        ``net[i]`` (an index into the networks), as CSR arrays ``(counts,
        lengths, links)``."""
        n = len(src)
        atts = []
        for node in (src, dst):
            key = net * _NODE_SPAN + node
            row = np.minimum(np.searchsorted(self.port_key, key), len(self.port_key) - 1)
            atts.append(np.where((self.port_key[row] == key)[:, None], self.port_atts[row], -1))
        key = (src * 1_000_003 + dst) & 0x7FFFFFFF
        spread = mix64_array(key)
        # candidate axes (pair, source attachment, destination attachment,
        # source leaf slot, in rotated order)
        a_s, a_d = atts[0][:, :, None, None], atts[1][:, None, :, None]
        la, lb = self.att_leaf[a_s], self.att_leaf[a_d]
        paired = (a_s >= 0) & (a_d >= 0) & (a_s != a_d)
        ns = np.maximum(self.leaf_num_spines[la], 1)
        k = np.arange(self.leaf_spines.shape[1])
        slot_a = ((spread[:, None, None, None] % ns.astype(np.uint64)).astype(np.int64) + k) % ns
        sa = self.leaf_spines[la, slot_a]
        slot_b = self.spine_slot[lb, self.spine_pos[sa]]
        sb = self.leaf_spines[lb, slot_b]
        far = self.leaf_pod[la] != self.leaf_pod[lb]
        up = (paired & (la != lb) & (k < self.leaf_num_spines[la])
              & (slot_b >= 0) & (far | (sb == sa)))
        slot_a, sa = (np.broadcast_to(arr, up.shape) for arr in (slot_a, sa))
        core_a = np.full(up.shape, -1, dtype=np.int64)
        core_b = core_a.copy()
        far = up & far
        if far.any():
            core_a[far], core_b[far] = self._cores(sa[far], sb[far], spread[np.nonzero(far)[0]])
            up[far] = core_a[far] >= 0
        valid = (up | (paired & (la == lb) & (k == 0))).reshape(n, np.prod(up.shape[1:]))
        taken = valid & (np.cumsum(valid, 1) <= max_paths)
        counts = taken.sum(1)
        q, c = np.nonzero(taken)
        i, j, k = np.unravel_index(c, up.shape[1:])
        a_s, a_d, key = atts[0][q, i], atts[1][q, j], key[q]
        la, lb = self.att_leaf[a_s], self.att_leaf[a_d]
        at = (q, i, j, k)
        slot_a, slot_b, sa, sb, core_a, core_b = (
            arr[at] for arr in (slot_a, slot_b, sa, sb, core_a, core_b)
        )
        far = core_a >= 0
        mid_len = np.where(la == lb, 0, np.where(far, 4, 2))
        # the parallel links of each hop, picked by flow hashes: a hop's
        # salt is its index across pods, 0xA5 up and 0x5A down within one
        hashes = mix64_array(key ^ np.where(far, _HOP_SALTS[0], _HOP_SALTS[1]))

        def link(table, lo, slot, h, end):
            pairs, count = table
            pick = (hashes[h] % np.maximum(count[lo, slot], 1).astype(np.uint64)).astype(np.int64)
            return pairs[lo, slot, pick, end]

        hops = np.stack([
            link(self.leaf_links, la, slot_a, 0, 0),
            link(self.spine_links, sa, core_a, 1, 0),
            link(self.spine_links, sb, core_b, 2, 1),
            link(self.leaf_links, lb, slot_b, 3, 1),
        ], 1)
        # a two-hop segment is the first and the last hop
        hops[:, 1] = np.where(far, hops[:, 1], hops[:, 3])
        rows = np.arange(len(q))
        path = np.empty((len(q), 6), dtype=np.int64)
        path[:, 0] = self.att_up[a_s]
        path[:, 1:5] = hops
        path[rows, mid_len + 1] = self.att_down[a_d]
        lengths = mid_len + 2
        return counts, lengths, path[np.arange(6) < lengths[:, None]]

    def _cores(self, sa, sb, spread):
        """Per cross-pod candidate: the slots, at ``sa`` and at ``sb``, of the
        first core in ``sa``'s rotated cores that ``sb`` links to (-1: none)."""
        nc = self.spine_num_cores[sa]
        off = (spread % np.maximum(nc, 1).astype(np.uint64)).astype(np.int64)
        slot_a = np.full(len(sa), -1, dtype=np.int64)
        slot_b = slot_a.copy()
        for j in range(self.spine_cores.shape[1]):
            left = (slot_a < 0) & (j < nc)
            if not left.any():
                break
            ca = (off + j) % np.maximum(nc, 1)
            core = self.spine_cores[sa, ca]
            cb = self.core_slot[sb, self.core_pos[core]]
            hit = left & (cb >= 0) & (self.spine_cores[sb, cb] == core)
            slot_a[hit], slot_b[hit] = ca[hit], cb[hit]
        return slot_a, slot_b


# --------------------------------------------------------------------------
#  Standalone fat-tree cluster (baseline topology of Table II)
# --------------------------------------------------------------------------
@register_topology("fattree")
@bulk_build()
def build_fat_tree(
    num_accelerators: int,
    *,
    radix: int = 64,
    taper: float = 1.0,
    accelerator_capacity: float = 4.0,
    plane_count: int = 4,
    leaf_down_ports: Optional[int] = None,
    leaf_up_ports: Optional[int] = None,
) -> Topology:
    """Build a standalone fat-tree cluster.

    The simulation collapses the ``plane_count`` identical planes into a
    single plane whose links carry ``accelerator_capacity`` units (see
    DESIGN.md).  ``taper`` < 1 reproduces the "50% tapered" (0.5) and
    "75% tapered" (0.25) variants of Table II.  ``leaf_down_ports`` /
    ``leaf_up_ports`` may be given to pin the exact leaf configuration used
    in Appendix C (e.g. 42/22 and 51/13 for the small tapered trees).
    """
    if num_accelerators < 2:
        raise TopologyError("a fat tree needs at least two accelerators")
    topo = Topology(f"fattree-{num_accelerators}-taper{taper:g}")
    first = topo.add_nodes(
        NodeKind.ACCELERATOR,
        [f"acc{i}" for i in range(num_accelerators)],
        [{"index": i} for i in range(num_accelerators)],
    )
    accs = range(first, first + num_accelerators)
    network = GlobalNetwork(
        topo,
        accs,
        radix=radix,
        taper=taper,
        access_capacity=accelerator_capacity,
        trunk_capacity=accelerator_capacity,
        access_cable=CableClass.DAC,
        trunk_cable=CableClass.AOC,
        tag="ft",
        leaf_down_ports=leaf_down_ports,
        leaf_up_ports=leaf_up_ports,
    )
    topo.meta.update(
        family="fattree",
        network=network,
        taper=taper,
        radix=radix,
        plane_count=plane_count,
        accelerator_capacity=accelerator_capacity,
        injection_capacity=accelerator_capacity,
    )
    topo.validate()
    return topo
