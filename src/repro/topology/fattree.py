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

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .._hash import mix64
from .base import CableClass, Topology, TopologyError, register_topology

__all__ = ["GlobalNetwork", "build_fat_tree", "fat_tree_levels_for"]


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


@dataclass
class _Attachment:
    """One port attachment of a node to the network edge."""

    node: int
    leaf: int
    up_link: int     # node -> leaf
    down_link: int   # leaf -> node


class GlobalNetwork:
    """A logically fully-connected switch network over a set of port nodes.

    Parameters
    ----------
    topo:
        Topology the switches and links are created in.
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
        if not ports:
            raise TopologyError("GlobalNetwork needs at least one port")
        if not (0.0 < taper <= 1.0):
            raise TopologyError(f"taper must be in (0, 1], got {taper}")
        self.topo = topo
        self.radix = radix
        self.taper = taper
        self.plane = plane
        self.tag = tag
        self._access_capacity = access_capacity
        self._trunk_capacity = trunk_capacity
        self._access_cable = access_cable
        self._trunk_cable = trunk_cable

        self.attachments: List[_Attachment] = []
        self.node_attachments: Dict[int, List[int]] = {}
        self.leaf_switches: List[int] = []
        self.spine_switches: List[int] = []
        self.core_switches: List[int] = []
        # (leaf, spine) -> [(up link, down link), ...]; analogous for spine/core
        self.leaf_spine: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        self.spine_core: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        self.spines_of_leaf: Dict[int, List[int]] = {}
        self.cores_of_spine: Dict[int, List[int]] = {}
        self.leaf_pod: Dict[int, int] = {}
        self.spine_pod: Dict[int, int] = {}
        self.spine_index: Dict[int, int] = {}

        n = len(ports)
        self.levels = fat_tree_levels_for(n, radix)
        if self.levels == 1:
            self._build_single_switch(ports)
        elif self.levels == 2:
            self._build_two_level(ports, leaf_down_ports, leaf_up_ports)
        else:
            self._build_three_level(ports)

        for idx, att in enumerate(self.attachments):
            self.node_attachments.setdefault(att.node, []).append(idx)
        # node -> tuple of its attachments; built on the first ``paths``
        # call so route enumeration, not topology construction, pays for it
        self._node_atts: Optional[Dict[int, Tuple[_Attachment, ...]]] = None

    # ------------------------------------------------------------------ build
    def _new_switch(self, role: str, index: int) -> int:
        return self.topo.add_switch(
            f"{self.tag}-{role}{index}", role=role, network=self.tag, plane=self.plane
        )

    def _attach(self, pairs: List[Tuple[int, int]]) -> None:
        """Connect every ``(node, leaf)`` pair with an access cable."""
        li = self.topo.add_links(
            pairs,
            capacity=self._access_capacity,
            cable=self._access_cable,
            plane=self.plane,
            tag=f"{self.tag}-access",
        )
        for node, leaf in pairs:
            self.attachments.append(_Attachment(node, leaf, li, li + 1))
            li += 2

    def _trunk(
        self,
        pairs: List[Tuple[int, int]],
        store: Dict[Tuple[int, int], List[Tuple[int, int]]],
        uppers: Dict[int, List[int]],
    ) -> None:
        """Cable every ``(lo, hi)`` pair; record it in ``store`` and ``uppers``."""
        li = self.topo.add_links(
            pairs,
            capacity=self._trunk_capacity,
            cable=self._trunk_cable,
            plane=self.plane,
            tag=f"{self.tag}-trunk",
        )
        for lo, hi in pairs:
            store.setdefault((lo, hi), []).append((li, li + 1))
            li += 2
            if hi not in uppers[lo]:
                uppers[lo].append(hi)

    def _build_single_switch(self, ports: Sequence[int]) -> None:
        if len(ports) > self.radix:
            raise TopologyError("too many ports for a single switch")
        sw = self._new_switch("leaf", 0)
        self.leaf_switches.append(sw)
        self._attach([(node, sw) for node in ports])

    def _build_two_level(
        self,
        ports: Sequence[int],
        leaf_down_ports: Optional[int],
        leaf_up_ports: Optional[int],
    ) -> None:
        n = len(ports)
        down = leaf_down_ports if leaf_down_ports is not None else self.radix // 2
        up = (
            leaf_up_ports
            if leaf_up_ports is not None
            else max(1, round(down * self.taper))
        )
        if down + up > self.radix:
            raise TopologyError(
                f"leaf switch needs {down}+{up} ports but radix is {self.radix}"
            )
        num_leaves = -(-n // down)
        num_spines = max(1, -(-(num_leaves * up) // self.radix))
        leaves = [self._new_switch("leaf", i) for i in range(num_leaves)]
        spines = [self._new_switch("spine", i) for i in range(num_spines)]
        self.leaf_switches.extend(leaves)
        self.spine_switches.extend(spines)
        self._attach([(node, leaves[i // down]) for i, node in enumerate(ports)])
        for leaf in leaves:
            self.spines_of_leaf[leaf] = []
            self.leaf_pod[leaf] = 0
        # each leaf's uplinks go round robin over the spines
        self._trunk(
            [
                (leaf, spines[(li * up + u) % num_spines])
                for li, leaf in enumerate(leaves) for u in range(up)
            ],
            self.leaf_spine,
            self.spines_of_leaf,
        )
        for spine in spines:
            self.spine_pod[spine] = 0

    def _build_three_level(self, ports: Sequence[int]) -> None:
        n = len(ports)
        half = self.radix // 2
        pod_capacity = half * half          # endpoints per pod (nonblocking)
        num_pods = -(-n // pod_capacity)
        down = half
        # Each leaf has ``up`` uplinks, one to each of its pod's ``up``
        # spines, so every two leaves share every pod spine.  Every spine has
        # ``half`` core uplinks: a pod's core-uplink capacity is ``half * up``
        # links, the leaves' total, so the taper applies once, at the leaves.
        up = max(1, round(down * self.taper))
        cores_per_index = max(1, -(-(half * num_pods) // self.radix))
        num_cores = up * cores_per_index
        cores = [self._new_switch("core", i) for i in range(num_cores)]
        self.core_switches.extend(cores)

        ports = list(ports)
        for pod in range(num_pods):
            pod_ports = ports[pod * pod_capacity : (pod + 1) * pod_capacity]
            if not pod_ports:
                continue
            num_leaves = -(-len(pod_ports) // down)
            leaves = [self._new_switch("leaf", pod * half + i) for i in range(num_leaves)]
            spines = [self._new_switch("spine", pod * half + i) for i in range(up)]
            self.leaf_switches.extend(leaves)
            self.spine_switches.extend(spines)
            for leaf in leaves:
                self.leaf_pod[leaf] = pod
            for si, spine in enumerate(spines):
                self.spine_pod[spine] = pod
                self.spine_index[spine] = si
            self._attach([(node, leaves[i // down]) for i, node in enumerate(pod_ports)])
            for leaf in leaves:
                self.spines_of_leaf[leaf] = []
            self._trunk(
                [(leaf, spine) for leaf in leaves for spine in spines],
                self.leaf_spine,
                self.spines_of_leaf,
            )
            # pod spine <-> core links: spine with index s connects only to the
            # core group [s*cores_per_index, (s+1)*cores_per_index), so that
            # same-index spines of different pods share cores (valid up/down
            # paths exist between any two pods).
            for spine in spines:
                self.cores_of_spine[spine] = []
            self._trunk(
                [
                    (spine, cores[si * cores_per_index + u % cores_per_index])
                    for si, spine in enumerate(spines) for u in range(half)
                ],
                self.spine_core,
                self.cores_of_spine,
            )

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

    @staticmethod
    def _rotated(seq: List, key: int) -> List:
        """Deterministically rotate ``seq`` by a hash of ``key``.

        Candidate paths are enumerated starting at a flow-dependent offset so
        that different flows spread their (capped) path choices over all
        parallel spines/cores, approximating adaptive routing's load
        balancing instead of always hammering the first few switches.
        """
        if len(seq) <= 1:
            return list(seq)
        off = mix64(key) % len(seq)
        return list(seq[off:]) + list(seq[:off])

    def _leaf_to_leaf_paths(self, leaf_a: int, leaf_b: int, max_paths: int, key: int = 0) -> List[List[int]]:
        """Switch-level up/down paths from ``leaf_a`` to ``leaf_b`` (link lists).

        ``key`` (typically derived from the flow endpoints) rotates the spine
        and parallel-link enumeration so that different flows between the
        same leaf pair exercise different parallel resources.  Paths are
        enumerated spine-first: one path per distinct spine before a second
        parallel link of any spine is used.
        """
        if leaf_a == leaf_b:
            return [[]]
        paths: List[List[int]] = []
        pod_a = self.leaf_pod.get(leaf_a, 0)
        pod_b = self.leaf_pod.get(leaf_b, 0)
        if self.levels == 2 or pod_a == pod_b:
            spines = self._rotated(self.spines_of_leaf.get(leaf_a, []), key)
            up_hash, down_hash = mix64(key ^ 0xA5), mix64(key ^ 0x5A)
            # Round-robin over parallel (up, down) link pairs per spine.
            for round_idx in range(4):
                for spine in spines:
                    if (leaf_b, spine) not in self.leaf_spine:
                        continue
                    ups = self.leaf_spine[(leaf_a, spine)]
                    downs = self.leaf_spine[(leaf_b, spine)]
                    if round_idx >= max(len(ups), len(downs)):
                        continue
                    u = ups[(round_idx + up_hash) % len(ups)][0]
                    d = downs[(round_idx + down_hash) % len(downs)][1]
                    paths.append([u, d])
                    if len(paths) >= max_paths:
                        return paths
                if paths and round_idx == 0:
                    # one full spine round already gives the needed diversity
                    break
            return paths
        # three-level, different pods: leaf_a -> spine s -> core -> spine s' -> leaf_b
        hashes = [mix64(key ^ i) for i in range(4)]
        for spine_a in self._rotated(self.spines_of_leaf.get(leaf_a, []), key):
            for spine_b in self.spines_of_leaf.get(leaf_b, []):
                if self.spine_index.get(spine_a) != self.spine_index.get(spine_b):
                    continue
                for core in self._rotated(self.cores_of_spine.get(spine_a, []), key):
                    if (spine_b, core) not in self.spine_core:
                        continue
                    ups1 = self.leaf_spine[(leaf_a, spine_a)]
                    ups2 = self.spine_core[(spine_a, core)]
                    downs2 = self.spine_core[(spine_b, core)]
                    downs1 = self.leaf_spine[(leaf_b, spine_b)]
                    up1 = ups1[hashes[0] % len(ups1)][0]
                    up2 = ups2[hashes[1] % len(ups2)][0]
                    down2 = downs2[hashes[2] % len(downs2)][1]
                    down1 = downs1[hashes[3] % len(downs1)][1]
                    paths.append([up1, up2, down2, down1])
                    if len(paths) >= max_paths:
                        return paths
                    break  # one core per (spine_a, spine_b) pair, move to next spine
        return paths

    def paths(self, src: int, dst: int, max_paths: int = 4) -> List[List[int]]:
        """Minimal up/down paths (as directed-link index lists) from node
        ``src`` to node ``dst`` through this network, including the access
        links at both ends."""
        table = self._node_atts
        if table is None:
            table = self._node_atts = {
                node: tuple(self.attachments[i] for i in idxs)
                for node, idxs in self.node_attachments.items()
            }
        out: List[List[int]] = []
        key = (src * 1000003 + dst) & 0x7FFFFFFF
        for att_s in table.get(src, ()):
            for att_d in table.get(dst, ()):
                if att_d is att_s:
                    continue
                for mid in self._leaf_to_leaf_paths(att_s.leaf, att_d.leaf, max_paths, key=key):
                    out.append([att_s.up_link] + mid + [att_d.down_link])
                    if len(out) >= max_paths:
                        return out
        return out

    def entry_paths(self, src: int, leaf_target: Optional[int] = None) -> List[_Attachment]:
        """Attachments usable to enter the network from ``src``."""
        return self.attachments_of(src)


# --------------------------------------------------------------------------
#  Standalone fat-tree cluster (baseline topology of Table II)
# --------------------------------------------------------------------------
@register_topology("fattree")
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
    accs = [topo.add_accelerator(f"acc{i}", index=i) for i in range(num_accelerators)]
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
