"""Routing policies: how candidate paths and split weights are chosen.

Section IV-C of the paper argues that HammingMesh's bandwidth claims rest on
*adaptive* routing; the reproduction historically hard-coded one implicit
policy (split evenly over minimal paths).  This module makes the policy a
first-class, name-registered object consumed by the shared
:class:`~repro.sim.routing.RouteTable` — and therefore by both simulators
and every backend:

* ``"minimal"`` — today's behaviour, bit-identical: the provider's minimal
  candidates with an even ``1/k`` split.
* ``"ecmp"`` — a static flow hash pins each pair onto exactly one of its
  minimal paths (no multipath spreading; models ECMP without adaptivity).
* ``"valiant"`` — randomized two-phase non-minimal routing: minimal to a
  per-pair-deterministic intermediate (a different board / group / switch,
  see :func:`~repro.sim.paths.valiant_intermediates`), then minimal to the
  destination.  Trades hop count for worst-case load balance.
* ``"ugal"`` — per-flow choice between the minimal and the Valiant candidate
  sets by estimated congestion.  The table stores both groups (the leading
  ``num_minimal`` paths are the minimal group); the flow simulator picks a
  group per flow from the link load its flow set would put on the minimal
  routes (see :meth:`FlowSimulator.assign`), while the packet simulator's
  injection-time queue scoring chooses among all candidates directly —
  which *is* UGAL's "adaptively pick minimal unless its queues are longer".

A policy is stateless and cheap to construct; equality of
:meth:`RoutingPolicy.cache_key` defines route-table memoization identity
(``route_table_for`` is keyed per ``(topology, policy, max_paths)``), and
the policy *name* is what enters experiment-engine content hashes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Type, Union

import numpy as np

from .._hash import mix64, mix64_array
from ..core.routing import csr_take
from .paths import PathProvider, merge_path_blocks, valiant_block

__all__ = [
    "RouteBlock",
    "RoutingPolicy",
    "MinimalPolicy",
    "EcmpPolicy",
    "ValiantPolicy",
    "UgalPolicy",
    "POLICIES",
    "register_policy",
    "get_policy",
    "available_policies",
]


@dataclass(frozen=True)
class RouteBlock:
    """Route sets of a block of pairs as CSR arrays.

    Pair ``i`` has ``counts[i]`` paths, of which the leading
    ``num_minimal[i]`` form its minimal group; path ``j`` has
    ``lengths[j]`` links and split weight ``weights[j]``; ``links``
    concatenates every path's links in order.
    """

    counts: np.ndarray
    lengths: np.ndarray
    links: np.ndarray
    weights: np.ndarray
    num_minimal: np.ndarray

    def head(self, num_pairs: int) -> "RouteBlock":
        """The block of the first ``num_pairs`` pairs."""
        num_paths = int(self.counts[:num_pairs].sum())
        num_links = int(self.lengths[:num_paths].sum())
        return RouteBlock(
            self.counts[:num_pairs], self.lengths[:num_paths], self.links[:num_links],
            self.weights[:num_paths], self.num_minimal[:num_pairs],
        )


class RoutingPolicy:
    """Base class of the name-registered routing policies."""

    #: registry name (set by :func:`register_policy`)
    name: str = ""
    #: True when the flow simulator should choose between the minimal and the
    #: non-minimal group per flow by estimated congestion (UGAL)
    selects_group: bool = False

    def cache_key(self) -> Tuple:
        """Memoization identity of the policy (shared-table key component)."""
        return (self.name,)

    def routes_block(
        self, provider: PathProvider, src: np.ndarray, dst: np.ndarray, max_paths: int
    ) -> RouteBlock:
        """Candidate paths + split weights of every ``(src[i], dst[i])`` pair."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} ({self.name!r})>"


# ---------------------------------------------------------------------- registry
POLICIES: Dict[str, Type[RoutingPolicy]] = {}


def register_policy(name: str):
    """Register a :class:`RoutingPolicy` subclass under ``name``."""

    def decorator(cls: Type[RoutingPolicy]) -> Type[RoutingPolicy]:
        if name in POLICIES:
            raise ValueError(f"routing policy {name!r} registered twice")
        cls.name = name
        POLICIES[name] = cls
        return cls

    return decorator


def available_policies() -> List[str]:
    """Names of the registered routing policies."""
    return sorted(POLICIES)


def get_policy(policy: Union[str, RoutingPolicy, None]) -> RoutingPolicy:
    """Resolve a policy by name (``None`` means ``"minimal"``).

    Instances pass through unchanged, so parameterized policies (e.g.
    ``ValiantPolicy(seed=7)``) can be used wherever a name is accepted.
    """
    if policy is None:
        return _MINIMAL
    if isinstance(policy, RoutingPolicy):
        return policy
    try:
        cls = POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown routing policy {policy!r}; available: {available_policies()}"
        ) from None
    return cls()


# ------------------------------------------------------------------- minimal
@register_policy("minimal")
class MinimalPolicy(RoutingPolicy):
    """Even split over the provider's minimal candidates (the historical
    behaviour; routes and weights are bit-identical to the pre-policy code)."""

    def routes_block(
        self, provider: PathProvider, src: np.ndarray, dst: np.ndarray, max_paths: int
    ) -> RouteBlock:
        counts, lengths, links = provider.paths_block(src, dst, max_paths)
        # 1.0 / k per path in float64, as a per-pair split computes it
        weights = np.repeat(1.0 / np.maximum(counts, 1), counts)
        return RouteBlock(counts, lengths, links, weights, counts)


_MINIMAL = MinimalPolicy()


# ---------------------------------------------------------------------- ecmp
@register_policy("ecmp")
class EcmpPolicy(RoutingPolicy):
    """Static hash onto exactly one minimal path (ECMP without adaptivity).

    The chosen path is a pure function of ``(src, dst, seed)``; all traffic
    of the pair serialises onto it.  This models the oblivious single-path
    baseline of the paper's minimal-vs-adaptive discussion.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    def cache_key(self) -> Tuple:
        return (self.name, self.seed)

    def routes_block(
        self, provider: PathProvider, src: np.ndarray, dst: np.ndarray, max_paths: int
    ) -> RouteBlock:
        counts, lengths, links = provider.paths_block(src, dst, max_paths)
        salt = np.uint64(mix64(0xEC3F + self.seed))
        key = mix64_array(mix64_array(src * 1_000_003 + dst) ^ salt)
        routed = counts > 0
        idx = (key % np.maximum(counts, 1).astype(np.uint64)).astype(np.int64)
        lengths, links = csr_take(lengths, links, (np.cumsum(counts) - counts + idx)[routed])
        counts = routed.astype(np.int64)
        return RouteBlock(counts, lengths, links, np.ones(len(lengths)), counts)


# -------------------------------------------------------------------- valiant
@register_policy("valiant")
class ValiantPolicy(RoutingPolicy):
    """Randomized two-phase non-minimal routing (Valiant load balancing).

    Every candidate detours through a per-pair-deterministic intermediate;
    traffic splits evenly over the candidates.  Falls back to the minimal
    candidates on degenerate topologies with no usable intermediate.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    def cache_key(self) -> Tuple:
        return (self.name, self.seed)

    def routes_block(
        self, provider: PathProvider, src: np.ndarray, dst: np.ndarray, max_paths: int
    ) -> RouteBlock:
        detours = valiant_block(provider, src, dst, np.full(len(src), max_paths), seed=self.seed)
        # a pair without a detour (no usable intermediate) takes its minimal routes
        bare = detours[0] == 0
        counts = np.zeros(len(src), dtype=np.int64)
        minimal = (counts, detours[1][:0], detours[2][:0])
        if bare.any():
            minimal = provider.paths_block(src[bare], dst[bare], max_paths)
            counts[bare] = minimal[0]
        (counts, lengths, links), _ = merge_path_blocks(detours, (counts,) + minimal[1:])
        weights = np.repeat(1.0 / np.maximum(counts, 1), counts)
        return RouteBlock(counts, lengths, links, weights, np.where(bare, counts, 0))


# ----------------------------------------------------------------------- ugal
@register_policy("ugal")
class UgalPolicy(RoutingPolicy):
    """Universal globally-adaptive routing: minimal *or* Valiant per flow.

    The candidate budget is split between the two groups (minimal first), so
    every pair stores at most ``max_paths`` paths like any other policy.
    The static table weights split evenly over the minimal group — the
    congestion-dependent group choice happens where congestion is known:
    per flow set in :meth:`FlowSimulator.assign` (``selects_group``), and
    per packet in the packet simulator's injection-time queue scoring.
    With ``max_paths=1`` there is no room for a Valiant alternate and the
    policy degenerates to minimal routing.
    """

    selects_group = True

    def __init__(self, seed: int = 0):
        self.seed = seed

    def cache_key(self) -> Tuple:
        return (self.name, self.seed)

    def routes_block(
        self, provider: PathProvider, src: np.ndarray, dst: np.ndarray, max_paths: int
    ) -> RouteBlock:
        width = max(1, (max_paths + 1) // 2)
        minimal = provider.paths_block(src, dst, width)
        budgets = np.where(minimal[0] > 0, max_paths - minimal[0], 0)
        alternates = valiant_block(
            provider, src, dst, budgets, seed=self.seed, exclude=minimal, exclude_width=width
        )
        # a pair to itself has its empty path as a detour even at budget 0
        spent = budgets == 0
        alternates = (
            np.where(spent, 0, alternates[0]),
            alternates[1][~np.repeat(spent, alternates[0])],
            alternates[2],
        )
        (counts, lengths, links), order = merge_path_blocks(minimal, alternates)
        weights = np.concatenate([
            np.repeat(1.0 / np.maximum(minimal[0], 1), minimal[0]), np.zeros(len(alternates[1]))
        ])[order]
        return RouteBlock(counts, lengths, links, weights, minimal[0])
