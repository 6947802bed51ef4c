"""Valiant, UGAL and degraded route sets in blocks, held to their per-pair
oracles.

:func:`~repro.sim.paths.valiant_block` draws every pair's intermediates as
one array and routes the detour phases of a whole block of pairs at once;
:meth:`~repro.sim.faults.DegradedPathProvider.paths_block` filters a whole
block of base candidates against the dead links.  The per-pair loops they
replaced are kept verbatim in ``route_oracles.py``.  Here hypothesis draws
pair blocks (repeats and ``src == dst`` included), budgets, seeds,
UGAL-style excludes and fault sets (dead cables, an isolated node, a dead
node), and the block code must return the same paths in the same order,
raise the same error, and count the same rerouted and disconnected pairs.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import route_oracles as oracle
from repro.core import build_hammingmesh
from repro.sim import paths
from repro.sim.faults import (
    _PAIRS_DISCONNECTED,
    _PAIRS_REROUTED,
    DegradedPathProvider,
    FaultSet,
    sample_link_faults,
)
from repro.sim.paths import (
    path_lists_to_csr,
    path_provider_for,
    valiant_block,
    valiant_intermediates,
)
from repro.topology import (
    TopologyError,
    build_dragonfly,
    build_fat_tree,
    build_hyperx2d,
    build_torus2d,
)

#: name -> builder; the single-row mesh has no fully diagonal board, so its
#: intermediates take the relaxed HammingMesh rule
BUILDERS = {
    "hx2mesh": lambda: build_hammingmesh(2, 2, 4, 4),
    "hxmesh-single-row": lambda: build_hammingmesh(2, 2, 4, 1),
    "hx2mesh-multilevel": lambda: build_hammingmesh(2, 2, 6, 3, radix=4),
    "fattree": lambda: build_fat_tree(32, radix=8),
    "dragonfly": lambda: build_dragonfly(
        4, routers_per_group=4, endpoints_per_router=2, global_links_per_router=2
    ),
    "torus": lambda: build_torus2d(4, 4),
    "hyperx": lambda: build_hyperx2d(4, 4, terminals=1),
}


@lru_cache(maxsize=None)
def _topology(name):
    return BUILDERS[name]()


@lru_cache(maxsize=None)
def _provider(name):
    return path_provider_for(_topology(name))


def _faults(topo, dead_cables, isolate, kill):
    """Sampled dead cables, every cable of one accelerator (it stays alive
    with no surviving path), and one dead accelerator."""
    accs = topo.accelerators
    faults = sample_link_faults(topo, dead_cables, seed=dead_cables)
    if isolate is not None:
        node = accs[isolate % len(accs)]
        faults = faults.union(FaultSet.from_links(topo, topo.out_links(node)))
    if kill is not None:
        faults = faults.union(FaultSet.from_nodes(topo, [accs[kill % len(accs)]]))
    return faults


class _Recording:
    """A provider that records every pair and width it routes without
    raising."""

    def __init__(self, base):
        self.topo, self.base, self.array_routes = base.topo, base, base.array_routes
        self.routed = []

    def paths_block(self, src, dst, max_paths=4):
        block = self.base.paths_block(src, dst, max_paths)
        self.routed += [(s, d, max_paths) for s, d in zip(src.tolist(), dst.tolist())]
        return block


class _RaisingBase:
    """A family provider whose routing raises for every pair from one
    source, as a structured provider may for a pair it cannot route."""

    def __init__(self, base, source):
        self.topo, self.base, self.source = base.topo, base, source
        self.array_routes = base.array_routes

    def paths(self, src, dst, max_paths=4):
        if src == self.source:
            raise TopologyError("unroutable source")
        return self.base.paths(src, dst, max_paths)

    def paths_block(self, src, dst, max_paths=4):
        if (np.asarray(src) == self.source).any():
            raise TopologyError("unroutable source")
        return self.base.paths_block(src, dst, max_paths)


def _pairs(topo, picks):
    accs = topo.accelerators
    src = np.array([accs[a % len(accs)] for a, _ in picks], dtype=np.int64)
    dst = np.array([accs[b % len(accs)] for _, b in picks], dtype=np.int64)
    return src, dst


def _counters():
    return _PAIRS_REROUTED.value, _PAIRS_DISCONNECTED.value


def _outcome(call):
    """The call's result and the rerouted/disconnected counts it adds, or
    its error message."""
    before = _counters()
    try:
        result = call()
    except TopologyError as err:
        result = str(err)
    return result, tuple(b - a for a, b in zip(before, _counters()))


def _assert_blocks_equal(got, want):
    for mine, theirs in zip(got, want):
        assert np.array_equal(mine, theirs)


_NAMES = st.sampled_from(sorted(BUILDERS))
#: accelerator indices of pairs and node faults are drawn from a small
#: range, so pairs often end at the isolated or the dead accelerator
_ACC = st.integers(0, 23)
_PICKS = st.lists(st.tuples(_ACC, _ACC), min_size=1, max_size=12).map(
    lambda picks: picks + picks[: len(picks) // 3] + [(picks[0][0], picks[0][0])]
)
_FAULTS = st.tuples(st.integers(0, 8), st.none() | _ACC, st.none() | _ACC)


@settings(max_examples=60, deadline=None)
@given(name=_NAMES, picks=_PICKS, count=st.integers(0, 18), seed=st.integers(0, 3))
def test_intermediates_match_the_probe(name, picks, count, seed):
    topo = _topology(name)
    for s, d in zip(*(side.tolist() for side in _pairs(topo, picks))):
        assert valiant_intermediates(topo, s, d, count, seed=seed) == (
            oracle.valiant_intermediates(topo, s, d, count, seed=seed)
        )


@settings(max_examples=80, deadline=None)
@given(
    name=_NAMES,
    picks=_PICKS,
    budgets=st.lists(st.integers(0, 8), min_size=20, max_size=20),
    seed=st.integers(0, 3),
    exclude_width=st.none() | st.integers(1, 4),
    faults=st.none() | _FAULTS,
    phase_batch=st.sampled_from([1, 3, 7, paths._PHASE_BATCH]),
)
def test_valiant_block_matches_the_pair_loop(
    name, picks, budgets, seed, exclude_width, faults, phase_batch
):
    """Detours of a block equal the per-pair loop's, with UGAL's minimal
    routes excluded or not, on fault-free and degraded providers (where
    phases through a dead or isolated intermediate raise), whatever the
    size of the phase slices."""
    topo = _topology(name)
    provider = _provider(name)
    if faults is not None:
        provider = DegradedPathProvider(topo, _faults(topo, *faults), base=provider)
    src, dst = _pairs(topo, picks)
    budget = np.resize(np.array(budgets, dtype=np.int64), len(src))
    exclude = None
    if exclude_width is not None:
        minimal = oracle._path_lists(provider, src, dst, exclude_width)
        exclude = path_lists_to_csr([paths or [] for paths in minimal])
    mine, theirs = _Recording(provider), _Recording(provider)
    with mock.patch.object(paths, "_PHASE_BATCH", phase_batch):
        got = valiant_block(
            mine, src, dst, budget, seed=seed, exclude=exclude, exclude_width=exclude_width or 0
        )
    excludes = None if exclude is None else oracle.csr_to_path_lists(*exclude)
    want = oracle.valiant_path_lists(
        theirs, src.tolist(), dst.tolist(), budget.tolist(), seed=seed, excludes=excludes
    )
    _assert_blocks_equal(got, path_lists_to_csr(want))
    # the same phases and minimal routes, less the minimal routes reused
    assert not Counter(mine.routed) - Counter(theirs.routed)
    if exclude_width is None:
        assert Counter(mine.routed) == Counter(theirs.routed)


@settings(max_examples=100, deadline=None)
@given(
    name=_NAMES,
    picks=_PICKS,
    faults=_FAULTS,
    max_paths=st.integers(1, 6),
    raising=st.none() | _ACC,
)
def test_degraded_block_matches_the_pair_filter(name, picks, faults, max_paths, raising):
    """Surviving paths, errors and fault counters of a block equal the
    per-pair filter's, also when a pair has a dead endpoint or no
    surviving path, or its base routing raises."""
    topo = _topology(name)
    src, dst = _pairs(topo, picks)
    base = _provider(name)
    if raising is not None:
        base = _RaisingBase(base, int(src[raising % len(src)]))
    provider = DegradedPathProvider(topo, _faults(topo, *faults), base=base)
    got = _outcome(lambda: provider.paths_block(src, dst, max_paths))
    want = _outcome(lambda: oracle.SurvivingPaths(provider).paths_block(src, dst, max_paths))
    assert got[1] == want[1]
    if isinstance(want[0], str):
        assert got[0] == want[0]
    else:
        _assert_blocks_equal(got[0], want[0])


def test_oracle_inputs_reach_every_case():
    """The drawn fault sets do produce dead endpoints, pairs without a
    surviving path and raising detour phases."""
    topo = _topology("torus")
    accs = topo.accelerators
    provider = DegradedPathProvider(topo, _faults(topo, 2, 3, 5), base=_provider("torus"))
    for pair, message in (((accs[0], accs[5]), "endpoint failed"), ((accs[0], accs[3]), "dead links")):
        with pytest.raises(TopologyError, match=message):
            provider.paths_block(np.array([pair[0]]), np.array([pair[1]]), 4)
    src, dst = np.array([accs[0]] * 4), np.array(accs[1:5])
    got = valiant_block(provider, src, dst, np.full(4, 4))
    assert np.array_equal(got[0], path_lists_to_csr(oracle.valiant_path_lists(
        provider, src.tolist(), dst.tolist(), [4] * 4
    ))[0])


_LINK_RUNS = st.lists(st.integers(0, 3), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(
    candidates=st.lists(st.tuples(st.integers(0, 2), _LINK_RUNS), max_size=30),
    excluded=st.lists(st.tuples(st.integers(0, 2), st.lists(st.integers(0, 3), max_size=3)), max_size=6),
    budgets=st.lists(st.integers(0, 5), min_size=3, max_size=3),
    collide=st.booleans(),
)
def test_duplicate_filter_compares_links(candidates, excluded, budgets, collide):
    """Each pair keeps the first of every distinct detour that is not
    excluded, up to its budget, also when every path hashes alike."""
    candidates = sorted(candidates, key=lambda c: c[0])
    pair = np.array([p for p, _ in candidates], dtype=np.int64)
    lengths, links = path_lists_to_csr([[path for _, path in candidates]])[1:]
    exclude = path_lists_to_csr([[path for p, path in excluded if p == q] for q in range(3)])
    budget = np.array(budgets, dtype=np.int64)
    want, seen = [], {q: {tuple(path) for p, path in excluded if p == q} for q in range(3)}
    for p, path in candidates:
        fresh = tuple(path) not in seen[p]
        seen[p].add(tuple(path))
        want.append(fresh and sum(w for w, (q, _) in zip(want, candidates) if q == p) < budget[p])
    hashes = (lambda keys: np.zeros(len(keys), dtype=np.uint64)) if collide else paths.mix64_array
    with mock.patch.object(paths, "mix64_array", hashes):
        got = paths._accept(pair, lengths, links, budget, exclude)
    assert got.tolist() == want
