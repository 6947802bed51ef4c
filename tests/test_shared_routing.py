"""Cross-process tests for shared-memory route tables (share/attach).

The in-process share/attach equivalences live in ``test_routing_backend``;
this module covers the multiprocessing contract: a *spawned* child (no
fork inheritance, its own resource tracker) attaches the parent's segment
zero-copy, answers queries bit-identically, and neither a clean exit nor a
hard crash of the child unlinks the owner's segment.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.sim import FlowSimulator, clear_route_tables, random_permutation
from repro.sim.routing import RouteTable, route_table_for

PAIRS_PER_TOPO = 12


def _probe_pairs(topo, count=PAIRS_PER_TOPO):
    """A deterministic spread of (src, dst) accelerator pairs."""
    accels = list(topo.accelerators)
    step = max(1, len(accels) // count)
    return [
        (accels[i], accels[(i + len(accels) // 2) % len(accels)])
        for i in range(0, step * count, step)
    ]


def _query_table(table, pairs, flows):
    """The query battery both sides run: slices, link gathers, a solve."""
    slices = [table.pair_slice(s, d) for s, d in pairs]
    path_ids = np.concatenate(
        [np.arange(first, first + count, dtype=np.int64) for first, count in slices]
    )
    links, lengths = table.gather_links(path_ids)
    sim = FlowSimulator(table.topo, max_paths=table.max_paths, table=table)
    res = sim.maxmin_rates(flows)
    return {
        "slices": slices,
        "links": np.asarray(links),
        "lengths": np.asarray(lengths),
        "flow_rates": np.asarray(res.flow_rates),
        "link_utilization": np.asarray(res.link_utilization),
        "bottleneck_link": int(res.bottleneck_link),
    }


def _child_attach_and_query(handle, pairs, flows):
    """Spawned-child worker: attach the shared table and run the battery."""
    table = RouteTable.attach(handle)
    out = _query_table(table, pairs, flows)
    out["zero_private_bytes"] = (
        table.estimated_csr_bytes() == table._csr_baseline
    )
    out["mem_budget"] = table.mem_budget
    return out


def _child_seeded_route_table(handle, flows):
    """Spawned-child worker: the pool-initializer path (seed + factory)."""
    from repro.sim.routing import seed_shared_route_tables

    seed_shared_route_tables([handle])
    sim = FlowSimulator(
        handle.topo, max_paths=handle.max_paths, mem_budget=handle.mem_budget
    )
    attached = hasattr(sim.table, "_attach_lease")
    res = sim.maxmin_rates(flows)
    return attached, np.asarray(res.flow_rates)


def _child_attach_and_crash(handle):
    """Spawned-child worker: attach, then die without any cleanup."""
    RouteTable.attach(handle)
    os._exit(1)


@pytest.fixture(scope="module")
def spawn_pool():
    """One spawned worker shared by the module (spawn start-up is slow)."""
    with ProcessPoolExecutor(
        max_workers=1, mp_context=mp.get_context("spawn")
    ) as pool:
        yield pool


class TestCrossProcessBitIdentity:
    def test_all_families_match_across_processes(
        self, all_small_topologies, spawn_pool
    ):
        """A spawn child's attached-table answers equal the parent's exactly."""
        clear_route_tables()
        for name, topo in all_small_topologies.items():
            table = route_table_for(topo, max_paths=4)
            pairs = _probe_pairs(topo)
            flows = random_permutation(topo.num_accelerators, seed=11)
            expected = _query_table(table, pairs, flows)
            handle = table.share()
            got = spawn_pool.submit(
                _child_attach_and_query, handle, pairs, flows
            ).result(timeout=120)
            assert got["slices"] == expected["slices"], name
            assert np.array_equal(got["links"], expected["links"]), name
            assert np.array_equal(got["lengths"], expected["lengths"]), name
            assert np.array_equal(got["flow_rates"], expected["flow_rates"]), name
            assert np.array_equal(
                got["link_utilization"], expected["link_utilization"]
            ), name
            assert got["bottleneck_link"] == expected["bottleneck_link"], name
            # Snapshot pairs answer from the shared views: no private bytes.
            assert got["zero_private_bytes"], name
        clear_route_tables()

    def test_budgeted_table_matches_across_processes(self, hx2mesh_4x4, spawn_pool):
        """A table under a byte budget shares and attaches bit-identically,
        and the attached copy keeps the budget."""
        clear_route_tables()
        table = route_table_for(hx2mesh_4x4, max_paths=4, mem_budget="64K")
        assert table.mem_budget == 64 << 10
        pairs = _probe_pairs(hx2mesh_4x4)
        flows = random_permutation(hx2mesh_4x4.num_accelerators, seed=5)
        expected = _query_table(table, pairs, flows)
        got = spawn_pool.submit(
            _child_attach_and_query, table.share(), pairs, flows
        ).result(timeout=120)
        assert got["slices"] == expected["slices"]
        assert np.array_equal(got["links"], expected["links"])
        assert np.array_equal(got["flow_rates"], expected["flow_rates"])
        assert got["mem_budget"] == table.mem_budget
        clear_route_tables()

    def test_seeded_factory_attaches_in_child(self, fat_tree_64, spawn_pool):
        """seed_shared_route_tables + route_table_for = attach, not rebuild."""
        clear_route_tables()
        flows = random_permutation(fat_tree_64.num_accelerators, seed=3)
        sim = FlowSimulator(fat_tree_64, max_paths=4)
        expected = sim.maxmin_rates(flows)
        attached, rates = spawn_pool.submit(
            _child_seeded_route_table, sim.table.share(), flows
        ).result(timeout=120)
        assert attached, "child built a table instead of attaching the seed"
        assert np.array_equal(rates, np.asarray(expected.flow_rates))
        clear_route_tables()


class TestSegmentLifetime:
    def test_share_is_idempotent(self, hx2mesh_4x4):
        clear_route_tables()
        table = route_table_for(hx2mesh_4x4, max_paths=4)
        table.pair_slice(*_probe_pairs(hx2mesh_4x4)[0])
        assert table.share() is table.share()
        clear_route_tables()

    def test_crashing_attacher_does_not_unlink(self, hx2mesh_4x4):
        """Regression: a child dying mid-attach must not reap the segment.

        CPython's resource tracker treats a dead process' registered
        segments as leaked and unlinks them; ``attach`` deregisters the
        child-side registration precisely so an ungraceful worker death
        (the BrokenProcessPool scenario) cannot destroy the parent's
        still-live table.
        """
        clear_route_tables()
        table = route_table_for(hx2mesh_4x4, max_paths=4)
        for src, dst in _probe_pairs(hx2mesh_4x4):
            table.pair_slice(src, dst)
        handle = table.share()
        proc = mp.get_context("spawn").Process(
            target=_child_attach_and_crash, args=(handle,)
        )
        proc.start()
        proc.join(timeout=120)
        assert proc.exitcode == 1
        # The segment must still exist and carry the same bytes.
        reattached = RouteTable.attach(handle)
        first, count = table.pair_slice(*_probe_pairs(hx2mesh_4x4)[0])
        assert reattached.pair_slice(*_probe_pairs(hx2mesh_4x4)[0]) == (first, count)
        del reattached
        gc.collect()
        clear_route_tables()

    def test_owner_unlinks_segment_on_collection(self, torus_4x4_boards):
        """Dropping the owning table finalizes (unlinks) its segment."""
        clear_route_tables()
        table = route_table_for(torus_4x4_boards, max_paths=4)
        table.pair_slice(*_probe_pairs(torus_4x4_boards)[0])
        handle = table.share()
        seg = shared_memory.SharedMemory(name=handle.name)
        try:  # this open is a probe, not an owner: keep the tracker clean
            from multiprocessing import resource_tracker

            resource_tracker.unregister(seg._name, "shared_memory")
        except Exception:
            pass
        seg.close()
        del table
        clear_route_tables()
        gc.collect()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.name)
