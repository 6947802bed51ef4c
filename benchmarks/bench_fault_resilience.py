"""Fault-injection study: bandwidth retained under cable faults.

The contract, recorded as ``BENCH_fault_resilience.json``, is the paper's
graceful-degradation claim: for every ``(topology family, routing
policy)`` pair, a nested schedule of dead cables degrades alltoall and
permutation bandwidth *gradually* — on the HammingMesh families no pair
disconnects and the fabric retains a documented fraction of its
fault-free bandwidth at the deepest fault point.  The fault samples and
the solver are deterministic, so the curves are also compared
bit-identically to the committed baseline.

The empty-fault-set identity (``degraded_route_table`` with no faults
*is* the shared memoized fault-free table) is asserted directly — the
``num_faults=0`` baseline row of the sweep is fault-free by construction,
not by numerical luck.
"""

from __future__ import annotations

import pytest

from repro.analysis import format_nested_table

from _bench_utils import committed_artifact, run_once, run_sweep

_POLICIES = ("minimal", "ugal")
#: the HammingMesh headline: at the deepest committed fault point (8 dead
#: cables) the 2x2-board mesh must retain at least this fraction of its
#: fault-free alltoall bandwidth (measured ~0.84; the floor leaves room
#: for sampler-seed drift without letting the claim regress silently).
_HX_RETAINED_FLOOR = 0.75


@pytest.mark.benchmark(group="fault-resilience")
def test_bandwidth_retained_under_link_faults(benchmark):
    data = run_sweep(benchmark, "fault_resilience", record="fault_resilience")

    max_faults = {
        topo: entry["minimal"]["curve"][-1]["num_faults"]
        for topo, entry in data.items()
    }
    print()
    print(
        format_nested_table(
            "Retained alltoall fraction at the deepest fault point",
            {
                topo: {
                    pol: entry[pol]["curve"][-1]["retained_alltoall"]
                    for pol in _POLICIES
                }
                for topo, entry in data.items()
            },
            value_format="{:.4f}",
        )
    )

    for topo, entry in data.items():
        for pol in _POLICIES:
            curve = entry[pol]["curve"]
            # the fault-free row normalizes itself...
            assert curve[0]["num_faults"] == 0
            assert curve[0]["retained_alltoall"] == pytest.approx(1.0)
            assert curve[0]["disconnected_pairs"] == 0
            # ...and every deeper point stays a *bandwidth* loss, reported
            # per pair, never a crash (disconnections are counted, rates
            # stay well-formed).
            for point in curve:
                assert 0.0 <= point["retained_alltoall"] <= 1.0 + 1e-9, (topo, pol)
                assert point["disconnected_pairs"] >= 0
                assert point["dead_links"] >= point["num_faults"]  # cable = 2 links

    # The paper's claim, quantified: HammingMesh path diversity turns dead
    # cables into a modest bandwidth loss with zero disconnected pairs.
    for topo in ("hx2mesh",):
        for pol in _POLICIES:
            last = data[topo][pol]["curve"][-1]
            assert last["num_faults"] == max_faults[topo]
            assert last["disconnected_pairs"] == 0, (topo, pol)
            assert last["retained_alltoall"] >= _HX_RETAINED_FLOOR, (
                f"{topo}/{pol} retained only "
                f"{last['retained_alltoall']:.3f} of fault-free alltoall"
            )

    # --- deterministic study: bit-identical to the committed baseline.
    baseline = committed_artifact("fault_resilience")
    if baseline is not None:
        from repro.exp.recording import compact, to_jsonable

        compaction = baseline.get("compaction", {})
        fresh = compact(
            to_jsonable(data),
            float_digits=int(compaction.get("float_digits", 6)),
            max_series=int(compaction.get("max_series", 256)),
        )
        for topo, entry in baseline["result"].items():
            for pol in _POLICIES:
                assert fresh[topo][pol]["curve"] == entry[pol]["curve"], (
                    f"fault-resilience curve drifted from the committed "
                    f"baseline on ({topo}, {pol})"
                )


@pytest.mark.benchmark(group="fault-resilience")
def test_empty_fault_set_is_the_shared_table(benchmark):
    """No faults == the memoized fault-free table, by identity not tolerance."""
    from repro.analysis.figures import _routing_policy_topo
    from repro.sim import FaultSet
    from repro.sim.faults import degraded_route_table
    from repro.sim.routing import route_table_for

    def body():
        out = {}
        for topo_key in ("hx2mesh", "fattree_tapered"):
            topo = _routing_policy_topo(topo_key)
            for faults in (None, FaultSet.empty()):
                degraded = degraded_route_table(topo, faults, max_paths=8)
                shared = route_table_for(topo, max_paths=8)
                out[(topo_key, faults is None)] = degraded is shared
        return out

    identities = run_once(benchmark, body)
    assert all(identities.values()), identities


@pytest.mark.benchmark(group="fault-resilience")
def test_hardened_runner_survives_a_worker_crash(benchmark):
    """A hard-killed worker is retried on a fresh pool, not a sweep failure."""
    import os
    import tempfile

    from repro import obs
    from repro.exp import Runner, Scenario, kernel_ref
    from repro.exp.cells import fragile_cell

    retries = obs.counter("exp.worker_retries")

    def body():
        fd, sentinel = tempfile.mkstemp(prefix="bench_crash_once_")
        os.close(fd)
        os.unlink(sentinel)  # fragile_cell creates it on first (crashing) run
        fragile = kernel_ref(fragile_cell)
        cells = [Scenario(fragile, {"mode": "crash", "sentinel": sentinel, "value": 0})]
        cells += [Scenario(fragile, {"mode": "ok", "value": i}) for i in (1, 2, 3)]
        before = retries.value
        report = Runner(workers=2, cache=False, retry_backoff=0.1).run(cells)
        if os.path.exists(sentinel):
            os.unlink(sentinel)
        return {
            "values": sorted(v["value"] for v in report.values()),
            "worker_retries": retries.value - before,
            "quarantined": report.stats()["quarantined"],
        }

    data = run_once(benchmark, body)
    assert data["values"] == [0, 1, 2, 3]
    assert data["worker_retries"] >= 1, "exp.worker_retries never fired"
    assert data["quarantined"] == 0
