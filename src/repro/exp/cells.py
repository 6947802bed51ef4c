"""Generic simulator cell kernels (not tied to one paper figure).

These are the engine-facing entry points the simulator benchmarks and the
engine's own tests sweep over: pure functions of JSON parameters, importable
by worker processes.  Figure-specific cells live next to their figures in
:mod:`repro.analysis.figures`.
"""

from __future__ import annotations

import os
import time
from typing import Optional

from .scenario import cell
from .seeding import as_generator

__all__ = [
    "probe_cell",
    "fragile_cell",
    "flow_alltoall_cell",
    "packet_vs_flow_cell",
    "packet_event_rate_cell",
    "flowsim_maxmin_cell",
    "flowsim_batch_cell",
    "flowsim_delta_cell",
    "maxmin_permutation_cell",
    "maxmin_permutation_batch",
    "route_table_reuse_cell",
    "obs_overhead_cell",
]


@cell(version=1)
def probe_cell(*, value=None, seed: int = 0, draws: int = 0):
    """Trivial deterministic cell used by tests and smoke runs.

    Echoes ``value`` and, when ``draws > 0``, a few seeded random numbers
    (to exercise the bit-identity guarantees across execution paths).
    """
    rng = as_generator(seed)
    return {
        "value": value,
        "draws": [float(x) for x in rng.random(draws)] if draws else [],
    }


@cell(version=1, cacheable=False)
def fragile_cell(
    *, mode: str = "ok", sentinel: str = "", seconds: float = 0.0, value: int = 0
):
    """Deliberately misbehaving cell for runner-hardening tests.

    ``mode`` selects the failure: ``"ok"`` returns immediately,
    ``"crash"`` hard-kills the worker process (``os._exit`` — the
    :class:`BrokenProcessPool` scenario), ``"raise"`` raises, ``"hang"``
    sleeps ``seconds`` (the cell-timeout scenario).  With ``sentinel``
    set, the misbehavior only happens while the sentinel file is absent
    (it is created first), so a retried cell succeeds — the
    crash-once-then-recover scenario.  Non-cacheable: its behavior
    depends on on-disk state.
    """
    misbehave = mode != "ok"
    if misbehave and sentinel:
        if os.path.exists(sentinel):
            misbehave = False
        else:
            with open(sentinel, "w") as fh:
                fh.write(mode)
    if misbehave:
        if mode == "crash":
            os._exit(17)
        elif mode == "raise":
            raise RuntimeError("poison cell")
        elif mode == "hang":
            time.sleep(seconds)
    return {"value": value, "mode": mode}


@cell(version=1)
def flow_alltoall_cell(
    *,
    a: int,
    b: int,
    x: int,
    y: int,
    max_paths: int = 8,
    num_phases: Optional[int] = 16,
    seed: int = 1,
    backend: str = "flow",
    policy: str = "minimal",
) -> float:
    """Alltoall fraction of an ``HxaMesh`` (a x b boards of x x y) via a backend."""
    from ..core import build_hammingmesh
    from ..sim import get_backend

    topo = build_hammingmesh(a, b, x, y)
    model = get_backend(backend, topo, max_paths=max_paths, policy=policy)
    return float(model.alltoall_fraction(num_phases=num_phases, seed=seed))


@cell(version=1)
def packet_vs_flow_cell(
    *,
    a: int,
    b: int,
    x: int,
    y: int,
    max_paths: int = 4,
    message_size: int = 1 << 18,
    seed: int = 4,
) -> dict:
    """Mean permutation bandwidth of the packet vs the flow backend."""
    from ..core import build_hammingmesh
    from ..sim import get_backend, random_permutation

    topo = build_hammingmesh(a, b, x, y)
    flows = random_permutation(topo.num_accelerators, seed=seed)
    packet = get_backend("packet", topo, max_paths=max_paths, message_size=message_size)
    flow = get_backend("flow", topo, max_paths=max_paths)
    return {
        "packet_mean": float(packet.phase_rates(flows).mean()),
        "flow_mean": float(flow.phase_rates(flows, exact=True).mean()),
    }


@cell(version=2, cacheable=False)
def packet_event_rate_cell(
    *,
    a: int,
    b: int,
    x: int,
    y: int,
    message_size: int = 1 << 17,
    max_paths: int = 4,
    seed: int = 9,
    impl: str = "vectorized",
    repeats: int = 3,
) -> dict:
    """Packet-simulator event throughput for one permutation load.

    Runs either the vectorized core (``impl="vectorized"``) or the
    pre-vectorization reference (``impl="reference"``) on an identical
    workload and reports events processed, core wall-clock seconds
    (best of ``repeats`` fresh runs, the standard noise guard), and the
    event rate.  The shared route table is warmed by a tiny pre-run first,
    so the measurement isolates the simulator core (route enumeration has
    its own benchmark).  Never cached: the result is a timing.
    """
    from ..core import build_hammingmesh
    from ..sim import (
        PacketNetwork,
        PacketSimConfig,
        ReferencePacketNetwork,
        random_permutation,
    )

    topo = build_hammingmesh(a, b, x, y)
    flows = random_permutation(topo.num_accelerators, seed=seed)
    config = PacketSimConfig(max_paths=max_paths)
    if impl not in ("vectorized", "reference"):
        raise ValueError(f"unknown packet impl {impl!r}")
    cls = ReferencePacketNetwork if impl == "reference" else PacketNetwork
    warm = cls(topo, config=config)
    warm.send_flows(flows, 1)
    warm.run()
    seconds = float("inf")
    for _ in range(max(1, repeats)):
        net = cls(topo, config=config)
        net.send_flows(flows, message_size)
        start = time.perf_counter()
        net.run()
        seconds = min(seconds, time.perf_counter() - start)
    events = int(net.engine.processed_events)
    return {
        "impl": impl,
        "events": events,
        "seconds": seconds,
        "events_per_second": events / seconds,
    }


@cell(version=1, cacheable=False)
def flowsim_maxmin_cell(
    *,
    cluster: str = "small",
    keys: tuple = ("ft_nonblocking", "dragonfly", "hx4mesh", "torus"),
    num_permutations: int = 2,
    max_paths: int = 8,
    seed: int = 11,
    impl: str = "incremental",
    repeats: int = 2,
) -> dict:
    """Fig12-style max-min permutation sweep timing (wall-clock, never cached).

    Solves ``num_permutations`` random permutations on each selected
    fig12-cluster topology with either the incremental solver
    (:meth:`FlowSimulator.maxmin_rates`) or the full-rescan reference
    (:func:`repro.sim.reference.reference_maxmin_rates`).  Assignments are
    warmed before timing, so only the progressive-filling solve is measured
    (best of ``repeats`` passes per solve); the mean rates come along so
    callers can assert both solvers produce the same numbers.
    """
    from ..analysis.clusters import cluster_configs
    from ..sim import FlowSimulator, random_permutation, reference_maxmin_rates

    if impl not in ("incremental", "reference"):
        raise ValueError(f"unknown maxmin impl {impl!r}")
    configs = {c.key: c for c in cluster_configs(cluster)}
    seconds = 0.0
    mean_rates = {}
    for key in keys:
        topo = configs[key].build()
        sim = FlowSimulator(topo, max_paths=max_paths)
        means = []
        for p in range(num_permutations):
            flows = random_permutation(topo.num_accelerators, seed=seed + p)
            sim.assign(flows)  # route + build incidence outside the clock
            best = float("inf")
            for _ in range(max(1, repeats)):
                start = time.perf_counter()
                if impl == "reference":
                    result = reference_maxmin_rates(sim, flows)
                else:
                    result = sim.maxmin_rates(flows)
                best = min(best, time.perf_counter() - start)
            seconds += best
            means.append(float(result.flow_rates.mean()))
        mean_rates[key] = means
    return {"impl": impl, "seconds": seconds, "mean_rates": mean_rates}


@cell(version=1, cacheable=False)
def flowsim_batch_cell(
    *,
    cluster: str = "small",
    keys: tuple = ("ft_nonblocking", "dragonfly", "hx4mesh", "torus"),
    num_permutations: int = 8,
    max_paths: int = 8,
    seed: int = 21,
    impl: str = "batched",
    repeats: int = 4,
) -> dict:
    """Serial vs batched max-min solve timing (wall-clock, never cached).

    The batched-solver contract probe: solves ``num_permutations`` random
    permutations on each selected fig12-cluster topology either one at a
    time (``impl="serial"``, repeated :meth:`FlowSimulator.maxmin_rates`
    calls) or stacked into one vectorized
    :meth:`FlowSimulator.maxmin_rates_batch` call (``impl="batched"``).
    Assignments are warmed outside the clock, so only the solves are
    measured (best of ``repeats``); the mean rates come along so callers
    can assert both paths produce bit-identical numbers.
    """
    from ..analysis.clusters import cluster_configs
    from ..sim import FlowSimulator, random_permutation

    if impl not in ("serial", "batched"):
        raise ValueError(f"unknown batch impl {impl!r}")
    configs = {c.key: c for c in cluster_configs(cluster)}
    seconds = 0.0
    mean_rates = {}
    for key in keys:
        topo = configs[key].build()
        sim = FlowSimulator(topo, max_paths=max_paths)
        flow_sets = [
            random_permutation(topo.num_accelerators, seed=seed + p)
            for p in range(num_permutations)
        ]
        for flows in flow_sets:
            sim.assign(flows)  # route + build incidence outside the clock
        best = float("inf")
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            if impl == "serial":
                results = [sim.maxmin_rates(flows) for flows in flow_sets]
            else:
                results = sim.maxmin_rates_batch(flow_sets)
            best = min(best, time.perf_counter() - start)
        seconds += best
        mean_rates[key] = [float(r.flow_rates.mean()) for r in results]
    return {"impl": impl, "seconds": seconds, "mean_rates": mean_rates}


@cell(version=1, cacheable=False)
def flowsim_delta_cell(
    *,
    topo_key: str = "fattree_tapered",
    policy: str = "minimal",
    num_moves: int = 32,
    batch: int = 16,
    max_paths: int = 8,
    seed: int = 13,
    repeats: int = 3,
) -> dict:
    """Per-neighbour-evaluation cost of the delta engine vs cold solves.

    Builds one routing-policy-study topology, solves its hand-built
    adversarial permutation into a warm state, and evaluates ``num_moves``
    random swap-two-destinations candidates two ways: speculatively
    batched through :meth:`FlowSimulator.maxmin_rates_delta_batch` (the
    adversary search's inner loop) and one cold
    :meth:`FlowSimulator.maxmin_rates` per candidate.  Both paths run once
    outside the clock first — whichever engine sees a (src, dst) pair
    first pays its route enumeration, which would otherwise bias the
    comparison — then are timed interleaved, best of ``repeats``, so slow
    multiplicative machine noise hits both sides alike.  The assignment
    LRU is disabled: a real search never revisits a candidate, so cached
    assignments would flatter the cold baseline.  Reports per-evaluation
    times, the speedup, warm/fallback counts, and the worst rate
    disagreement (the ``<= 1e-12`` parity evidence).  Never cached: the
    result is a timing.
    """
    import numpy as np

    from ..analysis.figures import _routing_policy_topo
    from ..sim import FlowSimulator, adversarial_permutation, swap_destinations

    topo = _routing_policy_topo(topo_key)
    sim = FlowSimulator(topo, policy=policy, max_paths=max_paths, assign_cache=0)
    flows = adversarial_permutation(topo)
    n = len(flows)
    rng = as_generator(seed)
    state = sim.maxmin_warm_state(flows)
    moves: list = []
    cands: list = []
    while len(cands) < num_moves:
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        cand = swap_destinations(flows, i, j)
        if cand[i].src != cand[i].dst and cand[j].src != cand[j].dst:
            moves.append((i, j))
            cands.append(cand)

    def eval_delta():
        out = []
        for k in range(0, num_moves, batch):
            out.extend(
                sim.maxmin_rates_delta_batch(
                    state, cands[k : k + batch], changed=moves[k : k + batch]
                )
            )
        return out

    def eval_cold():
        return [sim.maxmin_rates(cand) for cand in cands]

    delta_results = eval_delta()  # clock-free pass: warm the route caches
    cold_results = eval_cold()
    max_abs_diff = max(
        float(np.abs(d.result.flow_rates - c.flow_rates).max())
        for d, c in zip(delta_results, cold_results)
    )
    delta_seconds = cold_seconds = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        eval_delta()
        delta_seconds = min(delta_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        eval_cold()
        cold_seconds = min(cold_seconds, time.perf_counter() - start)
    return {
        "topo_key": topo_key,
        "policy": policy,
        "num_moves": num_moves,
        "warm_evals": sum(1 for d in delta_results if d.warm),
        "delta_ms_per_eval": 1e3 * delta_seconds / num_moves,
        "cold_ms_per_eval": 1e3 * cold_seconds / num_moves,
        "speedup": cold_seconds / max(delta_seconds, 1e-12),
        "max_abs_diff": max_abs_diff,
    }


#: Keyword defaults shared by :func:`maxmin_permutation_cell` and its batch
#: companion.  The runner hands the companion raw scenario parameter dicts,
#: which omit parameters left at their defaults -- both paths must fill the
#: same values or batched and per-cell results could diverge.
_MAXMIN_PERM_DEFAULTS = {
    "seed": 0,
    "max_paths": 8,
    "policy": "minimal",
    "mem_budget": None,
}


def _permutation_summary(sim, flows, result) -> dict:
    """Per-rank receive fractions of one solved permutation, summarised.

    Replicates the :meth:`FlowSimulator.permutation_bandwidths` post-step on
    an already-solved :class:`PhaseResult`, so the solo cell and the batch
    companion share one code path from solver output to JSON result.
    """
    import numpy as np

    by_dst = np.zeros(len(sim.ranks))
    dst = np.fromiter((f.dst for f in flows), dtype=np.int64, count=len(flows))
    np.add.at(by_dst, dst, result.flow_rates)
    fractions = by_dst / sim.injection_capacity
    return {
        "mean_fraction": float(fractions.mean()),
        "min_fraction": float(fractions.min()),
        "p5_fraction": float(np.percentile(fractions, 5.0)),
        "bottleneck_link": int(result.bottleneck_link),
        "num_flows": len(flows),
    }


@cell(version=1, batch="repro.exp.cells:maxmin_permutation_batch")
def maxmin_permutation_cell(
    *,
    a: int,
    b: int,
    x: int,
    y: int,
    seed: int = 0,
    max_paths: int = 8,
    policy: str = "minimal",
    mem_budget=None,
) -> dict:
    """Receive-bandwidth summary of one random permutation on an HxaMesh.

    The scale-out sweep cell: builds an ``a x b`` boards of ``x x y``
    HammingMesh, routes under an optional route-table ``mem_budget``
    (bytes, or ``"4G"``-style strings; see
    :func:`repro.sim.routing.parse_mem_budget`), and solves one seeded
    permutation with the incremental max-min solver.  Declares
    :func:`maxmin_permutation_batch` as its batch companion, so a chunk of
    same-topology cells is solved in one vectorized
    :meth:`~repro.sim.flowsim.FlowSimulator.maxmin_rates_batch` call —
    bit-identically, because the batch solver is bit-identical to the
    serial one.
    """
    from ..core import build_hammingmesh
    from ..sim import FlowSimulator, random_permutation

    topo = build_hammingmesh(a, b, x, y)
    sim = FlowSimulator(topo, max_paths=max_paths, policy=policy, mem_budget=mem_budget)
    flows = random_permutation(topo.num_accelerators, seed=seed)
    result = sim.maxmin_rates(flows)
    return _permutation_summary(sim, flows, result)


def maxmin_permutation_batch(param_list) -> list:
    """Batch companion of :func:`maxmin_permutation_cell`.

    Groups the parameter dicts by everything except ``seed`` (scenarios on
    different topologies or routing knobs cannot share a solve), builds one
    :class:`FlowSimulator` per group, and solves each group's permutations
    in a single :meth:`maxmin_rates_batch` call.  Results come back in
    input order and match per-cell calls bit-for-bit.
    """
    from ..core import build_hammingmesh
    from ..sim import FlowSimulator, random_permutation

    filled = [{**_MAXMIN_PERM_DEFAULTS, **p} for p in param_list]
    groups: dict = {}
    for i, p in enumerate(filled):
        key = (p["a"], p["b"], p["x"], p["y"], p["max_paths"], p["policy"], p["mem_budget"])
        groups.setdefault(key, []).append(i)
    out: list = [None] * len(filled)
    for (a, b, x, y, max_paths, policy, mem_budget), members in groups.items():
        topo = build_hammingmesh(a, b, x, y)
        sim = FlowSimulator(topo, max_paths=max_paths, policy=policy, mem_budget=mem_budget)
        flow_sets = [
            random_permutation(topo.num_accelerators, seed=filled[i]["seed"])
            for i in members
        ]
        results = sim.maxmin_rates_batch(flow_sets)
        for i, flows, result in zip(members, flow_sets, results):
            out[i] = _permutation_summary(sim, flows, result)
    return out


@cell(version=1, cacheable=False)
def obs_overhead_cell(
    *,
    a: int = 2,
    b: int = 2,
    x: int = 4,
    y: int = 4,
    message_size: int = 1 << 17,
    max_paths: int = 4,
    seed: int = 9,
    rounds: int = 30,
) -> dict:
    """Overhead of ``repro.obs`` on the packet-simulator hot loop.

    Runs ``rounds`` back-to-back *(disabled, enabled, disabled)* triples of
    one short (milliseconds-scale) permutation workload on a shared warmed
    topology.  The workload is deliberately small so a whole triple fits
    inside one noise epoch of a shared/virtualised host — slow multiplicative
    machine noise then cancels out of each triple's within-triple ratios:

    * ``drift`` — relative gap between the triple's two disabled passes.
      Bounds residual noise *and* any obs state leaking past ``disable()``
      (the disabled path must stay the uninstrumented-era fast path);
    * ``overhead`` — relative slowdown of the enabled pass against the
      faster disabled bracket (sampled drive, histograms, spans included).

    The reported ``disabled_drift`` / ``enabled_overhead`` are the **best
    (minimum) triple**.  That is sound, not optimistic: noise can only
    inflate a run above its true floor, so the cleanest triple converges on
    the true leak/overhead, while a genuine regression raises *every*
    triple and therefore the minimum with them — the repository's standard
    best-of guard, applied to ratios instead of times.  The medians ride
    along as noise diagnostics.  Never cached (the result is a timing), and
    the caller's enable state is restored, so a ``--trace`` run can measure
    itself safely.
    """
    from .. import obs
    from ..core import build_hammingmesh
    from ..sim import PacketNetwork, PacketSimConfig, random_permutation

    topo = build_hammingmesh(a, b, x, y)
    flows = random_permutation(topo.num_accelerators, seed=seed)
    config = PacketSimConfig(max_paths=max_paths)
    warm = PacketNetwork(topo, config=config)
    warm.send_flows(flows, message_size)
    warm.run()

    events = [0]

    def one_run(enabled: bool) -> float:
        if enabled:
            obs.enable()
        else:
            obs.disable()
        net = PacketNetwork(topo, config=config)
        net.send_flows(flows, message_size)
        start = time.perf_counter()
        net.run()
        elapsed = time.perf_counter() - start
        events[0] = int(net.engine.processed_events)
        return elapsed

    drifts: list = []
    overheads: list = []
    best_off = float("inf")
    best_on = float("inf")
    was_enabled = obs.is_enabled()
    try:
        for _ in range(max(1, rounds)):
            t_off1 = one_run(False)
            t_on = one_run(True)
            t_off2 = one_run(False)
            off = min(t_off1, t_off2)
            best_off = min(best_off, off)
            best_on = min(best_on, t_on)
            drifts.append(abs(t_off1 - t_off2) / max(t_off1, t_off2))
            overheads.append(max(0.0, t_on / off - 1.0))
    finally:
        if was_enabled:
            obs.enable()
        else:
            obs.disable()
    drifts.sort()
    overheads.sort()
    mid = len(drifts) // 2
    return {
        "events_per_second_disabled": events[0] / best_off,
        "events_per_second_enabled": events[0] / best_on,
        "disabled_drift": drifts[0],
        "enabled_overhead": overheads[0],
        "median_drift": drifts[mid],
        "median_overhead": overheads[mid],
        "rounds": len(drifts),
    }


@cell(version=1, cacheable=False)
def route_table_reuse_cell(
    *,
    a: int,
    b: int,
    x: int,
    y: int,
    max_paths: int = 8,
    num_phases: int = 12,
    seed: int = 3,
) -> dict:
    """Cold-vs-warm shared-RouteTable measurement (wall-clock; never cached)."""
    from ..core import build_hammingmesh
    from ..sim import FlowSimulator, clear_route_tables, random_permutation, route_table_for

    topo = build_hammingmesh(a, b, x, y)
    flows = random_permutation(topo.num_accelerators, seed=seed)

    def sweep():
        sim = FlowSimulator(topo, max_paths=max_paths)
        a2a = sim.alltoall_bandwidth(num_phases=num_phases, seed=1)
        perm = float(sim.permutation_bandwidths(flows).mean())
        return a2a, perm

    clear_route_tables()
    t0 = time.perf_counter()
    cold = sweep()
    t_cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = sweep()
    t_warm = time.perf_counter() - t0
    table = route_table_for(topo, max_paths=max_paths)
    return {
        "cold_seconds": t_cold,
        "warm_seconds": t_warm,
        "speedup": t_cold / max(t_warm, 1e-12),
        "alltoall_fraction": cold[0],
        "permutation_mean": cold[1],
        "warm_matches_cold": cold == warm,
        "pairs_routed": table.num_pairs_routed,
        "pair_hits": table.stats.hits,
    }
