"""The four benchmark workloads, run through the public ``repro`` API.

Each workload has a *set-up* (work done once before timing) and a *body*
(the timed, repeatable part).  A body records each operation's output and
seconds under the operation's name; an operation is one sweep cell, the
rest of one sweep (runner and post-processing), or one packet-level run.
Every sweep runs on one worker with the result cache off.

Each workload has a *pool* of input variants; a variant is added to each
sweep's default seed, so variant 0 runs the sweeps at their registered
defaults.  A body runs a *window* of consecutive variants of the pool,
starting at the workload seed.  Where one input's cost swings with its
seed (a single allocator trace varies by about 30%), the window is the
whole pool, so every body does the same work and the seed sets the order.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.figures import FIG10_CLUSTERS as FIG10_ALL
from repro.core import build_hammingmesh
from repro.exp import Runner, get_sweep, scenarios_of
from repro.exp.recording import to_jsonable
from repro.sim import PacketNetwork, PacketSimConfig, random_permutation
from repro.sim.routing import clear_route_tables

from tracer import LayerTracer

Context = Dict[str, Any]


@dataclass
class Outputs:
    """What one body produced: output and seconds per operation name."""

    ops: Dict[str, Any] = field(default_factory=dict)
    seconds: Dict[str, float] = field(default_factory=dict)
    #: host-speed probe (seconds of a fixed pass of work) to take on either
    #: side of each operation, if any
    probe: Optional[Callable[[], float]] = None
    #: mean of the probes on either side of each operation
    speed: Dict[str, float] = field(default_factory=dict)

    def group(self, run: Callable[[], None]) -> None:
        """Run ``run``, which records operations here, between two probes.

        Operations that ``run`` recorded without probes of their own get the
        mean of these two.
        """
        if self.probe is None:
            run()
            return
        known = set(self.seconds)
        before = self.probe()
        run()
        mean = (before + self.probe()) / 2
        for name in self.seconds.keys() - known:
            self.speed.setdefault(name, mean)


def _plain(value: Any) -> Any:
    """The JSON form every output is compared in (as artifacts record it)."""
    return json.loads(json.dumps(to_jsonable(value), sort_keys=True))


@contextmanager
def _probed_kernels(probe: Optional[Callable[[], float]], calls: List[Tuple[int, float, float]]):
    """Run each cell kernel the runner resolves between two probes.

    Appends ``(cells, kernel seconds, mean probe)`` to ``calls`` per kernel
    call; a batch companion's call covers as many cells as its list holds.
    The kernel seconds leave the probes out.
    """
    if probe is None:
        yield
        return
    import repro.exp.runner as runner

    resolve = runner.resolve_kernel

    def resolve_probed(ref: str) -> Callable:
        fn = resolve(ref)

        @functools.wraps(fn)
        def call(*args: Any, **kwargs: Any) -> Any:
            before = probe()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                calls.append((len(args[0]) if args else 1, seconds, (before + probe()) / 2))

        return call

    runner.resolve_kernel = resolve_probed
    try:
        yield
    finally:
        runner.resolve_kernel = resolve


def sweep(tracer: Optional[LayerTracer], prefix: str, name: str, out: Outputs, **params: Any) -> None:
    """Run one registered sweep serially, uncached; record its cells and the rest.

    A cell's seconds are the runner's own measurement of it, or, when
    ``out`` probes, the kernel's alone between its probes; ``<sweep>/rest``
    is everything else the sweep took (runner bookkeeping, post-processing).
    A cell that raises or is quarantined shows up as an ``{"error": ...}``
    output, which never matches its reference.
    """
    out.group(lambda: _sweep(tracer, prefix, name, out, params))


def _sweep(tracer: Optional[LayerTracer], prefix: str, name: str, out: Outputs, params: Dict[str, Any]) -> None:
    start = time.perf_counter()
    spec = get_sweep(name)
    grid = spec.grid(**params)
    key = f"{prefix}/{name}"
    calls: List[Tuple[int, float, float]] = []
    try:
        with _probed_kernels(out.probe, calls):
            report = Runner(workers=1, cache=None).run(grid)
        # one worker, no cache: kernels run once each, in cell order
        probed = [(seconds / n, speed) for n, seconds, speed in calls for _ in range(n)]
        if calls and len(probed) != len(report.cells):
            raise RuntimeError(f"{len(probed)} probed kernel cells for {len(report.cells)} cells")
        if tracer is not None:
            payload = tracer.call("exp.post", spec.post, report)
        else:
            payload = spec.post(report)
    except Exception as exc:  # one failing sweep must not hide the others
        print(f"perfbench: sweep {key} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        for i in range(len(scenarios_of(grid))):
            out.ops[f"{key}/cell{i}"] = {"error": repr(exc)}
        out.ops[f"{key}/rest"] = {"error": repr(exc)}
        return
    for i, cell in enumerate(report.cells):
        out.ops[f"{key}/cell{i}"] = {"error": cell.error} if cell.error else cell.value
        out.seconds[f"{key}/cell{i}"] = cell.seconds
    for i, (seconds, speed) in enumerate(probed):
        out.seconds[f"{key}/cell{i}"] = seconds
        out.speed[f"{key}/cell{i}"] = speed
    out.ops[f"{key}/rest"] = _plain(payload)
    out.seconds[f"{key}/rest"] = time.perf_counter() - start - sum(c.seconds for c in report.cells)


# ----------------------------------------------------------------- alloc_fill
FIG8_CLUSTERS = {"Large 32x32 Hx4Mesh": (32, 32)}
#: fig10 without its 64x64 cluster
FIG10_CLUSTERS = {k: v for k, v in FIG10_ALL.items() if k != "Hx2Large"}


def alloc_fill(ctx: Context, v: int, tracer: Optional[LayerTracer], out: Outputs) -> None:
    sweep(tracer, str(v), "fig8", out, clusters=FIG8_CLUSTERS, num_traces=2, seed=v)
    sweep(tracer, str(v), "fig10", out, clusters=FIG10_CLUSTERS, num_trials=1, seed=v)


# -------------------------------------------------------------- cluster_churn
def cluster_churn(ctx: Context, v: int, tracer: Optional[LayerTracer], out: Outputs) -> None:
    sweep(tracer, str(v), "lifetime_failures", out, num_jobs=150, seed=7 + v)


# ----------------------------------------------------------------- route_cold
def route_cold(ctx: Context, v: int, tracer: Optional[LayerTracer], out: Outputs) -> None:
    clear_route_tables()  # every variant starts cold, outside its operations
    sweep(tracer, str(v), "table2", out, cluster="small", num_phases=1, seed=1 + v)
    sweep(tracer, str(v), "scaleout_permutation", out, num_permutations=1, mem_budget="256M", seed=v)


# ------------------------------------------------------------------- net_warm
ADVERSARY = dict(topo_keys=("hx2mesh", "torus", "fattree_tapered"), steps=16, batch=16)
PACKET_MESH = (2, 2, 16, 16)
PACKET_BYTES = 1 << 18
PACKET_RUNS = 2


def _packet_run(ctx: Context, flows, size: int) -> Dict[str, Any]:
    net = PacketNetwork(ctx["packet_topo"], config=PacketSimConfig())
    net.send_flows(flows, size)
    result = net.run()
    done = [m.completion_time for m in result.messages]
    return {
        "all_finished": result.all_finished,
        "finish_time": result.finish_time,
        "events": int(net.engine.processed_events),
        "aggregate_bandwidth": result.aggregate_bandwidth(),
        "completion_sum": float(sum(done)) if result.all_finished else None,
        "link_busy_sum": float(result.link_busy_time.sum()),
    }


def net_warm_setup(ctx: Context, v: int) -> None:
    """Cold adversary pass plus 1-byte packet pre-runs: fills the route tables."""
    if "packet_topo" not in ctx:
        ctx["packet_topo"] = build_hammingmesh(*PACKET_MESH)
    p = ctx["packet_topo"].num_accelerators
    ctx[f"flows{v}"] = [random_permutation(p, seed=[v, i]) for i in range(PACKET_RUNS)]
    sweep(None, str(v), "adversary_search", ctx["setup"], seed=v, **ADVERSARY)
    for flows in ctx[f"flows{v}"]:
        _packet_run(ctx, flows, 1)


def net_warm(ctx: Context, v: int, tracer: Optional[LayerTracer], out: Outputs) -> None:
    sweep(tracer, str(v), "adversary_search", out, seed=v, **ADVERSARY)
    for i, flows in enumerate(ctx[f"flows{v}"]):
        out.group(lambda: _timed_packet_run(ctx, f"{v}/packet/{i}", flows, out))


def _timed_packet_run(ctx: Context, key: str, flows, out: Outputs) -> None:
    start = time.perf_counter()
    try:
        out.ops[key] = _plain(_packet_run(ctx, flows, PACKET_BYTES))
    except Exception as exc:
        print(f"perfbench: packet run {key} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        out.ops[key] = {"error": repr(exc)}
        return
    out.seconds[key] = time.perf_counter() - start


def delta_warm_ratio(ops: Dict[str, Any]) -> float:
    """Mean ``warm_rate`` of the adversary cells (0 when there are none)."""
    rates = [
        value["warm_rate"]
        for name, value in ops.items()
        if "/adversary_search/cell" in name and isinstance(value, dict) and "warm_rate" in value
    ]
    return sum(rates) / len(rates) if rates else 0.0


# ------------------------------------------------------------------ registry
@dataclass(frozen=True)
class Workload:
    name: str
    #: runs one input variant, recording into ``out``
    run_variant: Callable[[Context, int, Optional[LayerTracer], Outputs], None]
    #: number of input variants
    pool: int = 16
    #: consecutive variants (modulo ``pool``) per body
    window: int = 1
    #: per-variant set-up, untimed
    setup_variant: Optional[Callable[[Context, int], None]] = None
    #: the timed body must enumerate no route pair (warm tables)
    warm_routes: bool = False
    #: each variant of the timed body starts from empty route tables
    cold_routes: bool = False

    def variants(self, seed: int) -> List[int]:
        return [(seed + j) % self.pool for j in range(self.window)]

    def setup(self, variants: List[int]) -> Context:
        ctx: Context = {"variants": list(variants), "setup": Outputs()}
        if self.setup_variant is not None:
            for v in variants:
                self.setup_variant(ctx, v)
        return ctx

    def body(
        self, ctx: Context, tracer: Optional[LayerTracer], probe: Optional[Callable[[], float]] = None
    ) -> Outputs:
        out = Outputs(probe=probe)
        for v in ctx["variants"]:
            self.run_variant(ctx, v, tracer, out)
        return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("alloc_fill", alloc_fill, pool=4, window=4),
        Workload("cluster_churn", cluster_churn, pool=6, window=6),
        Workload("route_cold", route_cold, pool=2, window=2, cold_routes=True),
        Workload(
            "net_warm",
            net_warm,
            setup_variant=net_warm_setup,
            warm_routes=True,
        ),
    )
}
