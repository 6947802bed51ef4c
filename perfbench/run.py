"""Repository benchmark: one workload, timed end to end or traced by layer.

Run from the repository root::

    python3 perfbench/run.py --workload alloc_fill --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` prints the per-layer metrics.  Every metric
is printed with its unit, and the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs"

#: timed bodies per run, at least, however short ``--seconds`` is
MIN_ITERATIONS = 3
#: set-ups per run, at least (this process plus fresh child processes)
SETUP_SAMPLES = 3
#: seconds of child set-ups per run, at least
SETUP_BUDGET_S = 3.0
#: tolerances of ``python -m repro.exp diff``
RTOL, ATOL = 1e-5, 1e-9
#: a cold body may hit at most this share of its route lookups
COLD_HIT_RATIO_MAX = 0.05
#: seconds a :class:`SpeedProbe` probe takes on the host the benchmark was
#: written on (2-core x86-64 container, Python 3.11, NumPy 2.4)
PROBE_REFERENCE_S = 0.006
#: seconds after which :class:`SpeedProbe` probes again
PROBE_INTERVAL_S = 0.25


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run the set-up only; print its seconds and a speed probe after it
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def refuse_knobs() -> None:
    knobs = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if knobs:
        fail(
            f"refusing to run with {', '.join(knobs)} set: REPRO_* variables "
            "change the program being measured; unset them"
        )


def load_workloads():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        fail(f"cannot import the repro package from {ROOT / 'src'}: {exc}")
    return workloads


# ------------------------------------------------------------ output checks
def close(fresh: Any, stored: Any) -> bool:
    """Equal within ``repro.exp diff``'s tolerances (numbers) or exactly (the rest).

    The same rule as the CLI's private ``_walk_diff``, restated here so the
    benchmark does not break when the CLI's internals change.
    """
    number = (int, float)
    if isinstance(fresh, bool) or isinstance(stored, bool):
        return fresh == stored
    if isinstance(fresh, number) and isinstance(stored, number):
        a, b = float(fresh), float(stored)
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= ATOL + RTOL * max(abs(a), abs(b))
    if isinstance(fresh, dict) and isinstance(stored, dict):
        return fresh.keys() == stored.keys() and all(close(fresh[k], stored[k]) for k in fresh)
    if isinstance(fresh, list) and isinstance(stored, list):
        return len(fresh) == len(stored) and all(close(a, b) for a, b in zip(fresh, stored))
    return fresh == stored


def load_refs(workload: str, variants: List[int]) -> Dict[str, Any]:
    """The reference outputs of ``variants`` (keys start with ``"<variant>/"``)."""
    path = REFS / f"{workload}.json"
    try:
        refs = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read reference outputs {path}: {exc}")
    wanted = {str(v) for v in variants}
    chosen = {name: value for name, value in refs.items() if name.split("/", 1)[0] in wanted}
    missing = wanted - {name.split("/", 1)[0] for name in chosen}
    if missing:
        fail(f"{path} has no outputs for variants {sorted(missing, key=int)}")
    return chosen


@dataclass
class Checker:
    refs: Dict[str, Any]
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def problem(self, message: str) -> None:
        if message not in self.problems:
            self.problems.append(message)
            print(f"perfbench: CHECK FAILED: {message}", file=sys.stderr)

    def outputs(self, ops: Dict[str, Any], complete: bool = True) -> None:
        """Count each output against its reference; ``complete`` also requires every reference."""
        for name in sorted(set(ops) | set(self.refs) if complete else ops):
            self.attempted += 1
            if name not in ops or name not in self.refs or not close(ops[name], self.refs[name]):
                self.failed += 1
                self.problem(f"output {name} differs from the reference")


# --------------------------------------------------------------- iterations
@dataclass
class Iteration:
    wall: float
    out: Any  # workloads.Outputs
    hits: int
    misses: int
    csr_mb: float
    self_s: Dict[str, float]
    counts: Dict[str, int]


def route_counters():
    from repro import obs

    return obs.counter("routing.pair_hits").value, obs.counter("routing.pair_misses").value


def run_iteration(workload, ctx, tracer=None, probe=None) -> Iteration:
    from repro.sim.routing import live_route_tables

    gc.collect()
    hits0, misses0 = route_counters()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    start = time.perf_counter()
    try:
        out = workload.body(ctx, tracer, probe)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.remove()
    hits1, misses1 = route_counters()
    csr = sum(t.estimated_csr_bytes() for t in live_route_tables()) / 1e6
    return Iteration(
        wall, out, hits1 - hits0, misses1 - misses0, csr,
        dict(tracer.self_s) if tracer else {}, dict(tracer.counts) if tracer else {},
    )


def check_routes(workload, it: Iteration, checker: Checker) -> None:
    """Cold/warm discipline: checked on every body, traced or not."""
    if workload.warm_routes and it.misses:
        checker.problem(
            f"{workload.name}: the timed body enumerated {it.misses} route pairs; "
            "warm route tables must serve every lookup"
        )
    if workload.cold_routes:
        lookups = it.hits + it.misses
        if not it.misses or it.hits / lookups > COLD_HIT_RATIO_MAX:
            checker.problem(
                f"{workload.name}: {it.hits} of {lookups} route lookups hit after "
                "clear_route_tables(); the body must start cold"
            )


class SpeedProbe:
    """How fast the host runs now: seconds a fixed pass of work takes.

    A shared host changes speed within seconds and for minutes at a time,
    by up to about 1.8x, far more than a regression worth catching.  Times
    taken next to a probe are scaled by ``PROBE_REFERENCE_S / probe`` to
    the speed of the host the benchmark was written on.  A pass mixes a
    heap-and-dict loop (like the event engines and the allocator), gathers
    and sorts on a cache-sized array (like the flow solver) and random
    reads from a 32 MB array (like lookups in large route tables); a probe
    is the median of five passes.

    Calling the probe within ``PROBE_INTERVAL_S`` of the last probe returns
    that probe again, so operations shorter than that share probes and the
    probes' cost stays bounded.  ``values`` keeps every probe taken.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._small = rng.random(1 << 14)
        self._small_index = rng.integers(0, 1 << 14, 1 << 14)
        self._large = rng.random(1 << 22)
        self._large_index = rng.integers(0, 1 << 22, 1 << 16)
        self.values: List[float] = []
        self._taken = -math.inf

    def __call__(self) -> float:
        if time.perf_counter() - self._taken > PROBE_INTERVAL_S:
            self.measure()
        return self.values[-1]

    def measure(self) -> float:
        """Take a probe now."""
        import heapq

        import numpy as np

        passes = []
        for _ in range(5):
            start = time.perf_counter()
            heap: List[int] = []
            table: Dict[int, int] = {}
            for i in range(6000):
                heapq.heappush(heap, i * 7919 % 10007)
                table[i & 511] = table.get(i & 511, 0) + 1
            while heap:
                heapq.heappop(heap)
            for _ in range(12):
                self._small[self._small_index].sum()
                np.sort(self._small)
            for _ in range(2):
                self._large[self._large_index].sum()
            passes.append(time.perf_counter() - start)
        self.values.append(statistics.median(passes))
        self._taken = time.perf_counter()
        return self.values[-1]


def setup_samples(args: argparse.Namespace, own: float) -> List[float]:
    """Scaled set-up seconds of this process and of fresh child processes.

    A child's set-up is scaled by the mean of a probe here just before it
    starts and one in the child just after its set-up; this process' own by
    a probe just after.  Children run until ``SETUP_SAMPLES`` set-ups are
    in and ``SETUP_BUDGET_S`` have passed, so a light set-up is sampled
    often enough for its median to hold still.
    """
    probe = SpeedProbe()
    samples = [own * PROBE_REFERENCE_S / probe.measure()]
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    start = time.perf_counter()
    while len(samples) < SETUP_SAMPLES or time.perf_counter() - start < SETUP_BUDGET_S:
        before = probe.measure()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip().splitlines()[-1:]}")
        seconds, after = map(float, proc.stdout.split()[-2:])
        samples.append(seconds * 2 * PROBE_REFERENCE_S / (before + after))
    return samples


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(args, workload, ctx, checker: Checker, own_setup: float) -> Dict[str, Any]:
    setups = setup_samples(args, own_setup)
    deadline = time.perf_counter() + args.seconds
    bodies: List[Iteration] = []
    probe = SpeedProbe()
    while len(bodies) < MIN_ITERATIONS or time.perf_counter() < deadline:
        it = run_iteration(workload, ctx, probe=probe)
        bodies.append(it)
        checker.outputs(it.out.ops)
        check_routes(workload, it, checker)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    # Each operation is scaled by the probes on either side of it.  Speed
    # also changes between probes; a median per operation, summed, sheds
    # slow stretches that a median of whole bodies would blend in.
    per_op: Dict[str, List[float]] = {}
    raw_op: Dict[str, List[float]] = {}
    for it in bodies:
        for name, seconds in it.out.seconds.items():
            per_op.setdefault(name, []).append(seconds * PROBE_REFERENCE_S / it.out.speed[name])
            raw_op.setdefault(name, []).append(seconds)
    wall = sum(statistics.median(values) for values in per_op.values())
    raw = sum(statistics.median(values) for values in raw_op.values())
    probes = probe.values
    print(f"bodies: {len(bodies)}, wall seconds {[round(it.wall, 3) for it in bodies]}")
    print(f"probes: {len(probes)}, quartiles {[round(q, 5) for q in statistics.quantiles(probes, n=4)]} s")
    print(f"operations: {len(per_op)} timed, unscaled sum of medians {raw:.4f} s")
    print(f"set-ups: {len(setups)}, scaled seconds {[round(s, 3) for s in setups]}")
    return {
        "wall_s": metric(wall, "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def per_layer(args, workload, ctx, checker: Checker, workloads) -> Dict[str, Any]:
    from tracer import LAYERS, LayerTracer

    tracer = LayerTracer()
    deadline = time.perf_counter() + args.seconds
    plain: List[Iteration] = []
    traced: List[Iteration] = []
    while len(traced) < 2 or time.perf_counter() < deadline:
        plain.append(run_iteration(workload, ctx))
        traced.append(run_iteration(workload, ctx, tracer))
    for it in plain + traced:
        checker.outputs(it.out.ops)
        check_routes(workload, it, checker)

    # Harness self-test: tracing changes no output, attributes no more time
    # than elapsed, and sees the same counts on every body.
    from repro.exp.scenario import canonical_json

    if any(canonical_json(t.out.ops) != canonical_json(p.out.ops) for p, t in zip(plain, traced)):
        checker.problem("traced and untraced bodies gave different outputs")
    for it in traced:
        if sum(it.self_s.values()) > it.wall:
            checker.problem("layer self times add up to more than the wall time")
    signature = [(t.counts, t.hits, t.misses) for t in traced]
    if any(s != signature[0] for s in signature):
        checker.problem(f"layer counts differ between traced bodies: {signature}")

    def median_of(fn) -> float:
        return statistics.median(fn(it) for it in traced)

    def self_s(layer: str) -> float:
        return median_of(lambda it: it.self_s.get(layer, 0.0))

    def unattributed(it: Iteration) -> float:
        return it.wall - sum(it.self_s.get(layer, 0.0) for layer in LAYERS)

    first = traced[0]
    counts = first.counts
    attempts = counts.get("alloc.attempts", 0)
    lookups = first.hits + first.misses
    packet_s = self_s("packet")
    metrics = {
        "jobs.sample_s": metric(self_s("jobs"), "s"),
        "alloc.search_s": metric(self_s("allocation"), "s"),
        "alloc.attempts": metric(attempts, "count"),
        "alloc.placed_ratio": metric(counts.get("alloc.placed", 0) / attempts if attempts else 0.0, "ratio"),
        "cluster.events_s": metric(self_s("cluster"), "s"),
        "cluster.events": metric(counts.get("cluster.events", 0), "count"),
        "route.lookup_s": metric(self_s("routing"), "s"),
        "route.pairs_enumerated": metric(first.misses, "count"),
        "route.hit_ratio": metric(first.hits / lookups if lookups else 0.0, "ratio"),
        "route.csr_mb": metric(first.csr_mb, "MB"),
        "topo.build_s": metric(self_s("topology"), "s"),
        "topo.builds": metric(counts.get("topo.builds", 0), "count"),
        "flow.assign_s": metric(self_s("flow.assign"), "s"),
        "flow.assigns": metric(counts.get("flow.assigns", 0), "count"),
        "flow.solve_s": metric(self_s("flow.solve"), "s"),
        "flow.scenarios_solved": metric(counts.get("flow.scenarios_solved", 0), "count"),
        "flow.delta_warm_ratio": metric(workloads.delta_warm_ratio(first.out.ops), "ratio"),
        "search.anneal_s": metric(self_s("search"), "s"),
        "packet.drive_s": metric(packet_s, "s"),
        "packet.events": metric(counts.get("packet.events", 0), "count"),
        "packet.events_per_s": metric(counts.get("packet.events", 0) / packet_s if packet_s else 0.0, "1/s"),
        "exp.overhead_s": metric(self_s("exp.run"), "s"),
        "exp.post_s": metric(self_s("exp.post"), "s"),
        "unattributed_s": metric(median_of(unattributed), "s"),
        "unattributed_frac": metric(median_of(lambda it: unattributed(it) / it.wall), "ratio"),
        "trace.overhead_frac": metric(
            median_of(lambda it: it.wall) / statistics.median(p.wall for p in plain) - 1.0, "ratio"
        ),
    }
    wall = median_of(lambda it: it.wall)
    print(f"traced bodies: {len(traced)}, median wall {wall:.3f} s; self-time share per layer:")
    for layer in LAYERS:
        print(f"  {layer:<12} {self_s(layer):9.4f} s  {self_s(layer) / wall:6.1%}")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    refuse_knobs()
    workloads = load_workloads()
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    variants = workload.variants(args.seed)
    refs = None if args.setup_probe else load_refs(args.workload, variants)
    ctx = workload.setup(variants)
    own_setup = time.perf_counter() - _T0
    if args.setup_probe:
        print(own_setup, SpeedProbe().measure())
        return 0

    import numpy
    from repro.exp.recording import host_metadata

    print("host: " + json.dumps({
        **host_metadata(workers=1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "variants": variants,
    }, sort_keys=True))
    checker = Checker(refs)
    checker.outputs(ctx["setup"].ops, complete=False)
    if args.trace:
        metrics = per_layer(args, workload, ctx, checker, workloads)
    else:
        metrics = end_to_end(args, workload, ctx, checker, own_setup)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {checker.failed / checker.attempted:.6g} ({checker.failed} of {checker.attempted} operations)")
    print(json.dumps({
        "correct": checker.failed == 0 and not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
