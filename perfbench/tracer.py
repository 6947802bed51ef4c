"""Layer spans recorded from outside the program.

:class:`LayerTracer` wraps the public entry point of each ``repro`` layer
(a class method or a module-level function) in a span while it is
installed, and restores the originals when it is removed.  A layer's
*self time* is its spans' duration minus the time covered by spans nested
inside them, so self times of all layers never add up to more than the
wall time of the traced block.  Counts are taken at the same boundaries,
only on the outermost span that carries the same count, so an entry point
reached through another one is not counted twice.

Entry points missing from the program are skipped, so a later version
that deletes one still traces the rest.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: span name of a sweep cell's own code; its self time is *not* a layer
CELL = "cell"

#: the named layers, in report order
LAYERS = (
    "jobs",
    "allocation",
    "cluster",
    "routing",
    "topology",
    "flow.assign",
    "flow.solve",
    "search",
    "packet",
    "exp.run",
    "exp.post",
)


def _count_allocate(counts, args, kwargs, result) -> None:
    counts["alloc.attempts"] += 1
    counts["alloc.placed"] += result is not None


def _count_call(name: str) -> Callable:
    def count(counts, args, kwargs, result) -> None:
        counts[name] += 1

    return count


_count_topo = _count_call("topo.builds")


def _count_solves(counts, args, kwargs, result) -> None:
    counts["flow.scenarios_solved"] += len(result) if isinstance(result, list) else 1


def _count_packet_events(counts, args, kwargs, result) -> None:
    counts["packet.events"] += int(args[0].engine.processed_events)


#: (module, class or None, attribute, layer, count hook)
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, str, Optional[Callable]], ...] = (
    ("repro.allocation.workload_gen", None, "sample_job_mixes", "jobs", None),
    ("repro.allocation.greedy", "GreedyAllocator", "allocate", "allocation", _count_allocate),
    ("repro.allocation.greedy", "GreedyAllocator", "allocate_trace", "allocation", None),
    ("repro.allocation.grid", "BoardGrid", "allocate", "allocation", None),
    ("repro.allocation.grid", "BoardGrid", "release", "allocation", None),
    ("repro.allocation.grid", "BoardGrid", "fail_boards", "allocation", None),
    ("repro.allocation.grid", "BoardGrid", "fail_random", "allocation", None),
    ("repro.allocation.grid", "BoardGrid", "repair_boards", "allocation", None),
    ("repro.allocation.grid", "BoardGrid", "reset", "allocation", None),
    ("repro.cluster.simulator", "ClusterSimulator", "run", "cluster", None),
    ("repro.sim.routing", "RouteTable", "pair_arrays", "routing", None),
    ("repro.sim.routing", "RouteTable", "pair_path_lists", "routing", None),
    ("repro.sim.routing", "RouteTable", "paths", "routing", None),
    ("repro.core.hammingmesh", None, "build_hammingmesh", "topology", _count_topo),
    ("repro.core.hammingmesh", None, "build_hammingmesh_params", "topology", _count_topo),
    ("repro.topology.fattree", None, "build_fat_tree", "topology", _count_topo),
    ("repro.topology.torus", None, "build_torus2d", "topology", _count_topo),
    ("repro.topology.hyperx", None, "build_hyperx2d", "topology", _count_topo),
    ("repro.topology.hyperx", None, "build_hx1mesh", "topology", _count_topo),
    ("repro.topology.dragonfly", None, "build_dragonfly", "topology", _count_topo),
    ("repro.topology.base", None, "build_topology", "topology", _count_topo),
    ("repro.sim.flowsim", "FlowSimulator", "assign", "flow.assign", _count_call("flow.assigns")),
    ("repro.sim.flowsim", "FlowSimulator", "symmetric_rate", "flow.solve", _count_solves),
    ("repro.sim.flowsim", "FlowSimulator", "maxmin_rates", "flow.solve", _count_solves),
    ("repro.sim.flowsim", "FlowSimulator", "maxmin_warm_state", "flow.solve", _count_solves),
    ("repro.sim.flowsim", "FlowSimulator", "maxmin_rates_batch", "flow.solve", _count_solves),
    ("repro.sim.flowsim", "FlowSimulator", "maxmin_rates_delta", "flow.solve", _count_solves),
    ("repro.sim.flowsim", "FlowSimulator", "maxmin_rates_delta_batch", "flow.solve", _count_solves),
    ("repro.sim.search", None, "anneal_adversary", "search", None),
    ("repro.sim.network", "PacketNetwork", "run", "packet", _count_packet_events),
    ("repro.exp.runner", "Runner", "run", "exp.run", None),
)


class LayerTracer:
    """Self time and counts per layer, from spans around public entry points."""

    def __init__(self) -> None:
        self._stack: List[List[Any]] = []  # open spans: [layer, start, child seconds, count]
        self._undo: List[Tuple[Any, str, Any]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()

    # ------------------------------------------------------------------ spans
    def call(self, layer: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span of ``layer``."""
        return self._span(layer, None, fn, args, kwargs)

    def _span(self, layer: str, count: Optional[Callable], fn: Callable, args: tuple, kwargs: dict) -> Any:
        frame = [layer, time.perf_counter(), 0.0, count]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            duration = time.perf_counter() - frame[1]
            self.self_s[layer] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration

    def inside(self, layer: str) -> bool:
        return any(frame[0] == layer for frame in self._stack)

    def wrap(self, fn: Callable, layer: str, count: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            outer = count is not None and not any(f[3] is count for f in tracer._stack)
            result = tracer._span(layer, count, fn, args, kwargs)
            if outer:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------- patching
    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point that exists in the loaded program."""
        if self._undo:
            return
        for module_name, class_name, attr, layer, count in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner = getattr(module, class_name, None) if class_name else module
            if owner is None or attr not in owner.__dict__:
                continue
            original = owner.__dict__[attr]
            wrapped = self.wrap(original, layer, count)
            if class_name:
                self._patch(owner, attr, wrapped)
                continue
            # A function is also bound by name in every module that did
            # ``from ... import fn``; rebind each of those.
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "") or "").startswith("repro") and (
                    mod.__dict__.get(attr) is original
                ):
                    self._patch(mod, attr, wrapped)
        self._install_engine_counter()
        self._install_cell_spans()

    def _install_engine_counter(self) -> None:
        """Count events of discrete-event engines run inside a cluster span."""
        try:
            from repro.sim.engine import EventEngine
        except ImportError:
            return
        original = EventEngine.__dict__.get("run")
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def run(engine, *args: Any, **kwargs: Any) -> Any:
            before = engine.processed_events
            try:
                return original(engine, *args, **kwargs)
            finally:
                if tracer.inside("cluster"):
                    tracer.counts["cluster.events"] += engine.processed_events - before

        self._patch(EventEngine, "run", run)

    def _install_cell_spans(self) -> None:
        """Give each sweep cell a span, so a layer's time excludes the cell's own code."""
        runner = sys.modules.get("repro.exp.runner")
        resolve = getattr(runner, "resolve_kernel", None)
        if resolve is None:
            return
        tracer = self

        @functools.wraps(resolve)
        def resolve_traced(ref: str) -> Callable:
            return tracer.wrap(resolve(ref), CELL)

        self._patch(runner, "resolve_kernel", resolve_traced)

    def remove(self) -> None:
        """Restore every original entry point."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
