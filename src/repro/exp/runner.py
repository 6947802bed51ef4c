"""Execution engine: serial or process-parallel runs of scenario sets.

The runner takes any mix of grids/scenarios and

1. resolves each cell against the on-disk result cache (content hash);
2. groups the remaining cells by ``chunk`` key -- cells of one chunk run
   sequentially inside one worker task, so per-process memoization (the
   shared :class:`~repro.sim.routing.RouteTable` above all) stays hot for
   repeated measurements on the same topology;
3. executes chunks inline (serial fallback) or on a
   :class:`~concurrent.futures.ProcessPoolExecutor`;
4. canonicalises every result through a JSON round-trip and reassembles
   them in scenario order.

Step 4 is what makes the three execution paths -- serial, parallel, and
warm-from-cache -- **bit-identical**: every result the caller sees has
passed through the same canonical encoding, whether it came from this
process, a worker, or a cache file.
"""

from __future__ import annotations

import json
import os
import time
import weakref
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .. import obs
from .._knobs import number_knob, switch_knob
from ..sim.routing import RouteBudgetError
from .cache import MISS, ResultCache, resolve_cache
from .grid import scenarios_of
from .recording import MemoryProbe
from .scenario import Scenario, canonical_json, resolve_kernel

__all__ = ["CellResult", "RunReport", "Runner", "run_grid", "default_workers"]

_CELLS_LIVE = obs.counter("exp.cells_live")
_CELLS_CACHED = obs.counter("exp.cells_cached")
_CELLS_BATCHED = obs.counter("exp.cells_batched")
_WORKER_RETRIES = obs.counter("exp.worker_retries")
_CELLS_QUARANTINED = obs.counter("exp.cells_quarantined")
_CELL_TIMEOUTS = obs.counter("exp.cell_timeouts")


def default_workers() -> int:
    """Worker count when none is given: ``REPRO_EXP_WORKERS`` or 1 (serial)."""
    return number_knob("REPRO_EXP_WORKERS", 1)


def _normalize(result: Any) -> Any:
    """Canonical JSON round-trip: the one representation of a cell result."""
    return json.loads(canonical_json(result))


def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
    """Finalizer: tear down a Runner's persistent pool when it is GC'd."""
    pool.shutdown(wait=False, cancel_futures=True)


def _run_cells(cells: Sequence[Tuple[int, str, Dict[str, Any]]], collect_obs: bool = False):
    """Worker entry point: run one chunk of cells sequentially.

    Module-level so it pickles under every start method; returns
    ``((index, normalized result, elapsed seconds, memory) tuples, obs
    payload)``.  Each cell carries a :class:`~repro.exp.recording.MemoryProbe`
    snapshot (peak RSS always; tracemalloc peak when
    ``REPRO_EXP_TRACE_MEMORY`` is on or tracing is already on).

    **Batching**: consecutive cells of a kernel that declares a batch
    companion (``@cell(batch=...)``) are handed to the companion in one
    call — one ``params`` list in, one result list out — so a chunk of
    same-topology cells can share vectorized work (e.g. the batched
    max-min solver).  The companion's results are bit-identical to per-cell
    calls by contract, so cached, serial, parallel, and batched runs of a
    cell all agree; the measured batch time is attributed evenly across the
    cells it covered.

    ``collect_obs`` implements the worker side of the observability merge
    protocol: the worker enables collection locally (a spawned process does
    not inherit the parent's programmatic ``obs.enable()``), marks the
    registry before the chunk, and ships back only the delta — so it also
    behaves correctly under ``fork``, where the worker *does* inherit the
    parent's accumulated state.  The parent folds the payload back with
    :func:`repro.obs.merge_state`.  When the chunk runs inline (serial
    path), spans and counters land in the parent's registry directly and no
    payload is produced.
    """
    marker = None
    if collect_obs:
        obs.enable()
        marker = obs.capture()
    out = []
    worker = os.getpid()
    trace_memory = switch_knob("REPRO_EXP_TRACE_MEMORY")
    n = len(cells)
    pos = 0
    while pos < n:
        index, kernel, params = cells[pos]
        fn = resolve_kernel(kernel)
        batch_ref = getattr(fn, "exp_batch", None)
        end = pos + 1
        if batch_ref is not None:
            while end < n and cells[end][1] == kernel:
                end += 1
        if end - pos > 1:
            group = cells[pos:end]
            batch_fn = resolve_kernel(batch_ref)
            with obs.span(
                "exp.cell_batch", kernel=kernel, size=len(group), worker=worker
            ):
                with MemoryProbe(trace=trace_memory) as probe:
                    start = time.perf_counter()
                    raws = batch_fn([dict(p) for _, _, p in group])
                    elapsed = time.perf_counter() - start
            if len(raws) != len(group):  # pragma: no cover - contract guard
                raise RuntimeError(
                    f"batch kernel {batch_ref} returned {len(raws)} results "
                    f"for {len(group)} cells"
                )
            share = elapsed / len(group)
            memory = probe.as_dict()
            _CELLS_BATCHED.inc(len(group))
            for (cell_index, _, _), raw in zip(group, raws):
                _CELLS_LIVE.inc()
                out.append((cell_index, _normalize(raw), share, memory))
        else:
            with obs.span(
                "exp.cell", kernel=kernel, index=index, cached=False, worker=worker
            ):
                with MemoryProbe(trace=trace_memory) as probe:
                    start = time.perf_counter()
                    raw = fn(**params)
                    elapsed = time.perf_counter() - start
            _CELLS_LIVE.inc()
            out.append((index, _normalize(raw), elapsed, probe.as_dict()))
        pos = end
    payload = obs.export_delta(marker) if marker is not None else None
    return out, payload


@dataclass(frozen=True)
class CellResult:
    """One executed (or cache-served) cell.

    ``seconds`` is the cell's **compute attribution**: the kernel's measured
    run time, replayed from the cache entry for a warm cell.  ``wall_seconds``
    is what *this* run actually spent on the cell: the same measurement for a
    live cell, but only the cache-lookup time for a warm one.  The two were
    historically conflated, which made warm runs look as expensive as cold
    ones.
    """

    scenario: Scenario
    value: Any
    seconds: float
    cached: bool
    wall_seconds: float = 0.0
    #: memory probe snapshot for a live cell (peak RSS, RSS growth,
    #: tracemalloc peak when traced); ``None`` for cache-served cells
    memory: Optional[Dict[str, Any]] = None
    #: why the cell was quarantined instead of executed ("timeout" or the
    #: exception summary from the serial fallback); ``None`` for healthy
    #: cells.  Quarantined cells carry ``value=None`` and are never cached.
    error: Optional[str] = None


class RunReport:
    """Ordered cell results plus execution statistics."""

    def __init__(
        self,
        cells: List[CellResult],
        *,
        wall_seconds: float,
        workers: int,
        chunks: int,
        cache_hits: int,
        cache_misses: int,
    ) -> None:
        self.cells = cells
        self.wall_seconds = wall_seconds
        self.workers = workers
        self.chunks = chunks
        self.cache_hits = cache_hits
        self.cache_misses = cache_misses

    def __iter__(self) -> Iterator[CellResult]:
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def values(self) -> List[Any]:
        return [c.value for c in self.cells]

    def slice(self, start: int, stop: int) -> "RunReport":
        """A view over a contiguous cell range (multi-sweep runs).

        A slice's ``wall_seconds`` is the summed per-cell **spent** time of
        the slice (live compute plus cache lookups) -- the whole run's wall
        clock is shared across sweeps and would misattribute time to each of
        them, and a warm cell's replayed compute time was not spent here.
        """
        part = self.cells[start:stop]
        return RunReport(
            part,
            wall_seconds=sum(c.wall_seconds for c in part),
            workers=self.workers,
            chunks=self.chunks,
            cache_hits=sum(c.cached for c in part),
            cache_misses=sum(not c.cached for c in part),
        )

    def stats(self) -> Dict[str, Any]:
        """Execution statistics.

        ``compute_seconds`` is time spent computing live cells in this run;
        ``replayed_seconds`` is the compute time warm cells originally cost
        (replayed from their cache entries, not spent now).
        """
        peaks = [
            c.memory["peak_rss_bytes"]
            for c in self.cells
            if c.memory and c.memory.get("peak_rss_bytes")
        ]
        return {
            "cells": len(self.cells),
            "wall_seconds": self.wall_seconds,
            "workers": self.workers,
            "chunks": self.chunks,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "compute_seconds": sum(c.seconds for c in self.cells if not c.cached),
            "replayed_seconds": sum(c.seconds for c in self.cells if c.cached),
            "quarantined": sum(1 for c in self.cells if c.error is not None),
            # Highest per-cell worker peak RSS seen this run (live cells
            # only; None on a fully warm run).
            "peak_rss_bytes": max(peaks) if peaks else None,
        }


class Runner:
    """Executes scenario sets with caching, chunking, and worker processes.

    ``workers=None`` reads ``REPRO_EXP_WORKERS`` (default 1: serial in
    process); ``workers=0`` means one per CPU.  See
    :func:`repro.exp.cache.resolve_cache` for the ``cache`` argument.

    The parallel path runs on a **persistent warm pool**: one
    :class:`ProcessPoolExecutor` lives across :meth:`run` calls, so its
    workers keep their imported modules and memoized route tables from
    one chunk to the next.  Under the ``fork`` start method a worker also
    inherits the tables the parent had built when the pool started,
    copy-on-write; any other table it builds itself.  Oversized chunks are
    split so one topology still fans out across every worker.  Call
    :meth:`close` (or use the runner as a context manager) to tear the
    pool down; an unclosed runner's pool is shut down when the runner is
    garbage collected.

    The parallel path is hardened against misbehaving cells:

    * ``cell_timeout`` (or ``REPRO_EXP_CELL_TIMEOUT`` seconds) bounds each
      cell's run; a chunk exceeding ``timeout * len(chunk)`` has its cells
      quarantined, the stuck worker pool is killed, and the remaining
      chunks continue on a fresh pool.
    * A crashed worker (:class:`BrokenProcessPool` — segfault, OOM kill,
      ``os._exit``) retries the unfinished chunks on a fresh pool with
      exponential backoff, up to ``max_retries`` times; after that the
      survivors run serially, one cell at a time, and a cell that still
      raises is quarantined instead of sinking the run.

    Quarantined cells surface as :class:`CellResult`\\ s with
    ``error`` set and ``value=None``; they are never written to the
    cache.  A run with no timeouts or crashes is bit-identical to the
    unhardened path.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        cache: Any = "auto",
        cell_timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
    ) -> None:
        if workers is None:
            workers = default_workers()
        elif workers == 0:
            workers = os.cpu_count() or 1
        self.workers = max(1, int(workers))
        self.cache: Optional[ResultCache] = resolve_cache(cache)
        if cell_timeout is None:
            cell_timeout = number_knob("REPRO_EXP_CELL_TIMEOUT", None, float)
        self.cell_timeout = cell_timeout
        self.max_retries = max(0, int(max_retries))
        self.retry_backoff = max(0.0, float(retry_backoff))
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_finalizer: Optional[weakref.finalize] = None

    # ------------------------------------------------------ persistent pool
    def _ensure_pool(self) -> ProcessPoolExecutor:
        """Return the persistent worker pool, creating it lazily.

        The pool survives across :meth:`run` calls (warm workers keep their
        route tables and imported modules).  It is replaced only when a
        worker crashes or times out, and torn down by :meth:`close` /
        garbage collection.
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            self._pool_finalizer = weakref.finalize(
                self, _shutdown_pool, self._pool
            )
        return self._pool

    def _discard_pool(self, *, wait: bool = False, kill: bool = False) -> None:
        """Drop the persistent pool (crashed, hung, or being closed)."""
        pool, self._pool = self._pool, None
        finalizer, self._pool_finalizer = self._pool_finalizer, None
        if finalizer is not None:
            finalizer.detach()
        if pool is None:
            return
        if kill:
            self._kill_pool(pool)
        else:
            pool.shutdown(wait=wait, cancel_futures=True)

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent)."""
        self._discard_pool(wait=True)

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------- run
    def run(self, spec: Any) -> RunReport:
        scenarios = scenarios_of(spec)
        t_start = time.perf_counter()
        hashes = [s.content_hash() for s in scenarios]
        done: Dict[int, CellResult] = {}
        pending: List[Tuple[int, Scenario]] = []

        for index, (scenario, content_hash) in enumerate(zip(scenarios, hashes)):
            hit = MISS
            t_lookup = time.perf_counter()
            if self.cache is not None and scenario.cacheable:
                hit = self.cache.get(content_hash)
            if hit is MISS:
                pending.append((index, scenario))
            else:
                value, elapsed = hit
                lookup_end = time.perf_counter()
                done[index] = CellResult(
                    scenario, value, elapsed, cached=True,
                    wall_seconds=lookup_end - t_lookup,
                )
                _CELLS_CACHED.inc()
                obs.add_span(
                    "exp.cell", t_lookup, lookup_end, clock="wall",
                    kernel=scenario.kernel, index=index, cached=True,
                    worker=os.getpid(),
                )

        chunks = self._chunk(pending)
        if self.workers <= 1 or len(chunks) <= 1:
            for chunk in chunks:
                triples, _ = _run_cells(chunk)
                self._absorb(done, scenarios, triples)
        else:
            self._execute_parallel(chunks, done, scenarios, obs.is_enabled())

        cells = [done[i] for i in range(len(scenarios))]
        if self.cache is not None:
            for content_hash, cell_result in zip(hashes, cells):
                if (
                    not cell_result.cached
                    and cell_result.scenario.cacheable
                    and cell_result.error is None
                ):
                    self.cache.put(
                        content_hash,
                        cell_result.scenario,
                        cell_result.value,
                        cell_result.seconds,
                    )
        return RunReport(
            cells,
            wall_seconds=time.perf_counter() - t_start,
            workers=self.workers,
            chunks=len(chunks),
            cache_hits=sum(c.cached for c in cells),
            cache_misses=sum(not c.cached for c in cells),
        )

    # ------------------------------------------------- hardened parallel path
    def _execute_parallel(
        self,
        chunks: List[List[Tuple[int, str, Dict[str, Any]]]],
        done: Dict[int, "CellResult"],
        scenarios: Sequence[Scenario],
        collect_obs: bool,
    ) -> None:
        """Drive chunks through worker pools until every cell is accounted for.

        Each pass runs the remaining chunks on one pool.  A pass ends
        clean (nothing left), after quarantining timed-out chunks (the
        rest continue on a fresh pool, no retry consumed), or on a pool
        crash — which consumes a retry with exponential backoff and, once
        ``max_retries`` is exhausted, drops to the one-cell-at-a-time
        serial fallback.
        """
        pending = list(chunks)
        attempt = 0
        while pending:
            pending, crashed = self._pool_pass(pending, done, scenarios, collect_obs)
            if not pending:
                return
            if crashed:
                attempt += 1
                _WORKER_RETRIES.inc()
                if attempt > self.max_retries:
                    self._serial_fallback(pending, done, scenarios)
                    return
                time.sleep(self.retry_backoff * (2 ** (attempt - 1)))

    def _pool_pass(
        self,
        chunks: List[List[Tuple[int, str, Dict[str, Any]]]],
        done: Dict[int, "CellResult"],
        scenarios: Sequence[Scenario],
        collect_obs: bool,
    ) -> Tuple[List[List[Tuple[int, str, Dict[str, Any]]]], bool]:
        """One pool's worth of work; returns ``(unfinished chunks, crashed)``.

        Uses the persistent warm pool: a clean pass leaves it running for
        the next pass (or the next :meth:`run`), while a crash or timeout
        discards it so the caller resubmits on a fresh one.
        """
        timeout = self.cell_timeout
        pool = self._ensure_pool()
        futures: Dict[Any, int] = {
            pool.submit(_run_cells, chunk, collect_obs): ci
            for ci, chunk in enumerate(chunks)
        }
        deadline = {
            f: (time.monotonic() + timeout * max(1, len(chunks[ci])))
            for f, ci in futures.items()
        } if timeout else {}
        while futures:
            wait_for = None
            if timeout:
                wait_for = max(
                    0.0, min(deadline[f] for f in futures) - time.monotonic()
                )
            finished, _ = wait(
                list(futures), return_when=FIRST_COMPLETED, timeout=wait_for
            )
            for future in finished:
                ci = futures.pop(future)
                try:
                    triples, payload = future.result()
                except BrokenProcessPool:
                    remaining = [chunks[ci]]
                    remaining += [chunks[i] for i in sorted(futures.values())]
                    self._discard_pool()
                    return remaining, True
                except Exception:
                    # The kernel raised (the pool itself is healthy):
                    # isolate the chunk inline so its healthy cells
                    # still complete and only the poison cell is
                    # quarantined, then keep draining the pool.
                    self._serial_fallback([chunks[ci]], done, scenarios)
                    continue
                obs.merge_state(payload)
                self._absorb(done, scenarios, triples)
            if timeout and not finished:
                now = time.monotonic()
                expired = [f for f in list(futures) if deadline[f] <= now]
                if expired:
                    for future in expired:
                        ci = futures.pop(future)
                        self._quarantine_chunk(
                            chunks[ci], done, scenarios, reason="timeout"
                        )
                        _CELL_TIMEOUTS.inc(len(chunks[ci]))
                    # The stuck worker keeps grinding regardless of the
                    # cancelled future; kill the pool and let the caller
                    # resubmit the survivors on a fresh one.
                    remaining = [chunks[i] for i in sorted(futures.values())]
                    self._discard_pool(kill=True)
                    return remaining, False
        return [], False

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear down a pool that may have a hung worker (no graceful join)."""
        procs = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - best-effort teardown
                pass

    def _serial_fallback(
        self,
        chunks: Sequence[Sequence[Tuple[int, str, Dict[str, Any]]]],
        done: Dict[int, "CellResult"],
        scenarios: Sequence[Scenario],
    ) -> None:
        """Last resort after retries: isolate cells inline, quarantine raisers.

        Running one cell at a time pinpoints the poison cell — everything
        healthy in a chunk that shared a pool with a crasher still
        completes, and only the cell that raises is quarantined.  A
        :class:`RouteBudgetError` is raised instead: a ``mem_budget`` too
        small for the sweep's parameters fails every retry alike, so the
        run stops with it as a serial run does.
        """
        for chunk in chunks:
            for cell in chunk:
                index = cell[0]
                try:
                    triples, _ = _run_cells([cell])
                except RouteBudgetError:
                    raise
                except Exception as exc:
                    self._quarantine_cell(
                        index, done, scenarios,
                        reason=f"{type(exc).__name__}: {exc}",
                    )
                else:
                    self._absorb(done, scenarios, triples)

    def _quarantine_chunk(
        self,
        chunk: Sequence[Tuple[int, str, Dict[str, Any]]],
        done: Dict[int, "CellResult"],
        scenarios: Sequence[Scenario],
        *,
        reason: str,
    ) -> None:
        for index, _kernel, _params in chunk:
            self._quarantine_cell(index, done, scenarios, reason=reason)

    @staticmethod
    def _quarantine_cell(
        index: int,
        done: Dict[int, "CellResult"],
        scenarios: Sequence[Scenario],
        *,
        reason: str,
    ) -> None:
        done[index] = CellResult(
            scenarios[index], None, 0.0, cached=False, wall_seconds=0.0,
            error=reason,
        )
        _CELLS_QUARANTINED.inc()

    # ------------------------------------------------------------- internals
    def _chunk(
        self,
        pending: Sequence[Tuple[int, Scenario]],
    ) -> List[List[Tuple[int, str, Dict[str, Any]]]]:
        """Group pending cells by chunk key (unchunked cells stay singleton).

        Chunk order follows first appearance and cells keep scenario order
        within a chunk, so the serial fallback executes in declaration
        order.  Oversized chunks are then split so a single-topology grid
        still fans out across all workers; each worker routes only the
        pairs of the slices it runs.
        """
        groups: Dict[str, List[Tuple[int, str, Dict[str, Any]]]] = {}
        order: List[str] = []
        for index, scenario in pending:
            key = scenario.chunk if scenario.chunk else f"cell-{index}"
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append((index, scenario.kernel, dict(scenario.params)))
        return self._split_chunks([groups[key] for key in order])

    def _split_chunks(
        self,
        chunks: List[List[Tuple[int, str, Dict[str, Any]]]],
    ) -> List[List[Tuple[int, str, Dict[str, Any]]]]:
        """Split chunks larger than an even per-worker share into slices.

        Contiguous slicing preserves within-chunk cell order, so the
        serial fallback and cache writes stay declaration-ordered; batch
        kernels regroup per slice, which is bit-identical because the
        batched solver is pinned to match per-cell solves.
        """
        if self.workers <= 1:
            return chunks
        total = sum(len(chunk) for chunk in chunks)
        if total == 0:
            return chunks
        target = max(1, -(-total // self.workers))
        out: List[List[Tuple[int, str, Dict[str, Any]]]] = []
        for chunk in chunks:
            if len(chunk) <= target:
                out.append(chunk)
            else:
                for lo in range(0, len(chunk), target):
                    out.append(chunk[lo:lo + target])
        return out

    @staticmethod
    def _absorb(
        done: Dict[int, CellResult],
        scenarios: Sequence[Scenario],
        rows: Sequence[Tuple[int, Any, float, Optional[Dict[str, Any]]]],
    ) -> None:
        for index, value, elapsed, memory in rows:
            done[index] = CellResult(
                scenarios[index], value, elapsed, cached=False,
                wall_seconds=elapsed, memory=memory,
            )


def run_grid(
    spec: Any,
    *,
    runner: Optional[Runner] = None,
    workers: Optional[int] = None,
    cache: Any = "auto",
) -> RunReport:
    """Run a grid/scenario set with an existing or ad-hoc runner."""
    if runner is None:
        runner = Runner(workers=workers, cache=cache)
    return runner.run(spec)
