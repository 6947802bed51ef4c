"""Discrete-event simulation core.

Events are ``(time, sequence, handle)`` tuples in a binary heap; the
sequence number makes the ordering of simultaneous events stable and
deterministic (schedule order).  Scheduling returns an
:class:`EventHandle` that can be passed to :meth:`EventEngine.cancel`,
which is how the cluster simulator (:mod:`repro.cluster`) resolves races
such as "the job completed" vs "a board of the job failed": the loser of
the race is cancelled instead of firing on stale state.  Cancellation is
lazy (cancelled entries stay in the heap until they surface) so it is O(1)
and never perturbs the deterministic ordering of the surviving events.

The packet simulator (:mod:`repro.sim.network`) runs its hops from its own
calendar and reports its clock and event counts through
:meth:`EventEngine.account`, so ``now``, ``processed_events`` and
``pending_events`` read the same on every simulator.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

__all__ = ["EventEngine", "EventHandle"]


class EventHandle:
    """Cancellation token for one scheduled event.

    The handle exposes the scheduled ``time`` and whether the event is still
    ``pending`` (neither executed nor cancelled).  Handles are returned by
    :meth:`EventEngine.schedule` / :meth:`EventEngine.schedule_at` and are
    only meaningful for the engine that created them.
    """

    __slots__ = ("time", "_callback", "_cancelled")

    def __init__(self, time: float, callback: Callable[[], None]):
        self.time = time
        self._callback: Optional[Callable[[], None]] = callback
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def pending(self) -> bool:
        """True while the event has neither executed nor been cancelled."""
        return self._callback is not None and not self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else (
            "pending" if self._callback is not None else "done"
        )
        return f"EventHandle(time={self.time!r}, {state})"


class EventEngine:
    """A deterministic discrete-event scheduler."""

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, EventHandle]] = []
        self._sequence = 0
        self._now = 0.0
        self._processed = 0
        self._live = 0  # scheduled and not yet executed or cancelled
        self._external = 0  # pending on an accounted calendar (see `account`)

    # ---------------------------------------------------------------- queries
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Scheduled events neither executed nor cancelled, plus the events
        pending on an accounted calendar."""
        return self._live + self._external

    @property
    def processed_events(self) -> int:
        return self._processed

    def peek(self) -> Optional[float]:
        """Time of the next pending scheduled event, or ``None``.

        Cancelled events never influence the result; the engine's clock and
        event ordering are left untouched.
        """
        self._prune()
        return self._queue[0][0] if self._queue else None

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at an absolute simulation time."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        handle = EventHandle(time, callback)
        heapq.heappush(self._queue, (time, self._sequence, handle))
        self._sequence += 1
        self._live += 1
        return handle

    def account(self, now: float, processed: int, pending: int) -> None:
        """Fold in events run from a calendar outside this engine.

        A simulator that keeps its own calendar (the packet simulator)
        reports its clock, the events it ran since its last report and the
        events still on its calendar, so :attr:`now`,
        :attr:`processed_events` and :attr:`pending_events` count both.
        """
        self._now = now
        self._processed += processed
        self._external = pending

    def cancel(self, handle: Optional[EventHandle]) -> bool:
        """Cancel a scheduled event; returns whether anything was cancelled.

        Cancelling ``None``, an already-cancelled handle, or an event that
        has already executed is a harmless no-op returning ``False``, so
        callers can unconditionally cancel whatever handle they hold.
        """
        if handle is None or not handle.pending:
            return False
        handle._cancelled = True
        self._live -= 1
        return True

    # -------------------------------------------------------------- execution
    def _prune(self) -> None:
        while self._queue and self._queue[0][2]._cancelled:
            heapq.heappop(self._queue)

    def step(self) -> bool:
        """Process the next event; returns ``False`` when the queue is empty."""
        self._prune()
        if not self._queue:
            return False
        time, _, handle = heapq.heappop(self._queue)
        self._now = time
        self._processed += 1
        self._live -= 1
        callback = handle._callback
        handle._callback = None  # marks the handle as executed
        callback()
        return True

    def run(self, *, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the simulation time after the last processed event.
        """
        processed = 0
        while True:
            self._prune()
            if not self._queue:
                break
            if until is not None and self._queue[0][0] > until:
                self._now = until
                break
            if max_events is not None and processed >= max_events:
                break
            self.step()
            processed += 1
        return self._now

    def reset(self) -> None:
        """Drop all pending events and rewind the clock.

        Handles issued before the reset are marked cancelled, so a caller
        unconditionally cancelling a stale handle later stays a no-op
        instead of corrupting the live-event count.
        """
        for _, _, handle in self._queue:
            handle._cancelled = True
        self._queue.clear()
        self._now = 0.0
        self._sequence = 0
        self._processed = 0
        self._live = 0
        self._external = 0
