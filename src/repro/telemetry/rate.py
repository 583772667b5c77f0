"""Sliding-window rate measurement over the monotonic telemetry clock.

Serving-side health stats ("this session is processing 23 frames/sec
right now") and the load generator's offered-rate accounting both need
the same primitive: a monotonic event counter whose *rate* is read over
a recent window rather than over the whole run.  :class:`RateWindow` is
that one shared implementation — marks are timestamped with
:func:`~repro.telemetry.tracer.monotonic_s` (or an injected clock, which
is what the deterministic tests use), old marks are evicted lazily, and
the reported rate divides by the *effective* window (the span of time
actually observed), so a window read half a second after the first mark
does not under-report by ``window_s``.

:class:`~repro.telemetry.tracer.Tracer` integrates it behind
``tracer.mark(name)`` / ``tracer.rate(name)``: a mark increments the
ordinary monotonic counter *and* feeds the name's rate window, so a
traced serving run exports cumulative totals and live rates from the
same call sites.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from .tracer import TelemetryError, monotonic_s

#: Default sliding-window span (seconds).  Long enough to smooth
#: per-frame jitter at interactive frame rates, short enough that a
#: stalled session's rate visibly decays within a few stats polls.
DEFAULT_WINDOW_S = 5.0


class RateWindow:
    """Monotonic event counter with a sliding-window rate.

    Args:
        window_s: how far back (seconds) marks contribute to ``rate()``.
        clock: monotonic seconds source; defaults to the telemetry
            clock.  Tests inject a fake clock to make rates exact.

    Not thread-safe on its own; the owning :class:`Tracer` (or the serve
    engine's single scheduler thread) serialises access.
    """

    __slots__ = ("window_s", "_clock", "_marks", "_total", "_count",
                 "_first_t")

    def __init__(self, window_s: float = DEFAULT_WINDOW_S,
                 clock: Callable[[], float] = monotonic_s):
        if window_s <= 0:
            raise TelemetryError(
                f"window_s must be positive, got {window_s}"
            )
        self.window_s = float(window_s)
        self._clock = clock
        # Owner-serialised state: Tracer.mark/rate hold Tracer._lock
        # around every call, the serve engine's private windows are only
        # touched by step()/stats() under ServeEngine._lock, and loadgen
        # windows never leave the generating thread
        # (tests/test_locksets.py checks the first two on the threaded
        # engine).
        self._marks: deque[tuple[float, float]] = deque()
        self._total = 0.0
        self._count = 0
        self._first_t: float | None = None

    @property
    def total(self) -> float:
        """Cumulative marked value since construction (never evicted)."""
        return self._total

    @property
    def count(self) -> int:
        """Number of ``mark`` calls since construction."""
        return self._count

    def mark(self, value: float = 1.0, now: float | None = None) -> None:
        """Record ``value`` events at ``now`` (default: the clock)."""
        t = self._clock() if now is None else now
        if self._first_t is None:
            self._first_t = t
        self._marks.append((t, value))
        self._total += value
        self._count += 1
        self._evict(t)

    def rate(self, now: float | None = None) -> float:
        """Events/sec over the effective window ending at ``now``.

        The effective window is ``min(window_s, now - first_mark)`` so
        early reads are not diluted; with no marks yet the rate is 0.
        """
        if self._first_t is None:
            return 0.0
        t = self._clock() if now is None else now
        self._evict(t)
        if not self._marks:
            return 0.0
        effective = min(self.window_s, max(t - self._first_t, 0.0))
        if effective <= 0.0:
            # All marks at one instant: report them against the full
            # window rather than claiming an infinite rate.
            effective = self.window_s
        return sum(v for _, v in self._marks) / effective

    def _evict(self, now: float) -> None:
        horizon = now - self.window_s
        marks = self._marks
        while marks and marks[0][0] < horizon:
            marks.popleft()


__all__ = ["DEFAULT_WINDOW_S", "RateWindow"]
