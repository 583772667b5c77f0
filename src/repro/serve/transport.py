"""The serving layer's transport boundary: ports and adapters.

The engine never talks to clients directly — it drains *messages* from a
:class:`Transport` port.  Three message kinds make up the whole session
protocol (mirroring the SLAMBench lifecycle the sessions run inside):

* :class:`SessionOpen` — a client announces itself, carrying everything
  the engine needs to build its SLAM system: sensor suite, algorithm
  name, configuration overrides, factory kwargs.
* :class:`SessionFrame` — one depth frame for an open session.
* :class:`SessionClose` — the client is done; the engine drains the
  session's queued frames, then releases its state.

:class:`InProcessTransport` is the first adapter: a thread-safe FIFO the
load generator (or a test) pushes into from any thread while the engine
drains it from its scheduler thread.  Because the engine depends only on
the port's four methods (``send`` / ``poll`` / ``wait`` / ``close``), a
socket adapter that deserialises the same messages from a wire protocol
can slot in without touching the engine — the ports/adapters split the
ROADMAP's SVTVision template prescribes.
"""

from __future__ import annotations

import abc
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..errors import ServeError


@dataclass(frozen=True)
class SessionOpen:
    """Open a session for ``client_id``.

    Attributes:
        client_id: unique session identifier chosen by the client.
        sensors: the client's :class:`~repro.core.sensors.SensorSuite`
            (a socket adapter would rebuild this from wire intrinsics).
        algorithm: registered algorithm name (``repro.core.registry``).
        configuration: parameter overrides applied before ``init``.
        factory_kwargs: keyword arguments for the algorithm factory
            (e.g. ``kernel_backend="fast"``).
    """

    client_id: str
    sensors: Any
    algorithm: str = "kfusion"
    configuration: dict = field(default_factory=dict)
    factory_kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SessionFrame:
    """One streamed depth frame for an open session."""

    client_id: str
    frame: Any  #: :class:`~repro.core.frame.Frame`


@dataclass(frozen=True)
class SessionClose:
    """The client finished streaming; drain and release the session."""

    client_id: str


Message = SessionOpen | SessionFrame | SessionClose


class Transport(abc.ABC):
    """Port the engine drains client messages from.

    Adapters must be safe to ``send`` from any number of client threads
    while one engine thread ``poll``\\ s.
    """

    @abc.abstractmethod
    def send(self, message: Message) -> None:
        """Enqueue one message (client side)."""

    @abc.abstractmethod
    def poll(self, max_messages: int | None = None) -> list:
        """Dequeue up to ``max_messages`` pending messages (engine side)."""

    @abc.abstractmethod
    def wait(self, timeout_s: float) -> bool:
        """Block until a message is pending (or ``timeout_s`` elapses).

        Returns whether messages are pending — the engine's idle path
        parks here instead of spinning.
        """

    @abc.abstractmethod
    def close(self) -> None:
        """Refuse further sends; pending messages stay pollable."""

    @property
    @abc.abstractmethod
    def pending(self) -> int:
        """Number of queued messages."""


class InProcessTransport(Transport):
    """Thread-safe in-process FIFO adapter.

    The queue itself is unbounded: per-session backpressure lives in the
    engine's bounded ingress queues, which every scheduling round drains
    this FIFO into — so transport occupancy is bounded by one round's
    arrivals, and overload surfaces as *counted* session-level drops
    rather than silent growth here.
    """

    def __init__(self):
        self._messages: deque = deque()
        # Lock order: ServeEngine.step holds the engine's _lock while it
        # polls here, so the engine lock is always taken first.  No method
        # of this class may call back into the engine while holding _cond.
        self._cond = threading.Condition()
        self._closed = False

    def send(self, message: Message) -> None:
        if not isinstance(message, (SessionOpen, SessionFrame,
                                    SessionClose)):
            raise ServeError(
                f"transport message must be SessionOpen/SessionFrame/"
                f"SessionClose, got {type(message).__name__}"
            )
        with self._cond:
            if self._closed:
                raise ServeError("transport is closed")
            self._messages.append(message)
            self._cond.notify_all()

    def poll(self, max_messages: int | None = None) -> list:
        with self._cond:
            if max_messages is None or max_messages >= len(self._messages):
                drained = list(self._messages)
                self._messages.clear()
            else:
                drained = [self._messages.popleft()
                           for _ in range(max_messages)]
            return drained

    def wait(self, timeout_s: float) -> bool:
        with self._cond:
            if self._messages:
                return True
            self._cond.wait(timeout_s)
            return bool(self._messages)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def pending(self) -> int:
        with self._cond:
            return len(self._messages)

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed


__all__ = [
    "InProcessTransport",
    "Message",
    "SessionClose",
    "SessionFrame",
    "SessionOpen",
    "Transport",
]
