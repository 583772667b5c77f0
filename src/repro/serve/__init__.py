"""SLAM-as-a-service: the concurrent session engine (S21).

The paper's frontier is only useful if something *serves* it: this
package runs many independent SLAM sessions at once behind a swappable
transport boundary, with explicit backpressure, per-session budgets, and
live health stats.

* :mod:`~repro.serve.transport` — the ports/adapters seam: the session
  message protocol and the in-process queue adapter (a socket adapter
  slots in later without touching the engine).
* :mod:`~repro.serve.session` — one client's state: bounded ingress
  queue, drop accounting, pose/status result log.
* :mod:`~repro.serve.engine` — the scheduler: deterministic round-robin
  multiplexing under per-session frame budgets, crash quarantine,
  telemetry-backed stats; synchronous stepping for tests and a scheduler
  thread for serving.
* :mod:`~repro.serve.loadgen` — heavy-tailed multi-client load
  generator and replay harness feeding ``repro serve``.
"""

from .engine import ServeEngine
from .loadgen import (
    ClientPlan,
    LoadEvent,
    LoadReport,
    LoadSpec,
    build_schedule,
    run_load,
)
from .session import (
    DROP_POLICIES,
    FrameResult,
    ServePolicy,
    Session,
    SessionState,
)
from .transport import (
    InProcessTransport,
    SessionClose,
    SessionFrame,
    SessionOpen,
    Transport,
)

__all__ = [
    "DROP_POLICIES",
    "ClientPlan",
    "FrameResult",
    "InProcessTransport",
    "LoadEvent",
    "LoadReport",
    "LoadSpec",
    "ServeEngine",
    "ServePolicy",
    "Session",
    "SessionClose",
    "SessionFrame",
    "SessionOpen",
    "SessionState",
    "Transport",
    "build_schedule",
    "run_load",
]
