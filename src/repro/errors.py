"""Exception hierarchy for the ``repro`` library.

Every error raised intentionally by the library derives from
:class:`ReproError` so callers can catch library failures without also
swallowing programming errors (``TypeError``, ``AttributeError``, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An algorithm or experiment configuration is invalid.

    Raised when a parameter value is outside its declared bounds, a required
    parameter is missing, or mutually inconsistent values are supplied.
    """


class GeometryError(ReproError):
    """An operation on poses, cameras or point clouds received invalid data."""


class DatasetError(ReproError):
    """A dataset could not be generated, loaded, or validated."""


class TrackingError(ReproError):
    """The tracker could not produce a pose estimate.

    Carries the frame index at which tracking failed when available.
    """

    def __init__(self, message: str, frame_index: int | None = None):
        super().__init__(message)
        self.frame_index = frame_index


class SimulationError(ReproError):
    """The platform/performance simulator was asked for something impossible."""


class OptimizationError(ReproError):
    """The design-space exploration could not proceed (empty space, ...)."""


class ModelError(ReproError):
    """A machine-learning model was used before fitting or with bad shapes."""


class ReportError(ReproError):
    """A report/export helper was asked to render invalid or empty data."""


class PerfError(ReproError):
    """The fast-path kernel backend violated one of its invariants.

    Raised when the preallocated :class:`~repro.perf.FrameWorkspace`
    would exceed the byte budget derived from :mod:`repro.kfusion.memory`,
    or when an unknown kernel backend is requested.  Never raised on a
    healthy run — it marks a sizing/registration bug, not bad data.
    """


class GraphError(ReproError):
    """A stage-graph definition failed to validate or compile.

    Raised by :mod:`repro.graph` when a pipeline graph names an
    unregistered stage, wires contract-mismatched ports, leaves an input
    unfed (or feeds it twice), or contains a cycle.  Always raised at
    *compile* time — a graph that compiled never raises this while
    running.
    """


class StageExecutionError(GraphError):
    """A stage raised while a compiled pipeline was running it.

    Carries the failing stage's node name (and the frame index when
    known) so mid-graph failures are attributable without digging
    through the traceback; the original exception is chained as
    ``__cause__``.
    """

    def __init__(self, message: str, stage: str,
                 frame_index: int | None = None):
        super().__init__(message)
        self.stage = stage
        self.frame_index = frame_index


class JobError(ReproError):
    """The parallel evaluation engine could not run or persist a job.

    Raised for infrastructure failures — a worker crashing repeatedly, a
    job exceeding its timeout budget after every retry, an unreadable or
    mismatched evaluation store.  *Evaluation* failures (a configuration
    that diverges) are not job errors: they come back as
    ``Evaluation(failed=True)`` so a search can keep going.
    """


class ServeError(ReproError):
    """The serving layer was misused or a session protocol was violated.

    Raised by :mod:`repro.serve` for engine-level faults — invalid
    budgets or drop policies, stepping a stopped engine, an adapter
    violating the transport port contract.  Client *protocol* mistakes
    (opening a session id twice, streaming to an unknown session) are
    counted as protocol errors rather than raised, and a SLAM
    *algorithm* failure inside a session is not a serve error either:
    the engine quarantines it (the session is marked crashed, its error
    recorded in the stats report) and keeps serving every other client.
    """
