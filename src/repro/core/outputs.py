"""Typed algorithm outputs, mirroring SLAMBench's output mechanism.

SLAMBench systems publish named outputs (current pose, point cloud, render
of the internal model, tracking status); the loader/GUI subscribes to them.
:class:`OutputManager` is the registry a :class:`~repro.core.api.SLAMSystem`
fills in during ``update_outputs``.  Costly outputs are published as
producers and computed only when read, as SLAMBench2 does.
"""

from __future__ import annotations

import enum
from typing import Any, Callable

import numpy as np

from ..errors import ConfigurationError


class OutputKind(enum.Enum):
    """The type tag of a published output."""

    POSE = "pose"  # 4x4 camera-to-world estimate
    POINTCLOUD = "pointcloud"  # (N, 3) world points
    FRAME = "frame"  # (H, W) or (H, W, 3) image
    TRACKING_STATUS = "tracking_status"  # TrackingStatus enum
    SCALAR = "scalar"  # any float (e.g. internal residual)


class TrackingStatus(enum.Enum):
    """Per-frame tracker verdict, as displayed in the SLAMBench GUI."""

    OK = "ok"
    LOST = "lost"
    SKIPPED = "skipped"  # frame not tracked (tracking_rate decimation)
    BOOTSTRAP = "bootstrap"  # first frame / re-initialisation


class Output:
    """One published output slot.

    A system either sets a value (:meth:`set`) or publishes a producer
    that computes it (:meth:`publish`).  The producer runs on the first
    read of :attr:`value`, at most once, so an output nobody reads costs
    nothing.  The producer decides whether it can still answer for its
    frame and raises :class:`~repro.errors.ConfigurationError` if not.
    """

    def __init__(self, name: str, kind: OutputKind):
        self.name = name
        self.kind = kind
        self.updated_at_frame = -1
        self._value: Any = None
        self._producer: Callable[[], Any] | None = None

    @property
    def value(self) -> Any:
        """The published value, computed now if only a producer is held."""
        if self._producer is not None:
            self._value = self._producer()
            self._producer = None
        return self._value

    def set(self, value: Any, frame_index: int) -> None:
        """Publish ``value`` for ``frame_index`` (drops a pending producer)."""
        self._value = value
        self._producer = None
        self.updated_at_frame = frame_index

    def publish(self, producer: Callable[[], Any], frame_index: int) -> None:
        """Publish ``producer()`` for ``frame_index``, computed on first read."""
        self._value = None
        self._producer = producer
        self.updated_at_frame = frame_index


class OutputManager:
    """Registry of the outputs a SLAM system publishes.

    Systems declare outputs once at init; the harness reads them after each
    processed frame.  Declaring twice or reading an undeclared output is an
    error — the same strictness the C++ framework enforces.
    """

    def __init__(self):
        self._outputs: dict[str, Output] = {}

    def declare(self, name: str, kind: OutputKind) -> Output:
        if name in self._outputs:
            raise ConfigurationError(f"output {name!r} already declared")
        out = Output(name=name, kind=kind)
        self._outputs[name] = out
        return out

    def get(self, name: str) -> Output:
        try:
            return self._outputs[name]
        except KeyError:
            raise ConfigurationError(f"output {name!r} not declared") from None

    def __contains__(self, name: str) -> bool:
        return name in self._outputs

    def names(self) -> list[str]:
        return list(self._outputs)

    def set_pose(self, pose: np.ndarray, frame_index: int,
                 name: str = "pose") -> None:
        """Convenience: update (declaring if needed) the pose output."""
        if name not in self._outputs:
            self.declare(name, OutputKind.POSE)
        self._outputs[name].set(np.asarray(pose, dtype=float), frame_index)

    def pose(self, name: str = "pose") -> np.ndarray:
        """Latest pose estimate."""
        value = self.get(name).value
        if value is None:
            raise ConfigurationError(f"output {name!r} has no value yet")
        return value
