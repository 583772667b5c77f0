"""Golden-run regression tests for the KinectFusion pipeline.

Runs the full pipeline on a fixed-seed synthetic living-room sequence and
pins the trajectory accuracy, tracked fraction and per-frame tracking
statuses against values recorded at the time this test was written.  A
pipeline refactor that changes numerical behaviour — kernel reordering, a
different ICP convergence path, altered integration scheduling — shows up
here instead of slipping through the purely structural tests.

Every kernel backend is pinned (``reference``, the float64 textbook
kernels, ``fast``, the float32 workspace kernels of ``repro.perf``, and
``sparse``, the voxel-block volume) with its *own* recorded ATE values,
so a numerical drift in any implementation is caught independently.
The frame-to-frame ``icp_odometry`` baseline is pinned the same way.
These tables are the compiled stage graph's oracle.

Tolerances (documented, deliberately asymmetric in strictness):

* ATE RMSE / max: ``rel=0.02``.  The pipeline is bit-deterministic on one
  platform, but summation order may legally change across BLAS builds;
  2 % is far below any behavioural change (losing a single frame moves
  ATE by >10x) while absorbing float-reassociation drift.
* tracked fraction: exact — a run either tracks a frame or it doesn't.
* status sequence: exact per frame, same reasoning — and identical
  *across* backends, which is the fast path's headline equivalence claim
  (see DESIGN.md S17 and tests/test_perf.py).
"""

import pytest

from repro.baselines.odometry import ICPOdometry
from repro.core import run_benchmark
from repro.datasets import icl_nuim
from repro.graph import TapSpec
from repro.kfusion import KinectFusion
from repro.telemetry import Tracer, use_tracer

ATE_REL_TOL = 0.02

BACKENDS = ("reference", "fast", "sparse")

#: Recorded per-backend ATE values (numpy 2.4, this container).
GOLDEN_ATE = {
    ("reference", 96): {"rmse": 0.003773127746256985,
                        "max": 0.005132570072557547},
    ("fast", 96): {"rmse": 0.0037567860943899475,
                   "max": 0.0051726755650136225},
    ("reference", 64): {"rmse": 0.06905575267240154,
                        "max": 0.18688626834420913},
    ("fast", 64): {"rmse": 0.0690549280815696,
                   "max": 0.18688364918560782},
    ("sparse", 96): {"rmse": 0.0037567860943899475,
                     "max": 0.0051726755650136225},
    ("sparse", 64): {"rmse": 0.0690549280815696,
                     "max": 0.18688364918560782},
}

#: Recorded icp_odometry ATE (lr_kt0, 10 frames at 80x60, seed 0,
#: compute_size_ratio=2).
GOLDEN_ODOMETRY_ATE = {"rmse": 0.009930904928108279,
                       "max": 0.015462973925441142}


def _sequence():
    seq = icl_nuim.load("lr_kt0", n_frames=10, width=80, height=60, seed=0)
    seq.materialize()
    return seq


def _run(volume_resolution: int, kernel_backend: str = "fast",
         taps: tuple = ()):
    return run_benchmark(
        KinectFusion(kernel_backend=kernel_backend, taps=taps),
        _sequence(),
        configuration={
            "volume_resolution": volume_resolution,
            "volume_size": 5.0,
            "integration_rate": 1,
        },
    )


@pytest.fixture(scope="module", params=BACKENDS)
def good_run(request):
    """vol=96: the pipeline tracks every frame on this sequence."""
    return request.param, _run(volume_resolution=96,
                               kernel_backend=request.param)


@pytest.fixture(scope="module", params=BACKENDS)
def degraded_run(request):
    """vol=64: too coarse for the first motions — loses two frames."""
    return request.param, _run(volume_resolution=64,
                               kernel_backend=request.param)


class TestGoldenGoodRun:
    def test_ate_rmse(self, good_run):
        backend, run = good_run
        assert run.ate.rmse == pytest.approx(
            GOLDEN_ATE[(backend, 96)]["rmse"], rel=ATE_REL_TOL)

    def test_ate_max(self, good_run):
        backend, run = good_run
        assert run.ate.max == pytest.approx(
            GOLDEN_ATE[(backend, 96)]["max"], rel=ATE_REL_TOL)

    def test_tracked_fraction(self, good_run):
        _, run = good_run
        assert run.collector.tracked_fraction() == 1.0

    def test_status_sequence(self, good_run):
        _, run = good_run
        statuses = [r.status.value for r in run.collector.records]
        assert statuses == ["bootstrap"] + ["ok"] * 9


class TestGoldenDegradedRun:
    """Pins the *failure* behaviour too: when and how tracking is lost."""

    def test_ate_rmse(self, degraded_run):
        backend, run = degraded_run
        assert run.ate.rmse == pytest.approx(
            GOLDEN_ATE[(backend, 64)]["rmse"], rel=ATE_REL_TOL)

    def test_tracked_fraction(self, degraded_run):
        _, run = degraded_run
        assert run.collector.tracked_fraction() == pytest.approx(0.8)

    def test_status_sequence(self, degraded_run):
        _, run = degraded_run
        statuses = [r.status.value for r in run.collector.records]
        assert statuses == (["bootstrap", "lost", "lost"] + ["ok"] * 7)

    def test_lost_frames_identified(self, degraded_run):
        _, run = degraded_run
        assert run.collector.lost_frames() == [1, 2]


class TestGoldenDeterminism:
    def test_repeat_run_is_identical(self, good_run):
        backend, run = good_run
        repeat = _run(volume_resolution=96, kernel_backend=backend)
        assert repeat.ate.rmse == run.ate.rmse
        assert [r.status for r in repeat.collector.records] == [
            r.status for r in run.collector.records
        ]


class TestGoldenSubsampledRun:
    """The real-time knobs: ``compute_size_ratio=4`` at 160x120 is the
    same 40x30 compute grid as 320x240 at ``compute_size_ratio=8``, and
    ``integration_rate=3`` skips integrate on two frames in three."""

    @pytest.fixture(scope="class")
    def sequence(self):
        seq = icl_nuim.load("lr_kt0", n_frames=12, width=160, height=120,
                            seed=0)
        seq.materialize()
        return seq

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_status_sequence(self, sequence, backend):
        run = run_benchmark(
            KinectFusion(kernel_backend=backend), sequence,
            configuration={
                "volume_resolution": 128,
                "volume_size": 5.0,
                "compute_size_ratio": 4,
                "integration_rate": 3,
            },
            evaluate_accuracy=False,
        )
        statuses = [r.status.value for r in run.collector.records]
        assert statuses == ["bootstrap"] + ["ok"] * 11


class TestGoldenOdometry:
    @pytest.fixture(scope="class")
    def odometry_run(self):
        return run_benchmark(ICPOdometry(), _sequence(),
                             configuration={"compute_size_ratio": 2})

    def test_ate_pinned(self, odometry_run):
        assert odometry_run.ate.rmse == pytest.approx(
            GOLDEN_ODOMETRY_ATE["rmse"], rel=ATE_REL_TOL)
        assert odometry_run.ate.max == pytest.approx(
            GOLDEN_ODOMETRY_ATE["max"], rel=ATE_REL_TOL)

    def test_status_sequence(self, odometry_run):
        statuses = [r.status.value for r in odometry_run.collector.records]
        assert statuses == ["bootstrap"] + ["ok"] * 9


class TestGoldenStreamTaps:
    """Stream taps observe intermediate frames without perturbing them:
    a tapped run must reproduce the untapped golden values bit-for-bit,
    and its telemetry must carry backend-stamped tap spans."""

    TAPS = (
        TapSpec(node="preprocess", port="depth"),
        TapSpec(node="raycast", port="model", every=2),
    )

    @pytest.fixture(scope="class", params=BACKENDS)
    def tapped_run(self, request):
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            run = _run(volume_resolution=96, kernel_backend=request.param,
                       taps=self.TAPS)
        return request.param, run, tracer

    def test_tapped_ate_identical_to_golden(self, tapped_run, good_run):
        backend_t, tapped, _ = tapped_run
        backend_g, golden = good_run
        if backend_t != backend_g:
            pytest.skip("cross-backend pairing")
        assert tapped.ate.rmse == golden.ate.rmse
        assert tapped.ate.max == golden.ate.max
        assert [r.status for r in tapped.collector.records] == [
            r.status for r in golden.collector.records
        ]

    def test_tap_spans_backend_named(self, tapped_run):
        backend, _, tracer = tapped_run
        depth_taps = [s for s in tracer.spans
                      if s.name == "tap.preprocess.depth"]
        assert len(depth_taps) == 10  # every frame
        for span in depth_taps:
            assert span.attrs["backend"] == backend
            assert span.attrs["kind"] == "ndarray"

    def test_integrate_spans_count_updated_voxels(self, tapped_run):
        _, _, tracer = tapped_run
        updated = {s.attrs["frame"]: s.attrs["voxels_updated"]
                   for s in tracer.spans if s.name == "integrate"}
        assert sorted(updated) == list(range(10))
        assert updated[0] > 0  # the bootstrap frame always fuses
        assert all(n >= 0 for n in updated.values())

    def test_tap_sampling_rate_respected(self, tapped_run):
        _, _, tracer = tapped_run
        model_taps = [s for s in tracer.spans
                      if s.name == "tap.raycast.model"]
        assert [s.attrs["frame"] for s in model_taps] == [0, 2, 4, 6, 8]
        for span in model_taps:
            assert 0.0 <= span.attrs["valid_fraction"] <= 1.0
