"""Integration tests: the full KinectFusion system on synthetic sequences."""

import dataclasses
import warnings
import weakref

import numpy as np
import pytest

from repro.baselines.odometry import ICPOdometry
from repro.baselines.sparse import SparseOdometry
from repro.core import TrackingStatus, run_benchmark
from repro.datasets.base import InMemorySequence
from repro.errors import ConfigurationError
from repro.kfusion import KinectFusion
from repro.kfusion.sparse import SparseTSDFVolume
from repro.kfusion.volume import TSDFVolume

GOOD_CONFIG = {
    "volume_resolution": 128,
    "volume_size": 5.0,
    "integration_rate": 1,
}


@pytest.fixture(scope="module")
def kfusion_result(tiny_sequence):
    return run_benchmark(KinectFusion(), tiny_sequence,
                         configuration=GOOD_CONFIG)


class TestEndToEnd:
    def test_tracks_whole_sequence(self, kfusion_result):
        assert kfusion_result.collector.tracked_fraction() == 1.0

    def test_ate_small(self, kfusion_result):
        assert kfusion_result.ate is not None
        assert kfusion_result.ate.max < 0.02

    def test_rpe_small(self, kfusion_result):
        assert kfusion_result.rpe is not None
        assert kfusion_result.rpe.trans_rmse < 0.01

    def test_first_frame_bootstrap(self, kfusion_result):
        records = kfusion_result.collector.records
        assert records[0].status is TrackingStatus.BOOTSTRAP
        assert all(r.status is TrackingStatus.OK for r in records[1:])

    def test_workloads_recorded(self, kfusion_result):
        for record in kfusion_result.collector.records:
            names = {k.name for k in record.workload.kernels}
            assert "bilateral_filter" in names
            assert "raycast" in names
            assert "integrate" in names  # integration_rate=1

    def test_tracking_kernels_present_after_first(self, kfusion_result):
        records = kfusion_result.collector.records
        assert not any(k.name == "track"
                       for k in records[0].workload.kernels)
        assert any(k.name == "track" for k in records[1].workload.kernels)


class TestParameterEffects:
    def test_coarse_volume_degrades_accuracy(self, tiny_sequence):
        fine = run_benchmark(
            KinectFusion(), tiny_sequence, configuration=GOOD_CONFIG
        )
        coarse = run_benchmark(
            KinectFusion(), tiny_sequence,
            configuration={"volume_resolution": 32, "volume_size": 5.0,
                           "integration_rate": 1},
        )
        assert coarse.ate.max > fine.ate.max

    def test_compute_ratio_reduces_workload(self, tiny_sequence):
        full = run_benchmark(KinectFusion(), tiny_sequence,
                             configuration=GOOD_CONFIG)
        half = run_benchmark(
            KinectFusion(), tiny_sequence,
            configuration=dict(GOOD_CONFIG, compute_size_ratio=2),
        )
        flops_full = sum(r.workload.total_flops
                         for r in full.collector.records)
        flops_half = sum(r.workload.total_flops
                         for r in half.collector.records)
        assert flops_half < flops_full

    def test_integration_rate_decimates(self, tiny_sequence):
        result = run_benchmark(
            KinectFusion(), tiny_sequence,
            configuration=dict(GOOD_CONFIG, integration_rate=4),
        )
        integrations = sum(
            1
            for r in result.collector.records
            if any(k.name == "integrate" for k in r.workload.kernels)
        )
        assert integrations <= 4  # bootstrap frames + every 4th

    def test_tracking_rate_skips(self, tiny_sequence):
        result = run_benchmark(
            KinectFusion(), tiny_sequence,
            configuration=dict(GOOD_CONFIG, tracking_rate=3),
        )
        statuses = [r.status for r in result.collector.records]
        assert TrackingStatus.SKIPPED in statuses

    def test_too_aggressive_ratio_rejected(self, tiny_sequence):
        # 80x60 / 8 = 10x7.5: not an integer grid.
        with pytest.raises(ConfigurationError):
            run_benchmark(
                KinectFusion(), tiny_sequence,
                configuration=dict(GOOD_CONFIG, compute_size_ratio=8),
            )

    def test_outputs_published(self, tiny_sequence):
        system = KinectFusion()
        run_benchmark(system, tiny_sequence, configuration=GOOD_CONFIG)
        # After clean, outputs are reset; re-run manually to inspect.
        system = KinectFusion()
        system.new_configuration().update(GOOD_CONFIG)
        system.init(tiny_sequence.sensors)
        f = tiny_sequence.frame(0)
        system.update_frame(f.without_ground_truth())
        system.process_once()
        outputs = system.update_outputs()
        assert outputs.pose().shape == (4, 4)
        assert len(outputs.get("pointcloud").value) > 0
        system.clean()


#: Small map for the output and ingest tests: they check bookkeeping, not
#: tracking accuracy.
SMALL_CONFIG = {"volume_resolution": 64, "volume_size": 5.0,
                "integration_rate": 1}


def _started(sequence, backend):
    system = KinectFusion(kernel_backend=backend)
    system.new_configuration().update(SMALL_CONFIG)
    system.init(sequence.sensors)
    return system


def _step(system, frame):
    system.update_frame(frame.without_ground_truth())
    system.process_once()
    return system.update_outputs()


class TestPointcloudOnDemand:
    @pytest.mark.parametrize("backend", ["fast", "sparse"])
    def test_read_equals_extraction_at_that_frame(self, tiny_sequence,
                                                  backend):
        system = _started(tiny_sequence, backend)
        try:
            for index in range(3):
                outputs = _step(system, tiny_sequence.frame(index))
                cloud = outputs.get("pointcloud").value
                assert outputs.get("pointcloud").updated_at_frame == index
                expected = system.volume.extract_surface_points()
                assert cloud.dtype == expected.dtype
                assert cloud.tobytes() == expected.tobytes()
        finally:
            system.clean()

    def test_read_after_next_frame_raises(self, tiny_sequence):
        system = _started(tiny_sequence, "fast")
        try:
            kept = _step(system, tiny_sequence.frame(0)).get("pointcloud")
            system.update_frame(tiny_sequence.frame(1).without_ground_truth())
            system.process_once()
            with pytest.raises(ConfigurationError,
                               match=r"'pointcloud' of frame 0.*frame 1"):
                kept.value
            # Publishing frame 1 makes the same slot readable again.
            system.update_outputs()
            assert len(kept.value) > 0
        finally:
            system.clean()

    def test_read_after_clean_raises(self, tiny_sequence):
        system = _started(tiny_sequence, "fast")
        kept = _step(system, tiny_sequence.frame(0)).get("pointcloud")
        system.clean()
        with pytest.raises(ConfigurationError,
                           match=r"'pointcloud' of frame 0.*cleaned"):
            kept.value
        # Nor does a new run on the same system revive the old slot.
        system.init(tiny_sequence.sensors)
        try:
            _step(system, tiny_sequence.frame(0))
            with pytest.raises(ConfigurationError):
                kept.value
        finally:
            system.clean()

    def test_kept_output_does_not_keep_system_alive(self, tiny_sequence):
        system = _started(tiny_sequence, "fast")
        outputs = _step(system, tiny_sequence.frame(0))
        alive = weakref.ref(system)
        del system  # dropped without clean: no cycle may hold its buffers
        assert alive() is None
        with pytest.raises(ConfigurationError, match="released"):
            outputs.get("pointcloud").value

    @pytest.mark.parametrize("backend,volume_class", [
        ("fast", TSDFVolume), ("sparse", SparseTSDFVolume),
    ])
    def test_unread_pointcloud_is_never_extracted(self, tiny_sequence,
                                                  monkeypatch, backend,
                                                  volume_class):
        calls = []
        extract = volume_class.extract_surface_points

        def counting(self, *args, **kwargs):
            calls.append(1)
            return extract(self, *args, **kwargs)

        monkeypatch.setattr(volume_class, "extract_surface_points", counting)
        run_benchmark(KinectFusion(kernel_backend=backend), tiny_sequence,
                      configuration=SMALL_CONFIG)
        assert calls == []


def _with_depth_patch(sequence, index, value):
    """``sequence`` with a 10x10 block of frame ``index`` set to ``value``."""
    frames = list(sequence)
    depth = frames[index].depth.copy()
    depth[20:30, 30:40] = value
    frames[index] = dataclasses.replace(frames[index], depth=depth)
    return InMemorySequence(sequence.name, sequence.sensors, frames)


class TestNonFiniteDepth:
    @pytest.mark.parametrize("backend", ["fast", "reference", "sparse"])
    def test_inf_patch_reads_as_missing_depth(self, tiny_sequence, backend):
        patched = _with_depth_patch(tiny_sequence, 3, np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_benchmark(KinectFusion(kernel_backend=backend),
                                   patched, configuration=SMALL_CONFIG)
        records = result.collector.records
        assert len(records) == len(tiny_sequence)
        assert all(isinstance(r.status, TrackingStatus) for r in records)
        assert all(np.isfinite(r.pose).all() for r in records)
        # inf is no measurement: the run matches one with the block at 0.
        zeroed = run_benchmark(KinectFusion(kernel_backend=backend),
                               _with_depth_patch(tiny_sequence, 3, 0.0),
                               configuration=SMALL_CONFIG)
        for got, want in zip(records, zeroed.collector.records):
            assert got.status is want.status
            assert got.pose.tobytes() == want.pose.tobytes()
        assert records[3].valid_depth_fraction == \
            zeroed.collector.records[3].valid_depth_fraction

    @pytest.mark.parametrize("system_class", [ICPOdometry, SparseOdometry])
    def test_baselines_share_the_ingest_boundary(self, tiny_sequence,
                                                 system_class):
        patched = _with_depth_patch(tiny_sequence, 3, np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_benchmark(system_class(), patched)
        records = result.collector.records
        assert len(records) == len(tiny_sequence)
        assert all(isinstance(r.status, TrackingStatus) for r in records)
        assert all(np.isfinite(r.pose).all() for r in records)
