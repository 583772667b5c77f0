"""Tests for the fast kernel backend (``repro.perf``).

Three layers:

* **workspace/registry semantics** — the arena's reuse, budget and
  error behaviour; backend lookup and registration; every registered
  backend's kernels declare the same ``@contract`` shapes.
* **per-kernel equivalence** — each fast kernel against its reference
  twin on synthetic frames, at float32 tolerance.
* **golden equivalence** — the whole pipeline, both backends, on the
  golden lr_kt0 sequence: *identical* tracked/status sequences, and ATE
  within the documented float32 tolerance (DESIGN.md S17).
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.contracts import contract
from repro.core import run_benchmark
from repro.core.registry import create_algorithm, register_defaults
from repro.datasets import icl_nuim
from repro.errors import ConfigurationError, PerfError
from repro.geometry import PinholeCamera, se3
from repro.kfusion import KinectFusion
from repro.kfusion import preprocessing as ref_pre
from repro.kfusion import tracking as ref_track
from repro.kfusion.integration import integrate as ref_integrate
from repro.kfusion.memory import workspace_bytes
from repro.kfusion.params import KFusionParams
from repro.kfusion.volume import TSDFVolume
from repro.perf import (
    DEFAULT_KERNEL_BACKEND,
    FAST_BACKEND,
    REFERENCE_BACKEND,
    FrameWorkspace,
    KernelBackend,
    get_kernel_backend,
    kernel_backend_names,
    register_kernel_backend,
)
from repro.perf import integrate as fast_integrate_mod
from repro.perf import registry as perf_registry
from repro.perf import preprocess as fast_pre
from repro.perf import raycast as fast_raycast_mod
from repro.perf import tracking as fast_track
from repro.telemetry import Tracer

#: Documented fast-vs-reference ATE tolerance (relative); see DESIGN.md
#: S17 — float32 front-end reassociation, float64 solver.
FAST_ATE_REL_TOL = 0.02

CAM = PinholeCamera.kinect_like(width=48, height=36)
PARAMS = KFusionParams(volume_resolution=48, volume_size=5.0)


def make_ws(camera=CAM, params=PARAMS):
    return FrameWorkspace(camera, params, levels=3, backend="fast")


def _run_uncleaned(sequence, **kwargs) -> KinectFusion:
    """KinectFusion after every frame of ``sequence``, not yet cleaned.

    Driven by hand because ``run_benchmark`` ends with ``clean``, which
    releases the arena.
    """
    system = KinectFusion(**kwargs)
    system.new_configuration().update({
        "volume_resolution": 64, "volume_size": 5.0,
    })
    system.init(sequence.sensors)
    for frame in sequence:
        system.update_frame(frame)
        system.process_once()
    return system


def synthetic_depth(camera=CAM, seed=0, hole_fraction=0.15):
    """A smooth depth surface with speckle holes (invalid pixels)."""
    rng = np.random.default_rng(seed)
    h, w = camera.shape
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    depth = 2.0 + 0.4 * np.sin(xx / 7.0) + 0.3 * np.cos(yy / 5.0)
    depth += 0.02 * rng.standard_normal((h, w))
    depth[rng.random((h, w)) < hole_fraction] = 0.0
    return depth


# ---------------------------------------------------------------------------
# FrameWorkspace
# ---------------------------------------------------------------------------
class TestFrameWorkspace:
    def test_buffer_reused_across_calls(self):
        ws = make_ws()
        a = ws.buffer("x", (8, 8))
        b = ws.buffer("x", (8, 8))
        assert a is b
        assert len(ws) == 1

    def test_default_dtype_is_float32(self):
        assert make_ws().buffer("x", (4,)).dtype == np.float32

    def test_distinct_names_distinct_buffers(self):
        ws = make_ws()
        assert ws.buffer("a", (4,)) is not ws.buffer("b", (4,))
        assert len(ws) == 2

    def test_reshape_reallocates_and_reaccounts(self):
        ws = make_ws()
        ws.buffer("x", (8, 8))
        before = ws.nbytes
        ws.buffer("x", (4, 4))
        assert ws.nbytes == before - (64 - 16) * 4

    def test_zeros_clears_previous_contents(self):
        ws = make_ws()
        ws.buffer("x", (16,))[:] = 7.0
        assert not ws.zeros("x", (16,)).any()

    def test_budget_matches_memory_model(self):
        ws = make_ws()
        assert ws.budget_bytes == workspace_bytes(
            PARAMS, CAM.width, CAM.height, 3, "fast"
        )

    def test_over_budget_raises_perf_error(self):
        ws = make_ws()
        huge = ws.budget_bytes // 4 + 1  # floats needed to overflow
        with pytest.raises(PerfError):
            ws.buffer("too_big", (huge,))

    def test_full_frame_run_stays_in_budget(self):
        """The arena the real pipeline builds must fit its own model."""
        seq = icl_nuim.load("lr_kt0", n_frames=3, width=64, height=48,
                            seed=0)
        seq.materialize()
        ws = _run_uncleaned(seq, kernel_backend="fast")._workspace
        assert ws is not None and len(ws) > 0
        assert ws.nbytes <= ws.budget_bytes

    @pytest.mark.parametrize("backend", ["fast", "sparse"])
    def test_clean_releases_arena(self, backend):
        seq = icl_nuim.load("lr_kt0", n_frames=2, width=64, height=48,
                            seed=0)
        system = _run_uncleaned(seq, kernel_backend=backend,
                                publish_render=True)
        arena = weakref.ref(system._workspace)
        assert system._last_render is not None
        system.clean()
        gc.collect()
        assert arena() is None
        assert system._last_render is None


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
class TestKernelBackendRegistry:
    def test_all_backends_registered(self):
        assert kernel_backend_names() == ["fast", "reference", "sparse"]

    def test_default_is_sparse(self):
        assert DEFAULT_KERNEL_BACKEND == "sparse"
        assert KinectFusion().kernel_backend == "sparse"

    def test_lookup_by_name(self):
        assert get_kernel_backend("fast") is FAST_BACKEND
        assert get_kernel_backend("reference") is REFERENCE_BACKEND

    def test_unknown_backend_raises(self):
        with pytest.raises(PerfError, match="unknown kernel backend"):
            get_kernel_backend("cuda")
        with pytest.raises(PerfError):
            KinectFusion(kernel_backend="cuda")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(PerfError, match="already registered"):
            register_kernel_backend(
                KernelBackend(
                    name="fast",
                    bilateral_filter=FAST_BACKEND.bilateral_filter,
                    build_pyramid=FAST_BACKEND.build_pyramid,
                    vertex_normal_pyramid=FAST_BACKEND.vertex_normal_pyramid,
                    track=FAST_BACKEND.track,
                    integrate=FAST_BACKEND.integrate,
                    raycast_model=FAST_BACKEND.raycast_model,
                )
            )

    def test_reference_backend_needs_no_workspace(self):
        assert REFERENCE_BACKEND.make_workspace(CAM, PARAMS, 3) is None

    def test_backend_runs_under_any_registered_name(self, monkeypatch):
        """The arena is sized by the backend's own kernels, not by the
        name it is registered under: sparse's slots registered anew
        compile and run to sparse's poses."""
        monkeypatch.setattr(perf_registry, "_BACKENDS",
                            dict(perf_registry._BACKENDS))
        register_kernel_backend(dataclasses.replace(
            get_kernel_backend("sparse"), name="sparse-renamed"))
        seq = icl_nuim.load("lr_kt0", n_frames=3, width=80, height=60,
                            seed=0)
        config = {"volume_resolution": 64, "volume_size": 5.0}
        poses = {}
        for name in ("sparse", "sparse-renamed"):
            result = run_benchmark(KinectFusion(kernel_backend=name), seq,
                                   configuration=config)
            poses[name] = [r.pose for r in result.collector.records]
        assert len(poses["sparse-renamed"]) == 3
        np.testing.assert_array_equal(poses["sparse-renamed"],
                                      poses["sparse"])

    def test_create_algorithm_forwards_kernel_backend(self):
        register_defaults()
        system = create_algorithm("kfusion", kernel_backend="reference")
        assert system.kernel_backend == "reference"

    def test_create_algorithm_rejects_unknown_kwargs(self):
        register_defaults()
        with pytest.raises(ConfigurationError, match="rejected arguments"):
            create_algorithm("static", kernel_backend="fast")


def contract_disagreements(backends) -> list[str]:
    """How the backends' slot ``@contract``s differ, against the first.

    Every backend must declare the same parameters per slot, with
    identical shape tokens and the same dtype kind; the float width may
    differ (f32 vs f64 is the backend distinction).
    """
    slots = [f.name for f in dataclasses.fields(KernelBackend)
             if f.name != "name"]
    problems = []
    for slot in slots:
        (ref_name, ref), *others = [
            (b.name, getattr(getattr(b, slot), "__repro_contracts__", {}))
            for b in backends]
        for name, decls in others:
            if set(decls) != set(ref):
                problems.append(f"{slot}: {name} declares {sorted(decls)}, "
                                f"{ref_name} {sorted(ref)}")
                continue
            for param, spec in sorted(decls.items()):
                want = ref[param]
                if ((spec.dims, spec.ellipsis_leading)
                        != (want.dims, want.ellipsis_leading)):
                    problems.append(f"{slot}({param}): {name} shape "
                                    f"{spec.text!r}, {ref_name} {want.text!r}")
                elif spec.kind != want.kind:
                    problems.append(f"{slot}({param}): {name} kind "
                                    f"{spec.text!r}, {ref_name} {want.text!r}")
    return problems


def _integrate_declaring(**contracts):
    def kernel(volume, depth, camera, pose_volume_from_camera, mu, ws):
        return 0

    return contract(**contracts)(kernel) if contracts else kernel


class TestBackendContractAgreement:
    def test_registered_backends_agree(self):
        backends = [get_kernel_backend(n) for n in kernel_backend_names()]
        assert contract_disagreements(backends) == []

    @pytest.mark.parametrize("contracts, problem", [
        ({"depth": "H,W:f32", "pose_volume_from_camera": "4,4:f64"}, None),
        ({"depth": "W,H:f32", "pose_volume_from_camera": "4,4:f64"},
         "shape"),
        ({"depth": "H,W:i32", "pose_volume_from_camera": "4,4:f64"}, "kind"),
        ({"depth": "H,W:f32"}, "declares"),
        ({}, "declares"),
    ], ids=["width", "shape", "kind", "params", "undeclared"])
    def test_drift_is_caught_width_is_not(self, contracts, problem):
        drifted = dataclasses.replace(
            REFERENCE_BACKEND, name="drifted",
            integrate=_integrate_declaring(**contracts))
        found = contract_disagreements([REFERENCE_BACKEND, drifted])
        if problem is None:
            assert found == []
        else:
            assert len(found) == 1
            assert found[0].startswith("integrate") and problem in found[0]


# ---------------------------------------------------------------------------
# Per-kernel equivalence (fast vs reference)
# ---------------------------------------------------------------------------
class TestKernelEquivalence:
    def test_bilateral_filter(self):
        depth = synthetic_depth()
        ref = ref_pre.bilateral_filter(depth)
        fast = fast_pre.bilateral_filter(depth, make_ws())
        assert fast.dtype == np.float32
        np.testing.assert_allclose(fast, ref, rtol=0, atol=1e-5)

    def test_build_pyramid(self):
        depth = synthetic_depth()
        ws = make_ws()
        ref = ref_pre.build_pyramid(depth, 3)
        fast = fast_pre.build_pyramid(
            np.ascontiguousarray(depth, dtype=np.float32), 3, ws
        )
        assert len(fast) == len(ref)
        for f, r in zip(fast, ref):
            np.testing.assert_allclose(f, r, rtol=0, atol=1e-5)

    def test_vertex_normal_pyramid(self):
        depth = synthetic_depth()
        ws = make_ws()
        ref_v, ref_n, ref_c = ref_pre.vertex_normal_pyramid(
            ref_pre.build_pyramid(depth, 3), CAM
        )
        fast_v, fast_n, fast_c = fast_pre.vertex_normal_pyramid(
            fast_pre.build_pyramid(
                np.ascontiguousarray(depth, dtype=np.float32), 3, ws
            ),
            CAM, ws,
        )
        assert [c.shape for c in fast_c] == [c.shape for c in ref_c]
        for fv, rv in zip(fast_v, ref_v):
            np.testing.assert_allclose(fv, rv, rtol=0, atol=1e-4)
        for fn, rn in zip(fast_n, ref_n):
            # Normals are unit vectors (or zero); compare directions.
            np.testing.assert_allclose(fn, rn, rtol=0, atol=1e-3)

    @staticmethod
    def _integrated_volumes(n_frames=2):
        pose = se3.make_pose(np.eye(3), np.array([2.5, 2.5, 0.0]))
        vol_ref = TSDFVolume(resolution=48, size=5.0)
        vol_fast = TSDFVolume(resolution=48, size=5.0)
        ws = make_ws()
        for i in range(n_frames):
            depth = synthetic_depth(seed=i)
            ref_integrate(vol_ref, depth, CAM, pose, PARAMS.mu_distance)
            fast_integrate_mod.integrate(
                vol_fast, depth.astype(np.float32), CAM, pose,
                PARAMS.mu_distance, ws,
            )
        return vol_ref, vol_fast, pose, ws

    def test_integrate(self):
        vol_ref, vol_fast, _, _ = self._integrated_volumes()
        np.testing.assert_array_equal(vol_fast.weight, vol_ref.weight)
        np.testing.assert_allclose(vol_fast.tsdf, vol_ref.tsdf,
                                   rtol=0, atol=1e-5)

    def test_raycast_model(self):
        vol_ref, vol_fast, pose, ws = self._integrated_volumes()
        ref_model = REFERENCE_BACKEND.raycast_model(
            vol_ref, CAM, pose, PARAMS.mu_distance, None
        )
        fast_model = fast_raycast_mod.raycast_model(
            vol_fast, CAM, pose, PARAMS.mu_distance, ws
        )
        ref_hit = np.any(ref_model.normals != 0, axis=-1)
        fast_hit = np.any(fast_model.normals != 0, axis=-1)
        # Hit masks may flicker on grazing rays; require near-identical.
        disagreement = np.mean(ref_hit != fast_hit)
        assert disagreement < 0.02
        both = ref_hit & fast_hit
        assert both.sum() >= 50  # enough surface to make the check real
        np.testing.assert_allclose(
            fast_model.vertices[both], ref_model.vertices[both],
            rtol=0, atol=2e-3,
        )
        dots = np.einsum(
            "ij,ij->i",
            fast_model.normals[both].astype(float),
            ref_model.normals[both].astype(float),
        )
        assert np.median(dots) > 0.999

    def test_track(self):
        vol_ref, vol_fast, pose, ws = self._integrated_volumes()
        reference = REFERENCE_BACKEND.raycast_model(
            vol_ref, CAM, pose, PARAMS.mu_distance, None
        )
        depth = synthetic_depth(seed=0)
        pyramid = ref_pre.build_pyramid(ref_pre.bilateral_filter(depth), 3)
        vertices, normals, _ = ref_pre.vertex_normal_pyramid(pyramid, CAM)
        # Perturb the pose slightly; both trackers must pull it back.
        start = se3.se3_exp(
            np.array([0.004, -0.003, 0.002, 0.001, -0.002, 0.001])
        ) @ pose
        ref_result = ref_track.track(
            vertices, normals, reference, start,
            PARAMS.pyramid_iterations, PARAMS.icp_threshold,
        )
        fast_result = fast_track.track(
            vertices, normals, reference, start,
            PARAMS.pyramid_iterations, PARAMS.icp_threshold, ws,
        )
        assert fast_result.tracked == ref_result.tracked
        np.testing.assert_allclose(
            fast_result.pose[:3, 3], ref_result.pose[:3, 3],
            rtol=0, atol=5e-4,
        )
        np.testing.assert_allclose(
            fast_result.pose[:3, :3], ref_result.pose[:3, :3],
            rtol=0, atol=5e-4,
        )
        assert fast_result.rmse == pytest.approx(ref_result.rmse,
                                                 rel=0.05, abs=1e-4)


# ---------------------------------------------------------------------------
# Bilateral validity (property test, both backends)
# ---------------------------------------------------------------------------
small_depths = arrays(
    dtype=np.float64,
    shape=(12, 16),
    elements=st.one_of(
        st.just(0.0),
        st.floats(min_value=0.5, max_value=5.0, allow_nan=False),
    ),
)


@given(depth=small_depths)
@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("backend_name", ["reference", "fast"])
def test_bilateral_validity_preserved(backend_name, depth):
    """Invalid pixels stay invalid; valid pixels never bleed to zero."""
    backend = get_kernel_backend(backend_name)
    cam = PinholeCamera.kinect_like(width=16, height=12)
    ws = backend.make_workspace(cam, PARAMS, 3)
    out = backend.bilateral_filter(depth, ws)
    np.testing.assert_array_equal(out > 0.0, depth > 0.0)


# ---------------------------------------------------------------------------
# Camera ray cache (satellite)
# ---------------------------------------------------------------------------
class TestPixelRaysCache:
    def test_same_object_returned(self):
        cam = PinholeCamera.kinect_like(width=32, height=24)
        assert cam.pixel_rays() is cam.pixel_rays()

    def test_cache_is_read_only(self):
        cam = PinholeCamera.kinect_like(width=32, height=24)
        rays = cam.pixel_rays()
        with pytest.raises(ValueError):
            rays[0, 0, 0] = 99.0

    def test_instances_do_not_share_cache(self):
        a = PinholeCamera.kinect_like(width=32, height=24)
        b = PinholeCamera.kinect_like(width=32, height=24)
        assert a.pixel_rays() is not b.pixel_rays()
        np.testing.assert_array_equal(a.pixel_rays(), b.pixel_rays())

    def test_hash_and_eq_unaffected_by_cache(self):
        a = PinholeCamera.kinect_like(width=32, height=24)
        b = PinholeCamera.kinect_like(width=32, height=24)
        a.pixel_rays()
        assert a == b and hash(a) == hash(b)


# ---------------------------------------------------------------------------
# Golden equivalence (full pipeline, both backends)
# ---------------------------------------------------------------------------
def _golden_run(backend_name, volume_resolution=96):
    seq = icl_nuim.load("lr_kt0", n_frames=10, width=80, height=60, seed=0)
    seq.materialize()
    tracer = Tracer(enabled=True)
    result = run_benchmark(
        KinectFusion(kernel_backend=backend_name),
        seq,
        configuration={
            "volume_resolution": volume_resolution,
            "volume_size": 5.0,
            "integration_rate": 1,
        },
        tracer=tracer,
    )
    return result, tracer


#: Every optimized backend is held to the same golden bar against the
#: reference: identical status sequences, ATE within FAST_ATE_REL_TOL.
GOLDEN_BACKENDS = ("fast", "sparse")


@pytest.fixture(scope="module")
def golden_pair():
    return {name: _golden_run(name)
            for name in ("reference",) + GOLDEN_BACKENDS}


class TestGoldenEquivalence:
    def test_status_sequences_identical(self, golden_pair):
        status = {
            name: [r.status.value for r in res.collector.records]
            for name, (res, _) in golden_pair.items()
        }
        for name in GOLDEN_BACKENDS:
            assert status[name] == status["reference"], name

    def test_tracked_fraction_identical(self, golden_pair):
        fractions = {
            name: res.collector.tracked_fraction()
            for name, (res, _) in golden_pair.items()
        }
        for name in GOLDEN_BACKENDS:
            assert fractions[name] == fractions["reference"], name

    def test_ate_within_documented_tolerance(self, golden_pair):
        ref = golden_pair["reference"][0].ate
        for name in GOLDEN_BACKENDS:
            ate = golden_pair[name][0].ate
            assert ate.rmse == pytest.approx(ref.rmse,
                                             rel=FAST_ATE_REL_TOL), name
            assert ate.max == pytest.approx(ref.max,
                                            rel=FAST_ATE_REL_TOL), name

    def test_spans_name_their_backend(self, golden_pair):
        for name, (_, tracer) in golden_pair.items():
            stage_attrs = {
                span.name: span.attrs.get("backend")
                for span in tracer.spans
                if span.name in ("preprocess", "track", "integrate",
                                 "raycast")
            }
            assert stage_attrs, "no kernel spans recorded"
            assert set(stage_attrs.values()) == {name}

    def test_raycast_spans_count_march_work(self, golden_pair):
        """The fast and sparse raycasts record their evaluated samples
        and hit rays on the raycast span; the reference reports none."""
        pixels = 80 * 60 // KFusionParams().compute_size_ratio**2
        totals = {}
        for name, (_, tracer) in golden_pair.items():
            spans = [span.attrs for span in tracer.spans
                     if span.name == "raycast"]
            assert len(spans) == 10
            if name == "reference":
                assert not any("samples_evaluated" in a or "rays_hit" in a
                               for a in spans)
                continue
            for attrs in spans:
                assert attrs["samples_evaluated"] > 0
                assert 0 < attrs["rays_hit"] <= pixels
            totals[name] = sum(a["samples_evaluated"] for a in spans)
        # Space skipping: the sparse march evaluates fewer samples.
        assert totals["sparse"] < totals["fast"]
