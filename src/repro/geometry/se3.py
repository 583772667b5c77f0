"""Rigid-body transforms: SO(3) and SE(3) utilities.

Poses throughout the library are 4x4 homogeneous matrices (float64) mapping
points from a *local* frame into a *reference* frame, i.e. ``T_world_camera``
maps camera-frame points to world-frame points.  This matches the convention
of KinectFusion and of the TUM RGB-D evaluation tools.

The module provides:

* construction from / conversion to quaternions and axis-angle,
* the exponential and logarithm maps on SO(3) and SE(3),
* pose interpolation (used by the synthetic trajectory generator),
* numerically careful helpers (orthonormalisation, validity checks).

All functions are pure and operate on NumPy arrays.
"""

from __future__ import annotations

import numpy as np

from ..contracts import contract
from ..errors import GeometryError

_EPS = 1e-12
# Threshold below which the closed-form V / V^-1 coefficients of the SE(3)
# exp/log maps are evaluated by Taylor series instead.  The closed forms
# divide quantities like (1 - cos(theta)) by theta^2, which loses roughly
# eps/theta^2 of precision and underflows to a hard 0/0 once theta drops
# below ~1.5e-8; the series are accurate to O(theta^4) at this cutoff.
_SMALL_ANGLE = 1e-3


def identity() -> np.ndarray:
    """Return the 4x4 identity pose."""
    return np.eye(4)


def is_rotation(R: np.ndarray, tol: float = 1e-6) -> bool:
    """Check that ``R`` is a proper rotation: orthogonal with determinant +1."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        return False
    if not np.allclose(R.T @ R, np.eye(3), atol=tol):
        return False
    return bool(abs(np.linalg.det(R) - 1.0) < tol)


def is_pose(T: np.ndarray, tol: float = 1e-6) -> bool:
    """Check that ``T`` is a valid 4x4 rigid transform."""
    T = np.asarray(T, dtype=float)
    if T.shape != (4, 4):
        return False
    if not np.allclose(T[3], [0.0, 0.0, 0.0, 1.0], atol=tol):
        return False
    return is_rotation(T[:3, :3], tol=tol)


def make_pose(R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Assemble a 4x4 pose from a 3x3 rotation and a translation 3-vector."""
    R = np.asarray(R, dtype=float)
    t = np.asarray(t, dtype=float).reshape(3)
    if R.shape != (3, 3):
        raise GeometryError(f"rotation must be 3x3, got {R.shape}")
    T = np.eye(4)
    T[:3, :3] = R
    T[:3, 3] = t
    return T


def rotation(T: np.ndarray) -> np.ndarray:
    """Extract the 3x3 rotation block of a pose."""
    return np.asarray(T, dtype=float)[:3, :3]


def translation(T: np.ndarray) -> np.ndarray:
    """Extract the translation 3-vector of a pose."""
    return np.asarray(T, dtype=float)[:3, 3]


@contract(T="4,4:f64")
def inverse(T: np.ndarray) -> np.ndarray:
    """Invert a rigid transform without a general matrix inverse."""
    T = np.asarray(T, dtype=float)
    R = T[:3, :3]
    t = T[:3, 3]
    Ti = np.eye(4)
    Ti[:3, :3] = R.T
    Ti[:3, 3] = -R.T @ t
    return Ti


@contract(T="4,4:f64", points="...,3:f64")
def transform_points(T: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply a rigid transform to an ``(..., 3)`` array of points."""
    T = np.asarray(T, dtype=float)
    points = np.asarray(points, dtype=float)
    return points @ T[:3, :3].T + T[:3, 3]


@contract(T="4,4:f64", vectors="...,3:f64")
def rotate_vectors(T: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Apply only the rotation of ``T`` to an ``(..., 3)`` array of vectors."""
    T = np.asarray(T, dtype=float)
    vectors = np.asarray(vectors, dtype=float)
    return vectors @ T[:3, :3].T


def hat(w: np.ndarray) -> np.ndarray:
    """Skew-symmetric (cross-product) matrix of a 3-vector."""
    w = np.asarray(w, dtype=float).reshape(3)
    return np.array(
        [
            [0.0, -w[2], w[1]],
            [w[2], 0.0, -w[0]],
            [-w[1], w[0], 0.0],
        ]
    )


def vee(W: np.ndarray) -> np.ndarray:
    """Inverse of :func:`hat`."""
    W = np.asarray(W, dtype=float)
    return np.array([W[2, 1], W[0, 2], W[1, 0]])


def so3_exp(w: np.ndarray) -> np.ndarray:
    """Rodrigues' formula: axis-angle 3-vector to rotation matrix."""
    w = np.asarray(w, dtype=float).reshape(3)
    theta = float(np.linalg.norm(w))
    W = hat(w)
    if theta < _EPS:
        # Second-order Taylor expansion keeps exp/log consistent near zero.
        return np.eye(3) + W + 0.5 * (W @ W)
    A = np.sin(theta) / theta
    B = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + A * W + B * (W @ W)


def so3_log(R: np.ndarray) -> np.ndarray:
    """Rotation matrix to axis-angle 3-vector (inverse of :func:`so3_exp`)."""
    R = np.asarray(R, dtype=float)
    cos_theta = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    theta = float(np.arccos(cos_theta))
    if theta < 1e-10:
        # First-order: R ~ I + hat(w), so w ~ vee(R - R^T) / 2.
        return vee(R - R.T) / 2.0
    if abs(np.pi - theta) < 1e-6:
        # Near pi the standard formula is singular; recover the axis from the
        # diagonal of R + I.
        M = (R + np.eye(3)) / 2.0
        axis = np.sqrt(np.clip(np.diag(M), 0.0, None))
        # Fix signs using the off-diagonal entries.
        if axis[0] >= axis[1] and axis[0] >= axis[2]:
            axis[1] = M[0, 1] / max(axis[0], _EPS)
            axis[2] = M[0, 2] / max(axis[0], _EPS)
        elif axis[1] >= axis[2]:
            axis[0] = M[0, 1] / max(axis[1], _EPS)
            axis[2] = M[1, 2] / max(axis[1], _EPS)
        else:
            axis[0] = M[0, 2] / max(axis[2], _EPS)
            axis[1] = M[1, 2] / max(axis[2], _EPS)
        n = np.linalg.norm(axis)
        if n < _EPS:
            raise GeometryError("cannot recover rotation axis near pi")
        return theta * axis / n
    return theta / (2.0 * np.sin(theta)) * vee(R - R.T)


def se3_exp(xi: np.ndarray) -> np.ndarray:
    """SE(3) exponential: twist ``[v, w]`` (6-vector) to a 4x4 pose.

    The first three components are the translational part ``v``, the last
    three the rotational part ``w``, matching the ordering used by the ICP
    tracker's normal equations.
    """
    xi = np.asarray(xi, dtype=float).reshape(6)
    v, w = xi[:3], xi[3:]
    theta = float(np.linalg.norm(w))
    R = so3_exp(w)
    W = hat(w)
    t2 = theta * theta
    if theta < _SMALL_ANGLE:
        B = 0.5 - t2 / 24.0
        C = 1.0 / 6.0 - t2 / 120.0
    else:
        A = np.sin(theta) / theta
        B = (1.0 - np.cos(theta)) / t2
        C = (1.0 - A) / t2
    V = np.eye(3) + B * W + C * (W @ W)
    return make_pose(R, V @ v)


def se3_log(T: np.ndarray) -> np.ndarray:
    """SE(3) logarithm: 4x4 pose to twist ``[v, w]`` (inverse of se3_exp)."""
    T = np.asarray(T, dtype=float)
    w = so3_log(T[:3, :3])
    theta = float(np.linalg.norm(w))
    W = hat(w)
    t2 = theta * theta
    if theta < _SMALL_ANGLE:
        D = 1.0 / 12.0 + t2 / 720.0
    else:
        A = np.sin(theta) / theta
        B = (1.0 - np.cos(theta)) / t2
        D = (1.0 / t2) * (1.0 - A / (2.0 * B))
    V_inv = np.eye(3) - 0.5 * W + D * (W @ W)
    v = V_inv @ T[:3, 3]
    return np.concatenate([v, w])


def quat_to_rotation(q: np.ndarray) -> np.ndarray:
    """Unit quaternion ``[w, x, y, z]`` to rotation matrix."""
    q = np.asarray(q, dtype=float).reshape(4)
    n = float(np.linalg.norm(q))
    if n < _EPS:
        raise GeometryError("zero-norm quaternion")
    w, x, y, z = q / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotation_to_quat(R: np.ndarray) -> np.ndarray:
    """Rotation matrix to unit quaternion ``[w, x, y, z]`` with ``w >= 0``."""
    R = np.asarray(R, dtype=float)
    trace = np.trace(R)
    if trace > 0.0:
        s = np.sqrt(trace + 1.0) * 2.0
        q = np.array(
            [
                0.25 * s,
                (R[2, 1] - R[1, 2]) / s,
                (R[0, 2] - R[2, 0]) / s,
                (R[1, 0] - R[0, 1]) / s,
            ]
        )
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(1.0 + R[i, i] - R[j, j] - R[k, k], 0.0)) * 2.0
        q = np.empty(4)
        q[0] = (R[k, j] - R[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[j, i] + R[i, j]) / s
        q[1 + k] = (R[k, i] + R[i, k]) / s
    if q[0] < 0:
        q = -q
    return q / np.linalg.norm(q)


def quat_slerp(q0: np.ndarray, q1: np.ndarray, alpha: float) -> np.ndarray:
    """Spherical linear interpolation between two unit quaternions."""
    q0 = np.asarray(q0, dtype=float) / np.linalg.norm(q0)
    q1 = np.asarray(q1, dtype=float) / np.linalg.norm(q1)
    dot = float(np.dot(q0, q1))
    if dot < 0.0:
        q1, dot = -q1, -dot
    if dot > 1.0 - 1e-9:
        q = q0 + alpha * (q1 - q0)
        return q / np.linalg.norm(q)
    theta = np.arccos(np.clip(dot, -1.0, 1.0))
    s = np.sin(theta)
    return (np.sin((1.0 - alpha) * theta) * q0 + np.sin(alpha * theta) * q1) / s


def interpolate_pose(T0: np.ndarray, T1: np.ndarray, alpha: float) -> np.ndarray:
    """Interpolate between two poses (slerp rotation, lerp translation)."""
    q = quat_slerp(rotation_to_quat(rotation(T0)), rotation_to_quat(rotation(T1)), alpha)
    t = (1.0 - alpha) * translation(T0) + alpha * translation(T1)
    return make_pose(quat_to_rotation(q), t)


def orthonormalize(R: np.ndarray) -> np.ndarray:
    """Project a near-rotation matrix onto SO(3) via SVD."""
    U, _, Vt = np.linalg.svd(np.asarray(R, dtype=float))
    D = np.eye(3)
    D[2, 2] = np.sign(np.linalg.det(U @ Vt))
    return U @ D @ Vt


def rotation_angle(R: np.ndarray) -> float:
    """Rotation angle in radians of a rotation matrix."""
    cos_theta = np.clip((np.trace(np.asarray(R, dtype=float)) - 1.0) / 2.0, -1.0, 1.0)
    return float(np.arccos(cos_theta))


def pose_distance(T0: np.ndarray, T1: np.ndarray) -> tuple[float, float]:
    """Return ``(translation_error_m, rotation_error_rad)`` between two poses."""
    delta = inverse(np.asarray(T0, dtype=float)) @ np.asarray(T1, dtype=float)
    return float(np.linalg.norm(delta[:3, 3])), rotation_angle(delta[:3, :3])


def look_at(eye: np.ndarray, target: np.ndarray, up=(0.0, -1.0, 0.0)) -> np.ndarray:
    """Build a camera-to-world pose looking from ``eye`` towards ``target``.

    Uses the computer-vision convention: camera +z forward, +x right,
    +y down (hence the default ``up`` of ``-y`` in world coordinates when the
    world is y-up... the default here assumes a y-up world and produces a
    y-down camera frame).
    """
    eye = np.asarray(eye, dtype=float).reshape(3)
    target = np.asarray(target, dtype=float).reshape(3)
    up = np.asarray(up, dtype=float).reshape(3)
    forward = target - eye
    n = np.linalg.norm(forward)
    if n < _EPS:
        raise GeometryError("look_at: eye and target coincide")
    forward = forward / n
    right = np.cross(up, forward)
    rn = np.linalg.norm(right)
    if rn < _EPS:
        # Forward is parallel to up; pick an arbitrary perpendicular.
        alt = np.array([1.0, 0.0, 0.0])
        if abs(forward[0]) > 0.9:
            alt = np.array([0.0, 0.0, 1.0])
        right = np.cross(alt, forward)
        rn = np.linalg.norm(right)
    right = right / rn
    down = np.cross(forward, right)
    R = np.column_stack([right, down, forward])
    return make_pose(R, eye)
