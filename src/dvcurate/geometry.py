"""Rigid-pose and spherical-coordinate helpers.

Quaternions are (w, x, y, z), unit norm.  A pose is a (position, quaternion)
pair; composition follows p' = R_q v + t.  Spherical coordinates use the
physics convention: theta is the polar angle from +z, phi the azimuth from +x,
both in degrees.
"""

from __future__ import annotations

import math

import numpy as np

UNIT_NORM_TOL = 1e-6


def quat_norm(q) -> float:
    return float(np.linalg.norm(np.asarray(q, dtype=float)))


def is_unit_quat(q) -> bool:
    return abs(quat_norm(q) - 1.0) <= UNIT_NORM_TOL


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product a ⊗ b, broadcast over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_conj(q) -> np.ndarray:
    w, x, y, z = q
    return np.array([w, -x, -y, -z])


def cross(a, b) -> np.ndarray:
    """Cross product over the last axis of two (..., 3) arrays, broadcast."""
    a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2]
    b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1], axis=-1)


def quat_rotate(q, v) -> np.ndarray:
    """Rotate vector v, or each row of an (N, 3) array, by unit quaternion q."""
    w, x, y, z = q
    u = np.array([x, y, z], dtype=float)
    v = np.asarray(v, dtype=float)
    return v + 2.0 * cross(u, cross(u, v) + w * v)


def quat_slerp(a, b, t: float) -> np.ndarray:
    """Spherical interpolation from a to b along the shorter arc."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    dot = float(np.dot(a, b))
    if dot < 0.0:
        b = -b
        dot = -dot
    if dot > 1.0 - 1e-12:
        out = a + t * (b - a)
        return out / np.linalg.norm(out)
    omega = math.acos(min(dot, 1.0))
    so = math.sin(omega)
    return (math.sin((1.0 - t) * omega) * a + math.sin(t * omega) * b) / so


def pose_compose(pa, qa, pb, qb) -> tuple[np.ndarray, np.ndarray]:
    """Compose pose A ∘ pose B (apply B first, then A)."""
    return np.asarray(pa, dtype=float) + quat_rotate(qa, pb), quat_mul(qa, qb)


def pose_inverse(p, q) -> tuple[np.ndarray, np.ndarray]:
    qi = quat_conj(q)
    return -quat_rotate(qi, p), qi


def spherical_about(point, center) -> tuple[float, float, float]:
    """(r, theta_deg, phi_deg) of `point` about `center`, physics convention.

    Raises ValueError when point coincides with center (r = 0).
    """
    d = np.asarray(point, dtype=float) - np.asarray(center, dtype=float)
    r = float(np.linalg.norm(d))
    if r == 0.0:
        raise ValueError("point coincides with center")
    theta = math.degrees(math.acos(max(-1.0, min(1.0, d[2] / r))))
    phi = math.degrees(math.atan2(d[1], d[0]))
    return r, theta, phi


def cartesian_from_spherical(r: float, theta_deg: float, phi_deg: float, center=(0.0, 0.0, 0.0)) -> np.ndarray:
    th = math.radians(theta_deg)
    ph = math.radians(phi_deg)
    return np.asarray(center, dtype=float) + r * np.array(
        [math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)]
    )


def look_at_quat(eye, target, up=(0.0, 0.0, 1.0)) -> np.ndarray:
    """Quaternion orienting a camera at `eye` so its +z axis points at `target`."""
    eye = np.asarray(eye, dtype=float)
    fwd = np.asarray(target, dtype=float) - eye
    n = np.linalg.norm(fwd)
    if n == 0.0:
        raise ValueError("eye coincides with target")
    fwd = fwd / n
    up = np.asarray(up, dtype=float)
    right = cross(up, fwd)
    rn = np.linalg.norm(right)
    if rn < 1e-12:
        # forward parallel to up: pick an arbitrary consistent right axis
        right = cross(np.array([1.0, 0.0, 0.0]), fwd)
        rn = np.linalg.norm(right)
        if rn < 1e-12:
            right = cross(np.array([0.0, 1.0, 0.0]), fwd)
            rn = np.linalg.norm(right)
    right = right / rn
    cam_up = cross(fwd, right)
    m = np.column_stack([right, cam_up, fwd])
    return rotmat_to_quat(m)


def rotmat_to_quat(m: np.ndarray) -> np.ndarray:
    """Convert a proper rotation matrix to a (w, x, y, z) quaternion."""
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        w = 0.25 * s
        x = (m[2, 1] - m[1, 2]) / s
        y = (m[0, 2] - m[2, 0]) / s
        z = (m[1, 0] - m[0, 1]) / s
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        w = (m[2, 1] - m[1, 2]) / s
        x = 0.25 * s
        y = (m[0, 1] + m[1, 0]) / s
        z = (m[0, 2] + m[2, 0]) / s
    elif m[1, 1] > m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        w = (m[0, 2] - m[2, 0]) / s
        x = (m[0, 1] + m[1, 0]) / s
        y = 0.25 * s
        z = (m[1, 2] + m[2, 1]) / s
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        w = (m[1, 0] - m[0, 1]) / s
        x = (m[0, 2] + m[2, 0]) / s
        y = (m[1, 2] + m[2, 1]) / s
        z = 0.25 * s
    q = np.array([w, x, y, z])
    return q / np.linalg.norm(q)
