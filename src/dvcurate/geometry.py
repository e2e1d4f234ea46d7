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


def _parts(x) -> tuple:
    """One vector or quaternion as a tuple of Python floats, or an (..., k)
    array as its k columns.

    The pose formulas below take either kind of parts, so a single pose is
    computed on floats and a batch on numpy columns, with the same float
    operations in the same order; both give the bytes of the array code.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return tuple(x.tolist())
    return tuple(x[..., i] for i in range(x.shape[-1]))


def _joined(parts) -> np.ndarray:
    """The array that `_parts` split: (k,) from floats, (..., k) from columns."""
    if isinstance(parts[0], np.ndarray):
        return np.stack(parts, axis=-1)
    return np.array(parts)


def _hamilton(a, b) -> tuple:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def _cross(a, b) -> tuple:
    a1, a2, a3 = a
    b1, b2, b3 = b
    return (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)


def _rotated(q, v) -> tuple:
    """v + 2 u × (u × v + w v) for q = (w, u)."""
    w, x, y, z = q
    u = (x, y, z)
    c = _cross(u, v)
    d = _cross(u, (c[0] + w * v[0], c[1] + w * v[1], c[2] + w * v[2]))
    return (v[0] + 2.0 * d[0], v[1] + 2.0 * d[1], v[2] + 2.0 * d[2])


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product a ⊗ b, broadcast over leading axes."""
    return _joined(_hamilton(_parts(a), _parts(b)))


def quat_conj(q) -> np.ndarray:
    w, x, y, z = q
    return np.array([w, -x, -y, -z])


def quat_rotate(q, v) -> np.ndarray:
    """Rotate vector v, or each row of an (N, 3) array, by unit quaternion q,
    or each row by its own row of an (N, 4) q."""
    return _joined(_rotated(_parts(q), _parts(v)))


def quat_slerp(a, b, t) -> np.ndarray:
    """Spherical interpolation from a to b along the shorter arc.

    `t` is one fraction, giving a (4,) quaternion, or a 1-D array of
    fractions, giving one row per fraction.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    dot = float(np.dot(a, b))
    if dot < 0.0:
        b = -b
        dot = -dot
    fracs = np.asarray(t, dtype=float)
    if dot > 1.0 - 1e-12:
        # one norm per row: np.linalg.norm sums the squares otherwise than a float loop would
        rows = [out / np.linalg.norm(out) for out in a + fracs.reshape(-1, 1) * (b - a)]
    else:
        omega = math.acos(min(dot, 1.0))
        so = math.sin(omega)
        pairs = list(zip(a.tolist(), b.tolist()))
        rows = []
        for f in fracs.reshape(-1).tolist():
            sa = math.sin((1.0 - f) * omega)
            sb = math.sin(f * omega)
            rows.append([(sa * x + sb * y) / so for x, y in pairs])
    out = np.array(rows)
    return out if fracs.ndim else out[0]


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
    """Quaternion orienting a camera at `eye` so its +z axis points at `target`.

    Computed on floats; the norms stay numpy's, and dividing by them (numpy
    scalars) keeps numpy's result for a zero or non-finite norm.
    """
    fwd = tuple(t - e for t, e in zip(_parts(target), _parts(eye)))
    n = np.linalg.norm(fwd)
    if n == 0.0:
        raise ValueError("eye coincides with target")
    fwd = tuple(f / n for f in fwd)
    right = _cross(_parts(up), fwd)
    rn = np.linalg.norm(right)
    if rn < 1e-12:
        # forward parallel to up: pick an arbitrary consistent right axis
        right = _cross((1.0, 0.0, 0.0), fwd)
        rn = np.linalg.norm(right)
        if rn < 1e-12:
            right = _cross((0.0, 1.0, 0.0), fwd)
            rn = np.linalg.norm(right)
    right = tuple(r / rn for r in right)
    cam_up = _cross(fwd, right)
    return rotmat_to_quat(tuple(zip(right, cam_up, fwd)))


def rotmat_to_quat(m) -> np.ndarray:
    """Convert a proper rotation matrix, an array or a sequence of rows, to a
    (w, x, y, z) quaternion."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    tr = m00 + m11 + m22
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        w = 0.25 * s
        x = (m21 - m12) / s
        y = (m02 - m20) / s
        z = (m10 - m01) / s
    elif m00 > m11 and m00 > m22:
        s = math.sqrt(1.0 + m00 - m11 - m22) * 2.0
        w = (m21 - m12) / s
        x = 0.25 * s
        y = (m01 + m10) / s
        z = (m02 + m20) / s
    elif m11 > m22:
        s = math.sqrt(1.0 + m11 - m00 - m22) * 2.0
        w = (m02 - m20) / s
        x = (m01 + m10) / s
        y = 0.25 * s
        z = (m12 + m21) / s
    else:
        s = math.sqrt(1.0 + m22 - m00 - m11) * 2.0
        w = (m10 - m01) / s
        x = (m02 + m20) / s
        y = (m12 + m21) / s
        z = 0.25 * s
    q = np.array([w, x, y, z])
    return q / np.linalg.norm(q)
