from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dvcurate import geometry as geo

from conftest import (
    array_quat_slerp,
    cross_look_at_quat,
    cross_quat_rotate,
    cross_quat_rotate_many,
    quat_chordal,
    quat_mul_many,
)

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def unit_quats():
    return (
        st.tuples(*[st.floats(-1.0, 1.0) for _ in range(4)])
        .map(np.array)
        .filter(lambda q: np.linalg.norm(q) > 1e-3)
        .map(lambda q: q / np.linalg.norm(q))
    )


def vectors():
    return st.tuples(*[st.floats(-5.0, 5.0) for _ in range(3)]).map(np.array)


@given(unit_quats())
def test_quat_inverse_cancels(q):
    prod = geo.quat_mul(q, geo.quat_conj(q))
    assert quat_chordal(prod, IDENTITY) < 1e-9


@given(unit_quats(), unit_quats(), vectors())
@settings(max_examples=200)
def test_rotation_composition_matches_product(qa, qb, v):
    via_product = geo.quat_rotate(geo.quat_mul(qa, qb), v)
    via_chain = geo.quat_rotate(qa, geo.quat_rotate(qb, v))
    assert np.allclose(via_product, via_chain, atol=1e-9)


@given(unit_quats(), vectors())
def test_rotation_preserves_length(q, v):
    assert np.linalg.norm(geo.quat_rotate(q, v)) == pytest.approx(
        np.linalg.norm(v), abs=1e-9
    )


@given(unit_quats(), st.lists(vectors(), min_size=1, max_size=8))
def test_quat_rotate_many_matches_scalar(q, vs)  :
    pts = np.array(vs)
    batch = geo.quat_rotate(q, pts)
    single = np.array([geo.quat_rotate(q, v) for v in vs])
    assert np.allclose(batch, single, atol=1e-12)


@given(unit_quats(), unit_quats())
def test_slerp_endpoints_and_norm(qa, qb):
    assert quat_chordal(geo.quat_slerp(qa, qb, 0.0), qa) < 1e-9
    end = geo.quat_slerp(qa, qb, 1.0)
    # qb and -qb encode the same rotation; slerp takes the shorter arc.
    assert min(np.linalg.norm(end - qb), np.linalg.norm(end + qb)) < 1e-9
    mid = geo.quat_slerp(qa, qb, 0.5)
    assert np.linalg.norm(mid) == pytest.approx(1.0, abs=1e-9)


def test_slerp_nearly_parallel_falls_back_smoothly():
    qa = IDENTITY
    qb = geo.quat_mul(IDENTITY, np.array([1.0, 1e-9, 0.0, 0.0]))
    qb = qb / np.linalg.norm(qb)
    mid = geo.quat_slerp(qa, qb, 0.5)
    assert np.linalg.norm(mid) == pytest.approx(1.0, abs=1e-12)


@given(unit_quats(), unit_quats())
def test_chordal_symmetric_and_sign_invariant(qa, qb):
    assert quat_chordal(qa, qb) == pytest.approx(quat_chordal(qb, qa))
    assert quat_chordal(qa, qb) == pytest.approx(quat_chordal(qa, -qb))
    assert quat_chordal(qa, qa) == pytest.approx(0.0, abs=1e-12)


def test_is_unit_quat_tolerance():
    assert geo.is_unit_quat(IDENTITY)
    assert geo.is_unit_quat(IDENTITY * (1.0 + 5e-7))
    assert not geo.is_unit_quat(IDENTITY * (1.0 + 5e-6))
    assert not geo.is_unit_quat(np.zeros(4))


@given(unit_quats(), vectors(), vectors())
def test_pose_inverse_cancels(q, p, x)  :
    ip, iq = geo.pose_inverse(p, q)
    cp, cq = geo.pose_compose(p, q, ip, iq)
    assert np.allclose(cp, 0.0, atol=1e-9)
    assert quat_chordal(cq, IDENTITY) < 1e-9
    # applying pose then inverse returns the point
    y = geo.quat_rotate(q, x) + p
    back = geo.quat_rotate(iq, y) + ip
    assert np.allclose(back, x, atol=1e-9)


@given(
    st.floats(0.1, 5.0),
    st.floats(0.0, 180.0),
    st.floats(-179.9, 180.0),
    vectors(),
)
def test_spherical_roundtrip(r, theta, phi, center):
    point = geo.cartesian_from_spherical(r, theta, phi, center=center)
    r2, t2, p2 = geo.spherical_about(point, center)
    assert r2 == pytest.approx(r, rel=1e-9, abs=1e-9)
    assert t2 == pytest.approx(theta, abs=1e-6)
    if 1e-6 < theta < 180.0 - 1e-6:  # azimuth undefined at the poles
        dphi = abs(p2 - phi) % 360.0
        assert min(dphi, 360.0 - dphi) < 1e-6


def test_spherical_about_degenerate():
    with pytest.raises(ValueError):
        geo.spherical_about((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))


def test_spherical_convention():
    # theta measured from +z, phi from +x toward +y, about the given center.
    r, t, p = geo.spherical_about((0.0, 0.0, 2.0), (0.0, 0.0, 0.0))
    assert (r, t, p) == (pytest.approx(2.0), pytest.approx(0.0), pytest.approx(0.0))
    r, t, p = geo.spherical_about((0.0, 3.0, 0.0), (0.0, 0.0, 0.0))
    assert (r, t, p) == (pytest.approx(3.0), pytest.approx(90.0), pytest.approx(90.0))
    r, t, p = geo.spherical_about((1.0, 1.0, 1.0), (1.0, 1.0, 0.0))
    assert t == pytest.approx(0.0)


@given(vectors(), vectors())
def test_look_at_points_camera_axis_at_target(eye, target):
    d = np.linalg.norm(target - eye)
    if d < 1e-6:
        return
    q = geo.look_at_quat(eye, target)
    assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-9)
    fwd = geo.quat_rotate(q, np.array([0.0, 0.0, 1.0]))
    assert np.allclose(fwd, (target - eye) / d, atol=1e-6)


@given(unit_quats())
@settings(max_examples=200)
def test_rotmat_to_quat_roundtrip(q):
    m = np.column_stack([
        geo.quat_rotate(q, np.array([1.0, 0.0, 0.0])),
        geo.quat_rotate(q, np.array([0.0, 1.0, 0.0])),
        geo.quat_rotate(q, np.array([0.0, 0.0, 1.0])),
    ])
    q2 = geo.rotmat_to_quat(m)
    assert quat_chordal(q, q2) < 1e-7


@pytest.mark.parametrize("axis", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
def test_rotmat_to_quat_near_half_turns(axis):
    # Half turns about each axis exercise every branch of the conversion.
    ax = np.asarray(axis)
    q = np.concatenate(([np.cos(np.pi / 2)], np.sin(np.pi / 2) * ax))
    m = np.column_stack([
        geo.quat_rotate(q, np.eye(3)[i]) for i in range(3)
    ])
    q2 = geo.rotmat_to_quat(m)
    assert quat_chordal(q, q2) < 1e-7


def test_quat_norm_helper():
    assert geo.quat_norm(np.array([3.0, 0.0, 4.0, 0.0])) == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# byte identity with the np.cross rotations and the per-row Hamilton product

@pytest.mark.parametrize(
    "eye,target,up",
    [
        ((0.6, -0.3, 0.7), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
        ((0.0, 0.0, 1.5), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0)),   # forward parallel to up
        ((0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (1.0, 0.0, 0.0)),   # ... and to +x as well
        ((1e-9, 0.0, 1.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
    ],
)
def test_look_at_quat_matches_np_cross_bytes(eye, target, up):
    assert geo.look_at_quat(eye, target, up).tobytes() == \
        cross_look_at_quat(eye, target, up).tobytes()


def test_rotations_match_np_cross_bytes():
    rng = np.random.default_rng(11)
    for n in (1, 2, 150):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        vs = rng.uniform(-2.0, 2.0, size=(n, 3))
        assert geo.quat_rotate(q, vs).tobytes() == cross_quat_rotate_many(q, vs).tobytes()
        assert geo.quat_rotate(q, vs[0]).tobytes() == cross_quat_rotate(q, vs[0]).tobytes()
        eye = rng.uniform(-2.0, 2.0, size=3)
        assert geo.look_at_quat(eye, vs[0]).tobytes() == cross_look_at_quat(eye, vs[0]).tobytes()


def test_quat_mul_broadcast_matches_per_row_bytes():
    rng = np.random.default_rng(12)
    q = rng.normal(size=4)
    for n in (1, 3, 150):
        quats = rng.normal(size=(n, 4))
        assert geo.quat_mul(q, quats).tobytes() == quat_mul_many(q, quats).tobytes()
        assert geo.quat_mul(q, quats[0]).tobytes() == quat_mul_many(q, quats[:1])[0].tobytes()
        assert geo.quat_mul(tuple(q), list(quats[0])).tobytes() == \
            quat_mul_many(q, quats[:1])[0].tobytes()


# ---------------------------------------------------------------------------
# one pose on Python floats, a batch on numpy columns: the same bytes as each
# other and as the np.cross / per-row oracles, signed zeros and subnormals too

_ODD = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.0, -1.0)


def _components(n):
    return st.lists(st.one_of(st.sampled_from(_ODD), st.floats(-3.0, 3.0)), min_size=n, max_size=n)


def _rows(k, n=None):
    return st.lists(_components(k), min_size=n or 1, max_size=n or 6).map(np.array)


def _same(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@given(_components(4), _rows(4), st.data())
@settings(max_examples=300)
def test_quat_mul_float_path_matches_array_path_and_oracle_bytes(q, quats, data):
    rows = geo.quat_mul(q, quats)
    assert _same(rows, quat_mul_many(q, quats))
    for i, row in enumerate(quats):
        assert _same(geo.quat_mul(q, row), rows[i])
    qs = data.draw(_rows(4, len(quats)))
    assert _same(geo.quat_mul(qs, quats), quat_mul_many(qs, quats))


@given(_components(4), _rows(3), st.data())
@settings(max_examples=300)
def test_quat_rotate_float_path_matches_array_path_and_oracle_bytes(q, vs, data):
    rows = geo.quat_rotate(q, vs)
    assert _same(rows, cross_quat_rotate_many(q, vs))
    for i, v in enumerate(vs):
        assert _same(geo.quat_rotate(q, v), rows[i])
        assert _same(geo.quat_rotate(q, v), cross_quat_rotate(q, v))
    qs = data.draw(_rows(4, len(vs)))
    assert _same(geo.quat_rotate(qs, vs), cross_quat_rotate_many(qs, vs))


def _outcome(f, *args):
    try:
        return f(*args).tobytes()
    except ValueError as exc:  # eye at target, or a degenerate frame
        return type(exc)


@given(_components(3), _components(3), _components(3))
@settings(max_examples=300)
def test_look_at_quat_float_path_matches_oracle_bytes(eye, target, up):
    with np.errstate(all="ignore"):  # a subnormal or zero norm divides as numpy does, on both sides
        assert _outcome(geo.look_at_quat, eye, target, up) == \
            _outcome(cross_look_at_quat, eye, target, up)


@given(st.one_of(_components(4), st.just([1.0, 0.0, 0.0, 0.0])),
       st.one_of(_components(4), st.sampled_from([[1.0, 1e-9, 0.0, 0.0], [-1.0, 0.0, -0.0, 1e-13]])),
       st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 5e-324]), st.floats(0.0, 1.0)),
                min_size=1, max_size=6))
@example([1.0, 0.0, 0.0, 0.0], [1.0, 1e-9, 0.0, 0.0], [0.25, 0.5])
@example([1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, -0.0, 1e-13], [0.25, -0.0])
@settings(max_examples=300)
def test_slerp_rows_match_single_fractions_and_oracle_bytes(a, b, fracs):
    # the second quaternions near the identity reach the near-parallel branch
    # (dot > 1 - 1e-12), as do drawn pairs whose dot product passes 1
    with np.errstate(all="ignore"):  # a zero-norm interpolant divides as numpy does, on both sides
        rows = geo.quat_slerp(a, b, np.array(fracs))
        assert rows.shape == (len(fracs), 4)
        for i, f in enumerate(fracs):
            assert _same(geo.quat_slerp(a, b, f), rows[i])
            assert _same(rows[i], array_quat_slerp(a, b, f))
