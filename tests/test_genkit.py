from __future__ import annotations

import math
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvcurate import genkit, geometry
from dvcurate.errors import ConfigError, DegenerateAnchor, SegmentationMismatch
from dvcurate.geometry import quat_conj, quat_mul
from dvcurate.metadata import Steps
from dvcurate.taskspec import PredicateSequence, Primitive, TextureSpec

from conftest import (
    cross_quat_rotate,
    cross_quat_rotate_many,
    make_record,
    pixel_value_noise,
    quat_mul_many,
)

PICK_PLACE = PredicateSequence((Primitive("pick"), Primitive("place")))


def _fractal(h_min=0.1, h_max=0.3, s_min=0.2, s_max=0.9, v_min=0.3, v_max=1.0):
    return TextureSpec("fractal", h_min, h_max, s_min, s_max, v_min, v_max)


# ---------------------------------------------------------------------------
# fractal textures

def test_fractal_texture_shape_and_bounds():
    spec = _fractal()
    raster = genkit.fractal_texture(spec, width=48, height=32, seed=7)
    assert raster.pixels.shape == (32, 48, 3)
    assert genkit.raster_within(spec, raster)
    h, s, v = raster.pixels[..., 0], raster.pixels[..., 1], raster.pixels[..., 2]
    assert h.min() >= 0.1 and h.max() <= 0.3
    assert s.min() >= 0.2 and s.max() <= 0.9
    assert v.min() >= 0.3 and v.max() <= 1.0


def test_fractal_texture_deterministic_per_seed():
    spec = _fractal()
    a = genkit.fractal_texture(spec, 16, 16, seed=123)
    b = genkit.fractal_texture(spec, 16, 16, seed=123)
    c = genkit.fractal_texture(spec, 16, 16, seed=124)
    assert np.array_equal(a.pixels, b.pixels)
    assert not np.array_equal(a.pixels, c.pixels)


def test_fractal_texture_wrapped_hue_window():
    spec = _fractal(h_min=0.92, h_max=0.06)
    raster = genkit.fractal_texture(spec, 64, 64, seed=5)
    h = raster.pixels[..., 0]
    assert ((h >= 0.92) | (h <= 0.06)).all()
    assert (h < 1.0).all()
    assert genkit.raster_within(spec, raster)


def test_fractal_texture_point_window_is_constant():
    spec = _fractal(h_min=0.4, h_max=0.4, s_min=0.5, s_max=0.5, v_min=0.8, v_max=0.8)
    raster = genkit.fractal_texture(spec, 8, 8, seed=1)
    assert np.array_equal(raster.pixels, np.full((8, 8, 3), [0.4, 0.5, 0.8]))


def test_fractal_texture_random_specs_stay_in_bounds():
    rng = np.random.default_rng(0)
    for trial in range(25):
        h_lo, h_hi = rng.uniform(0.0, 0.999, size=2)
        s = np.sort(rng.uniform(0.0, 1.0, size=2))
        v = np.sort(rng.uniform(0.0, 1.0, size=2))
        spec = _fractal(h_lo, h_hi, s[0], s[1], v[0], v[1])
        raster = genkit.fractal_texture(spec, 24, 24, seed=trial)
        assert genkit.raster_within(spec, raster)


def test_fractal_texture_rejects_bad_inputs():
    jitter = TextureSpec("jitter", -0.1, 0.1, -0.1, 0.1, -0.1, 0.1, base_name="wood")
    with pytest.raises(ValueError, match="fractal"):
        genkit.fractal_texture(jitter, 8, 8, seed=0)
    with pytest.raises(ValueError, match="dimensions"):
        genkit.fractal_texture(_fractal(), 0, 8, seed=0)


def test_raster_file_roundtrip(tmp_path):
    raster = genkit.fractal_texture(_fractal(), 20, 12, seed=9)
    path = tmp_path / "tex.dvtx"
    genkit.write_raster(path, raster)
    back = genkit.read_raster(path)
    assert (back.width, back.height) == (20, 12)
    assert np.array_equal(back.pixels, raster.pixels.astype("<f4").astype(np.float64))


def test_read_raster_rejects_corrupt_files(tmp_path):
    bad_magic = tmp_path / "bad.dvtx"
    bad_magic.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        genkit.read_raster(bad_magic)
    truncated = tmp_path / "short.dvtx"
    raster = genkit.fractal_texture(_fractal(), 8, 8, seed=0)
    genkit.write_raster(truncated, raster)
    truncated.write_bytes(truncated.read_bytes()[:-7])
    with pytest.raises(ValueError, match="truncated"):
        genkit.read_raster(truncated)


def test_write_ppm(tmp_path):
    raster = genkit.fractal_texture(_fractal(), 10, 6, seed=2)
    path = tmp_path / "tex.ppm"
    genkit.write_ppm(path, raster)
    data = path.read_bytes()
    assert data.startswith(b"P6\n10 6\n255\n")
    assert len(data) == len(b"P6\n10 6\n255\n") + 10 * 6 * 3


# ---------------------------------------------------------------------------
# lab enumeration

def test_default_labs_roster():
    enums = genkit.enumerate_instances()
    assert len(enums) == 8
    assert [e.lab for e in enums] == [f"lab{i}" for i in range(1, 9)]
    assert [e.templates[-1].name == "make-coffee" for e in enums] == [True] + [False] * 7
    for e in enums:
        assert e.templates[0].name == "bin-object" and e.templates[0].count == 7


def test_enumerate_instances_rejects_zero_spatial_combinations():
    with pytest.raises(ConfigError):
        genkit.enumerate_instances(spatial_combinations=0)


def test_enumerate_lab_template_counts():
    coffee, plain = genkit.enumerate_instances(count=2)
    assert [t.count for t in plain.templates] == [7, 2, 2, 14, 14, 1, 1]
    assert plain.base_count == 41
    assert plain.crossed_count == 5 * 90 == 450
    assert [t.name for t in coffee.templates][-1] == "make-coffee"
    assert coffee.base_count == 42


def test_enumeration_totals():
    enums = genkit.enumerate_instances()
    assert len(enums) == 8
    coffee_labs = [e.lab for e in enums if any(t.name == "make-coffee" for t in e.templates)]
    assert coffee_labs == ["lab1"]
    summary = genkit.enumeration_summary(enums)
    assert summary["total_base"] == 7 * 41 + 42 == 329
    assert summary["total_crossed"] == 8 * 450 == 3600
    assert summary["total_crossed"] > 3000
    assert {lab["lab"] for lab in summary["labs"]} == {f"lab{i}" for i in range(1, 9)}


# ---------------------------------------------------------------------------
# decompose

def test_decompose_pick_place_boundaries():
    demo = make_record(n=120, close_at=30, release_at=80)
    segments = genkit.decompose(demo, PICK_PLACE)
    assert [s.primitive for s in segments] == ["pick", "place"]
    first, second = segments
    assert first.steps.t[0] == 0 and first.steps.t[-1] == 80
    assert second.steps.t[0] == 81 and second.steps.t[-1] == 119
    assert np.array_equal(first.anchor_pos, demo.steps.ee_pos[30])
    assert np.array_equal(second.anchor_pos, demo.steps.ee_pos[80])
    assert np.array_equal(first.anchor_quat, demo.steps.ee_quat[30])


def test_decompose_single_primitive():
    demo = make_record(n=60, close_at=20, release_at=None)
    segments = genkit.decompose(demo, PredicateSequence((Primitive("pick"),)))
    assert len(segments) == 1
    assert segments[0].steps.t[0] == 0 and segments[0].steps.t[-1] == 59
    assert np.array_equal(segments[0].anchor_pos, demo.steps.ee_pos[20])


def test_decompose_transition_count_mismatch():
    demo = make_record(n=120, close_at=30, release_at=80)  # two transitions
    with pytest.raises(SegmentationMismatch, match="2 gripper transitions vs 1"):
        genkit.decompose(demo, PredicateSequence((Primitive("pick"),)))
    with pytest.raises(SegmentationMismatch, match="vs 3"):
        genkit.decompose(
            demo,
            PredicateSequence((Primitive("pick"), Primitive("place"), Primitive("close"))),
        )


# ---------------------------------------------------------------------------
# synthesize

def _random_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def _random_segment(rng, n=12, primitive="pick"):
    pos = rng.uniform(-0.5, 0.5, size=(n, 3))
    quat = np.array([_random_quat(rng) for _ in range(n)])
    steps = Steps(
        t=np.arange(n, dtype=np.int64),
        ee_pos=pos,
        ee_quat=quat,
        gripper=rng.uniform(0.0, 1.0, size=n),
    )
    k = rng.integers(n)
    return genkit.Segment(
        anchor_pos=pos[k].copy(), anchor_quat=quat[k].copy(),
        steps=steps, primitive=primitive,
    )


def test_identity_anchors_reproduce_source():
    demo = make_record(n=120, close_at=30, release_at=80)
    segments = genkit.decompose(demo, PICK_PLACE)
    anchors = [(s.anchor_pos, s.anchor_quat) for s in segments]
    out = genkit.synthesize(segments, anchors, bridge_step=0.5, like=demo)
    assert len(out.steps) == 120
    assert np.allclose(out.steps.ee_pos, demo.steps.ee_pos, atol=1e-9)
    assert np.allclose(np.abs(np.einsum("ij,ij->i", out.steps.ee_quat, demo.steps.ee_quat)),
                       1.0, atol=1e-9)
    assert np.array_equal(out.steps.gripper, demo.steps.gripper)
    assert np.array_equal(out.steps.t, np.arange(120))


def test_synthesis_preserves_relative_poses():
    rng = np.random.default_rng(42)
    for _ in range(30):
        seg = _random_segment(rng)
        new_anchor = (rng.uniform(-1, 1, size=3), _random_quat(rng))
        out = genkit.synthesize([seg], [new_anchor], bridge_step=10.0)
        src, dst = seg.steps, out.steps
        d_src = np.linalg.norm(src.ee_pos[1:] - src.ee_pos[:-1], axis=1)
        d_dst = np.linalg.norm(dst.ee_pos[1:] - dst.ee_pos[:-1], axis=1)
        assert np.allclose(d_src, d_dst, atol=1e-9)
        for i in (0, len(src) - 1):
            rel_src = quat_mul(quat_conj(src.ee_quat[0]), src.ee_quat[i])
            rel_dst = quat_mul(quat_conj(dst.ee_quat[0]), dst.ee_quat[i])
            assert np.allclose(rel_src, rel_dst, atol=1e-9) or \
                np.allclose(rel_src, -rel_dst, atol=1e-9)


def test_synthesis_maps_anchor_exactly():
    rng = np.random.default_rng(5)
    seg = _random_segment(rng, n=6)
    new_pos = np.array([2.0, -1.0, 0.5])
    new_quat = _random_quat(rng)
    out = genkit.synthesize([seg], [(new_pos, new_quat)], bridge_step=10.0)
    k = int(np.flatnonzero((seg.steps.ee_pos == seg.anchor_pos).all(axis=1))[0])
    assert np.allclose(out.steps.ee_pos[k], new_pos, atol=1e-9)
    dot = abs(float(out.steps.ee_quat[k] @ new_quat))
    assert dot == pytest.approx(1.0, abs=1e-9)


def _point_segment(pos, grip=0.0, quat=(1.0, 0.0, 0.0, 0.0)):
    steps = Steps(
        t=np.zeros(1, dtype=np.int64),
        ee_pos=np.array([pos], dtype=float),
        ee_quat=np.array([quat], dtype=float),
        gripper=np.array([grip]),
    )
    return genkit.Segment(
        anchor_pos=np.asarray(pos, dtype=float),
        anchor_quat=np.asarray(quat, dtype=float),
        steps=steps, primitive="pick",
    )


def test_junction_bridging_inserts_spaced_points():
    a = _point_segment((0.0, 0.0, 0.0), grip=1.0)
    b = _point_segment((0.0, 0.0, 0.0))
    anchors = [((0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
               ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))]
    out = genkit.synthesize([a, b], anchors, bridge_step=0.3)
    # ceil(1.0 / 0.3) = 4 sub-steps, so 3 bridge points between the two ends
    assert len(out.steps) == 5
    assert np.allclose(out.steps.ee_pos[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(out.steps.gripper, [1.0, 1.0, 1.0, 1.0, 0.0])
    deltas = np.linalg.norm(np.diff(out.steps.ee_pos, axis=0), axis=1)
    assert (deltas <= 0.3 + 1e-12).all()
    assert np.array_equal(out.steps.t, np.arange(5))


def test_junction_bridging_slerps_orientation():
    half_turn_z = (np.cos(np.pi / 4), 0.0, 0.0, np.sin(np.pi / 4))  # 90 deg about z
    a = _point_segment((0.0, 0.0, 0.0))
    b = _point_segment((0.0, 0.0, 0.0), quat=half_turn_z)
    anchors = [((0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
               ((1.0, 0.0, 0.0), half_turn_z)]
    out = genkit.synthesize([a, b], anchors, bridge_step=0.5)
    assert len(out.steps) == 3
    mid = out.steps.ee_quat[1]
    expected = (np.cos(np.pi / 8), 0.0, 0.0, np.sin(np.pi / 8))  # halfway: 45 deg
    assert np.allclose(mid, expected, atol=1e-9)


def test_no_bridge_when_junction_is_short():
    a = _point_segment((0.0, 0.0, 0.0))
    b = _point_segment((0.0, 0.0, 0.0))
    anchors = [((0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
               ((0.25, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))]
    out = genkit.synthesize([a, b], anchors, bridge_step=0.3)
    assert len(out.steps) == 2


def test_synthesize_validation():
    seg = _point_segment((0.0, 0.0, 0.0))
    anchor = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="segments vs"):
        genkit.synthesize([seg], [anchor, anchor], bridge_step=0.1)
    with pytest.raises(ValueError, match="at least one segment"):
        genkit.synthesize([], [], bridge_step=0.1)
    with pytest.raises(ValueError, match="bridge_step"):
        genkit.synthesize([seg], [anchor], bridge_step=0.0)
    with pytest.raises(DegenerateAnchor):
        genkit.synthesize([seg], [((0.0, 0.0, 0.0), (0.9, 0.0, 0.0, 0.0))], bridge_step=0.1)
    bad_seg = _point_segment((0.0, 0.0, 0.0))
    bad_seg.anchor_quat = np.array([2.0, 0.0, 0.0, 0.0])
    with pytest.raises(DegenerateAnchor):
        genkit.synthesize([bad_seg], [anchor], bridge_step=0.1)
    empty = _point_segment((0.0, 0.0, 0.0))
    empty.steps = Steps(t=np.zeros(0, dtype=np.int64), ee_pos=np.zeros((0, 3)), ee_quat=np.zeros((0, 4)),
                        gripper=np.zeros(0))
    with pytest.raises(ValueError, match="at least one step"):
        genkit.synthesize([seg, empty, seg], [anchor] * 3, bridge_step=0.1)


@pytest.mark.parametrize(
    "far,step,match",
    [
        ((math.inf, 0.0, 0.0), 0.1, "past the float range"),
        ((1.7e308, 0.0, 0.0), 0.1, "distance inf at bridge step 0.1"),  # its square overflows
        ((1.0, 0.0, 0.0), 1e-300, "distance 1.0 at bridge step 1e-300"),  # more steps than numpy holds
    ],
)
def test_synthesize_refuses_anchors_it_cannot_stitch(far, step, match):
    segments = [_point_segment((0.0, 0.0, 0.0)), _point_segment((0.0, 0.0, 0.0))]
    anchors = [((0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)), (far, (1.0, 0.0, 0.0, 0.0))]
    with pytest.raises(DegenerateAnchor, match=match):
        genkit.synthesize(segments, anchors, bridge_step=step)


def test_synthesize_refuses_bridges_past_memory_before_allocating_any(monkeypatch):
    # three junctions of 0.5 at a step of 1/512: 255 bridge steps each, 765 in all
    segments = [_point_segment((0.0, 0.0, 0.0)) for _ in range(4)]
    anchors = [((0.5 * i, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)) for i in range(4)]
    monkeypatch.setattr(genkit, "_MEMORY_BYTES", 765 * genkit._BRIDGE_STEP_BYTES)
    assert len(genkit.synthesize(segments, anchors, bridge_step=2**-9).steps) == 4 + 765
    monkeypatch.setattr(genkit, "_MEMORY_BYTES", 764 * genkit._BRIDGE_STEP_BYTES)
    slerp = mock.Mock(side_effect=AssertionError("a bridge was allocated"))
    monkeypatch.setattr(genkit, "quat_slerp", slerp)
    with pytest.raises(DegenerateAnchor, match=r"distance 0\.5 at bridge step 0\.001953125: more bridge"):
        genkit.synthesize(segments, anchors, bridge_step=2**-9)
    assert not slerp.called


def test_synthesize_record_metadata():
    demo = make_record(rid="src", lab="lab3", instructions=("pick up the mug",))
    segments = genkit.decompose(demo, PICK_PLACE)
    anchors = [(s.anchor_pos, s.anchor_quat) for s in segments]
    like = genkit.synthesize(segments, anchors, bridge_step=0.5, like=demo, new_id="s1")
    assert like.id == "s1" and like.lab == "lab3"
    assert like.instructions == ("pick up the mug",)
    assert like.annotations is None
    bare = genkit.synthesize(segments, anchors, bridge_step=0.5)
    assert bare.id == "synth-0" and bare.lab == "synth"
    assert bare.instructions == ()
    assert np.array_equal(bare.camera_pos, [1.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# byte identity with the per-pixel noise and the np.cross / per-row synthesis

@pytest.mark.parametrize(
    "spec,width,height",
    [
        (_fractal(), 1, 1),                            # a constant field
        (_fractal(), 3, 7),
        (_fractal(), 100, 33),
        (_fractal(), 256, 256),
        (_fractal(h_min=0.92, h_max=0.06), 64, 48),   # wrapped hue window
    ],
)
def test_fractal_texture_matches_per_pixel_noise_bytes(monkeypatch, spec, width, height):
    for seed in (0, 3, 2**40 + 1):
        fast = genkit.fractal_texture(spec, width, height, seed)
        monkeypatch.setattr(genkit, "_value_noise", _per_pixel_channels)
        slow = genkit.fractal_texture(spec, width, height, seed)
        monkeypatch.undo()
        assert fast.pixels.tobytes() == slow.pixels.tobytes()


def _per_pixel_channels(gens, width, height):
    return np.stack([pixel_value_noise(g, width, height, genkit.NOISE_OCTAVES, genkit.NOISE_PERSISTENCE)
                     for g in gens])


@st.composite
def _texture_specs(draw):
    unit = st.floats(0.0, 1.0)
    hue = st.floats(0.0, 1.0, exclude_max=True)
    h_min, h_max = draw(hue), draw(hue)  # h_min > h_max is a wrapped window
    s_min, v_min = draw(unit), draw(unit)
    if draw(st.booleans()):  # a point window
        h_max, s_max, v_max = h_min, s_min, v_min
    else:
        s_max, v_max = draw(st.floats(s_min, 1.0)), draw(st.floats(v_min, 1.0))
    return TextureSpec("fractal", h_min, h_max, s_min, s_max, v_min, v_max)


@settings(max_examples=60, deadline=None)
@given(spec=_texture_specs(), width=st.integers(1, 96), height=st.integers(1, 96),
       seed=st.integers(0, 2**64 - 1))
def test_fractal_texture_matches_per_pixel_noise_bytes_for_drawn_inputs(spec, width, height, seed):
    fast = genkit.fractal_texture(spec, width, height, seed)
    with mock.patch.object(genkit, "_value_noise", _per_pixel_channels):
        slow = genkit.fractal_texture(spec, width, height, seed)
    assert fast.pixels.tobytes() == slow.pixels.tobytes()


def test_axis_weights_are_read_only():
    for side, *arrays in genkit._axis_weights(37):
        assert side >= genkit.NOISE_BASE_CELLS + 2
        for a in arrays:
            assert a.shape == (37,) and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0


_RENDER_IN_FRESH_PROCESS = (
    "import sys; from dvcurate import genkit; from dvcurate.taskspec import TextureSpec; "
    "spec = TextureSpec('fractal', 0.92, 0.06, 0.2, 0.8, 0.3, 0.9); "
    "sys.stdout.buffer.write(genkit.fractal_texture(spec, 45, 29, 11).pixels.tobytes())"
)


def test_cached_weights_give_the_bytes_of_a_fresh_process():
    spec = TextureSpec("fractal", 0.92, 0.06, 0.2, 0.8, 0.3, 0.9)
    first = genkit.fractal_texture(spec, 45, 29, 11).pixels.tobytes()
    genkit.fractal_texture(spec, 29, 45, 12)  # the same axis lengths, the other way round
    genkit.fractal_texture(spec, 64, 64, 13)
    again = genkit.fractal_texture(spec, 45, 29, 11).pixels.tobytes()
    fresh = subprocess.run([sys.executable, "-c", _RENDER_IN_FRESH_PROCESS],
                           capture_output=True, check=True).stdout
    assert first == again == fresh


def test_synthesize_matches_np_cross_bytes(monkeypatch):
    rng = np.random.default_rng(21)
    segments = [_random_segment(rng, n=40, primitive=p) for p in ("pick", "place", "close")]
    anchors = [(rng.uniform(-1, 1, size=3), _random_quat(rng)) for _ in segments]
    fast = genkit.synthesize(segments, anchors, bridge_step=0.05)
    monkeypatch.setattr(genkit, "quat_mul", quat_mul_many)
    monkeypatch.setattr(genkit, "quat_rotate", cross_quat_rotate_many)
    monkeypatch.setattr(geometry, "quat_mul", lambda a, b: quat_mul_many(a, np.asarray(b)[None])[0])
    monkeypatch.setattr(geometry, "quat_rotate", cross_quat_rotate)
    slow = genkit.synthesize(segments, anchors, bridge_step=0.05)
    assert len(fast.steps) > 120  # the junctions were bridged
    for field in ("t", "ee_pos", "ee_quat", "gripper"):
        assert getattr(fast.steps, field).tobytes() == getattr(slow.steps, field).tobytes()
