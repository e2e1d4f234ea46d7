from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvcurate import taskspec
from dvcurate.errors import DegenerateRegion, SpecRangeError, SpecSyntaxError

from conftest import DATA_DIR, array_hue_from_unit

VALID_DIR = DATA_DIR / "specs" / "valid"
MALFORMED_DIR = DATA_DIR / "specs" / "malformed"
VALID_FILES = sorted(VALID_DIR.glob("*.mlspec"))
MALFORMED_MANIFEST = json.loads((MALFORMED_DIR / "manifest.json").read_text())

MINIMAL = """(task :name "t" :lab "lab1" :goal (sequence pick) :object "cup"
 :object-texture (fractal :h 0.2 0.3 :s 0.4 0.8 :v 0.5 0.9)
 :object-region (union (bbox -0.1 -0.1 0.1 0.1))
 :camera (union (sph :r 0.8 1.0 :theta 30 60 :phi -15 15))
 :table-texture (jitter :base "wood" :h -0.02 0.02 :s -0.1 0.1 :v -0.1 0.1)
 :instruction "pick up the cup")"""


def test_fixture_corpus_is_large_enough():
    assert len(VALID_FILES) >= 20
    assert len(MALFORMED_MANIFEST) >= 10


@pytest.mark.parametrize("path", VALID_FILES, ids=lambda p: p.stem)
def test_valid_fixture_roundtrip_fixpoint(path):
    spec = taskspec.parse_file(path)
    text = taskspec.serialize(spec)
    again = taskspec.parse(text)
    assert again == spec
    assert taskspec.serialize(again) == text


@pytest.mark.parametrize("name", sorted(MALFORMED_MANIFEST), ids=lambda n: n.split(".")[0])
def test_malformed_fixture_errors(name):
    expected = MALFORMED_MANIFEST[name]
    with pytest.raises((SpecSyntaxError, SpecRangeError)) as err:
        taskspec.parse_file(MALFORMED_DIR / name)
    assert type(err.value).__name__ == expected
    assert err.value.line is not None and err.value.line >= 1
    assert err.value.col is not None and err.value.col >= 1


def test_parse_minimal_fields():
    spec = taskspec.parse(MINIMAL)
    assert spec.name == "t"
    assert spec.lab == "lab1"
    assert spec.goal.labels() == ("pick",)
    assert spec.object_name == "cup"
    assert spec.receptacle_name is None and spec.receptacle_region is None
    assert spec.object_texture.mode == "fractal"
    assert spec.table_texture.mode == "jitter"
    assert spec.table_texture.base_name == "wood"
    assert spec.instruction == "pick up the cup"


def test_parse_rejects_unknown_builtin_primitive():
    text = MINIMAL.replace("(sequence pick)", "(sequence pck)")
    with pytest.raises(SpecRangeError, match="unknown primitive"):
        taskspec.parse(text)


def test_parse_custom_primitive():
    text = MINIMAL.replace("(sequence pick)", '(sequence pick (custom "wipeSurface"))')
    spec = taskspec.parse(text)
    assert spec.goal.labels() == ("pick", "wipeSurface")
    assert spec.goal.primitives[1].custom
    assert '(custom "wipeSurface")' in taskspec.serialize(spec)


@pytest.mark.parametrize(
    "old,new,field",
    [
        ("(bbox -0.1 -0.1 0.1 0.1)", "(bbox 0.2 -0.1 0.1 0.1)", "object_region"),
        (":theta 30 60", ":theta 30 91", "camera"),
        (":theta 30 60", ":theta -5 60", "camera"),
        (":r 0.8 1.0", ":r 0 1.0", "camera"),
        (":r 0.8 1.0", ":r 1.0 0.8", "camera"),
        (":phi -15 15", ":phi -190 15", "camera"),
        (":s 0.4 0.8", ":s 0.8 0.4", "object_texture"),
        (":v 0.5 0.9", ":v 0.5 1.2", "object_texture"),
        (":h -0.02 0.02", ":h 0.02 -0.02", "table_texture"),
        (":h -0.02 0.02", ":h -1.5 0.02", "table_texture"),
    ],
)
def test_parse_range_errors_name_their_field(old, new, field):
    with pytest.raises(SpecRangeError) as err:
        taskspec.parse(MINIMAL.replace(old, new))
    assert err.value.field == field
    assert err.value.line is not None


@pytest.mark.parametrize(
    "old,new,match",
    [
        (':name "t" ', "", "missing required field :name"),
        (":lab", ":laboratory", "unknown task field"),
        ('"pick up the cup")', '"pick up the cup" :name "again")', "duplicate"),
        ("(union (bbox -0.1 -0.1 0.1 0.1))", "(union)", "at least one"),
        ("(sequence pick)", "(sequence)", "empty primitive sequence"),
        (':name "t"', ':name ""', r"task name must be non-empty \(line 1, col 7\)"),
        (':object "cup"', ':object ""', r"object name must be non-empty \(line 1, col 51\)"),
    ],
)
def test_parse_structural_errors(old, new, match):
    with pytest.raises((SpecSyntaxError, SpecRangeError), match=match):
        taskspec.parse(MINIMAL.replace(old, new))


def test_wrapped_hue_window():
    tex = taskspec.TextureSpec("fractal", 0.9, 0.1, 0.0, 1.0, 0.0, 1.0)
    assert tex.hue_contains(0.95) and tex.hue_contains(0.05) and tex.hue_contains(0.0)
    assert not tex.hue_contains(0.5)
    assert tex.contains(0.95, 0.5, 0.5)
    assert not tex.contains(0.5, 0.5, 0.5)


def test_plain_hue_window():
    tex = taskspec.TextureSpec("fractal", 0.2, 0.4, 0.0, 1.0, 0.0, 1.0)
    assert tex.hue_contains(0.2) and tex.hue_contains(0.4)
    assert not tex.hue_contains(0.41) and not tex.hue_contains(0.19)


@given(st.floats(min_value=0.0, max_value=1.0), st.sampled_from([
    (0.2, 0.4), (0.9, 0.1), (0.95, 0.05), (0.3, 0.3), (0.98, 0.0), (0.0, 0.99),
]))
@settings(max_examples=300)
def test_hue_from_unit_stays_in_window(u, window):
    h0, h1 = window
    tex = taskspec.TextureSpec("fractal", h0, h1, 0.0, 1.0, 0.0, 1.0)
    assert tex.hue_contains(tex.hue_from_unit(u))


_UNIT_HUES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 0.5, 0.9999999999999999]),
                       st.floats(0.0, 1.0, exclude_max=True))
_OFFSETS = st.one_of(st.sampled_from([0.0, -0.0, -5e-324, 1e-310]), st.floats(-1.0, 1.0))


@st.composite
def _hue_windows(draw):
    """Fractal windows, wrapped (h_min > h_max) or not, and jitter offsets."""
    if draw(st.booleans()):
        return taskspec.TextureSpec("fractal", draw(_UNIT_HUES), draw(_UNIT_HUES), 0.0, 1.0, 0.0, 1.0)
    h0, h1 = sorted([draw(_OFFSETS), draw(_OFFSETS)])
    return taskspec.TextureSpec("jitter", h0, h1, -0.1, 0.1, -0.1, 0.1, base_name="red")


@given(_hue_windows(), st.lists(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0]), st.floats(0.0, 1.0)),
                                min_size=1, max_size=8))
@settings(max_examples=400)
def test_hue_from_unit_float_path_matches_array_path_and_oracle_bytes(tex, us):
    arr = tex.hue_from_unit(np.array(us))
    assert isinstance(arr, np.ndarray)
    assert arr.tobytes() == array_hue_from_unit(tex, np.array(us)).tobytes()
    for u, h in zip(us, arr):
        for scalar in (u, np.float64(u), np.array(u)):
            got = tex.hue_from_unit(scalar)
            assert type(got) is float
            assert np.float64(got).tobytes() == h.tobytes()
        assert np.float64(array_hue_from_unit(tex, u)).tobytes() == h.tobytes()


def test_hue_from_unit_array_matches_scalar():
    tex = taskspec.TextureSpec("fractal", 0.9, 0.1, 0.0, 1.0, 0.0, 1.0)
    us = np.linspace(0.0, 1.0, 11)
    arr = tex.hue_from_unit(us)
    assert arr.shape == us.shape
    assert all(arr[i] == tex.hue_from_unit(float(u)) for i, u in enumerate(us))


def test_jitter_offsets_allow_negative_but_not_outside_unit():
    tex = taskspec.TextureSpec("jitter", -0.2, 0.2, -1.0, 1.0, -0.5, 0.5, base_name="wood")
    assert tex.contains(-0.2, 1.0, 0.0)
    assert not tex.contains(-0.3, 0.0, 0.0)
    with pytest.raises(SpecRangeError):
        taskspec.TextureSpec("jitter", -1.5, 0.2, 0.0, 0.1, 0.0, 0.1, base_name="wood")
    with pytest.raises(SpecRangeError):
        taskspec.TextureSpec("jitter", 0.0, 0.1, 0.0, 0.1, 0.0, 0.1)  # no base


def test_region_membership_multi_box():
    region = taskspec.SpatialRegion(((-0.2, -0.2, 0.0, 0.0), (0.1, 0.1, 0.3, 0.3)))
    assert region.contains(-0.1, -0.1)
    assert region.contains(0.0, 0.0) and region.contains(0.3, 0.3)  # closed edges
    assert region.contains(0.2, 0.2)
    assert not region.contains(0.05, 0.05)
    assert region.box_areas() == [pytest.approx(0.04), pytest.approx(0.04)]


def test_camera_membership():
    cam = taskspec.CameraPoseRange(((0.8, 1.0, 37.5, 52.5, -15.0, 15.0),))
    assert cam.contains(0.8, 37.5, -15.0) and cam.contains(1.0, 52.5, 15.0)
    assert not cam.contains(0.79, 45.0, 0.0)
    assert not cam.contains(0.9, 53.0, 0.0)
    assert not cam.contains(0.9, 45.0, 16.0)


def test_sample_instance_deterministic_and_in_spec():
    spec = taskspec.parse(MINIMAL)
    a = taskspec.sample_instance(spec, 7)
    b = taskspec.sample_instance(spec, 7)
    c = taskspec.sample_instance(spec, 8)
    assert a == b
    assert a != c
    assert a.seed == 7 and a.spec_name == "t"
    assert a.receptacle_pose is None
    for seed in range(200):
        assert taskspec.instance_in_spec(spec, taskspec.sample_instance(spec, seed))


def test_sample_instance_covers_receptacle():
    path = VALID_DIR / "put-marker-in-cup.mlspec"
    spec = taskspec.parse_file(path)
    inst = taskspec.sample_instance(spec, 3)
    assert inst.receptacle_pose is not None
    assert spec.receptacle_region.contains(*inst.receptacle_pose)


def test_sample_region_area_weighting():
    # A zero-area box next to a positive one never receives samples.
    text = MINIMAL.replace(
        "(union (bbox -0.1 -0.1 0.1 0.1))",
        "(union (bbox -0.1 -0.1 0.1 0.1) (bbox 0.5 0.5 0.5 0.7))",
    )
    spec = taskspec.parse(text)
    for seed in range(100):
        x, y = taskspec.sample_instance(spec, seed).object_pose
        assert -0.1 <= x <= 0.1 and -0.1 <= y <= 0.1


def test_sample_region_two_equal_boxes_split_evenly():
    text = MINIMAL.replace(
        "(union (bbox -0.1 -0.1 0.1 0.1))",
        "(union (bbox -0.3 -0.1 -0.1 0.1) (bbox 0.1 -0.1 0.3 0.1))",
    )
    spec = taskspec.parse(text)
    left = sum(taskspec.sample_instance(spec, s).object_pose[0] < 0 for s in range(400))
    assert 140 <= left <= 260  # ~Binomial(400, 0.5), +/- 3 sigma is +/- 30


def test_sample_degenerate_region():
    # All boxes identical and zero-area: sampling collapses to the point.
    text = MINIMAL.replace(
        "(union (bbox -0.1 -0.1 0.1 0.1))",
        "(union (bbox 0.2 0.3 0.2 0.3))",
    )
    inst = taskspec.sample_instance(taskspec.parse(text), 1)
    assert inst.object_pose == (0.2, 0.3)
    # Conflicting zero-area boxes cannot be sampled.
    text = MINIMAL.replace(
        "(union (bbox -0.1 -0.1 0.1 0.1))",
        "(union (bbox 0.2 0.3 0.2 0.3) (bbox 0.4 0.4 0.4 0.4))",
    )
    with pytest.raises(DegenerateRegion):
        taskspec.sample_instance(taskspec.parse(text), 1)


def test_sample_hue_respects_wrap():
    spec = taskspec.parse(MINIMAL.replace(":h 0.2 0.3", ":h 0.95 0.05"))
    for seed in range(300):
        h = taskspec.sample_instance(spec, seed).object_hsv[0]
        assert h >= 0.95 or h <= 0.05


def test_sample_camera_multiple_ranges():
    spec = taskspec.parse_file(VALID_DIR / "camera-three-ranges.mlspec")
    hit = set()
    for seed in range(300):
        r, theta, phi = taskspec.sample_instance(spec, seed).camera_pose
        for i, rng in enumerate(spec.camera_range.ranges):
            if rng[0] <= r <= rng[1] and rng[2] <= theta <= rng[3] and rng[4] <= phi <= rng[5]:
                hit.add(i)
    assert hit == {0, 1, 2}


def test_instance_in_spec_rejects_tampering():
    spec = taskspec.parse(MINIMAL)
    inst = taskspec.sample_instance(spec, 5)
    bad_pose = dataclasses.replace(inst, object_pose=(0.5, 0.5))
    bad_hue = dataclasses.replace(inst, object_hsv=(0.8, 0.5, 0.6))
    bad_cam = dataclasses.replace(inst, camera_pose=(0.5, 45.0, 0.0))
    bad_name = dataclasses.replace(inst, spec_name="other")
    assert not taskspec.instance_in_spec(spec, bad_pose)
    assert not taskspec.instance_in_spec(spec, bad_hue)
    assert not taskspec.instance_in_spec(spec, bad_cam)
    assert not taskspec.instance_in_spec(spec, bad_name)


def test_instance_to_dict_is_json_ready():
    spec = taskspec.parse(MINIMAL)
    inst = taskspec.sample_instance(spec, 2)
    obj = json.loads(json.dumps(taskspec.instance_to_dict(inst)))
    assert obj["spec_name"] == "t"
    assert obj["seed"] == 2
    assert len(obj["camera_pose"]) == 3
    assert obj["receptacle_pose"] is None


def test_serialize_quotes_special_characters():
    spec = taskspec.parse_file(VALID_DIR / "escapes.mlspec")
    assert spec.name == 'escapes "quoted"'
    assert "\n" in spec.instruction
    text = taskspec.serialize(spec)
    assert taskspec.parse(text) == spec
