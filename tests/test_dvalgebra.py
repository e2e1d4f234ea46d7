from __future__ import annotations

import json
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvcurate import dvalgebra as dva
from dvcurate import metadata
from dvcurate.dvalgebra import CaseLabel
from dvcurate.errors import EmptyDataset, KindMismatch

from conftest import (
    bin_camera_pos,
    make_record,
    slab_boxes_covered,
    slab_union_measure_2d,
    slab_union_measure_3d,
)


# ---------------------------------------------------------------------------
# support construction

def test_support_kinds_and_validation():
    assert dva.discrete_support(["a", "b", "a"]).elements == frozenset({"a", "b"})
    assert dva.boxes2d_support([(0, 0, 1, 1)]).kind == "interval2d"
    assert dva.boxes3d_support([(0, 0, 0, 1, 1, 1)]).kind == "interval3d"
    assert dva.angular_support([(30, -15, 60, 15)]).kind == "angular"
    assert dva.discrete_support([]).is_empty()
    with pytest.raises(ValueError, match="unknown support kind"):
        dva.DVSupport("blob", frozenset())
    with pytest.raises(ValueError, match="must be strings"):
        dva.DVSupport("discrete", frozenset({1}))
    with pytest.raises(ValueError, match="needs 4 numbers"):
        dva.DVSupport("interval2d", frozenset({(0.0, 0.0, 1.0)}))
    with pytest.raises(ValueError, match="inverted bounds"):
        dva.boxes2d_support([(1.0, 0.0, 0.0, 1.0)])


# ---------------------------------------------------------------------------
# exact union measure, against a unit-grid oracle on integer boxes

def _grid_area(boxes):
    total = 0
    for i in range(8):
        for j in range(8):
            x, y = i + 0.5, j + 0.5
            if any(b[0] <= x <= b[2] and b[1] <= y <= b[3] for b in boxes):
                total += 1
    return float(total)


def _grid_volume(boxes):
    total = 0
    for i in range(6):
        for j in range(6):
            for k in range(6):
                p = (i + 0.5, j + 0.5, k + 0.5)
                if any(b[0] <= p[0] <= b[3] and b[1] <= p[1] <= b[4]
                       and b[2] <= p[2] <= b[5] for b in boxes):
                    total += 1
    return float(total)


def _int_boxes_2d(max_coord=8):
    coord = st.integers(0, max_coord)
    box = st.tuples(coord, coord, coord, coord).map(
        lambda b: (min(b[0], b[2]), min(b[1], b[3]), max(b[0], b[2]), max(b[1], b[3])))
    return st.lists(box, min_size=0, max_size=5)


def _int_boxes_3d(max_coord=6):
    coord = st.integers(0, max_coord)
    box = st.tuples(coord, coord, coord, coord, coord, coord).map(
        lambda b: (min(b[0], b[3]), min(b[1], b[4]), min(b[2], b[5]),
                   max(b[0], b[3]), max(b[1], b[4]), max(b[2], b[5])))
    return st.lists(box, min_size=0, max_size=4)


@given(_int_boxes_2d())
@settings(max_examples=300)
def test_union_area_matches_grid_oracle(boxes):
    assert dva.union_measure_2d(boxes) == _grid_area(boxes)


@given(_int_boxes_3d())
@settings(max_examples=200)
def test_union_volume_matches_grid_oracle(boxes):
    assert dva.union_measure_3d(boxes) == _grid_volume(boxes)


def test_union_measure_frozen_values():
    assert dva.union_measure_2d([(0, 0, 2, 2), (1, 1, 3, 3)]) == 7.0
    assert dva.union_measure_2d([(0, 0, 1, 1), (2, 0, 3, 1)]) == 2.0
    assert dva.union_measure_2d([(0, 0, 4, 4), (1, 1, 2, 2)]) == 16.0
    assert dva.union_measure_2d([(0, 0, 0, 5), (1, 2, 1, 9)]) == 0.0
    assert dva.union_measure_3d([(0, 0, 0, 2, 2, 2), (1, 1, 1, 3, 3, 3)]) == 15.0
    assert dva.union_measure_3d([]) == 0.0


def test_support_size_per_kind():
    assert dva.support_size(dva.discrete_support({"x", "y", "z"})) == 3.0
    assert dva.support_size(dva.boxes2d_support([(0, 0, 2, 3)])) == 6.0
    assert dva.support_size(dva.boxes3d_support([(0, 0, 0, 1, 2, 3)])) == 6.0
    assert dva.support_size(dva.angular_support([(40, -10, 50, 10)])) == 200.0


# ---------------------------------------------------------------------------
# exact containment, against a half-lattice oracle on integer boxes

def _lattice_covered_2d(targets, covers, max_coord=8):
    pts = [v / 2.0 for v in range(2 * max_coord + 1)]
    for x in pts:
        for y in pts:
            in_t = any(b[0] <= x <= b[2] and b[1] <= y <= b[3] for b in targets)
            in_c = any(b[0] <= x <= b[2] and b[1] <= y <= b[3] for b in covers)
            if in_t and not in_c:
                return False
    return True


def _lattice_covered_3d(targets, covers, max_coord=6):
    pts = [v / 2.0 for v in range(2 * max_coord + 1)]
    for x in pts:
        for y in pts:
            for z in pts:
                in_t = any(b[0] <= x <= b[3] and b[1] <= y <= b[4]
                           and b[2] <= z <= b[5] for b in targets)
                in_c = any(b[0] <= x <= b[3] and b[1] <= y <= b[4]
                           and b[2] <= z <= b[5] for b in covers)
                if in_t and not in_c:
                    return False
    return True


@given(_int_boxes_2d(), _int_boxes_2d())
@settings(max_examples=300)
def test_containment_2d_matches_lattice_oracle(targets, covers):
    assert dva.boxes_covered(targets, covers, dims=2) == _lattice_covered_2d(targets, covers)


@given(_int_boxes_3d(), _int_boxes_3d())
@settings(max_examples=150, deadline=None)
def test_containment_3d_matches_lattice_oracle(targets, covers):
    assert dva.boxes_covered(targets, covers, dims=3) == _lattice_covered_3d(targets, covers)


def test_containment_closed_set_semantics():
    # two abutting closed covers tile the target with no crack at the seam
    assert dva.boxes_covered([(0, 0, 2, 1)], [(0, 0, 1, 1), (1, 0, 2, 1)], dims=2)
    # a degenerate (line) target can be covered by a degenerate cover
    assert dva.boxes_covered([(0, 0, 0, 1)], [(0, -1, 0, 2)], dims=2)
    # shaving any interior strip off breaks coverage
    assert not dva.boxes_covered([(0, 0, 2, 1)], [(0, 0, 0.9, 1), (1.1, 0, 2, 1)], dims=2)


def test_is_aligned_semantics():
    small = dva.boxes2d_support([(1, 1, 2, 2)])
    big = dva.boxes2d_support([(0, 0, 3, 3)])
    assert dva.is_aligned(small, big)
    assert not dva.is_aligned(big, small)
    assert dva.is_aligned(dva.boxes2d_support([]), small)
    assert dva.is_aligned(dva.discrete_support({"a"}), dva.discrete_support({"a", "b"}))
    assert not dva.is_aligned(dva.discrete_support({"a", "c"}), dva.discrete_support({"a", "b"}))
    with pytest.raises(KindMismatch):
        dva.is_aligned(small, dva.discrete_support({"a"}))


# ---------------------------------------------------------------------------
# the compressed-coordinate sweep against the slab-sweep oracles on float boxes

def _centers(dims, lo, hi, step):
    """Lists of box centers whose coordinates are lattice points (so that
    duplicates, shared faces and shared sweep events occur) or arbitrary floats."""
    coord = st.one_of(st.integers(int(lo / step), int(hi / step)).map(lambda k: k * step),
                      st.floats(lo, hi, allow_nan=False))
    return st.lists(st.tuples(*[coord] * dims), min_size=0, max_size=40)


def _cubes(centers, cell=dva.DILATION_CELL_DEFAULT):
    return [dva._dilate3(c, cell) for c in centers]


def _windows(centers, side=dva.ANGULAR_CELL_DEFAULT):
    h = side / 2.0
    return [(t - h, p - h, t + h, p + h) for t, p in centers]


_profile_cubes = _centers(3, 0.0, 0.1, 0.01).map(_cubes)
_angular_windows = _centers(2, 0.0, 20.0, 1.0).map(_windows)


def _f32(boxes):
    """Boxes with their bounds rounded to float32.  The oracles walk each cell
    at its midpoint; between two float64 bounds one ulp apart the midpoint
    rounds onto a bound and the oracles miss the gap (see
    test_containment_sees_a_gap_of_one_ulp).  Between float32 values the
    float64 midpoint is exact, and near-coincident faces still coincide."""
    return [tuple(float(np.float32(v)) for v in b) for b in boxes]


def _arbitrary_boxes(dims):
    """Boxes over a few shared coordinates and arbitrary floats, including
    boxes of zero extent along one or more axes."""
    coord = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]),
                      st.floats(0.0, 1.5, allow_nan=False, width=32))
    box = st.tuples(*[coord] * (2 * dims)).map(
        lambda b: tuple(min(b[d], b[d + dims]) for d in range(dims))
        + tuple(max(b[d], b[d + dims]) for d in range(dims)))
    return st.lists(box, min_size=0, max_size=12)


def _agree(got, want):
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


# The sweep runs on one grid, or cuts the boxes in two while the grid would
# exceed _GRID_CELLS.  At 9 cells, the least that lets the cuts end, the small
# inputs here are cut down to a few bounds per axis.
_cut_small = mock.patch.object(dva, "_GRID_CELLS", 9)


def _agree_in_both_modes(measure, oracle, boxes):
    want = oracle(boxes)
    _agree(measure(boxes), want)
    with _cut_small:
        _agree(measure(boxes), want)


def _covered_in_both_modes(targets, covers, dims):
    want = slab_boxes_covered(targets, covers, dims=dims)
    assert dva.boxes_covered(targets, covers, dims=dims) == want
    with _cut_small:
        assert dva.boxes_covered(targets, covers, dims=dims) == want


@given(_profile_cubes)
@settings(max_examples=150, deadline=None)
def test_sweep_volume_matches_slab_oracle_on_profile_cubes(boxes):
    _agree_in_both_modes(dva.union_measure_3d, slab_union_measure_3d, boxes)


@given(_angular_windows)
@settings(max_examples=150, deadline=None)
def test_sweep_area_matches_slab_oracle_on_angular_windows(windows):
    _agree_in_both_modes(dva.union_measure_2d, slab_union_measure_2d, windows)


@given(_arbitrary_boxes(3))
@settings(max_examples=150, deadline=None)
def test_sweep_volume_matches_slab_oracle_on_arbitrary_boxes(boxes):
    _agree_in_both_modes(dva.union_measure_3d, slab_union_measure_3d, boxes)


@given(_profile_cubes, _profile_cubes)
@settings(max_examples=150, deadline=None)
def test_sweep_containment_matches_oracle_on_profile_cubes(targets, covers):
    targets, covers = _f32(targets), _f32(covers)
    # the targets are also tried against covers that hold half of them, so
    # both answers occur
    for cover_set in (covers, covers + targets[::2]):
        _covered_in_both_modes(targets, cover_set, dims=3)


@given(_angular_windows, _angular_windows)
@settings(max_examples=150, deadline=None)
def test_sweep_containment_matches_oracle_on_angular_windows(targets, covers):
    targets, covers = _f32(targets), _f32(covers)
    for cover_set in (covers, covers + targets[1::2]):
        _covered_in_both_modes(targets, cover_set, dims=2)


@given(_arbitrary_boxes(2), _arbitrary_boxes(2))
@settings(max_examples=300, deadline=None)
def test_sweep_containment_matches_oracle_on_arbitrary_2d_boxes(targets, covers):
    _covered_in_both_modes(targets, covers, dims=2)


@given(_arbitrary_boxes(3), _arbitrary_boxes(3))
@settings(max_examples=300, deadline=None)
def test_sweep_containment_matches_oracle_on_arbitrary_3d_boxes(targets, covers):
    _covered_in_both_modes(targets, covers, dims=3)


def test_containment_sees_a_gap_of_one_ulp():
    # closed covers [0, a] and [b, 1], with b the float after a, leave the
    # open interval (a, b) of the target bare
    a = 0.5
    b = math.nextafter(a, 1.0)
    target = [(0.0, 0.0, 1.0, 1.0)]
    assert not dva.boxes_covered(target, [(0.0, 0.0, a, 1.0), (b, 0.0, 1.0, 1.0)], dims=2)
    assert dva.boxes_covered(target, [(0.0, 0.0, b, 1.0), (a, 0.0, 1.0, 1.0)], dims=2)


@given(_profile_cubes, _angular_windows, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_size_does_not_depend_on_box_order(cubes, windows, rnd):
    for boxes, measure in ((cubes, dva.union_measure_3d), (windows, dva.union_measure_2d)):
        shuffled = list(boxes)
        rnd.shuffle(shuffled)
        assert measure(shuffled) == measure(boxes) == measure(frozenset(boxes))
        # cut, the halves come from the distinct bounds and sum in coordinate order
        with _cut_small:
            assert measure(shuffled) == measure(boxes) == measure(frozenset(boxes))


def test_size_does_not_depend_on_box_order_when_events_share_a_cell():
    # cubes on a coarse x lattice with float y and z: many events share an x
    # cell, and a row's length must not depend on which of them came first
    rng = np.random.default_rng(7)
    for _ in range(50):
        centers = rng.uniform(0.0, 0.1, size=(30, 3))
        centers[:, 0] = np.round(centers[:, 0] * 50) / 50
        boxes = _cubes(centers.tolist())
        shuffled = [boxes[k] for k in rng.permutation(len(boxes))]
        assert dva.union_measure_3d(shuffled) == dva.union_measure_3d(boxes)


def test_desk_scale_volume_is_exact_and_fast():
    # 800 profile cubes packed into a 0.1 m cube: every x slab crosses
    # hundreds of boxes, which made the slab sweep take seconds
    rng = np.random.default_rng(800)
    boxes = _cubes(rng.uniform(0.0, 0.1, size=(800, 3)).tolist())
    elapsed = []
    for _ in range(2):
        start = time.perf_counter()
        got = dva.union_measure_3d(boxes)
        elapsed.append(time.perf_counter() - start)
    _agree(got, slab_union_measure_3d(boxes))
    assert min(elapsed) < 1.5, f"800 cubes took {min(elapsed):.2f} s"


def test_thousands_of_sparse_cubes_take_little_memory():
    # 3000 profile cubes scattered over a 2 m workspace, against covers that
    # hold all of them but one, and then all of them.  One grid over the
    # closed cells of all 9000 boxes would hold about (4 * 9000)^2 int32
    # counts, gigabytes; the cut grids hold at most _GRID_CELLS each.
    rng = np.random.default_rng(3000)
    targets = _cubes(rng.uniform(0.0, 2.0, size=(3000, 3)).tolist())
    covers = _cubes(rng.uniform(0.0, 2.0, size=(3000, 3)).tolist()) + targets[1:]
    calls = [
        lambda: dva.union_measure_3d(targets),
        lambda: dva.boxes_covered(targets, covers, dims=3),
        lambda: dva.boxes_covered(targets, covers + targets[:1], dims=3),
    ]
    start = time.perf_counter()
    volume, partly, wholly = (call() for call in calls)
    elapsed = time.perf_counter() - start
    assert not partly and wholly
    assert volume == pytest.approx(3000 * 0.02 ** 3, rel=0.01)  # few overlaps
    assert elapsed < 5.0, f"3000 sparse cubes took {elapsed:.2f} s"
    tracemalloc.start()
    try:
        for call in calls:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, f"peak {peak / 1e6:.0f} MB"


# ---------------------------------------------------------------------------
# diversity ratio and the four cases

def _unit_boxes(n, gap=2.0):
    return [(i * gap, 0.0, i * gap + 1.0, 1.0) for i in range(n)]


def test_four_cases():
    target = dva.boxes2d_support([(100.0, 0.0, 101.0, 1.0)])
    # same measure, disjoint: neither diverse nor aligned
    case1 = dva.boxes2d_support(_unit_boxes(1))
    # five times the measure, still disjoint from the target
    case2 = dva.boxes2d_support(_unit_boxes(5))
    # five times the measure and containing the target
    case3 = dva.boxes2d_support(_unit_boxes(4) + [(99.5, -0.5, 101.5, 1.5)])
    # same support exactly: aligned but not diverse
    case4 = target
    assert dva.classify_case(target, case1) == CaseLabel.NOT_DIVERSE_MISALIGNED
    assert dva.classify_case(target, case2) == CaseLabel.DIVERSE_MISALIGNED
    assert dva.classify_case(target, case3) == CaseLabel.DIVERSE_ALIGNED
    assert dva.classify_case(target, case4) == CaseLabel.NOT_DIVERSE_ALIGNED


def test_diversity_threshold_is_inclusive():
    target = dva.discrete_support({"t"})
    exactly_five = dva.discrete_support({"a", "b", "c", "d", "e"})
    four = dva.discrete_support({"a", "b", "c", "d"})
    assert dva.classify_case(target, exactly_five) == CaseLabel.DIVERSE_MISALIGNED
    assert dva.classify_case(target, four) == CaseLabel.NOT_DIVERSE_MISALIGNED
    with_target = dva.discrete_support({"t", "a", "b", "c", "d"})
    assert dva.classify_case(target, with_target) == CaseLabel.DIVERSE_ALIGNED
    assert dva.classify_case(target, with_target, rho=6.0) == CaseLabel.NOT_DIVERSE_ALIGNED


def test_zero_target_conventions():
    empty = dva.discrete_support(set())
    some = dva.discrete_support({"a"})
    assert dva.classify_case(empty, some) == CaseLabel.DIVERSE_ALIGNED
    assert dva.classify_case(empty, empty) == CaseLabel.NOT_DIVERSE_ALIGNED
    with pytest.raises(ValueError, match="rho"):
        dva.classify_case(some, some, rho=1.0)


# ---------------------------------------------------------------------------
# dataset profiles

def _profile_corpus():
    a = make_record(rid="a", lab="lab1", instructions=("pick up the mug",),
                    obj_pos=(0.2, 0.0, 0.02), place_pos=(0.3, 0.2, 0.05))
    b = make_record(rid="b", lab="lab2", instructions=("put the pen in the cup",),
                    camera_pos=tuple(bin_camera_pos("agent-left")),
                    obj_pos=(0.5, 0.1, 0.02), place_pos=(-0.2, 0.3, 0.05))
    b = metadata.annotate_record(b, annotator=metadata.OfflineColorTable({"b": "crimson"}))
    c = make_record(rid="c", lab="lab1", instructions=("do the thing",),
                    close_at=200, release_at=None)
    return [a, b, c]


def test_profile_dataset_supports():
    prof = dva.profile_dataset(_profile_corpus())
    assert prof.demo_count == 3
    assert set(prof.dvs) == set(dva.DV_NAMES)
    assert prof.dvs["camPose"].elements == frozenset({"agent-front", "agent-left"})
    assert prof.dvs["objTex"].elements == frozenset({"red"})
    assert prof.dvs["tableTex"].is_empty()
    assert prof.dvs["motion"].elements == frozenset({"pick", "place"})
    assert prof.dvs["scene"].elements == frozenset({"lab1", "lab2"})
    # records a and b contribute one dilated cube each; c never closes
    assert len(prof.dvs["objSpat"].elements) == 2
    assert dva.support_size(prof.dvs["objSpat"]) == pytest.approx(2 * 0.02 ** 3)
    assert len(prof.dvs["recepSpat"].elements) == 2
    # a and c share a camera pose, so two distinct angular windows remain
    assert len(prof.campose_windows.elements) == 2
    assert dva.support_size(prof.campose_windows) == pytest.approx(8.0)


def test_profile_respects_existing_annotations():
    rec = make_record(rid="x", obj_pos=(0.2, 0.0, 0.02))
    moved = metadata.parse_record(metadata.record_to_dict(rec) | {
        "annotations": {"target_object": "mug", "object_position": [9.0, 9.0, 9.0],
                        "object_color": "green", "camera_bin": "shoulder-left"}})
    prof = dva.profile_dataset([moved])
    assert prof.dvs["camPose"].elements == frozenset({"shoulder-left"})
    assert prof.dvs["objTex"].elements == frozenset({"green"})
    box = next(iter(prof.dvs["objSpat"].elements))
    assert box[0] == pytest.approx(9.0 - 0.01)


def test_profile_empty_corpus_rejected():
    with pytest.raises(EmptyDataset):
        dva.profile_dataset([])
    with pytest.raises(EmptyDataset):
        dva.profile_dataset(iter([]))


def test_profile_streams_a_one_shot_generator(monkeypatch):
    monkeypatch.setattr(dva, "_PROFILE_BATCH", 2)
    records = _profile_corpus()
    events = []

    def stream():
        for rec in records:
            events.append(f"read {rec.id}")
            yield rec

    release_position = metadata.extract_release_position

    def profiled(steps):
        events.append("profiled")
        return release_position(steps)

    with mock.patch.object(metadata, "extract_release_position", profiled):
        prof = dva.profile_dataset(stream())
    assert events == ["read a", "read b", "profiled", "profiled", "read c", "profiled"]
    whole = dva.profile_dataset(records)
    assert (prof.dvs, prof.campose_windows, prof.demo_count) == \
        (whole.dvs, whole.campose_windows, whole.demo_count)


def test_merge_profiles_matches_concatenation():
    records = _profile_corpus()
    merged = dva.merge_profiles(dva.profile_dataset(records[:1]),
                                dva.profile_dataset(records[1:]))
    whole = dva.profile_dataset(records)
    assert merged.demo_count == whole.demo_count
    for name in dva.DV_NAMES:
        assert merged.dvs[name] == whole.dvs[name]
    assert merged.campose_windows == whole.campose_windows


def test_profile_roundtrip_and_report(tmp_path):
    prof = dva.profile_dataset(_profile_corpus())
    path = tmp_path / "profile.json"
    dva.save_profile(path, prof)
    back = dva.load_profile(path)
    assert back.demo_count == prof.demo_count
    for name in dva.DV_NAMES:
        assert back.dvs[name] == prof.dvs[name]
    report = dva.profile_report(prof)
    for name in dva.DV_NAMES:
        assert name in report
    assert "demos: 3" in report


def test_classify_profiled_datasets_end_to_end():
    # a narrow target corpus against a spatially spread co-training corpus
    target = [make_record(rid=f"t{i}", obj_pos=(0.2, 0.0, 0.02)) for i in range(3)]
    spread = [make_record(rid=f"c{i}", obj_pos=(0.1 * i - 0.3, 0.05 * i, 0.02))
              for i in range(8)]
    pt = dva.profile_dataset(target)
    pc = dva.profile_dataset(spread + target)
    label = dva.classify_case(pt.dvs["objSpat"], pc.dvs["objSpat"])
    assert label == CaseLabel.DIVERSE_ALIGNED
    label2 = dva.classify_case(pt.dvs["objSpat"], dva.profile_dataset(spread).dvs["objSpat"])
    assert label2 == CaseLabel.DIVERSE_MISALIGNED


def test_supports_reject_non_finite_bounds(tmp_path):
    nan, inf = float("nan"), float("inf")
    with pytest.raises(ValueError, match="non-finite"):
        dva.boxes3d_support([(0.0, 0.0, nan, 1.0, 1.0, 1.0)])
    with pytest.raises(ValueError, match="non-finite"):
        dva.angular_support([(0.0, -inf, 1.0, 1.0)])
    # a profile file read from outside the program: json accepts NaN
    prof = dva.profile_to_dict(dva.profile_dataset(_profile_corpus()))
    prof["dvs"]["objSpat"]["elements"][0][2] = nan
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(prof), encoding="utf-8")
    with pytest.raises(ValueError, match="non-finite"):
        dva.load_profile(path)
