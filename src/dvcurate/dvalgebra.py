"""Per-DV support algebra: measure, alignment, and four-case classification.

A DVSupport is a set-valued measurement of one dimension of variation:
planar boxes (m²), volumetric boxes (m³), angular windows (deg², a solid-angle
proxy), or a discrete label set.  Diversity compares union measures through a
ratio threshold rho; alignment asks whether the target support is contained in
the co-training support.  Both are exact, with closed-set semantics, and both
run as one numpy sweep over compressed coordinates (2D boxes are lifted to
3D): union measure over the open cells between distinct bounds, containment
over closed cells that also give each bound a point cell of its own.  A large
box set is cut into pieces whose count grids stay small.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, groupby, islice
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import lexicon as lexmod
from . import metadata as metamod
from .errors import DVNotMeasured, EmptyDataset, KindMismatch

RHO_DEFAULT = 5.0
DILATION_CELL_DEFAULT = 0.02
ANGULAR_CELL_DEFAULT = 2.0
# Records that `profile_dataset` pulls from its stream at a time.  Reading and
# profiling records by turns, one at a time, took 4-10 % longer than reading
# the corpus whole first (curate corpora); 256 at a time took no longer.
_PROFILE_BATCH = 256

DV_NAMES = ("camPose", "objTex", "tableTex", "objSpat", "recepSpat", "motion", "scene")

_KINDS = ("interval2d", "interval3d", "angular", "discrete")
_BOX_ARITY = {"interval2d": 4, "interval3d": 6, "angular": 4}


class CaseLabel(str, Enum):
    """The four target/co-training composition cases, in canonical order."""

    NOT_DIVERSE_MISALIGNED = "not_diverse_misaligned"
    DIVERSE_MISALIGNED = "diverse_misaligned"
    DIVERSE_ALIGNED = "diverse_aligned"
    NOT_DIVERSE_ALIGNED = "not_diverse_aligned"


@dataclass(frozen=True)
class DVSupport:
    kind: str
    elements: frozenset

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown support kind {self.kind!r}")
        object.__setattr__(self, "elements", frozenset(self.elements))
        if self.kind == "discrete":
            if not all(isinstance(e, str) for e in self.elements):
                raise ValueError("discrete support elements must be strings")
            return
        arity = _BOX_ARITY[self.kind]
        dims = arity // 2
        for box in self.elements:
            if len(box) != arity:
                raise ValueError(f"{self.kind} element needs {arity} numbers, got {box!r}")
            if not all(map(math.isfinite, box)):
                raise ValueError(f"non-finite bound in {self.kind} element {box!r}")
            for d in range(dims):
                if box[d] > box[d + dims]:
                    raise ValueError(f"inverted bounds in {self.kind} element {box!r}")

    def is_empty(self) -> bool:
        return not self.elements


def discrete_support(labels) -> DVSupport:
    return DVSupport("discrete", frozenset(labels))


def boxes2d_support(boxes) -> DVSupport:
    return DVSupport("interval2d", frozenset(tuple(float(v) for v in b) for b in boxes))


def boxes3d_support(boxes) -> DVSupport:
    return DVSupport("interval3d", frozenset(tuple(float(v) for v in b) for b in boxes))


def angular_support(windows) -> DVSupport:
    return DVSupport("angular", frozenset(tuple(float(v) for v in w) for w in windows))


# ---------------------------------------------------------------------------
# exact box-union algebra: one sweep over compressed coordinates

# A sweep keeps int32 counts over the cells of its two grid axes.  A box set
# whose grid would exceed this many cells is cut in two at the median bound of
# its longer grid axis, and each half is swept on its own, so memory follows
# the local density of the boxes rather than the square of their number.  The
# cuts end for any cap of at least 9, the closed grid of two bounds per axis.
_GRID_CELLS = 1 << 16


def _bounds(boxes, dims: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) corner arrays of shape (n, 3).

    A 2D box is lifted to a 3D one with z extent [0, 1], which keeps its area
    as a volume and its closed cells as cells.
    """
    b = np.fromiter(chain.from_iterable(boxes), dtype=float).reshape(-1, 2 * dims)
    lo, hi = b[:, :dims], b[:, dims:]
    if dims == 2:
        lo = np.column_stack((lo, np.zeros(len(b))))
        hi = np.column_stack((hi, np.ones(len(b))))
    return lo, hi


def _axes(lo, hi, closed: bool):
    """The distinct bounds of each axis, as (axis, bounds) in sweep order.

    The axes are renamed x, y, z by their number of distinct bounds: fewest
    first over open cells (the measure), so that many events share an x
    cell, and most first over closed cells (containment), so that a bare
    cell is met early.  y and z are the grid axes.
    """
    axes = [(a, np.unique(np.concatenate((lo[:, a], hi[:, a])))) for a in range(3)]
    axes.sort(key=lambda axis: len(axis[1]), reverse=closed)
    return axes


def _cut_plane(axes, closed: bool):
    """None if the sweep's grid fits in _GRID_CELLS, else (axis, coordinate)
    of the plane at the median bound of the longer grid axis."""
    (_, ys), (_, zs) = axes[1:]
    ny, nz = (2 * len(ys) - 1, 2 * len(zs) - 1) if closed else (len(ys) - 1, len(zs) - 1)
    if ny * nz <= _GRID_CELLS:
        return None
    a, c = max(axes[1:], key=lambda axis: len(axis[1]))
    return a, c[len(c) // 2]


def _halves(lo, hi, a: int, s: float, closed: bool):
    """The boxes on each side of the plane x_a = s, clipped to that side.

    Over closed cells a box that touches the plane goes to both sides; over
    open cells a box goes to a side only if it has volume there.
    """
    below = lo[:, a] <= s if closed else lo[:, a] < s
    above = hi[:, a] >= s if closed else hi[:, a] > s
    lo_below, hi_below = lo[below], hi[below]
    lo_above, hi_above = lo[above], hi[above]
    hi_below[:, a] = np.minimum(hi_below[:, a], s)
    lo_above[:, a] = np.maximum(lo_above[:, a], s)
    return (lo_below, hi_below), (lo_above, hi_above)


def _sweep(lo, hi, axes, closed: bool):
    """Compressed coordinates of n boxes, for a sweep along axes[0].

    Open cells are the gaps between neighbouring bounds.  Closed cells add a
    point cell at every bound: cell 2i is bound i and cell 2i + 1 the gap
    after it, so the closed box [c_a, c_b] holds cells 2a .. 2b, and a box of
    zero extent still holds one.  Every box holds all or none of a cell.
    Returns the events in x-cell order as (cell, j) pairs, where box j enters
    at j < n and box j - n leaves, and each box's (y start, y stop, z start,
    z stop) block.
    """
    cells = []
    for a, c in axes:
        start, stop = np.searchsorted(c, lo[:, a]), np.searchsorted(c, hi[:, a])
        if closed:
            start, stop = 2 * start, 2 * stop + 1
        cells.append((start, stop))
    (x0, x1), (y0, y1), (z0, z1) = cells
    at = np.concatenate((x0, x1))
    order = np.argsort(at)
    events = zip(at[order].tolist(), order.tolist())
    return events, np.column_stack((y0, y1, z0, z1)).tolist()


def _union_volume(lo, hi) -> float:
    """Volume of a union of boxes, by a sweep along x.

    A count per (y, z) cell holds how many boxes of the current x slab cover
    it, and `length` the covered z length of each y row.  The events of an x
    cell change only their own blocks of counts, and the lengths of the rows
    those blocks span are recomputed.  Each slab adds its width times
    dy @ length.  Every sum runs in coordinate order, so the volume depends
    on the set of boxes alone, not on the order they come in.
    """
    keep = (hi > lo).all(axis=1)
    lo, hi = lo[keep], hi[keep]
    n = len(lo)
    if not n:
        return 0.0
    axes = _axes(lo, hi, closed=False)
    plane = _cut_plane(axes, closed=False)
    if plane:
        return sum(_union_volume(*half) for half in _halves(lo, hi, *plane, closed=False))
    events, blocks = _sweep(lo, hi, axes, closed=False)
    (_, xs), (_, ys), (_, zs) = axes
    dy, dz = np.diff(ys), np.diff(zs)
    count = np.zeros((len(dy), len(dz)), dtype=np.int32)
    length = np.zeros(len(dy))
    xs = xs.tolist()
    total = area = 0.0
    prev = 0
    for cell, group in groupby(events, key=itemgetter(0)):
        total += (xs[cell] - xs[prev]) * area
        prev = cell
        ya, yb = len(dy), 0
        for _, j in group:
            i, sign = (j, 1) if j < n else (j - n, -1)
            y0, y1, z0, z1 = blocks[i]
            block = count[y0:y1, z0:z1]
            block += sign
            ya, yb = min(ya, y0), max(yb, y1)
        length[ya:yb] = (count[ya:yb] > 0) @ dz
        area = float(dy @ length)
    return total


def union_measure_2d(boxes) -> float:
    """Area of a union of (x0, y0, x1, y1) boxes; overlaps counted once."""
    return _union_volume(*_bounds(boxes, 2))


def union_measure_3d(boxes) -> float:
    """Volume of a union of (x0, y0, z0, x1, y1, z1) boxes."""
    return _union_volume(*_bounds(boxes, 3))


def _covered(tlo, thi, clo, chi) -> bool:
    """Whether the closed union of the target boxes lies in that of the covers.

    Only the parts of the covers inside the hull of the targets take part.
    The sweep runs over closed cells (see _sweep) and keeps per (y, z) cell
    the number of target and of cover boxes.  After the events of an x cell,
    the cells their blocks span are searched for one that holds a target but
    no cover, which makes the answer False; every other cell is as it was at
    the last x cell, where none was bare.
    """
    if not len(tlo):
        return True
    clo, chi = np.maximum(clo, tlo.min(axis=0)), np.minimum(chi, thi.max(axis=0))
    meet = (clo <= chi).all(axis=1)
    if not meet.any():
        return False
    clo, chi = clo[meet], chi[meet]
    lo, hi = np.vstack((tlo, clo)), np.vstack((thi, chi))
    n, n_targets = len(lo), len(tlo)
    axes = _axes(lo, hi, closed=True)
    plane = _cut_plane(axes, closed=True)
    if plane:
        return all(_covered(*targets, *covers) for targets, covers in
                   zip(_halves(tlo, thi, *plane, closed=True), _halves(clo, chi, *plane, closed=True)))
    events, blocks = _sweep(lo, hi, axes, closed=True)
    (_, ys), (_, zs) = axes[1:]
    targets, covers = np.zeros((2, 2 * len(ys) - 1, 2 * len(zs) - 1), dtype=np.int32)
    for _, group in groupby(events, key=itemgetter(0)):
        (ya, za), yb, zb = targets.shape, 0, 0
        for _, j in group:
            i, sign = (j, 1) if j < n else (j - n, -1)
            y0, y1, z0, z1 = blocks[i]
            block = (targets if i < n_targets else covers)[y0:y1, z0:z1]
            block += sign
            ya, yb, za, zb = min(ya, y0), max(yb, y1), min(za, z0), max(zb, z1)
        if ((targets[ya:yb, za:zb] > 0) & (covers[ya:yb, za:zb] == 0)).any():
            return False
    return True


def boxes_covered(target_boxes, cover_boxes, dims: int) -> bool:
    """Exact containment of one closed box union inside another (see _covered)."""
    return _covered(*_bounds(target_boxes, dims), *_bounds(cover_boxes, dims))


# ---------------------------------------------------------------------------
# support operations

def support_size(s: DVSupport) -> float:
    """Union measure for interval kinds, cardinality for discrete supports."""
    if s.kind == "discrete":
        return float(len(s.elements))
    if s.kind == "interval3d":
        return union_measure_3d(s.elements)
    return union_measure_2d(s.elements)


def is_aligned(target: DVSupport, cotrain: DVSupport) -> bool:
    """True iff every point of the target support lies in the co-training one."""
    if target.kind != cotrain.kind:
        raise KindMismatch(f"cannot compare {target.kind} with {cotrain.kind}")
    if target.is_empty():
        return True
    if target.kind == "discrete":
        return target.elements <= cotrain.elements
    dims = 3 if target.kind == "interval3d" else 2
    return boxes_covered(target.elements, cotrain.elements, dims)


class CaseMeasure(NamedTuple):
    """Both support sizes, the alignment, and the case they give."""

    target_size: float
    cotrain_size: float
    aligned: bool
    case: CaseLabel


def measure_case(target: DVSupport, cotrain: DVSupport, rho: float = RHO_DEFAULT) -> CaseMeasure:
    """Measure a target/co-training support pair once and classify it.

    Diverse means the co-training measure is at least rho times the target
    measure; a zero-measure target with positive co-training measure counts as
    diverse by convention.  Alignment is exact containment.
    """
    if rho <= 1.0:
        raise ValueError(f"rho must exceed 1, got {rho}")
    if target.kind != cotrain.kind:
        raise KindMismatch(f"cannot compare {target.kind} with {cotrain.kind}")
    size_t = support_size(target)
    size_c = support_size(cotrain)
    diverse = size_c > 0.0 if size_t == 0.0 else size_c >= rho * size_t
    aligned = is_aligned(target, cotrain)
    if diverse:
        case = CaseLabel.DIVERSE_ALIGNED if aligned else CaseLabel.DIVERSE_MISALIGNED
    else:
        case = CaseLabel.NOT_DIVERSE_ALIGNED if aligned else CaseLabel.NOT_DIVERSE_MISALIGNED
    return CaseMeasure(size_t, size_c, aligned, case)


def classify_case(target: DVSupport, cotrain: DVSupport, rho: float = RHO_DEFAULT) -> CaseLabel:
    """Diversity/alignment case of a target/co-training support pair (see measure_case)."""
    return measure_case(target, cotrain, rho).case


# ---------------------------------------------------------------------------
# dataset profiles

@dataclass
class DatasetProfile:
    """Measured per-DV supports of one corpus.

    `dvs` maps each DV name to its support; camPose is the discrete set of
    occupied camera bins, with the underlying continuous angular windows kept
    in `campose_windows`.
    """

    dvs: dict
    campose_windows: DVSupport
    demo_count: int


def _dilate3(p, cell: float) -> tuple:
    h = cell / 2.0
    return (p[0] - h, p[1] - h, p[2] - h, p[0] + h, p[1] + h, p[2] + h)


def profile_dataset(records, cell: float = DILATION_CELL_DEFAULT,
                    angular_cell: float = ANGULAR_CELL_DEFAULT,
                    table_center=(0.0, 0.0, 0.0)) -> DatasetProfile:
    """Measure every DV support over a corpus.

    Spatial supports are unions of per-record cells: each observed position is
    dilated into a cube of side `cell` (and each camera direction into an
    angular window of side `angular_cell` in degrees).  Camera bins, colors,
    motion labels, and lab names form discrete supports.  Records missing an
    annotation contribute nothing to that DV.  `records` is read once, as it
    is profiled, so a corpus is never held whole.
    """
    count = 0
    bins_set = set()
    windows = set()
    colors = set()
    obj_cells = set()
    recep_cells = set()
    motions = set()
    labs = set()
    half_ang = angular_cell / 2.0
    records = iter(records)
    while batch := list(islice(records, _PROFILE_BATCH)):
        count += len(batch)
        for rec in batch:
            ann = rec.annotations
            bin_label = ann.camera_bin if ann and ann.camera_bin else None
            if bin_label is None:
                bin_label = metamod.bin_camera_pose(rec.camera_pos, table_center)
            bins_set.add(bin_label)
            theta, phi = metamod.camera_angles(rec.camera_pos, table_center)
            windows.add((theta - half_ang, phi - half_ang, theta + half_ang, phi + half_ang))
            pos = ann.object_position if ann else None
            if pos is None:
                pos = metamod.extract_object_position(rec.steps)
            if pos is not None:
                obj_cells.add(_dilate3(pos, cell))
            release = metamod.extract_release_position(rec.steps)
            if release is not None:
                recep_cells.add(_dilate3(release, cell))
            if ann and ann.object_color:
                colors.add(ann.object_color)
            if rec.instructions:
                motions |= lexmod.motion_labels(rec.instructions)
            labs.add(rec.lab)
    if not count:
        raise EmptyDataset("cannot profile zero records")
    return DatasetProfile(
        dvs={
            "camPose": discrete_support(bins_set),
            "objTex": discrete_support(colors),
            "tableTex": discrete_support(set()),
            "objSpat": boxes3d_support(obj_cells),
            "recepSpat": boxes3d_support(recep_cells),
            "motion": discrete_support(motions),
            "scene": discrete_support(labs),
        },
        campose_windows=angular_support(windows),
        demo_count=count,
    )


# DVs read only from annotations a corpus may lack (object colors come from a
# color annotator; no annotator reports table textures), so an empty support
# means nothing was measured, not that the corpus does not vary.
_UNMEASURED_WHEN_EMPTY = {
    "objTex": "no record carries an object color",
    "tableTex": "no annotator reports table textures",
}


def measured_support(profile: DatasetProfile, dv: str) -> DVSupport:
    """The support of `dv` in `profile`; DVNotMeasured if the corpus never measured it."""
    support = profile.dvs[dv]
    if dv in _UNMEASURED_WHEN_EMPTY and support.is_empty():
        raise DVNotMeasured(dv, _UNMEASURED_WHEN_EMPTY[dv])
    return support


def merge_profiles(a: DatasetProfile, b: DatasetProfile) -> DatasetProfile:
    """Associative union of two profiles (profile of the concatenated corpus)."""
    dvs = {}
    for name in DV_NAMES:
        sa, sb = a.dvs[name], b.dvs[name]
        if sa.kind != sb.kind:
            raise KindMismatch(f"profile DV {name}: {sa.kind} vs {sb.kind}")
        dvs[name] = DVSupport(sa.kind, sa.elements | sb.elements)
    return DatasetProfile(
        dvs=dvs,
        campose_windows=DVSupport("angular", a.campose_windows.elements | b.campose_windows.elements),
        demo_count=a.demo_count + b.demo_count,
    )


def support_to_dict(s: DVSupport) -> dict:
    if s.kind == "discrete":
        elements = sorted(s.elements)
    else:
        elements = [list(b) for b in sorted(s.elements)]
    return {"kind": s.kind, "elements": elements, "size": support_size(s)}


def support_from_dict(d: dict) -> DVSupport:
    if d["kind"] == "discrete":
        return discrete_support(d["elements"])
    return DVSupport(d["kind"], frozenset(tuple(b) for b in d["elements"]))


def profile_to_dict(p: DatasetProfile) -> dict:
    return {
        "demo_count": p.demo_count,
        "dvs": {name: support_to_dict(p.dvs[name]) for name in DV_NAMES},
        "campose_windows": support_to_dict(p.campose_windows),
    }


def profile_from_dict(d: dict) -> DatasetProfile:
    return DatasetProfile(
        dvs={name: support_from_dict(d["dvs"][name]) for name in DV_NAMES},
        campose_windows=support_from_dict(d["campose_windows"]),
        demo_count=int(d["demo_count"]),
    )


def _as_dict(p) -> dict:
    return p if isinstance(p, dict) else profile_to_dict(p)


def profile_report(p) -> str:
    """Text summary of a DatasetProfile or of its profile_to_dict form."""
    d = _as_dict(p)
    lines = [f"demos: {d['demo_count']}"]
    for name in DV_NAMES:
        s = d["dvs"][name]
        shown = f"{int(s['size'])}" if s["kind"] == "discrete" else f"{s['size']:.6g}"
        lines.append(f"{name:<10} kind={s['kind']:<10} size={shown:<12} elements={len(s['elements'])}")
        if s["kind"] == "discrete" and s["elements"]:
            lines.append(f"{'':<10} labels: {', '.join(s['elements'])}")
    w = d["campose_windows"]
    lines.append(
        f"{'campose*':<10} kind={w['kind']:<10} size={w['size']:.6g}  elements={len(w['elements'])}"
        " (continuous angular windows)"
    )
    return "\n".join(lines)


def save_profile(path, p) -> None:
    """Write a DatasetProfile, or its profile_to_dict form, as JSON."""
    with metamod.overwrite(path, text=True) as fh:
        json.dump(_as_dict(p), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_profile(path) -> DatasetProfile:
    with open(path, encoding="utf-8") as fh:
        return profile_from_dict(json.load(fh))
