"""Per-DV support algebra: measure, alignment, and four-case classification.

A DVSupport is a set-valued measurement of one dimension of variation:
planar boxes (m²), volumetric boxes (m³), angular windows (deg², a solid-angle
proxy), or a discrete label set.  Diversity compares union measures through a
ratio threshold rho; alignment asks whether the target support is contained in
the co-training support.  Both are exact: union measure via a slab sweep,
containment via per-box coordinate compression with representative points
(closed-set semantics throughout).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from . import lexicon as lexmod
from . import metadata as metamod
from .errors import EmptyDataset, KindMismatch, ZeroTargetSupport
from .geometry import spherical_about

RHO_DEFAULT = 5.0
DILATION_CELL_DEFAULT = 0.02
ANGULAR_CELL_DEFAULT = 2.0

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
# exact rectangle-union algebra

def _merged_length(intervals) -> float:
    """Total length of a union of 1D closed intervals."""
    total = 0.0
    cur0 = cur1 = None
    for a, b in sorted(intervals):
        if cur1 is None or a > cur1:
            if cur1 is not None:
                total += cur1 - cur0
            cur0, cur1 = a, b
        elif b > cur1:
            cur1 = b
    if cur1 is not None:
        total += cur1 - cur0
    return total


def union_measure_2d(boxes) -> float:
    """Area of a union of (x0, y0, x1, y1) boxes; overlaps counted once."""
    boxes = [b for b in boxes if b[2] > b[0] and b[3] > b[1]]
    if not boxes:
        return 0.0
    xs = sorted({b[0] for b in boxes} | {b[2] for b in boxes})
    total = 0.0
    for x0, x1 in zip(xs, xs[1:]):
        if x1 <= x0:
            continue
        xm = 0.5 * (x0 + x1)
        spans = [(b[1], b[3]) for b in boxes if b[0] <= xm <= b[2]]
        if spans:
            total += (x1 - x0) * _merged_length(spans)
    return total


def union_measure_3d(boxes) -> float:
    """Volume of a union of (x0, y0, z0, x1, y1, z1) boxes."""
    boxes = [b for b in boxes if b[3] > b[0] and b[4] > b[1] and b[5] > b[2]]
    if not boxes:
        return 0.0
    xs = sorted({b[0] for b in boxes} | {b[3] for b in boxes})
    total = 0.0
    for x0, x1 in zip(xs, xs[1:]):
        if x1 <= x0:
            continue
        xm = 0.5 * (x0 + x1)
        faces = [(b[1], b[2], b[4], b[5]) for b in boxes if b[0] <= xm <= b[3]]
        if faces:
            total += (x1 - x0) * union_measure_2d(faces)
    return total


def _axis_cells(lo: float, hi: float, cuts) -> list[tuple[float, float]]:
    """Elementary intervals of [lo, hi] split at interior cut coordinates."""
    if lo == hi:
        return [(lo, lo)]
    coords = {lo, hi}
    for c in cuts:
        if lo < c < hi:
            coords.add(c)
    xs = sorted(coords)
    return list(zip(xs, xs[1:]))


def _rep(a: float, b: float) -> float:
    return a if a == b else 0.5 * (a + b)


def _box_covered_2d(target, covers) -> bool:
    x0, y0, x1, y1 = target
    clipped = []
    for c in covers:
        cx0, cy0 = max(c[0], x0), max(c[1], y0)
        cx1, cy1 = min(c[2], x1), min(c[3], y1)
        if cx0 <= cx1 and cy0 <= cy1:
            if cx0 == x0 and cy0 == y0 and cx1 == x1 and cy1 == y1:
                return True
            clipped.append((cx0, cy0, cx1, cy1))
    if not clipped:
        return False
    xcells = _axis_cells(x0, x1, [v for c in clipped for v in (c[0], c[2])])
    ycells = _axis_cells(y0, y1, [v for c in clipped for v in (c[1], c[3])])
    for xa, xb in xcells:
        rx = _rep(xa, xb)
        cols = [c for c in clipped if c[0] <= rx <= c[2]]
        if not cols:
            return False
        for ya, yb in ycells:
            ry = _rep(ya, yb)
            if not any(c[1] <= ry <= c[3] for c in cols):
                return False
    return True


def _box_covered_3d(target, covers) -> bool:
    x0, y0, z0, x1, y1, z1 = target
    clipped = []
    for c in covers:
        cx0, cy0, cz0 = max(c[0], x0), max(c[1], y0), max(c[2], z0)
        cx1, cy1, cz1 = min(c[3], x1), min(c[4], y1), min(c[5], z1)
        if cx0 <= cx1 and cy0 <= cy1 and cz0 <= cz1:
            if (cx0, cy0, cz0, cx1, cy1, cz1) == (x0, y0, z0, x1, y1, z1):
                return True
            clipped.append((cx0, cy0, cz0, cx1, cy1, cz1))
    if not clipped:
        return False
    xcells = _axis_cells(x0, x1, [v for c in clipped for v in (c[0], c[3])])
    for xa, xb in xcells:
        rx = _rep(xa, xb)
        slab = [(c[1], c[2], c[4], c[5]) for c in clipped if c[0] <= rx <= c[3]]
        if not _box_covered_2d((y0, z0, y1, z1), slab):
            return False
    return True


def boxes_covered(target_boxes, cover_boxes, dims: int) -> bool:
    """Exact containment of one closed box union inside another."""
    check = _box_covered_2d if dims == 2 else _box_covered_3d
    return all(check(t, cover_boxes) for t in target_boxes)


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


def diversity_ratio(target: DVSupport, cotrain: DVSupport) -> float:
    """|S_C| / |S_T|; raises ZeroTargetSupport when the ratio diverges."""
    if target.kind != cotrain.kind:
        raise KindMismatch(f"cannot compare {target.kind} with {cotrain.kind}")
    size_t = support_size(target)
    size_c = support_size(cotrain)
    if size_t == 0.0:
        if size_c > 0.0:
            raise ZeroTargetSupport("target support has zero measure")
        return 0.0
    return size_c / size_t


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
                    table_center=(0.0, 0.0, 0.0),
                    bins=metamod.DEFAULT_CAMERA_BINS,
                    lexicon=None) -> DatasetProfile:
    """Measure every DV support over a corpus.

    Spatial supports are unions of per-record cells: each observed position is
    dilated into a cube of side `cell` (and each camera direction into an
    angular window of side `angular_cell` in degrees).  Camera bins, colors,
    motion labels, and lab names form discrete supports.  Records missing an
    annotation contribute nothing to that DV.
    """
    records = list(records)
    if not records:
        raise EmptyDataset("cannot profile zero records")
    bins_set = set()
    windows = set()
    colors = set()
    obj_cells = set()
    recep_cells = set()
    motions = set()
    labs = set()
    half_ang = angular_cell / 2.0
    for rec in records:
        ann = rec.annotations
        bin_label = ann.camera_bin if ann and ann.camera_bin else None
        if bin_label is None:
            bin_label = metamod.bin_camera_pose(rec.camera_pos, table_center, bins)
        bins_set.add(bin_label)
        _, theta, phi = spherical_about(rec.camera_pos, table_center)
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
            motions |= lexmod.motion_labels(rec.instructions, lexicon)
        labs.add(rec.lab)
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
        demo_count=len(records),
    )


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_as_dict(p), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_profile(path) -> DatasetProfile:
    with open(path, encoding="utf-8") as fh:
        return profile_from_dict(json.load(fh))
