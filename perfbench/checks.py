"""Checks computed apart from the program.

Nothing here calls into `dvcurate`: every expected value comes from the
generator's own arrays and constants, the README's documented rules, or an
estimate made with numpy/scipy.  Each function returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

# README "Query format": default camera tolerance and object-region extent
CAMPOSE_TOL_DEFAULT = (0.20, 0.20, 0.10)
OBJSPAT_EXTENT_DEFAULT = (0.60, 0.60, 0.30)
# README "Record format": the five default camera bins and their windows
BINS = (("agent-front", 45.0, 0.0), ("agent-left", 45.0, 60.0), ("agent-right", 45.0, -60.0),
        ("shoulder-left", 45.0, 120.0), ("shoulder-right", 45.0, -120.0))
BIN_POLAR_HALF, BIN_AZIMUTH_HALF = 7.5, 15.0
UNBINNED = "unbinned"
BIN_MARGIN_DEG = 0.5
POSITION_TOL = 1e-9
# support measures: Karp-Luby estimate, tolerance in standard errors plus a
# relative floor for overlaps too small for any sample to land in
MEASURE_SAMPLES = 200_000
MEASURE_SIGMAS = 5.0
MEASURE_REL_FLOOR = 1e-4
# the sampler's target share: standard errors allowed
SHARE_SIGMAS = 5.0
# a diversity ratio within this factor of rho is not known by construction
RHO_MARGIN = 1.5
# closed-box comparisons in the alignment proofs keep this much room
GEOM_MARGIN = 1e-9


def mismatch(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {str(got)[:200]}, want {str(want)[:200]}"]


# ---------------------------------------------------------------------------
# retrieval

class ScanCorpus:
    """Column arrays of a corpus for linear-scan query evaluation.

    `camera` and `object` hold the floats of the corpus text (object rows of
    records without a position are NaN); `object_name` and `color` hold ""
    where the annotation is missing; `motion` maps each label to the records
    whose instructions carry it.
    """

    def __init__(self, ids, camera, obj, object_name, color, motion: dict):
        self.ids = np.asarray(ids, dtype=object)
        self.camera = np.asarray(camera, dtype=float)
        self.object = np.asarray(obj, dtype=float)
        self.object_name = np.asarray(object_name, dtype=object)
        self.color = np.asarray(color, dtype=object)
        self.motion = motion


def scan(corpus: ScanCorpus, q: dict) -> list[str]:
    """Ids matching query `q` (a dict from inputs.make_query), in corpus
    order, by the README's rules: every filter holds; boxes are closed,
    |p - c| <= half-width on every axis."""
    mask = np.ones(len(corpus.ids), dtype=bool)
    if q["include"] is not None:
        mask &= corpus.object_name == q["include"]
    if q["exclude"] is not None:
        mask &= (corpus.object_name != "") & (corpus.object_name != q["exclude"])
    if q["campose"] is not None:
        tol = np.asarray(q["tol"] or CAMPOSE_TOL_DEFAULT, dtype=float)
        mask &= np.all(np.abs(corpus.camera - np.asarray(q["campose"])) <= tol, axis=1)
    if q["objspat"] is not None:
        half = np.asarray(q["extent"] or OBJSPAT_EXTENT_DEFAULT, dtype=float) / 2.0
        with np.errstate(invalid="ignore"):
            mask &= np.all(np.abs(corpus.object - np.asarray(q["objspat"])) <= half, axis=1)
    if q["color"] is not None:
        mask &= corpus.color == q["color"]
    if q["motion"] is not None:
        any_label = np.zeros(len(corpus.ids), dtype=bool)
        for label in q["motion"]:
            if label in corpus.motion:
                any_label |= corpus.motion[label]
        mask &= any_label
    return corpus.ids[mask].tolist()


def query_result(corpus: ScanCorpus, q: dict, got: list) -> list[str]:
    want = scan(corpus, q)
    if got == want:
        return []
    missing = sorted(set(want) - set(got))[:3]
    extra = sorted(set(got) - set(want))[:3]
    return [f"query {q['text']}: {len(got)} ids, scan gives {len(want)} "
            f"(missing e.g. {missing}, extra e.g. {extra}, order differs: {not missing and not extra})"]


# ---------------------------------------------------------------------------
# sampler

def batch_draws(batch: list, pools: set, batch_size: int) -> list[str]:
    out = []
    if len(batch) != batch_size:
        out.append(f"batch holds {len(batch)} ids, want {batch_size}")
    stray = [i for i in batch if i not in pools]
    if stray:
        out.append(f"{len(stray)} ids from no pool, e.g. {stray[:3]}")
    return out


def target_share(in_target: int, draws: int, omega: float, target: set, cotrain: set) -> list[str]:
    """Share of draws whose id is in the target pool, against omega.

    A slot picks the target pool with probability omega, else the
    co-training pool, whose ids are target ids with probability
    |T & C| / |C|; the count is binomial."""
    p = omega + (1.0 - omega) * len(target & cotrain) / len(cotrain)
    share = in_target / draws
    sigma = math.sqrt(max(p * (1.0 - p), 0.0) / draws)
    if abs(share - p) <= SHARE_SIGMAS * sigma + 1e-12:
        return []
    return [f"target share {share:.6f} over {draws} draws, want {p:.6f} +- {SHARE_SIGMAS} x {sigma:.2e}"]


# ---------------------------------------------------------------------------
# generation and annotation

def _in_box(x, y, boxes) -> bool:
    return any(x0 <= x <= x1 and y0 <= y <= y1 for x0, y0, x1, y1 in boxes)


def _hue_in(h, lo, hi) -> bool:
    return lo <= h <= hi if lo <= hi else (h >= lo or h <= hi)


def instance_in_spec(spec: dict, inst, object_sv, table_jitter) -> list[str]:
    """Every sampled value inside the generating ranges of the spec dict."""
    out = []
    if not _in_box(*inst.object_pose, spec["region"]):
        out.append(f"object pose {inst.object_pose} outside {spec['region']}")
    if inst.receptacle_pose is None or not _in_box(*inst.receptacle_pose, spec["receptacle_region"]):
        out.append(f"receptacle pose {inst.receptacle_pose} outside {spec['receptacle_region']}")
    r, theta, phi = inst.camera_pose
    if not any(r0 <= r <= r1 and t0 <= theta <= t1 and p0 <= phi <= p1
               for r0, r1, t0, t1, p0, p1 in spec["camera"]):
        out.append(f"camera {inst.camera_pose} outside {spec['camera']}")
    h, s, v = inst.object_hsv
    (s0, s1), (v0, v1) = object_sv
    if not (_hue_in(h, *spec["hue"]) and s0 <= s <= s1 and v0 <= v <= v1):
        out.append(f"object hsv {inst.object_hsv} outside hue {spec['hue']} s {object_sv[0]} v {object_sv[1]}")
    if not all(lo <= x <= hi for x, (lo, hi) in zip(inst.table_hsv, table_jitter.values())):
        out.append(f"table hsv {inst.table_hsv} outside {table_jitter}")
    return out


def raster_in_spec(spec: dict, pixels: np.ndarray, object_sv, size: int) -> list[str]:
    if pixels.shape != (size, size, 3):
        return [f"raster shape {pixels.shape}, want {(size, size, 3)}"]
    h, s, v = pixels[..., 0], pixels[..., 1], pixels[..., 2]
    lo, hi = spec["hue"]
    h_ok = (h >= lo) & (h <= hi) if lo <= hi else (h >= lo) | (h <= hi)
    (s0, s1), (v0, v1) = object_sv
    ok = h_ok & (s >= s0) & (s <= s1) & (v >= v0) & (v <= v1)
    return [] if ok.all() else [f"{int((~ok).sum())} texture pixels outside the spec's HSV window"]


def expected_bin(theta: float, phi: float) -> tuple[str, float]:
    """README bin of a camera at polar `theta`, azimuth `phi` (degrees), and
    its distance in degrees from the nearest bin edge."""
    label, margin = UNBINNED, math.inf
    for name, t_c, p_c in BINS:
        dt = abs(theta - t_c)
        dp = abs((phi - p_c + 180.0) % 360.0 - 180.0)
        inside = dt <= BIN_POLAR_HALF and dp <= BIN_AZIMUTH_HALF
        if inside:
            label = name
            margin = min(margin, BIN_POLAR_HALF - dt, BIN_AZIMUTH_HALF - dp)
        else:
            margin = min(margin, max(dt - BIN_POLAR_HALF, dp - BIN_AZIMUTH_HALF))
    return label, margin


def annotation(rec_id: str, ann, want_object: str, want_color: str, want_position,
               camera_angles) -> list[str]:
    """One annotated record against the generator's choices."""
    if ann is None:
        return [f"{rec_id}: no annotations"]
    out = []
    if ann.target_object != want_object:
        out.append(f"{rec_id}: target object {ann.target_object!r}, want {want_object!r}")
    if ann.object_color != want_color:
        out.append(f"{rec_id}: color {ann.object_color!r}, want {want_color!r}")
    if ann.object_position is None or max(
            abs(a - b) for a, b in zip(ann.object_position, want_position)) > POSITION_TOL:
        out.append(f"{rec_id}: object position {ann.object_position}, want {want_position}")
    label, margin = expected_bin(*camera_angles)
    if margin < BIN_MARGIN_DEG:
        out.append(f"{rec_id}: camera angles {camera_angles} lie {margin:.3g} deg from a bin edge")
    elif ann.camera_bin != label:
        out.append(f"{rec_id}: camera bin {ann.camera_bin!r}, want {label!r}")
    return out


# ---------------------------------------------------------------------------
# support measures

def _equal_boxes(boxes) -> tuple[np.ndarray, np.ndarray]:
    """Centers and the common side of a set of equal axis-aligned boxes."""
    b = np.asarray(sorted(boxes), dtype=float)
    d = b.shape[1] // 2
    lo, hi = b[:, :d], b[:, d:]
    side = hi - lo
    if not np.allclose(side, side[0], rtol=1e-9, atol=0.0):
        raise ValueError("support boxes differ in size")
    return (lo + hi) / 2.0, side[0]


def union_estimate(boxes, rng, samples: int = MEASURE_SAMPLES) -> tuple[float, float]:
    """Karp-Luby estimate of the measure of a union of equal boxes, with its
    standard error: draw a box uniformly and a point uniformly inside it;
    the union measure is n * |box| * E[1 / (boxes holding the point)]."""
    if not boxes:
        return 0.0, 0.0
    centers, side = _equal_boxes(boxes)
    unit = centers / side
    tree = cKDTree(unit)
    pick = rng.integers(len(unit), size=samples)
    points = unit[pick] + rng.random((samples, unit.shape[1])) - 0.5
    cover = np.maximum(tree.query_ball_point(points, 0.5, p=np.inf, return_length=True), 1)
    weight = 1.0 / cover
    scale = len(unit) * float(np.prod(side))
    return scale * float(weight.mean()), scale * float(weight.std(ddof=1)) / math.sqrt(samples)


def measure(name: str, size: float, estimate: float, se: float) -> list[str]:
    if abs(size - estimate) <= MEASURE_SIGMAS * se + MEASURE_REL_FLOOR * estimate:
        return []
    return [f"{name}: measure {size:.6g}, estimate {estimate:.6g} +- {se:.2g}"]


# ---------------------------------------------------------------------------
# classification

CASES = {(False, False): "not_diverse_misaligned", (True, False): "diverse_misaligned",
         (True, True): "diverse_aligned", (False, True): "not_diverse_aligned"}


def discrete_case(target: set, cotrain: set, rho: float) -> str:
    diverse = len(cotrain) > 0 if not target else len(cotrain) >= rho * len(target)
    return CASES[(diverse, target <= cotrain)]


def diverse_by_margin(target_measure: float, cotrain_measure: float, rho: float) -> bool | None:
    """Diversity when the measure ratio is far from rho, else None."""
    if target_measure <= 0.0:
        return None
    ratio = cotrain_measure / target_measure
    if ratio >= rho * RHO_MARGIN:
        return True
    if ratio <= rho / RHO_MARGIN:
        return False
    return None


def _disjoint(target, cotrain) -> bool:
    """No target box meets any co-training box, with room to spare."""
    t = np.asarray(sorted(target), dtype=float)
    c = np.asarray(sorted(cotrain), dtype=float)
    d = t.shape[1] // 2
    apart = (t[:, None, :d] > c[None, :, d:] + GEOM_MARGIN) | (c[None, :, :d] > t[:, None, d:] + GEOM_MARGIN)
    return bool(apart.any(axis=2).all())


def _lattice_covers(target, cotrain, anchors) -> bool:
    """Every target box lies inside the union of the co-training boxes
    centered on a full grid of `anchors`, with room to spare on each axis.
    On a full grid the union of equal boxes is the product of the per-axis
    unions, so the test runs axis by axis."""
    centers, side = _equal_boxes(cotrain)
    anchors = np.asarray(anchors, dtype=float)
    near = cKDTree(centers).query(anchors, p=np.inf)[0]
    if not (near <= GEOM_MARGIN).all():
        return False
    axes = [np.unique(np.round(anchors[:, k], 9)) for k in range(anchors.shape[1])]
    if len(anchors) != math.prod(len(a) for a in axes):
        return False
    t = np.asarray(sorted(target), dtype=float)
    d = t.shape[1] // 2
    half = side / 2.0
    for k, grid in enumerate(axes):
        if len(grid) > 1 and np.diff(grid).max() > 2.0 * half[k] - GEOM_MARGIN:
            return False
        if (t[:, k] < grid[0] - half[k] + GEOM_MARGIN).any() or \
                (t[:, d + k] > grid[-1] + half[k] - GEOM_MARGIN).any():
            return False
    return True


def aligned_by_construction(target, cotrain, anchors=None) -> bool | None:
    """False when the supports are disjoint, True when a covering lattice of
    co-training boxes holds every target box, else None (not known)."""
    if not target:
        return True
    if not cotrain or _disjoint(target, cotrain):
        return False
    if anchors is not None and _lattice_covers(target, cotrain, anchors):
        return True
    return None
