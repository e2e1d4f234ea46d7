"""Indexed DV-aligned retrieval over annotated corpora.

Queries are conjunctions of per-DV filters with closed (inclusive) boundary
semantics: camera position within per-axis tolerances of a target (defaults
0.20/0.20/0.10 m), object position within an axis-aligned cuboid (default
extents 0.60/0.60/0.30 m), target-object include/exclude, canonical color,
and motion-primitive labels.  A DemoIndex answers the label filters via hash
indexes and the two position filters via one vectorized scan over per-axis
position columns; results always equal a linear scan and come back in record
insertion order.

The index keeps record ids in a read-only object array, so the ids of a
query's hits are gathered by one boolean take of that array and one
`.tolist()`, with no Python work per hit.  Query texts go through the shared
`sexpr` reader on every call; nothing is cached.  The query builder checks
each field once as it reads it, with C-level calls (`isinstance` on the three
atoms of a triple, `map(isfinite, ...)`, `min` for positivity); the default
tolerance and extent are known to be valid and are not checked again.
A `:motion` label must be one `lexicon.motion_labels` can give
(`lexicon.MOTION_LABELS`), and object and color names must be non-empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from . import lexicon as lexmod
from . import sexpr
from .errors import DuplicateId, SpecRangeError, SpecSyntaxError
from .sexpr import Number

CAMPOSE_TOL_DEFAULT = (0.20, 0.20, 0.10)
OBJSPAT_EXTENT_DEFAULT = (0.60, 0.60, 0.30)


@dataclass(frozen=True)
class RetrievalQuery:
    """Conjunction of alignment filters; at least one must be present."""

    object_include: str | None = None
    object_exclude: str | None = None
    campose_target: tuple[float, float, float] | None = None
    campose_tol: tuple[float, float, float] = CAMPOSE_TOL_DEFAULT
    objspat_center: tuple[float, float, float] | None = None
    objspat_extent: tuple[float, float, float] = OBJSPAT_EXTENT_DEFAULT
    color: str | None = None
    motion: frozenset | None = None

    def __post_init__(self):
        if self.object_include is not None and self.object_exclude is not None:
            raise SpecRangeError("object", "include and exclude are mutually exclusive")
        if (self.object_include is None and self.object_exclude is None and self.campose_target is None
                and self.objspat_center is None and self.color is None and self.motion is None):
            raise SpecRangeError("query", "at least one filter required")
        # the default tolerance and extent are valid, so only given ones are checked
        tol, extent = self.campose_tol, self.objspat_extent
        if self.campose_target is not None:
            _check_finite("campose.pos", self.campose_target)
        if tol is not CAMPOSE_TOL_DEFAULT:
            _check_finite("campose.tol", tol)
        if self.objspat_center is not None:
            _check_finite("objspat.center", self.objspat_center)
        if extent is not OBJSPAT_EXTENT_DEFAULT:
            _check_finite("objspat.extent", extent)
        if tol is not CAMPOSE_TOL_DEFAULT and min(tol) <= 0:
            raise SpecRangeError("campose.tol", f"all components must be > 0, got {tol}")
        if extent is not OBJSPAT_EXTENT_DEFAULT and min(extent) <= 0:
            raise SpecRangeError("objspat.extent", f"all components must be > 0, got {extent}")
        if self.motion is not None and not self.motion:
            raise SpecRangeError("motion", "motion filter must name at least one primitive")


def _check_finite(name: str, triple) -> None:
    if len(triple) != 3 or not all(map(isfinite, triple)):
        raise SpecRangeError(name, f"must be three finite numbers, got {triple}")


def _triple(args, kw) -> tuple[float, float, float]:
    if len(args) != 3:
        raise SpecSyntaxError(f":{kw.name} takes exactly three numbers", kw.line, kw.col)
    a, b, c = args
    if not (isinstance(a, Number) and isinstance(b, Number) and isinstance(c, Number)):
        for arg in args:
            sexpr.as_number(arg, f":{kw.name}")  # raises at the first non-number
    return a.value, b.value, c.value


def _name(form, field: str, what: str) -> str:
    """The text of a string atom, which must be non-empty."""
    name = sexpr.as_string(form, what).value
    if not name:
        raise SpecRangeError(field, f"{field} name must be non-empty", form.line, form.col)
    return name


def _parse_object(form) -> tuple[str | None, str | None]:
    head = sexpr.head_symbol(form)
    if head.name not in ("include", "exclude"):
        raise SpecSyntaxError("expected (include ...) or (exclude ...)", head.line, head.col)
    if len(form.items) != 2:
        raise SpecSyntaxError(f"({head.name} ...) takes exactly one object name", head.line, head.col)
    name = _name(form.items[1], "object", "object name")
    return (name, None) if head.name == "include" else (None, name)


# sub-form keyword -> (required key, {key: RetrievalQuery field}); every key takes a triple
_SUBFORMS = {
    "campose": ("pos", {"pos": "campose_target", "tol": "campose_tol"}),
    "objspat": ("center", {"center": "objspat_center", "extent": "objspat_extent"}),
}


def _parse_subform(kw, args) -> dict:
    """RetrievalQuery fields of one `:campose (...)` or `:objspat (...)` sub-form."""
    if len(args) != 1 or not isinstance(args[0], sexpr.SList):
        raise SpecSyntaxError(f":{kw.name} takes exactly one (...) form", kw.line, kw.col)
    required, fields = _SUBFORMS[kw.name]
    values = {}
    for skw, sargs in sexpr.keyword_fields(args[0].items, f"(:{required} ...)"):
        field = fields.get(skw.name)
        if field is None:
            raise SpecSyntaxError(f"unknown {kw.name} field :{skw.name}", skw.line, skw.col)
        values[field] = _triple(sargs, skw)
    if fields[required] not in values:
        raise SpecSyntaxError(f":{kw.name} requires :{required}", kw.line, kw.col)
    return values


def parse_query(source: str) -> RetrievalQuery:
    """Parse one query form.

    Grammar:

        (query
          :object (include STR) | (exclude STR)
          :campose (:pos X Y Z [:tol DX DY DZ])
          :objspat (:center X Y Z [:extent EX EY EZ])
          :color STR
          :motion PRIM...)
    """
    return query_from_form(sexpr.read_one(source))


def query_from_form(form: sexpr.Form) -> RetrievalQuery:
    sexpr.head_symbol(form, "query")
    values: dict = {}
    for kw, args in sexpr.keyword_fields(form.items[1:], "(query ...)"):
        name = kw.name
        if name == "object":
            if len(args) != 1:
                raise SpecSyntaxError(":object takes exactly one form", kw.line, kw.col)
            values["object_include"], values["object_exclude"] = _parse_object(args[0])
        elif name in _SUBFORMS:
            values.update(_parse_subform(kw, args))
        elif name == "color":
            if len(args) != 1:
                raise SpecSyntaxError(":color takes exactly one string", kw.line, kw.col)
            values["color"] = _name(args[0], "color", ":color")
        elif name == "motion":
            if not args:
                raise SpecSyntaxError(":motion takes at least one primitive", kw.line, kw.col)
            labels = frozenset([sexpr.as_symbol(a, "primitive").name for a in args])
            if not labels <= lexmod.MOTION_LABELS:
                unknown = next(a.name for a in args if a.name not in lexmod.MOTION_LABELS)
                raise SpecRangeError("motion", f"unknown label {unknown!r}, expected one of "
                                     f"{', '.join(sorted(lexmod.MOTION_LABELS))}", kw.line, kw.col)
            values["motion"] = labels
        else:
            raise SpecSyntaxError(f"unknown query field :{name}", kw.line, kw.col)
    return RetrievalQuery(**values)


def parse_query_file(path) -> list[RetrievalQuery]:
    with open(path, encoding="utf-8") as fh:
        return [query_from_form(f) for f in sexpr.read_all(fh.read())]


# ---------------------------------------------------------------------------
# index

@dataclass(frozen=True)
class DemoIndex:
    """Immutable retrieval index over annotated records.

    `ids` is a read-only 1-D object array of record ids in insertion order,
    so a boolean mask over the records takes the hit ids in one pass.
    `camera_pos` and `object_pos` are (3, n) per-axis position columns;
    `object_pos` is NaN where a record has no object position, so no box
    contains it.
    """

    ids: np.ndarray
    camera_pos: np.ndarray
    object_pos: np.ndarray
    by_object: dict
    by_color: dict
    by_motion: dict
    missing: dict

    def __len__(self) -> int:
        return len(self.ids)


_NO_POSITION = (np.nan, np.nan, np.nan)  # fails every box test


def _columns(rows: list) -> np.ndarray:
    """(3, n) contiguous per-axis columns of n xyz rows."""
    return np.ascontiguousarray(np.asarray(rows, dtype=np.float64).reshape(len(rows), 3).T)


def build_index(records) -> DemoIndex:
    """Build a DemoIndex from an iterable of annotated DemoRecords.

    Records lacking an annotation are indexed as non-matching for the filters
    that need it and listed in `index.missing`.  Duplicate ids abort the build.
    """
    ids: list[str] = []
    seen: dict[str, int] = {}
    cam_rows: list = []
    obj_rows: list = []
    by_object: dict[str, list] = {}
    by_color: dict[str, list] = {}
    by_motion: dict[str, list] = {}
    missing = {"target_object": [], "object_position": [], "object_color": [], "motion": []}
    for rec in records:
        if rec.id in seen:
            raise DuplicateId(f"duplicate record id {rec.id!r}")
        ordinal = len(ids)
        seen[rec.id] = ordinal
        ids.append(rec.id)
        cam_rows.append(rec.camera_pos)
        ann = rec.annotations
        if ann and ann.target_object:
            by_object.setdefault(ann.target_object, []).append(ordinal)
        else:
            missing["target_object"].append(rec.id)
        if ann and ann.object_position is not None:
            obj_rows.append(ann.object_position)
        else:
            obj_rows.append(_NO_POSITION)
            missing["object_position"].append(rec.id)
        if ann and ann.object_color:
            by_color.setdefault(ann.object_color, []).append(ordinal)
        else:
            missing["object_color"].append(rec.id)
        labels = lexmod.motion_labels(rec.instructions) if rec.instructions else frozenset()
        if labels:
            for label in labels:
                by_motion.setdefault(label, []).append(ordinal)
        else:
            missing["motion"].append(rec.id)

    id_array = np.array(ids, dtype=object)
    id_array.flags.writeable = False
    return DemoIndex(
        ids=id_array,
        camera_pos=_columns(cam_rows),
        object_pos=_columns(obj_rows),
        by_object={k: np.asarray(v, dtype=np.int64) for k, v in by_object.items()},
        by_color={k: np.asarray(v, dtype=np.int64) for k, v in by_color.items()},
        by_motion={k: np.asarray(v, dtype=np.int64) for k, v in by_motion.items()},
        missing=missing,
    )


def _box_mask(columns: np.ndarray, center, half) -> np.ndarray:
    """Closed box [center - half, center + half] over (3, n) position columns.

    Written as |x - c| <= h, the same rounding as the definitional scan;
    `lo <= x <= hi` would differ on the faces.
    """
    center = np.asarray(center, dtype=float)
    half = np.asarray(half, dtype=float)
    mask = np.abs(columns[0] - center[0]) <= half[0]
    for k in (1, 2):
        mask &= np.abs(columns[k] - center[k]) <= half[k]
    return mask


def _filter_masks(index: DemoIndex, query: RetrievalQuery) -> list[tuple[str, np.ndarray]]:
    """(name, mask) per present filter, in canonical report order."""
    n = len(index)
    out = []
    if query.object_include is not None or query.object_exclude is not None:
        mask = np.zeros(n, dtype=bool)
        if query.object_include is not None:
            hit = index.by_object.get(query.object_include)
            if hit is not None:
                mask[hit] = True
        else:
            for name, ordinals in index.by_object.items():
                if name != query.object_exclude:
                    mask[ordinals] = True
        out.append(("object", mask))
    if query.campose_target is not None:
        out.append(("camPose", _box_mask(index.camera_pos, query.campose_target, query.campose_tol)))
    if query.objspat_center is not None:
        half = np.asarray(query.objspat_extent, dtype=float) / 2.0
        out.append(("objSpat", _box_mask(index.object_pos, query.objspat_center, half)))
    if query.color is not None:
        mask = np.zeros(n, dtype=bool)
        hit = index.by_color.get(query.color)
        if hit is not None:
            mask[hit] = True
        out.append(("color", mask))
    if query.motion is not None:
        mask = np.zeros(n, dtype=bool)
        for label in query.motion:
            hit = index.by_motion.get(label)
            if hit is not None:
                mask[hit] = True
        out.append(("motion", mask))
    return out


def retrieve(index: DemoIndex, query: RetrievalQuery) -> list[str]:
    """Ids of records matching every filter, in insertion order."""
    masks = _filter_masks(index, query)
    combined = masks[0][1]
    for _, m in masks[1:]:
        combined = combined & m
    return index.ids[combined].tolist()


def retrieval_report(index: DemoIndex, query: RetrievalQuery) -> dict:
    """Stagewise conjunction counts plus the effective filter parameters."""
    masks = _filter_masks(index, query)
    stages = []
    combined = np.ones(len(index), dtype=bool)
    for name, m in masks:
        combined = combined & m
        stages.append({"filter": name, "count": int(combined.sum())})
    params: dict = {}
    if query.campose_target is not None:
        params["campose_target"] = list(query.campose_target)
        params["campose_tol"] = list(query.campose_tol)
    if query.objspat_center is not None:
        params["objspat_center"] = list(query.objspat_center)
        params["objspat_extent"] = list(query.objspat_extent)
    return {
        "total_records": len(index),
        "stages": stages,
        "final_count": stages[-1]["count"] if stages else 0,
        "params": params,
        "missing_annotations": {k: len(v) for k, v in index.missing.items()},
    }
