"""Task-specification language: parse, validate, serialize, sample.

A task spec names a goal as an ordered motion-primitive sequence and gives
generative ranges for every dimension of variation: object/receptacle spatial
regions (unions of planar boxes in the robot base frame, meters), a camera
pose range (spherical shells about the table center, degrees), and HSV texture
ranges for the object and table.  Surface syntax is s-expressions with keyword
fields; see `parse` for the grammar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from . import sexpr
from .errors import DegenerateRegion, SpecRangeError, SpecSyntaxError

BUILTIN_PRIMITIVES = (
    "pick",
    "place",
    "push",
    "pull",
    "open",
    "close",
    "placeBin",
    "pickPlaceTopDrawer",
    "pickPlaceBasket",
)


@dataclass(frozen=True)
class Primitive:
    """One motion-primitive label; custom labels are free-form text."""

    name: str
    custom: bool = False

    def __post_init__(self):
        if not self.name:
            raise SpecRangeError("goal", "empty primitive label")
        if not self.custom and self.name not in BUILTIN_PRIMITIVES:
            raise SpecRangeError("goal", f"unknown primitive {self.name!r}")


@dataclass(frozen=True)
class PredicateSequence:
    primitives: tuple[Primitive, ...]

    def __post_init__(self):
        if not self.primitives:
            raise SpecRangeError("goal", "empty primitive sequence")

    def labels(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.primitives)


@dataclass(frozen=True)
class SpatialRegion:
    """Union of axis-aligned planar boxes (x0, y0, x1, y1), meters."""

    boxes: tuple[tuple[float, float, float, float], ...]

    def __post_init__(self):
        if not self.boxes:
            raise SpecRangeError("region", "at least one box required")
        for x0, y0, x1, y1 in self.boxes:
            if not all(math.isfinite(v) for v in (x0, y0, x1, y1)):
                raise SpecRangeError("region", "non-finite box bound")
            if x1 < x0 or y1 < y0:
                raise SpecRangeError("region", f"inverted box ({x0}, {y0}, {x1}, {y1})")

    def box_areas(self) -> list[float]:
        return [(x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in self.boxes]

    def contains(self, x: float, y: float) -> bool:
        return any(x0 <= x <= x1 and y0 <= y <= y1 for x0, y0, x1, y1 in self.boxes)


@dataclass(frozen=True)
class CameraPoseRange:
    """Union of spherical ranges (r_min, r_max, theta_min, theta_max, phi_min,
    phi_max): radius in meters, polar/azimuth in degrees, physics convention,
    origin at the table center."""

    ranges: tuple[tuple[float, float, float, float, float, float], ...]

    def __post_init__(self):
        if not self.ranges:
            raise SpecRangeError("camera", "at least one spherical range required")
        for r0, r1, t0, t1, p0, p1 in self.ranges:
            if not all(math.isfinite(v) for v in (r0, r1, t0, t1, p0, p1)):
                raise SpecRangeError("camera", "non-finite camera bound")
            if r0 <= 0:
                raise SpecRangeError("camera", f"r_min must be > 0, got {r0}")
            if r1 < r0:
                raise SpecRangeError("camera", f"r_max {r1} < r_min {r0}")
            if not (0 <= t0 <= t1 <= 90):
                raise SpecRangeError("camera", f"theta range ({t0}, {t1}) outside [0, 90]")
            if not (-180 <= p0 <= p1 <= 180):
                raise SpecRangeError("camera", f"phi range ({p0}, {p1}) outside [-180, 180]")

    def contains(self, r: float, theta: float, phi: float) -> bool:
        return any(
            r0 <= r <= r1 and t0 <= theta <= t1 and p0 <= phi <= p1
            for r0, r1, t0, t1, p0, p1 in self.ranges
        )


class _FloatOps:
    """`np.clip`, `np.minimum` and `np.where` for Python floats.

    Where two operands compare equal, as 0.0 and -0.0 do, each returns the
    one numpy returns, so a zero keeps numpy's sign; a NaN in `x` or `a`
    comes back as numpy's does.
    """

    @staticmethod
    def clip(x, lo, hi):
        x = lo if x < lo else x
        return hi if x > hi else x

    @staticmethod
    def minimum(a, b):
        return b if b <= a else a

    @staticmethod
    def where(cond, a, b):
        return a if cond else b


@dataclass(frozen=True)
class TextureSpec:
    """HSV texture range.

    `fractal` mode gives absolute bounds: H in [0, 1) and wrap-aware
    (h_min > h_max means the window crosses 1.0), S and V in [0, 1].
    `jitter` mode perturbs a named base texture by per-channel offsets in
    [-1, 1]; offsets do not wrap.
    """

    mode: str
    h_min: float
    h_max: float
    s_min: float
    s_max: float
    v_min: float
    v_max: float
    base_name: str | None = None

    def __post_init__(self):
        if self.mode not in ("fractal", "jitter"):
            raise SpecRangeError("texture", f"unknown mode {self.mode!r}")
        vals = (self.h_min, self.h_max, self.s_min, self.s_max, self.v_min, self.v_max)
        if not all(math.isfinite(v) for v in vals):
            raise SpecRangeError("texture", "non-finite HSV bound")
        if self.s_min > self.s_max or self.v_min > self.v_max:
            raise SpecRangeError("texture", "inverted S or V bounds")
        if self.mode == "jitter":
            if not self.base_name:
                raise SpecRangeError("texture", "jitter mode requires a base texture name")
            if self.h_min > self.h_max:
                raise SpecRangeError("texture", "inverted H offset bounds")
            for v in vals:
                if not -1.0 <= v <= 1.0:
                    raise SpecRangeError("texture", f"offset {v} outside [-1, 1]")
        else:
            if self.base_name is not None:
                raise SpecRangeError("texture", "fractal mode takes no base name")
            for h in (self.h_min, self.h_max):
                if not 0.0 <= h < 1.0:
                    raise SpecRangeError("texture", f"hue {h} outside [0, 1)")
            for v in (self.s_min, self.s_max, self.v_min, self.v_max):
                if not 0.0 <= v <= 1.0:
                    raise SpecRangeError("texture", f"S/V bound {v} outside [0, 1]")

    def hue_contains(self, h: float) -> bool:
        if self.mode == "jitter" or self.h_min <= self.h_max:
            return self.h_min <= h <= self.h_max
        return h >= self.h_min or h <= self.h_max

    def hue_from_unit(self, u):
        """Map unit-interval samples `u` (scalar or array) into the hue window.

        The wrapping window [h_min, 1) | [0, h_max] is handled piecewise so
        no value ever crosses 1.0 arithmetically; endpoints are clamped so
        rounding can never push a result outside the window.  A float `u` is
        mapped on floats (`_FloatOps`), with the float operations of an array.
        """
        xp = _FloatOps if isinstance(u, float) else np
        if xp is np:
            u = np.asarray(u, dtype=float)
        if self.mode == "jitter" or self.h_min <= self.h_max:
            h = xp.clip(self.h_min + u * (self.h_max - self.h_min),
                        self.h_min, self.h_max)
        else:
            upper_width = 1.0 - self.h_min
            span = u * (upper_width + self.h_max)
            high = self.h_min + xp.minimum(span, upper_width)
            low = xp.clip(span - upper_width, 0.0, self.h_max)
            h = xp.where(span < upper_width, high, low)
            h = xp.where(h >= 1.0, 0.0, h)
        return h if xp is np and h.ndim else float(h)

    def contains(self, h: float, s: float, v: float) -> bool:
        return (
            self.hue_contains(h)
            and self.s_min <= s <= self.s_max
            and self.v_min <= v <= self.v_max
        )


@dataclass(frozen=True)
class TaskSpec:
    name: str
    lab: str
    goal: PredicateSequence
    object_name: str
    object_texture: TextureSpec
    object_region: SpatialRegion
    camera_range: CameraPoseRange
    table_texture: TextureSpec
    instruction: str
    receptacle_name: str | None = None
    receptacle_region: SpatialRegion | None = None

    def __post_init__(self):
        if not self.name:
            raise SpecRangeError("name", "task name must be non-empty")
        if not self.object_name:
            raise SpecRangeError("object", "object name must be non-empty")


@dataclass(frozen=True)
class TaskInstance:
    """One concrete draw from a TaskSpec's generative ranges."""

    spec_name: str
    object_pose: tuple[float, float]
    camera_pose: tuple[float, float, float]
    object_hsv: tuple[float, float, float]
    table_hsv: tuple[float, float, float]
    seed: int
    receptacle_pose: tuple[float, float] | None = None


# ---------------------------------------------------------------------------
# parsing

_FIELD_NAMES = {
    "name": "name",
    "lab": "lab",
    "goal": "goal",
    "object": "object",
    "object-texture": "object_texture",
    "object-region": "object_region",
    "receptacle": "receptacle",
    "receptacle-region": "receptacle_region",
    "camera": "camera",
    "table-texture": "table_texture",
    "instruction": "instruction",
}
_REQUIRED = (
    "name",
    "lab",
    "goal",
    "object",
    "object-texture",
    "object-region",
    "camera",
    "table-texture",
    "instruction",
)


def _one_string(args: list, kw: sexpr.Keyword) -> str:
    if len(args) != 1:
        raise SpecSyntaxError(f":{kw.name} takes exactly one string", kw.line, kw.col)
    return sexpr.as_string(args[0], f":{kw.name}").value


def _one_form(args: list, kw: sexpr.Keyword) -> sexpr.Form:
    if len(args) != 1:
        raise SpecSyntaxError(f":{kw.name} takes exactly one form", kw.line, kw.col)
    return args[0]


def _at(node, field: str, make, *args):
    """`make(*args)`, re-raising its SpecRangeError under `field` at `node`'s
    line/col: the dataclasses hold the range checks, the forms the position."""
    try:
        return make(*args)
    except SpecRangeError as exc:
        raise SpecRangeError(field, exc.message, node.line, node.col) from None


def _parse_goal(form: sexpr.Form) -> PredicateSequence:
    sexpr.head_symbol(form, "sequence")
    prims = []
    for item in form.items[1:]:
        if isinstance(item, sexpr.Symbol):
            prims.append(_at(item, "goal", Primitive, item.name))
        elif isinstance(item, sexpr.SList):
            sexpr.head_symbol(item, "custom")
            if len(item.items) != 2:
                raise SpecSyntaxError("(custom ...) takes exactly one label", item.line, item.col)
            label = sexpr.as_string(item.items[1], "custom label").value
            prims.append(_at(item, "goal", Primitive, label, True))
        else:
            raise SpecSyntaxError("expected a primitive symbol or (custom ...)", *sexpr.position(item))
    return _at(form, "goal", PredicateSequence, tuple(prims))


def _parse_region(form: sexpr.Form, field: str) -> SpatialRegion:
    sexpr.head_symbol(form, "union")
    boxes = []
    for item in form.items[1:]:
        sexpr.head_symbol(item, "bbox")
        if len(item.items) != 5:
            raise SpecSyntaxError("(bbox ...) takes exactly four numbers", item.line, item.col)
        boxes.append(tuple(sexpr.as_number(n, "bbox bound").value for n in item.items[1:]))
    return _at(form, field, SpatialRegion, tuple(boxes))


def _pair(args: list, kw: sexpr.Keyword) -> tuple[float, float]:
    if len(args) != 2:
        raise SpecSyntaxError(f":{kw.name} takes exactly two numbers", kw.line, kw.col)
    return tuple(sexpr.as_number(a, f":{kw.name} bound").value for a in args)


def _parse_camera(form: sexpr.Form) -> CameraPoseRange:
    sexpr.head_symbol(form, "union")
    ranges = []
    for item in form.items[1:]:
        head = sexpr.head_symbol(item, "sph")
        fields: dict[str, tuple[float, float]] = {}
        for kw, args in sexpr.keyword_fields(item.items[1:], "(sph ...)"):
            if kw.name not in ("r", "theta", "phi"):
                raise SpecSyntaxError(f"unknown camera field :{kw.name}", kw.line, kw.col)
            fields[kw.name] = _pair(args, kw)
        for need in ("r", "theta", "phi"):
            if need not in fields:
                raise SpecSyntaxError(f"(sph ...) missing :{need}", head.line, head.col)
        ranges.append(fields["r"] + fields["theta"] + fields["phi"])
    return _at(form, "camera", CameraPoseRange, tuple(ranges))


def _parse_texture(form: sexpr.Form, field: str) -> TextureSpec:
    head = sexpr.head_symbol(form)
    if head.name not in ("fractal", "jitter"):
        raise SpecSyntaxError(f"expected (fractal ...) or (jitter ...), got ({head.name} ...)", head.line, head.col)
    base = None
    bounds: dict[str, tuple[float, float]] = {}
    for kw, args in sexpr.keyword_fields(form.items[1:], f"({head.name} ...)"):
        if kw.name == "base":
            if head.name != "jitter":
                raise SpecSyntaxError(":base is only valid in jitter mode", kw.line, kw.col)
            base = _one_string(args, kw)
        elif kw.name in ("h", "s", "v"):
            bounds[kw.name] = _pair(args, kw)
        else:
            raise SpecSyntaxError(f"unknown texture field :{kw.name}", kw.line, kw.col)
    for need in ("h", "s", "v"):
        if need not in bounds:
            raise SpecSyntaxError(f"({head.name} ...) missing :{need}", head.line, head.col)
    return _at(head, field, TextureSpec, head.name, *bounds["h"], *bounds["s"], *bounds["v"], base)


def parse(source: str) -> TaskSpec:
    """Parse one task spec from `.mlspec` text.

    Grammar (keyword fields in any order, `;` comments allowed):

        (task :name STR :lab STR
          :goal (sequence PRIM... )              ; PRIM = builtin | (custom STR)
          :object STR
          :object-texture (fractal :h a b :s a b :v a b)
          :object-region (union (bbox x0 y0 x1 y1)...)
          :receptacle STR                        ; optional
          :receptacle-region (union ...)         ; optional
          :camera (union (sph :r a b :theta a b :phi a b)...)
          :table-texture (jitter :base STR :h a b :s a b :v a b)
          :instruction STR)

    Raises SpecSyntaxError with line/column on malformed input and
    SpecRangeError naming the offending field on numeric invariant violations.
    """
    form = sexpr.read_one(source)
    head = sexpr.head_symbol(form, "task")
    values: dict[str, object] = {}
    for kw, args in sexpr.keyword_fields(form.items[1:], "(task ...)"):
        if kw.name not in _FIELD_NAMES:
            raise SpecSyntaxError(f"unknown task field :{kw.name}", kw.line, kw.col)
        if kw.name in ("name", "lab", "object", "receptacle", "instruction"):
            values[kw.name] = _one_string(args, kw)
            if kw.name == "name" and not values["name"]:
                raise SpecRangeError("name", "task name must be non-empty", kw.line, kw.col)
            if kw.name == "object" and not values["object"]:
                raise SpecRangeError("object", "object name must be non-empty", kw.line, kw.col)
        elif kw.name == "goal":
            values["goal"] = _parse_goal(_one_form(args, kw))
        elif kw.name in ("object-region", "receptacle-region"):
            values[kw.name] = _parse_region(_one_form(args, kw), _FIELD_NAMES[kw.name])
        elif kw.name == "camera":
            values["camera"] = _parse_camera(_one_form(args, kw))
        else:  # object-texture, table-texture
            values[kw.name] = _parse_texture(_one_form(args, kw), _FIELD_NAMES[kw.name])
    for need in _REQUIRED:
        if need not in values:
            raise SpecSyntaxError(f"missing required field :{need}", head.line, head.col)
    return TaskSpec(
        name=values["name"],
        lab=values["lab"],
        goal=values["goal"],
        object_name=values["object"],
        object_texture=values["object-texture"],
        object_region=values["object-region"],
        camera_range=values["camera"],
        table_texture=values["table-texture"],
        instruction=values["instruction"],
        receptacle_name=values.get("receptacle"),
        receptacle_region=values.get("receptacle-region"),
    )


def parse_file(path) -> TaskSpec:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


# ---------------------------------------------------------------------------
# serialization

def _fmt_num(x: float) -> str:
    """Shortest exact decimal for canonical output."""
    return repr(float(x))


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _fmt_texture(t: TextureSpec) -> str:
    parts = [t.mode]
    if t.mode == "jitter":
        parts.append(f":base {_quote(t.base_name)}")
    parts.append(f":h {_fmt_num(t.h_min)} {_fmt_num(t.h_max)}")
    parts.append(f":s {_fmt_num(t.s_min)} {_fmt_num(t.s_max)}")
    parts.append(f":v {_fmt_num(t.v_min)} {_fmt_num(t.v_max)}")
    return "(" + " ".join(parts) + ")"


def _fmt_region(r: SpatialRegion) -> str:
    boxes = " ".join(
        "(bbox " + " ".join(_fmt_num(v) for v in box) + ")" for box in r.boxes
    )
    return f"(union {boxes})"


def _fmt_camera(c: CameraPoseRange) -> str:
    ranges = " ".join(
        f"(sph :r {_fmt_num(r0)} {_fmt_num(r1)}"
        f" :theta {_fmt_num(t0)} {_fmt_num(t1)}"
        f" :phi {_fmt_num(p0)} {_fmt_num(p1)})"
        for r0, r1, t0, t1, p0, p1 in c.ranges
    )
    return f"(union {ranges})"


def _fmt_goal(g: PredicateSequence) -> str:
    parts = []
    for p in g.primitives:
        parts.append(f"(custom {_quote(p.name)})" if p.custom else p.name)
    return "(sequence " + " ".join(parts) + ")"


def serialize(spec: TaskSpec) -> str:
    """Canonical text form; parse(serialize(s)) is structurally equal to s."""
    lines = [f"(task :name {_quote(spec.name)} :lab {_quote(spec.lab)}"]
    lines.append(f"  :goal {_fmt_goal(spec.goal)}")
    lines.append(f"  :object {_quote(spec.object_name)}")
    lines.append(f"  :object-texture {_fmt_texture(spec.object_texture)}")
    lines.append(f"  :object-region {_fmt_region(spec.object_region)}")
    if spec.receptacle_name is not None:
        lines.append(f"  :receptacle {_quote(spec.receptacle_name)}")
    if spec.receptacle_region is not None:
        lines.append(f"  :receptacle-region {_fmt_region(spec.receptacle_region)}")
    lines.append(f"  :camera {_fmt_camera(spec.camera_range)}")
    lines.append(f"  :table-texture {_fmt_texture(spec.table_texture)}")
    lines.append(f"  :instruction {_quote(spec.instruction)})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sampling

_OBJECT, _RECEPTACLE, _CAMERA, _OBJ_HSV, _TABLE_HSV = range(5)


def _sample_region(region: SpatialRegion, gen) -> tuple[float, float]:
    areas = region.box_areas()
    total = sum(areas)
    if total > 0.0:
        u = gen.random() * total
        acc = 0.0
        idx = len(region.boxes) - 1
        for i, a in enumerate(areas):
            acc += a
            if u < acc:
                idx = i
                break
    else:
        distinct = set(region.boxes)
        if len(distinct) > 1:
            raise DegenerateRegion(
                f"zero-area region with {len(distinct)} conflicting boxes"
            )
        idx = 0
    x0, y0, x1, y1 = region.boxes[idx]
    return (x0 + gen.random() * (x1 - x0), y0 + gen.random() * (y1 - y0))


def _sample_hsv(tex: TextureSpec, gen) -> tuple[float, float, float]:
    h = tex.hue_from_unit(gen.random())
    s = tex.s_min + gen.random() * (tex.s_max - tex.s_min)
    v = tex.v_min + gen.random() * (tex.v_max - tex.v_min)
    return (h, s, v)


def sample_instance(spec: TaskSpec, seed: int) -> TaskInstance:
    """Draw one concrete TaskInstance, deterministic in `seed`.

    Object and receptacle positions are uniform over region area: a box is
    chosen with probability proportional to its raw area (overlapping boxes
    are double-weighted), then the point is uniform inside it.  The camera
    range is chosen uniformly among listed ranges, then each spherical
    component is uniform in its interval.  HSV draws are uniform per channel
    with hue wrap in fractal mode.
    """
    gen_obj = rngmod.substream(seed, _OBJECT)
    object_pose = _sample_region(spec.object_region, gen_obj)

    receptacle_pose = None
    if spec.receptacle_region is not None:
        receptacle_pose = _sample_region(spec.receptacle_region, rngmod.substream(seed, _RECEPTACLE))

    gen_cam = rngmod.substream(seed, _CAMERA)
    ridx = int(gen_cam.integers(0, len(spec.camera_range.ranges)))
    r0, r1, t0, t1, p0, p1 = spec.camera_range.ranges[ridx]
    camera_pose = (
        r0 + gen_cam.random() * (r1 - r0),
        t0 + gen_cam.random() * (t1 - t0),
        p0 + gen_cam.random() * (p1 - p0),
    )

    object_hsv = _sample_hsv(spec.object_texture, rngmod.substream(seed, _OBJ_HSV))
    table_hsv = _sample_hsv(spec.table_texture, rngmod.substream(seed, _TABLE_HSV))
    return TaskInstance(
        spec_name=spec.name,
        object_pose=object_pose,
        receptacle_pose=receptacle_pose,
        camera_pose=camera_pose,
        object_hsv=object_hsv,
        table_hsv=table_hsv,
        seed=int(seed),
    )


def instance_in_spec(spec: TaskSpec, inst: TaskInstance) -> bool:
    """Membership check: every sampled value lies inside its generating range."""
    if inst.spec_name != spec.name:
        return False
    if not spec.object_region.contains(*inst.object_pose):
        return False
    if (spec.receptacle_region is None) != (inst.receptacle_pose is None):
        return False
    if inst.receptacle_pose is not None and not spec.receptacle_region.contains(*inst.receptacle_pose):
        return False
    if not spec.camera_range.contains(*inst.camera_pose):
        return False
    if not spec.object_texture.contains(*inst.object_hsv):
        return False
    return spec.table_texture.contains(*inst.table_hsv)


def instance_to_dict(inst: TaskInstance) -> dict:
    out = {
        "spec_name": inst.spec_name,
        "object_pose": list(inst.object_pose),
        "camera_pose": list(inst.camera_pose),
        "object_hsv": list(inst.object_hsv),
        "table_hsv": list(inst.table_hsv),
        "seed": inst.seed,
    }
    out["receptacle_pose"] = list(inst.receptacle_pose) if inst.receptacle_pose else None
    return out
