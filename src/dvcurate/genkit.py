"""Procedural generation: textures, task-instance enumeration, synthesis.

Fractal textures are value noise (4 octaves, persistence 0.5, frequency
doubling) normalized to [0, 1] and affinely mapped into a TextureSpec's HSV
bounds, hue wrap-aware.  The H, S and V fields are rendered together as one
stacked array, with the interpolation indices and weights cached per axis
length; every pixel takes the same float operations in the same order as a
per-channel, per-pixel render, so the bytes are unchanged.  Lab enumeration
counts each lab's tasks from one constant template table and crosses them
with camera bins and spatial combinations.  Synthesis re-anchors object-centric
trajectory segments with rigid transforms and bridges the junctions by
linear/spherical interpolation.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateAnchor, SegmentationMismatch
from .geometry import (
    is_unit_quat,
    pose_compose,
    pose_inverse,
    quat_mul,
    quat_rotate,
    quat_slerp,
)
from .metadata import DEFAULT_CAMERA_BINS, DemoRecord, Steps, gripper_transitions, overwrite
from .rng import substream
from .taskspec import PredicateSequence, TextureSpec

NOISE_OCTAVES = 4
NOISE_PERSISTENCE = 0.5
NOISE_BASE_CELLS = 4

RASTER_MAGIC = b"DVTX"

# Peak bytes that `synthesize` holds per bridge step (250-290 by tracemalloc
# over 200k bridge steps, the slerp rows being built as Python lists first),
# rounded up, and the physical memory that no bridge count may need more of.
_BRIDGE_STEP_BYTES = 300
_MEMORY_BYTES = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


# ---------------------------------------------------------------------------
# fractal textures

@dataclass
class TextureRaster:
    width: int
    height: int
    pixels: np.ndarray  # (height, width, 3) HSV float64


def _fade(t: np.ndarray) -> np.ndarray:
    return t * t * (3.0 - 2.0 * t)


_AXIS_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_AXIS_CACHE_SIZE)
def _axis_weights(n: int) -> tuple:
    """Per octave, `(L, i0, i0 + 1, 1 - f, f)` for an axis of `n` pixels.

    `L` is the lattice side, `i0`/`i0 + 1` the lattice cells each pixel lies
    between and `1 - f`/`f` their faded blend weights.  The arrays are shared
    between calls, so they are read-only.
    """
    base = np.arange(n, dtype=float) / n
    octaves = []
    freq = float(NOISE_BASE_CELLS)
    for _ in range(NOISE_OCTAVES):
        u = base * freq
        i0 = np.floor(u).astype(int)
        f = _fade(u - i0)
        arrays = (i0, i0 + 1, 1 - f, f)
        for a in arrays:
            a.flags.writeable = False
        octaves.append((int(freq) + 2, *arrays))
        freq *= 2.0
    return tuple(octaves)


def _value_noise(gens, width: int, height: int) -> np.ndarray:
    """Summed bilinear value noise, one field per generator, each normalized to [0, 1].

    Returns a `(len(gens), height, width)` array.  Each generator draws one
    `(L, L)` lattice per octave, into its plane of one stacked array, so the
    x blend, the y blend and the octave sum run once for every channel.
    Separable: each lattice row is interpolated along x once and the rows are
    then blended along y, the same float operations in the same order as a
    per-pixel bilinear blend.  The octave amplitude scales the lattice rather
    than the blended field: NOISE_PERSISTENCE is 0.5, so every amplitude is a
    power of two, and with lattice values in [0, 1) no product comes near the
    subnormal range, so the scaling is exact either way.
    """
    total = None
    amp = 1.0
    octaves = zip(_axis_weights(width), _axis_weights(height))
    for (side, i0, i1, wx0, wx1), (_, j0, j1, wy0, wy1) in octaves:
        lattice = np.empty((len(gens), side, side))
        for gen, plane in zip(gens, lattice):
            gen.random(out=plane)
        lattice *= amp
        # np.take returns C-contiguous arrays (fancy indexing would put the
        # gathered axis outermost in memory), so every later pass, and each
        # channel's normalization, runs over contiguous memory
        rows = np.take(lattice, i0, axis=2)
        rows *= wx0
        right = np.take(lattice, i1, axis=2)
        right *= wx1
        rows += right
        field = np.take(rows, j0, axis=1)
        field *= wy0[:, None]
        below = np.take(rows, j1, axis=1)
        below *= wy1[:, None]
        field += below
        if total is None:
            total = field
        else:
            total += field
        amp *= NOISE_PERSISTENCE
    for channel in total:
        lo = channel.min()
        span = channel.max() - lo
        if span == 0.0:
            channel.fill(0.5)
        else:
            channel -= lo
            channel /= span
    return total


_H_CHANNEL, _S_CHANNEL, _V_CHANNEL = range(3)


def fractal_texture(spec: TextureSpec, width: int, height: int, seed: int) -> TextureRaster:
    """Render a fractal-noise HSV raster inside `spec`'s bounds.

    Each channel gets its own noise field from an independent substream of
    `seed`; hue is mapped through the wrap-aware window so h_min > h_max
    produces hues in [h_min, 1) or [0, h_max].
    """
    if spec.mode != "fractal":
        raise ValueError(f"fractal_texture needs a fractal TextureSpec, got {spec.mode!r}")
    if width < 1 or height < 1:
        raise ValueError("raster dimensions must be >= 1")
    h_noise, s_noise, v_noise = _value_noise(
        [substream(seed, c) for c in (_H_CHANNEL, _S_CHANNEL, _V_CHANNEL)], width, height)
    pixels = np.empty((height, width, 3))
    pixels[..., 0] = spec.hue_from_unit(h_noise)
    pixels[..., 1] = np.clip(spec.s_min + s_noise * (spec.s_max - spec.s_min), spec.s_min, spec.s_max)
    pixels[..., 2] = np.clip(spec.v_min + v_noise * (spec.v_max - spec.v_min), spec.v_min, spec.v_max)
    return TextureRaster(width, height, pixels)


def raster_within(spec: TextureSpec, raster: TextureRaster) -> bool:
    """True iff every pixel lies inside the spec bounds (hue wrap-aware)."""
    h = raster.pixels[..., 0]
    s = raster.pixels[..., 1]
    v = raster.pixels[..., 2]
    if spec.mode == "fractal" and spec.h_min > spec.h_max:
        h_ok = (h >= spec.h_min) | (h <= spec.h_max)
    else:
        h_ok = (h >= spec.h_min) & (h <= spec.h_max)
    return bool(
        h_ok.all()
        and ((s >= spec.s_min) & (s <= spec.s_max)).all()
        and ((v >= spec.v_min) & (v <= spec.v_max)).all()
    )


def write_raster(path, raster: TextureRaster) -> None:
    """Binary raster: magic, uint32 width/height, float32 HSV per pixel."""
    with overwrite(path) as fh:
        fh.write(RASTER_MAGIC)
        fh.write(struct.pack("<II", raster.width, raster.height))
        fh.write(raster.pixels.astype("<f4").tobytes())


def read_raster(path) -> TextureRaster:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != RASTER_MAGIC:
            raise ValueError(f"not a texture raster (magic {magic!r})")
        width, height = struct.unpack("<II", fh.read(8))
        raw = fh.read()
    expected = width * height * 3 * 4
    if len(raw) < expected:
        raise ValueError("truncated raster payload")
    if len(raw) > expected:
        raise ValueError("oversized raster payload")
    data = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    return TextureRaster(width, height, data.reshape(height, width, 3))


def _hsv_to_rgb(pixels: np.ndarray) -> np.ndarray:
    h = pixels[..., 0] % 1.0
    s = pixels[..., 1]
    v = pixels[..., 2]
    k = h * 6.0
    i = np.floor(k).astype(int) % 6
    f = k - np.floor(k)
    p = v * (1.0 - s)
    q = v * (1.0 - f * s)
    t = v * (1.0 - (1.0 - f) * s)
    r = np.select([i == 0, i == 1, i == 2, i == 3, i == 4, i == 5], [v, q, p, p, t, v])
    g = np.select([i == 0, i == 1, i == 2, i == 3, i == 4, i == 5], [t, v, v, q, p, p])
    b = np.select([i == 0, i == 1, i == 2, i == 3, i == 4, i == 5], [p, p, t, v, v, q])
    return np.stack([r, g, b], axis=-1)


def write_ppm(path, raster: TextureRaster) -> None:
    """Portable pixmap export (P6, 8-bit) for eyeballing textures."""
    rgb = np.clip(_hsv_to_rgb(raster.pixels) * 255.0 + 0.5, 0, 255).astype(np.uint8)
    with overwrite(path) as fh:
        fh.write(f"P6\n{raster.width} {raster.height}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


# ---------------------------------------------------------------------------
# lab enumeration

DEFAULT_SPATIAL_COMBINATIONS = 90
DEFAULT_LAB_COUNT = 8
LAB_OBJECTS = 7
LAB_APPLIANCES = 2


@dataclass(frozen=True)
class InstanceTemplate:
    name: str
    primitives: tuple
    count: int


@dataclass(frozen=True)
class LabEnumeration:
    lab: str
    templates: tuple
    base_count: int
    crossed_count: int


# Every lab: bin each object; open/close each appliance; open-then-store and
# store-then-close for each appliance and object pair; stove on and off.
_BASE_TEMPLATES = (
    InstanceTemplate("bin-object", ("pick", "placeBin"), LAB_OBJECTS),
    InstanceTemplate("open-appliance", ("open",), LAB_APPLIANCES),
    InstanceTemplate("close-appliance", ("close",), LAB_APPLIANCES),
    InstanceTemplate("open-pick-place", ("open", "pick", "place"), LAB_APPLIANCES * LAB_OBJECTS),
    InstanceTemplate("pick-place-close", ("pick", "place", "close"), LAB_APPLIANCES * LAB_OBJECTS),
    InstanceTemplate("stove-on", ("turnOn",), 1),
    InstanceTemplate("stove-off", ("turnOff",), 1),
)
_COFFEE_TEMPLATES = _BASE_TEMPLATES + (InstanceTemplate("make-coffee", ("pick", "place", "close"), 1),)


def enumerate_instances(count: int = DEFAULT_LAB_COUNT, coffee_lab_index: int = 0,
                        spatial_combinations: int = DEFAULT_SPATIAL_COMBINATIONS,
                        ) -> list[LabEnumeration]:
    """Task templates of labs `lab1`..`lab<count>`.

    Every lab has 7 objects and 2 appliances; the lab at `coffee_lab_index`
    also has a coffee machine and adds make-coffee.  The crossed count
    multiplies the default camera bins of `metadata` by the spatial
    combinations.
    """
    if spatial_combinations < 1:
        raise ConfigError(f"spatial combinations must be >= 1, got {spatial_combinations}")
    crossed = len(DEFAULT_CAMERA_BINS) * spatial_combinations
    enums = []
    for i in range(count):
        templates = _COFFEE_TEMPLATES if i == coffee_lab_index else _BASE_TEMPLATES
        enums.append(LabEnumeration(f"lab{i + 1}", templates, sum(t.count for t in templates), crossed))
    return enums


def enumeration_summary(enums) -> dict:
    return {
        "labs": [
            {
                "lab": e.lab,
                "templates": [
                    {"name": t.name, "primitives": list(t.primitives), "count": t.count}
                    for t in e.templates
                ],
                "base_count": e.base_count,
                "crossed_count": e.crossed_count,
            }
            for e in enums
        ],
        "total_base": sum(e.base_count for e in enums),
        "total_crossed": sum(e.crossed_count for e in enums),
    }


# ---------------------------------------------------------------------------
# trajectory segmentation and synthesis

@dataclass
class Segment:
    """Contiguous step run tagged with its primitive and anchor pose."""

    anchor_pos: np.ndarray   # (3,)
    anchor_quat: np.ndarray  # (4,) unit
    steps: Steps
    primitive: str


def _slice_steps(steps: Steps, a: int, b: int) -> Steps:
    return Steps(
        t=steps.t[a:b].copy(),
        ee_pos=steps.ee_pos[a:b].copy(),
        ee_quat=steps.ee_quat[a:b].copy(),
        gripper=steps.gripper[a:b].copy(),
    )


def decompose(demo: DemoRecord, goal: PredicateSequence) -> list[Segment]:
    """Split a demo into one segment per goal primitive.

    Split points are the smoothed gripper open/close transitions: with
    transitions c_1..c_m matching the m primitives in order, each transition
    after the first ends the running segment (the transition step belongs to
    the preceding segment; the next segment starts one step later).  Segment i
    is anchored at the end-effector pose at its own transition c_i.
    """
    labels = goal.labels()
    transitions, _ = gripper_transitions(demo.steps.gripper)
    if len(transitions) != len(labels):
        raise SegmentationMismatch(
            f"{len(transitions)} gripper transitions vs {len(labels)} goal primitives"
        )
    n = len(demo.steps)
    starts = [0] + [int(c) + 1 for c in transitions[1:]]
    ends = [int(c) for c in transitions[1:]] + [n - 1]
    segments = []
    for i, label in enumerate(labels):
        a, b = starts[i], ends[i]
        if a > b:
            raise SegmentationMismatch(f"segment {i} for {label!r} is empty (steps {a}..{b})")
        c = int(transitions[i])
        segments.append(
            Segment(
                anchor_pos=demo.steps.ee_pos[c].copy(),
                anchor_quat=demo.steps.ee_quat[c].copy(),
                steps=_slice_steps(demo.steps, a, b + 1),
                primitive=label,
            )
        )
    return segments


def synthesize(segments, new_anchors, bridge_step: float,
               like: DemoRecord | None = None, new_id: str = "synth-0") -> DemoRecord:
    """Re-anchor segments rigidly and stitch them into one trajectory.

    Every step pose of segment i is mapped by T_i = new_anchor_i ∘
    old_anchor_i⁻¹.  Junctions wider than `bridge_step` are filled with
    linearly interpolated positions and spherically interpolated orientations
    at spacing ≤ bridge_step (the gripper holds its last value).  Output
    timestamps are renumbered from 0.  Bridge steps that would need more
    than the machine's physical memory are refused with DegenerateAnchor
    before any is allocated.
    """
    segments = list(segments)
    new_anchors = list(new_anchors)
    if len(segments) != len(new_anchors):
        raise ValueError(f"{len(segments)} segments vs {len(new_anchors)} anchors")
    if not segments:
        raise ValueError("at least one segment required")
    if bridge_step <= 0:
        raise ValueError(f"bridge_step must be > 0, got {bridge_step}")
    if not all(len(seg.steps) for seg in segments):
        raise ValueError("every segment needs at least one step")

    transforms = []
    for seg, (npos, nquat) in zip(segments, new_anchors):
        nquat = np.asarray(nquat, dtype=float)
        if not is_unit_quat(nquat):
            raise DegenerateAnchor(f"new anchor quaternion {nquat} is not unit norm")
        if not is_unit_quat(seg.anchor_quat):
            raise DegenerateAnchor(f"segment anchor quaternion {seg.anchor_quat} is not unit norm")
        inv_pos, inv_quat = pose_inverse(seg.anchor_pos, seg.anchor_quat)
        transforms.append(pose_compose(npos, nquat, inv_pos, inv_quat))
    # one rotation and one product map every step, each beside a row of its
    # own segment's transform
    lengths = [len(seg.steps) for seg in segments]
    t_pos, t_quat = (np.repeat(np.array(rows), lengths, axis=0) for rows in zip(*transforms))
    pos = quat_rotate(t_quat, np.concatenate([seg.steps.ee_pos for seg in segments])) + t_pos
    if not np.isfinite(pos).all():
        raise DegenerateAnchor("the new anchors move the trajectory past the float range")
    quat = quat_mul(t_quat, np.concatenate([seg.steps.ee_quat for seg in segments]))
    grip = np.concatenate([seg.steps.gripper for seg in segments])

    # every junction's count of sub-steps, so that no bridge is allocated
    # unless all of them fit in memory
    junctions, bridged = [], 0
    for b in itertools.accumulate(lengths[:-1]):
        with np.errstate(over="ignore"):  # a distance past the float range is refused below
            dist = float(np.linalg.norm(pos[b] - pos[b - 1]))
        try:
            n_sub = max(int(math.ceil(dist / bridge_step)), 1)
        except (OverflowError, ValueError):  # no finite count
            n_sub = math.inf
        bridged += n_sub - 1
        if bridged * _BRIDGE_STEP_BYTES > _MEMORY_BYTES:
            raise DegenerateAnchor(f"cannot bridge a junction of distance {dist} at bridge step "
                                   f"{bridge_step}: more bridge steps than memory holds")
        junctions.append((b, n_sub))

    out_pos, out_quat, out_grip = [], [], []
    start = 0
    for b, n_sub in junctions:
        a = b - 1
        if n_sub > 1:
            fracs = np.arange(1, n_sub) / n_sub
            out_pos += [pos[start:b], pos[a] + fracs[:, None] * (pos[b] - pos[a])]
            out_quat += [quat[start:b], quat_slerp(quat[a], quat[b], fracs)]
            out_grip += [grip[start:b], np.full(n_sub - 1, grip[a])]
            start = b
    if start:
        pos = np.concatenate(out_pos + [pos[start:]])
        quat = np.concatenate(out_quat + [quat[start:]])
        grip = np.concatenate(out_grip + [grip[start:]])
    steps = Steps(
        t=np.arange(len(pos), dtype=np.int64),
        ee_pos=pos,
        ee_quat=quat,
        gripper=grip,
    )
    if like is not None:
        return DemoRecord(
            id=new_id,
            lab=like.lab,
            instructions=like.instructions,
            camera_pos=like.camera_pos.copy(),
            camera_quat=like.camera_quat.copy(),
            steps=steps,
            annotations=None,
        )
    return DemoRecord(
        id=new_id,
        lab="synth",
        instructions=(),
        camera_pos=np.array([1.0, 0.0, 1.0]),
        camera_quat=np.array([1.0, 0.0, 0.0, 0.0]),
        steps=steps,
        annotations=None,
    )
