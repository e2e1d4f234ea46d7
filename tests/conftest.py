"""Shared builders and definitional oracles for the test suite.

The oracles here are written straight from the documented definitions
(centered truncated moving average, threshold crossings, linear-scan
retrieval, slab-sweep box unions) so the optimized implementations are
checked against independent code, not against themselves.  The generation
oracles (per-pixel value noise, per-element serialization, `np.cross`
rotations, per-slot sampling, Counter-based sampler stats) and the
character-at-a-time s-expression scanner and the query builder at the end are
the code the fast paths replaced; the fast paths must reproduce their output
bytes, forms, positions and errors exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pathlib
import re
from collections import Counter

import numpy as np
import pytest

from dvcurate import lexicon, metadata, sampler, sexpr
from dvcurate.errors import SpecRangeError, SpecSyntaxError
from dvcurate.geometry import cartesian_from_spherical, rotmat_to_quat
from dvcurate.retrieval import RetrievalQuery
from dvcurate.rng import substream
from dvcurate.sexpr import Form, Keyword, Number, SList, String, Symbol

DATA_DIR = pathlib.Path(__file__).parent / "data"
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True, scope="session")
def _child_processes_import_the_checkout():
    """Put src/ on PYTHONPATH for the interpreters some tests start, as
    pyproject's `pythonpath` does for this one."""
    paths = [str(SRC_DIR)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(paths))
        yield


@pytest.fixture
def data_dir() -> pathlib.Path:
    return DATA_DIR


# ---------------------------------------------------------------------------
# definitional gripper oracles

def brute_smooth(gripper, window=metadata.GRIPPER_WINDOW):
    """Centered moving average, truncated at the edges, by direct summation."""
    g = list(gripper)
    n = len(g)
    half = window // 2
    out = []
    for i in range(n):
        lo = max(i - half, 0)
        hi = min(i + half + 1, n)
        out.append(sum(g[lo:hi]) / (hi - lo))
    return np.array(out)


def brute_transitions(gripper, window=metadata.GRIPPER_WINDOW,
                      threshold=metadata.GRIPPER_THRESHOLD):
    """Indices where the smoothed signal crosses the threshold either way."""
    s = brute_smooth(gripper, window)
    out = []
    for i in range(1, len(s)):
        if (s[i] >= threshold) != (s[i - 1] >= threshold):
            out.append(i)
    return out


def brute_close_index(gripper, window=metadata.GRIPPER_WINDOW,
                      threshold=metadata.GRIPPER_THRESHOLD):
    s = brute_smooth(gripper, window)
    for i in range(1, len(s)):
        if s[i] >= threshold and s[i - 1] < threshold:
            return i
    return None


# ---------------------------------------------------------------------------
# definitional box-union oracles: the pure-Python slab sweep (union measure)
# and per-box cell walk (containment) that dvalgebra's compressed-coordinate
# sweep replaced, kept as they were apart from the public names

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


def slab_union_measure_2d(boxes) -> float:
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


def slab_union_measure_3d(boxes) -> float:
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
            total += (x1 - x0) * slab_union_measure_2d(faces)
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


def slab_boxes_covered(target_boxes, cover_boxes, dims: int) -> bool:
    """Exact containment of one closed box union inside another."""
    check = _box_covered_2d if dims == 2 else _box_covered_3d
    return all(check(t, cover_boxes) for t in target_boxes)


# ---------------------------------------------------------------------------
# demo-record builders

def step_gripper(n, close_at, release_at=None):
    """0/1 gripper signal closing at `close_at` and releasing at `release_at`."""
    g = []
    for i in range(n):
        closed = i >= close_at and (release_at is None or i < release_at)
        g.append(1.0 if closed else 0.0)
    return g


def demo_row(rid="demo-0", lab="lab1", instructions=("pick up the mug",),
             camera_pos=(0.64, 0.0, 0.64), camera_quat=(1.0, 0.0, 0.0, 0.0),
             n=120, close_at=30, release_at=80, obj_pos=(0.2, 0.0, 0.02),
             place_pos=(0.3, 0.2, 0.05), annotations=None):
    """One corpus row as a plain JSON-ready dict.

    The end effector moves start -> obj_pos while open, obj_pos -> place_pos
    while closed, then retreats; the gripper is a step signal around
    [close_at, release_at).
    """
    start = np.array([0.0, -0.4, 0.4])
    obj = np.asarray(obj_pos, dtype=float)
    place = np.asarray(place_pos, dtype=float)
    grip = step_gripper(n, close_at, release_at)
    rel = release_at if release_at is not None else n - 1
    steps = []
    for i in range(n):
        if i <= close_at:
            a = i / max(close_at, 1)
            p = start * (1 - a) + obj * a
        elif i <= rel:
            a = (i - close_at) / max(rel - close_at, 1)
            p = obj * (1 - a) + place * a
        else:
            a = (i - rel) / max(n - 1 - rel, 1)
            p = place * (1 - a) + start * a
        steps.append({"t": i, "ee_pos": [float(v) for v in p],
                      "ee_quat": [1.0, 0.0, 0.0, 0.0], "gripper": grip[i]})
    return {
        "id": rid,
        "lab": lab,
        "instructions": list(instructions),
        "camera_extrinsics": {"pos": [float(v) for v in camera_pos],
                              "quat": [float(v) for v in camera_quat]},
        "steps": steps,
        "annotations": annotations,
    }


def make_record(**kwargs) -> metadata.DemoRecord:
    return metadata.parse_record(demo_row(**kwargs))


def write_jsonl(path, rows) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")))
            fh.write("\n")
    return str(path)


def bin_camera_pos(label, r=0.9, center=(0.0, 0.0, 0.0)):
    """A camera position at the angular center of a default camera bin."""
    azimuths = {"agent-front": 0.0, "agent-left": 60.0, "agent-right": -60.0,
                "shoulder-left": 120.0, "shoulder-right": -120.0}
    return cartesian_from_spherical(r, 45.0, azimuths[label], center=center)


def quat_chordal(a, b) -> float:
    """Sign-insensitive quaternion distance min(|a-b|, |a+b|)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))


# ---------------------------------------------------------------------------
# generation oracles: the code the separable noise, `.tolist()` serialization,
# explicit cross product, broadcast Hamilton product, float-path slerp and hue
# mapping and one-draw sampler replaced, kept as they were apart from the names

def _fade(t):
    return t * t * (3.0 - 2.0 * t)


def pixel_value_noise(gen, width, height, octaves, persistence):
    """Summed bilinear value noise normalized to [0, 1], blended per pixel."""
    ys, xs = np.mgrid[0:height, 0:width].astype(float)
    u_base = xs / width
    v_base = ys / height
    total = np.zeros((height, width))
    amp = 1.0
    freq = 4.0
    for _ in range(octaves):
        lattice = gen.random((int(freq) + 2, int(freq) + 2))
        u = u_base * freq
        v = v_base * freq
        i0 = np.floor(u).astype(int)
        j0 = np.floor(v).astype(int)
        fu = _fade(u - i0)
        fv = _fade(v - j0)
        n00 = lattice[j0, i0]
        n01 = lattice[j0, i0 + 1]
        n10 = lattice[j0 + 1, i0]
        n11 = lattice[j0 + 1, i0 + 1]
        total += amp * ((n00 * (1 - fu) + n01 * fu) * (1 - fv) + (n10 * (1 - fu) + n11 * fu) * fv)
        amp *= persistence
        freq *= 2.0
    lo = total.min()
    span = total.max() - lo
    if span == 0.0:
        return np.full((height, width), 0.5)
    return (total - lo) / span


def element_record_to_dict(record):
    """A record's JSON object, converting each element with float()/int()."""
    ann = None
    if record.annotations is not None:
        a = record.annotations
        ann = {
            "target_object": a.target_object,
            "object_position": list(a.object_position) if a.object_position else None,
            "object_color": a.object_color,
            "camera_bin": a.camera_bin,
        }
    return {
        "id": record.id,
        "lab": record.lab,
        "instructions": list(record.instructions),
        "camera_extrinsics": {
            "pos": [float(v) for v in record.camera_pos],
            "quat": [float(v) for v in record.camera_quat],
        },
        "steps": [
            {
                "t": int(record.steps.t[i]),
                "ee_pos": [float(v) for v in record.steps.ee_pos[i]],
                "ee_quat": [float(v) for v in record.steps.ee_quat[i]],
                "gripper": float(record.steps.gripper[i]),
            }
            for i in range(len(record.steps))
        ],
        "annotations": ann,
    }


def cross_quat_rotate(q, v):
    w, x, y, z = q
    u = np.array([x, y, z], dtype=float)
    v = np.asarray(v, dtype=float)
    return v + 2.0 * np.cross(u, np.cross(u, v) + w * v)


def cross_quat_rotate_many(q, vs):
    """Rotate each row of vs by q, or by its own row of an (N, 4) q."""
    q = np.asarray(q, dtype=float)
    w, u = q[..., :1], q[..., 1:]
    vs = np.asarray(vs, dtype=float)
    c = np.cross(np.broadcast_to(u, vs.shape), vs) + w * vs
    return vs + 2.0 * np.cross(np.broadcast_to(u, vs.shape), c)


def cross_look_at_quat(eye, target, up=(0.0, 0.0, 1.0)):
    eye = np.asarray(eye, dtype=float)
    fwd = np.asarray(target, dtype=float) - eye
    n = np.linalg.norm(fwd)
    if n == 0.0:
        raise ValueError("eye coincides with target")
    fwd = fwd / n
    up = np.asarray(up, dtype=float)
    right = np.cross(up, fwd)
    rn = np.linalg.norm(right)
    if rn < 1e-12:
        right = np.cross(np.array([1.0, 0.0, 0.0]), fwd)
        rn = np.linalg.norm(right)
        if rn < 1e-12:
            right = np.cross(np.array([0.0, 1.0, 0.0]), fwd)
            rn = np.linalg.norm(right)
    right = right / rn
    cam_up = np.cross(fwd, right)
    return rotmat_to_quat(np.column_stack([right, cam_up, fwd]))


def quat_mul_many(q, quats):
    """Hamilton product q ⊗ quats[i] for an (N, 4) array, or q[i] ⊗ quats[i]
    for an (N, 4) q."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    qw, qx, qy, qz = quats[:, 0], quats[:, 1], quats[:, 2], quats[:, 3]
    return np.stack(
        [
            w * qw - x * qx - y * qy - z * qz,
            w * qx + x * qw + y * qz - z * qy,
            w * qy - x * qz + y * qw + z * qx,
            w * qz + x * qy - y * qx + z * qw,
        ],
        axis=1,
    )


def array_quat_slerp(a, b, t: float):
    """Slerp at one fraction on numpy arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    dot = float(np.dot(a, b))
    if dot < 0.0:
        b = -b
        dot = -dot
    if dot > 1.0 - 1e-12:
        out = a + t * (b - a)
        return out / np.linalg.norm(out)
    omega = math.acos(min(dot, 1.0))
    so = math.sin(omega)
    return (math.sin((1.0 - t) * omega) * a + math.sin(t * omega) * b) / so


def array_hue_from_unit(tex, u):
    """`TextureSpec.hue_from_unit` on numpy arrays, for a scalar or an array `u`."""
    u = np.asarray(u, dtype=float)
    if tex.mode == "jitter" or tex.h_min <= tex.h_max:
        h = np.clip(tex.h_min + u * (tex.h_max - tex.h_min), tex.h_min, tex.h_max)
    else:
        upper_width = 1.0 - tex.h_min
        span = u * (upper_width + tex.h_max)
        high = tex.h_min + np.minimum(span, upper_width)
        low = np.clip(span - upper_width, 0.0, tex.h_max)
        h = np.where(span < upper_width, high, low)
        h = np.where(h >= 1.0, 0.0, h)
    return float(h) if h.ndim == 0 else h


def _slot_draws(stream, index):
    """(id, drawn from the target pool) per slot of batch `index`, with two
    scalar draws per slot: pool choice, position."""
    gen = substream(stream.seed, sampler._BATCH_DOMAIN, index)
    draws = []
    for _ in range(stream.batch_size):
        pick_target = gen.random() < stream.omega
        pool = stream.target_ids if pick_target else stream.cotrain_ids
        draws.append((pool[int(gen.random() * len(pool))], pick_target))
    return draws


def slot_batch(stream, index):
    """Batch `index` with two scalar draws per slot."""
    return [rid for rid, _ in _slot_draws(stream, index)]


def counter_stream_stats(stream, n_batches):
    """`sampler.stream_stats` as it was before per-position counting: a
    Counter over the ids of each batch, and the target draws summed from
    per-slot pool flags."""
    if n_batches < 1:
        raise ValueError(f"n_batches must be >= 1, got {n_batches}")
    counts = Counter()
    target_draws = 0
    for i in range(n_batches):
        draws = _slot_draws(stream, i)
        counts.update(rid for rid, _ in draws)
        target_draws += sum(flag for _, flag in draws)
    total = n_batches * stream.batch_size
    return {
        "omega": stream.omega,
        "batches": n_batches,
        "batch_size": stream.batch_size,
        "total_draws": total,
        "target_draws": target_draws,
        "target_fraction": target_draws / total,
        "cotrain_fraction": (total - target_draws) / total,
        "draw_counts": dict(counts),
    }


# ---------------------------------------------------------------------------
# s-expression reader oracle: the character-at-a-time scanner that the
# one-pattern tokenizer in `sexpr` replaced, kept as it was apart from the
# names of the two entry points

_NUMBER_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*")


class _Scanner:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0
        self.line = 1
        self.col = 1

    def peek(self) -> str:
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos >= len(self.src):
                return
            if self.src[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def skip_blank(self) -> None:
        while self.pos < len(self.src):
            c = self.src[self.pos]
            if c == ";":
                while self.pos < len(self.src) and self.src[self.pos] != "\n":
                    self.advance()
            elif c.isspace():
                self.advance()
            else:
                return


def _read_string(sc: _Scanner) -> String:
    line, col = sc.line, sc.col
    sc.advance()  # opening quote
    out = []
    while True:
        c = sc.peek()
        if c == "":
            raise SpecSyntaxError("unterminated string", line, col)
        if c == '"':
            sc.advance()
            return String("".join(out), line, col)
        if c == "\\":
            sc.advance()
            esc = sc.peek()
            if esc == "":
                raise SpecSyntaxError("unterminated string escape", sc.line, sc.col)
            if esc not in ('"', "\\", "n", "t"):
                raise SpecSyntaxError(f"unknown string escape '\\{esc}'", sc.line, sc.col)
            out.append({"n": "\n", "t": "\t"}.get(esc, esc))
            sc.advance()
        else:
            out.append(c)
            sc.advance()


def _read_atom(sc: _Scanner) -> Form:
    line, col = sc.line, sc.col
    c = sc.peek()
    if c == '"':
        return _read_string(sc)
    if c == ":":
        sc.advance()
        m = _SYMBOL_RE.match(sc.src, sc.pos)
        if not m or m.start() != sc.pos:
            raise SpecSyntaxError("expected keyword name after ':'", line, col)
        sc.advance(m.end() - sc.pos)
        return Keyword(m.group(0), line, col)
    if c.isdigit() or c in "+-." :
        m = _NUMBER_RE.match(sc.src, sc.pos)
        if not m or m.start() != sc.pos:
            raise SpecSyntaxError(f"malformed number starting at {c!r}", line, col)
        end = m.end()
        if end < len(sc.src) and not sc.src[end].isspace() and sc.src[end] not in "();":
            raise SpecSyntaxError(f"malformed number {sc.src[sc.pos:end + 1]!r}", line, col)
        sc.advance(end - sc.pos)
        return Number(float(m.group(0)), line, col)
    m = _SYMBOL_RE.match(sc.src, sc.pos)
    if not m or m.start() != sc.pos:
        raise SpecSyntaxError(f"unexpected character {c!r}", line, col)
    sc.advance(m.end() - sc.pos)
    return Symbol(m.group(0), line, col)


def _read_form(sc: _Scanner) -> Form:
    sc.skip_blank()
    c = sc.peek()
    if c == "":
        raise SpecSyntaxError("unexpected end of input", sc.line, sc.col)
    if c == "(":
        lst = SList([], sc.line, sc.col)
        sc.advance()
        while True:
            sc.skip_blank()
            nxt = sc.peek()
            if nxt == "":
                raise SpecSyntaxError("unbalanced '(': missing ')'", lst.line, lst.col)
            if nxt == ")":
                sc.advance()
                return lst
            lst.items.append(_read_form(sc))
    if c == ")":
        raise SpecSyntaxError("unbalanced ')'", sc.line, sc.col)
    return _read_atom(sc)


def scanner_read_all(source: str) -> list[Form]:
    """Read every top-level form in `source`."""
    sc = _Scanner(source)
    forms = []
    while True:
        sc.skip_blank()
        if sc.peek() == "":
            return forms
        forms.append(_read_form(sc))


def scanner_read_one(source: str) -> Form:
    """Read exactly one top-level form; empty or trailing input is an error."""
    sc = _Scanner(source)
    sc.skip_blank()
    if sc.peek() == "":
        raise SpecSyntaxError("empty input", 1, 1)
    form = _read_form(sc)
    sc.skip_blank()
    if sc.peek() != "":
        raise SpecSyntaxError("unexpected trailing input", sc.line, sc.col)
    return form


# ---------------------------------------------------------------------------
# query builder oracle: `query_from_form`, its sub-form parsers, the
# generator-based `RetrievalQuery` checks and `sexpr.keyword_fields` as they
# were before the one-pass checks, on top of the scanner above.  The two
# rules added since (non-empty names, motion labels that `lexicon` can
# produce) sit where the fast path raises them.

def _oracle_keyword_fields(items, context):
    fields = []
    seen = set()
    i = 0
    while i < len(items):
        kw = items[i]
        if not isinstance(kw, Keyword):
            raise SpecSyntaxError(f"expected a :keyword in {context}", kw.line, kw.col)
        if kw.name in seen:
            raise SpecSyntaxError(f"duplicate :{kw.name} in {context}", kw.line, kw.col)
        seen.add(kw.name)
        args = []
        i += 1
        while i < len(items) and not isinstance(items[i], Keyword):
            args.append(items[i])
            i += 1
        fields.append((kw, args))
    return fields


def _oracle_name(form, field, what):
    name = sexpr.as_string(form, what).value
    if not name:
        raise SpecRangeError(field, f"{field} name must be non-empty", form.line, form.col)
    return name


def _oracle_triple(args, kw):
    if len(args) != 3:
        raise SpecSyntaxError(f":{kw.name} takes exactly three numbers", kw.line, kw.col)
    return tuple(sexpr.as_number(a, f":{kw.name}").value for a in args)


def _oracle_object(form):
    head = sexpr.head_symbol(form)
    if head.name not in ("include", "exclude"):
        raise SpecSyntaxError("expected (include ...) or (exclude ...)", head.line, head.col)
    if len(form.items) != 2:
        raise SpecSyntaxError(f"({head.name} ...) takes exactly one object name", head.line, head.col)
    name = _oracle_name(form.items[1], "object", "object name")
    return (name, None) if head.name == "include" else (None, name)


_ORACLE_SUBFORMS = {
    "campose": ("pos", {"pos": "campose_target", "tol": "campose_tol"}),
    "objspat": ("center", {"center": "objspat_center", "extent": "objspat_extent"}),
}


def _oracle_subform(kw, args):
    if len(args) != 1 or not isinstance(args[0], SList):
        raise SpecSyntaxError(f":{kw.name} takes exactly one (...) form", kw.line, kw.col)
    required, fields = _ORACLE_SUBFORMS[kw.name]
    values = {}
    for skw, sargs in _oracle_keyword_fields(args[0].items, f"(:{required} ...)"):
        if skw.name not in fields:
            raise SpecSyntaxError(f"unknown {kw.name} field :{skw.name}", skw.line, skw.col)
        values[fields[skw.name]] = _oracle_triple(sargs, skw)
    if fields[required] not in values:
        raise SpecSyntaxError(f":{kw.name} requires :{required}", kw.line, kw.col)
    return values


def _oracle_checked_query(values) -> RetrievalQuery:
    """The query of `values`, checked as `RetrievalQuery.__post_init__` did,
    built without running the program's own checks."""
    q = object.__new__(RetrievalQuery)
    for f in dataclasses.fields(RetrievalQuery):
        object.__setattr__(q, f.name, values.get(f.name, f.default))
    if q.object_include is not None and q.object_exclude is not None:
        raise SpecRangeError("object", "include and exclude are mutually exclusive")
    if not any(
        f is not None
        for f in (q.object_include, q.object_exclude, q.campose_target, q.objspat_center, q.color, q.motion)
    ):
        raise SpecRangeError("query", "at least one filter required")
    for name, triple in (("campose.pos", q.campose_target), ("campose.tol", q.campose_tol),
                         ("objspat.center", q.objspat_center), ("objspat.extent", q.objspat_extent)):
        if triple is not None and (len(triple) != 3 or not all(map(math.isfinite, triple))):
            raise SpecRangeError(name, f"must be three finite numbers, got {triple}")
    for name, triple in (("campose.tol", q.campose_tol), ("objspat.extent", q.objspat_extent)):
        if any(v <= 0 for v in triple):
            raise SpecRangeError(name, f"all components must be > 0, got {triple}")
    if q.motion is not None and not q.motion:
        raise SpecRangeError("motion", "motion filter must name at least one primitive")
    return q


def oracle_query_from_form(form) -> RetrievalQuery:
    sexpr.head_symbol(form, "query")
    values = {}
    for kw, args in _oracle_keyword_fields(form.items[1:], "(query ...)"):
        if kw.name == "object":
            if len(args) != 1:
                raise SpecSyntaxError(":object takes exactly one form", kw.line, kw.col)
            values["object_include"], values["object_exclude"] = _oracle_object(args[0])
        elif kw.name in _ORACLE_SUBFORMS:
            values.update(_oracle_subform(kw, args))
        elif kw.name == "color":
            if len(args) != 1:
                raise SpecSyntaxError(":color takes exactly one string", kw.line, kw.col)
            values["color"] = _oracle_name(args[0], "color", ":color")
        elif kw.name == "motion":
            if not args:
                raise SpecSyntaxError(":motion takes at least one primitive", kw.line, kw.col)
            values["motion"] = frozenset(sexpr.as_symbol(a, "primitive").name for a in args)
            known = set(lexicon.DEFAULT_VERB_MAP.values())
            for a in args:
                if a.name not in known:
                    raise SpecRangeError("motion", f"unknown label {a.name!r}, expected one of "
                                         f"{', '.join(sorted(known))}", kw.line, kw.col)
        else:
            raise SpecSyntaxError(f"unknown query field :{kw.name}", kw.line, kw.col)
    return _oracle_checked_query(values)


def oracle_parse_query(source: str) -> RetrievalQuery:
    return oracle_query_from_form(scanner_read_one(source))
