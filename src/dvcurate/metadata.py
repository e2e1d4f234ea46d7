"""Demonstration corpora: ingestion, validation, and per-demo annotations.

Records live in line-delimited JSON, one demonstration per line:

    {"id": str, "lab": str, "instructions": [str],
     "camera_extrinsics": {"pos": [x,y,z], "quat": [w,x,y,z]},
     "steps": [{"t": int, "ee_pos": [x,y,z], "ee_quat": [w,x,y,z],
                "gripper": float}, ...],
     "annotations": {...} | null}

`iter_records` reads a corpus in chunks of about CHUNK_BYTES of lines, and
validates the records of a chunk together: their steps are flat `t`,
`ee_pos`, `ee_quat` and `gripper` arrays, each rule is one array operation
over the chunk (with the steps where one record ends and the next begins
left out of the time-order check), and the records are built from row
slices of those arrays, so records of one chunk share memory.  A chunk is
first read as columns (`_column_chunk`).  When every line holds its steps
array in the compact layout that `write_records` writes, each array is cut
out of its line and checked against that layout with `bytes.translate`
and a numpy check that no number's place is empty; the numbers of all the
chunk's arrays are decoded by one `orjson.loads` of a flat array, and only
the rest of each line is decoded into a dict, so no dict or list is made
per step.  Any other chunk (a line with whitespace in its steps, other step
keys or key order, an escape anywhere, or anything the column reader
does not clear) has each line decoded whole with `orjson`, and
`_parse_chunk` takes its step dicts apart.  The stdlib
`json` and `parse_record` are the only definition of the rules and the only
code that raises for a bad line: when `orjson` refuses a line of a chunk, a
line nests deeper than _MAX_FAST_DEPTH, or the batch check does not clear
every record, the chunk is read again with the stdlib `json`.  A chunk the
batch check refused then goes record by record through `parse_record`;
any other is checked as a batch first, and record by record unless that
clears it.  `orjson` accepts no line that the stdlib refuses and reads
every float to the same double; what it refuses and the stdlib accepts (NaN
and Infinity, lone surrogates, a BOM, numbers past the double range) takes
the re-read.  The one value it reads differently, an integer outside the
64-bit range (a float to orjson), is valid only where a float is, so it
gives the same record.  The first bad line wins: the records before it are
yielded, then its error is raised with the same class, line, field and
message as a line-by-line read would give.

`write_records` writes each record as the stdlib's compact `json.dumps` of
`record_to_dict` would, byte for byte.  `orjson` encodes a record about 4x
faster, but writes other bytes for some values: non-ASCII text as raw UTF-8
(the stdlib escapes it), DEL (U+007F) unescaped, and floats below 1e-4 or from
1e16 up in its own notation (`0.00001` for `1e-05`, `1e16` for `1e+16`, null
for NaN and infinities); it raises on lone surrogates and numpy scalars.  So
a record goes to `orjson` only when every string is printable ASCII and the
annotation position holds only floats; any other record is encoded whole by
the stdlib, which also raises where it always did.  Where such a record holds
a float that is neither 0 nor of magnitude in [1e-4, 1e16), the range where
`orjson` writes what `repr` does, the float goes in as a placeholder string
that is then replaced by the stdlib's text of it.  So a record's encoding
cost does not depend on its floats: about 10 % of generated demos carry a
step coordinate below 1e-4, and encoding each of them whole by the stdlib
made a write's time vary by up to 60 % from one corpus to the next.
An existing output file is rewritten in place and then cut to the bytes
written (`overwrite`), not truncated first: on an ext4 mounted with
`discard`, freeing a written-back file's blocks took 30-90 ms per 1-2 MB,
against under 1 ms to write the same bytes over them.

Annotations derive the per-demo DV measurements: target object from the
instructions, object position from the first smoothed gripper close, object
color from a pluggable annotator, and the camera-pose bin.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import re
import stat
import threading
from dataclasses import dataclass, replace

import numpy as np
import orjson

from . import lexicon as lexmod
from .errors import (
    AnnotatorUnavailable,
    DegeneratePose,
    InputError,
    NoObjectFound,
    NoVerbFound,
    QuaternionNormError,
    SchemaError,
)
from .geometry import UNIT_NORM_TOL, spherical_about

GRIPPER_WINDOW = 15
GRIPPER_THRESHOLD = 0.5
CAMERA_BIN_POLAR_WIDTH = 15.0
CAMERA_BIN_AZIMUTH_WIDTH = 30.0
# Bytes of lines validated together.  A chunk costs some 30 numpy calls
# whatever its size, so it should hold many short records, but the objects
# decoded from it live until its records are built.  Of 16, 32 and 64 KiB,
# 32 KiB read the bench's 2-step and 150-step corpora fastest (see CHANGES.md).
CHUNK_BYTES = 1 << 15

ANNOTATOR_URL_ENV = "DVC_ANNOTATOR_URL"
ANNOTATOR_TIMEOUT_ENV = "DVC_ANNOTATOR_TIMEOUT_MS"
ANNOTATOR_RETRIES_ENV = "DVC_ANNOTATOR_RETRIES"


@dataclass
class Steps:
    """Per-timestep trajectory arrays (structure-of-arrays layout)."""

    t: np.ndarray        # (n,) int64, strictly increasing
    ee_pos: np.ndarray   # (n, 3) float64, meters
    ee_quat: np.ndarray  # (n, 4) float64, unit (w, x, y, z)
    gripper: np.ndarray  # (n,) float64 in [0, 1], 1 = closed

    def __len__(self) -> int:
        return len(self.t)


@dataclass
class Annotations:
    target_object: str | None = None
    object_position: tuple[float, float, float] | None = None
    object_color: str | None = None
    camera_bin: str | None = None


@dataclass
class DemoRecord:
    id: str
    lab: str
    instructions: tuple[str, ...]
    camera_pos: np.ndarray   # (3,)
    camera_quat: np.ndarray  # (4,) unit
    steps: Steps
    annotations: Annotations | None = None


# ---------------------------------------------------------------------------
# ingestion

def _schema(line: int, field: str, message: str) -> SchemaError:
    return SchemaError(line, field, message)


# The types a JSON number decodes to.  A JSON string or true/false decodes to
# str or bool, though `float()` and numpy read "0.1" and true as numbers.
_NUMBER_TYPES = frozenset({int, float})


def _numbers(values) -> bool:
    """Whether every value was decoded from a JSON number."""
    return set(map(type, values)) <= _NUMBER_TYPES


def parse_record(obj: dict, line: int = 0) -> DemoRecord:
    """Validate one decoded JSON object into a DemoRecord."""
    try:
        rid = obj["id"]
        lab = obj["lab"]
        instructions = obj["instructions"]
        cam = obj["camera_extrinsics"]
        steps = obj["steps"]
    except (KeyError, TypeError) as exc:
        raise _schema(line, str(exc), "missing required field") from None
    if not isinstance(rid, str) or not rid:
        raise _schema(line, "id", "must be a non-empty string")
    if not isinstance(lab, str):
        raise _schema(line, "lab", "must be a string")
    if not isinstance(instructions, list) or not all(isinstance(s, str) for s in instructions):
        raise _schema(line, "instructions", "must be a list of strings")
    try:
        cam_pos = np.asarray(cam["pos"], dtype=float)
        cam_quat = np.asarray(cam["quat"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise _schema(line, "camera_extrinsics", f"bad extrinsics: {exc}") from None
    if cam_pos.shape != (3,) or not _numbers(cam["pos"]) or not np.isfinite(cam_pos).all():
        raise _schema(line, "camera_extrinsics.pos", "expected 3 finite numbers")
    if cam_quat.shape != (4,) or not _numbers(cam["quat"]):
        raise _schema(line, "camera_extrinsics.quat", "expected 4 numbers")
    cam_norm = math.sqrt(float(cam_quat @ cam_quat))
    if not abs(cam_norm - 1.0) <= UNIT_NORM_TOL:  # a NaN fails too
        raise QuaternionNormError(line, f"camera quaternion norm {cam_norm:.8f} != 1")
    if not isinstance(steps, list) or not steps:
        raise _schema(line, "steps", "must be a non-empty list")
    try:
        t_raw = [s["t"] for s in steps]
        ts = np.array(t_raw, dtype=np.int64)
        pos_raw = [s["ee_pos"] for s in steps]
        ee_pos = np.array(pos_raw, dtype=float)
        quat_raw = [s["ee_quat"] for s in steps]
        ee_quat = np.array(quat_raw, dtype=float)
        grip_raw = [s["gripper"] for s in steps]
        gripper = np.array(grip_raw, dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _schema(line, "steps", f"bad step fields: {exc}") from None
    if not all(type(t) is int for t in t_raw):  # a JSON true is a bool, not a timestamp
        raise _schema(line, "steps.t", "timestamps must be integers")
    n = len(steps)
    if (ee_pos.shape != (n, 3) or not _numbers(itertools.chain.from_iterable(pos_raw))
            or not np.isfinite(ee_pos).all()):
        raise _schema(line, "steps.ee_pos", "expected 3 finite numbers per step")
    if ee_quat.shape != (n, 4) or not _numbers(itertools.chain.from_iterable(quat_raw)):
        raise _schema(line, "steps.ee_quat", "expected 4 numbers per step")
    norms = np.sqrt(np.einsum("ij,ij->i", ee_quat, ee_quat))
    err = np.abs(norms - 1.0)
    if not (err <= UNIT_NORM_TOL).all():
        bad = int(err.argmax())  # the first NaN, else the largest error
        raise QuaternionNormError(line, f"step {bad} quaternion norm {norms[bad]:.8f} != 1")
    if not _numbers(grip_raw) or not ((gripper >= 0.0) & (gripper <= 1.0)).all():
        raise _schema(line, "gripper", "gripper values must be numbers in [0, 1]")
    if n > 1 and np.diff(ts).min() <= 0:
        raise _schema(line, "steps.t", "timestamps must be strictly increasing")

    annotations = None
    ann = obj.get("annotations")
    if ann is not None:
        if not isinstance(ann, dict):
            raise _schema(line, "annotations", "must be an object or null")
        bad = _bad_label(ann)
        if bad is not None:
            raise _schema(line, f"annotations.{bad}", "must be a string or null")
        try:
            annotations = _annotations(ann)
        except (TypeError, ValueError, OverflowError) as exc:
            raise _schema(line, "annotations.object_position",
                          f"expected 3 finite numbers: {exc}") from None
    return DemoRecord(
        id=rid,
        lab=lab,
        instructions=tuple(instructions),
        camera_pos=cam_pos,
        camera_quat=cam_quat,
        steps=Steps(ts, ee_pos, ee_quat, gripper),
        annotations=annotations,
    )


_LABELS = ("target_object", "object_color", "camera_bin")


def _bad_label(ann: dict) -> str | None:
    """The first label field that holds neither a string nor null, if any."""
    for name in _LABELS:
        if not isinstance(ann.get(name), (str, type(None))):
            return name
    return None


def _annotations(ann: dict) -> Annotations:
    pos = ann.get("object_position")
    if pos is not None:
        x, y, z = pos  # raises unless pos holds exactly three values
        if not _numbers(pos):
            raise TypeError(f"non-number in {pos!r}")
        pos = (float(x), float(y), float(z))
        if not all(map(math.isfinite, pos)):
            raise ValueError(f"non-finite coordinate in {list(pos)}")
    # positional arguments: the batch reader builds one per record
    return Annotations(ann.get("target_object"), pos, ann.get("object_color"),
                       ann.get("camera_bin"))


# Batch norms may sum in another order than parse_record's; a norm this close
# to the tolerance is left to parse_record instead.
_NORM_MARGIN = 1e-12


def _unit_rows(quats: np.ndarray) -> bool:
    err = np.abs(np.sqrt(np.einsum("ij,ij->i", quats, quats)) - 1.0)
    return bool((err <= UNIT_NORM_TOL - _NORM_MARGIN).all())


def _heads(objs) -> list[tuple] | None:
    """The (id, lab, instructions, annotations, camera pos, camera quat, steps) of decoded records.

    None unless every field but the camera values and the steps has the type
    `parse_record` requires; raises KeyError (a missing key), TypeError,
    ValueError or OverflowError for some bad values.  The camera values and
    the steps are as decoded.
    """
    heads = []
    for obj in objs:
        rid = obj["id"]
        lab = obj["lab"]
        instructions = obj["instructions"]
        cam = obj["camera_extrinsics"]
        steps = obj["steps"]
        ann = obj.get("annotations")
        if not (isinstance(rid, str) and rid and isinstance(lab, str)
                and isinstance(instructions, list)
                and all(isinstance(s, str) for s in instructions)
                and isinstance(cam, dict)
                and (ann is None or (isinstance(ann, dict) and _bad_label(ann) is None))):
            return None
        heads.append((rid, lab, tuple(instructions), None if ann is None else _annotations(ann),
                      cam["pos"], cam["quat"], steps))
    return heads


def _build_chunk(heads: list, ts: list, ee_pos: np.ndarray, ee_quat: np.ndarray,
                 gripper: np.ndarray, offsets: list[int]) -> list[DemoRecord] | None:
    """A chunk's records from their heads (`_heads`) and chunk-wide step columns.

    Record k holds rows offsets[k]:offsets[k + 1] of the decoded `ts` (as
    int64), `ee_pos`, `ee_quat` and `gripper`, as slices.  None unless every
    `t` is an integer, every camera holds 3 and 4 JSON numbers, and every
    rule clearly holds: a NaN or infinity, a norm near the tolerance, a
    gripper out of range or a `t` that does not rise leaves the verdict to
    `parse_record`.  May raise TypeError or OverflowError for a camera value.
    """
    ts = np.array(ts)  # int64 only when every t is an integer
    if ts.dtype != np.int64:
        return None
    poses, quats = [h[4] for h in heads], [h[5] for h in heads]
    if set(map(len, poses)) != {3} or set(map(len, quats)) != {4}:
        return None
    cam = [*itertools.chain.from_iterable(poses), *itertools.chain.from_iterable(quats)]
    if not _numbers(cam):
        return None
    m = len(heads)
    cam = np.fromiter(cam, float, 7 * m)
    # the cameras' rows first: one check covers them and the steps
    threes = np.concatenate((cam[:3 * m].reshape(-1, 3), ee_pos))
    fours = np.concatenate((cam[3 * m:].reshape(-1, 4), ee_quat))
    rising = np.diff(ts) > 0
    rising[np.array(offsets[1:-1], dtype=np.int64) - 1] = True  # record boundaries
    if not (np.isfinite(threes).all() and _unit_rows(fours)
            and ((gripper >= 0.0) & (gripper <= 1.0)).all() and rising.all()):
        return None
    cam_pos, ee_pos, cam_quat, ee_quat = threes[:m], threes[m:], fours[:m], fours[m:]
    return [
        DemoRecord(rid, lab, instructions, cp, cq,
                   Steps(ts[a:b], ee_pos[a:b], ee_quat[a:b], gripper[a:b]), ann)
        for (rid, lab, instructions, ann, _, _, _), cp, cq, a, b
        in zip(heads, cam_pos, cam_quat, offsets, offsets[1:])
    ]


def _parse_chunk(objs: list) -> list[DemoRecord] | None:
    """Validate decoded objects together; None unless every one is clearly valid.

    Accepts only records that `parse_record` accepts and builds the records
    it would build, as row slices of chunk-wide arrays.  Anything unusual
    (a missing key, a ragged array, a value that is not a JSON number, a NaN,
    a non-integer `t`, a norm near the tolerance) returns None and leaves
    the verdict to `parse_record`.  This reads the objects of a chunk that
    `_column_chunk` did not read: a loop takes each step's dict apart.
    """
    ts, ee_pos, ee_quat, gripper, offsets = [], [], [], [], [0]
    try:
        heads = _heads(objs)
        if heads is None:
            return None
        for head in heads:
            steps = head[6]
            if not (isinstance(steps, list) and steps):
                return None
            for s in steps:
                ts.append(s["t"])
                ee_pos.append(s["ee_pos"])
                ee_quat.append(s["ee_quat"])
                gripper.append(s["gripper"])
            offsets.append(len(ts))
        if set(map(len, ee_pos)) != {3} or set(map(len, ee_quat)) != {4}:
            return None
        # every float of the chunk's steps in one list: one type pass, one conversion
        flat = [*itertools.chain.from_iterable(ee_pos),
                *itertools.chain.from_iterable(ee_quat), *gripper]
        if not _numbers(itertools.chain(flat, ts)):
            return None
        values = np.fromiter(flat, float, len(flat))
        n = len(ts)
        return _build_chunk(heads, ts, values[:3 * n].reshape(-1, 3),
                            values[3 * n:7 * n].reshape(-1, 4), values[7 * n:], offsets)
    except (KeyError, TypeError, ValueError, OverflowError):
        return None


# The compact layout of a steps array, as `write_records` writes it:
#   "steps":[{"t":T,"ee_pos":[X,Y,Z],"ee_quat":[W,X,Y,Z],"gripper":G},...]
_STEPS_START = b'"steps":[{"t":'
# the bytes of JSON numbers written with an upper-case exponent: the layout's
# keys hold none of them
_NUMBER_BYTES = b"0123456789+-.E"
# one step of the layout with its numbers deleted, after the comma before it
_STEP_SKELETON = b',{"t":,"ee_pos":[,,],"ee_quat":[,,,],"gripper":}'
# keeps the number bytes and commas and makes every other byte JSON whitespace:
# a tab for `:` and `[`, which come before a number's place, a newline for `]`
# and `}`, which may come after one, and a space for the rest
_TO_NUMBERS = bytes(c if c in _NUMBER_BYTES + b"," else ord("\t") if c in b":[" else
                    ord("\n") if c in b"]}" else ord(" ") for c in range(256))
_STEP_VALUES = 9  # t, 3 of ee_pos, 4 of ee_quat, gripper
_BACKSLASH = ord("\\")  # an int: `in` on a bytes value finds it faster than b"\\"
# Python writes exponents as e-05 and e+16; in the layout's keys no e comes before a sign
_SIGNED_EXPONENT = re.compile(rb"e(?=[-+])")


def _layout_sizes(arrays: bytes, m: int) -> list[int] | None:
    """The step count of each of `m` steps arrays joined by commas, or None
    unless each, less its number bytes, is the compact layout."""
    parts = arrays.translate(None, _NUMBER_BYTES).split(b"],[")
    if len(parts) != m:
        return None
    sizes = [(len(part) + 1) // len(_STEP_SKELETON) for part in parts]
    # the arrays as one: each part starts a step and ends one, so each holds whole steps
    if b"," + b",".join(parts)[1:-1] != _STEP_SKELETON * sum(sizes):
        return None
    return sizes


def _empty_place(flat: bytes) -> bool:
    """Whether a number's place is empty in steps arrays that, less their
    number bytes, are the compact layout, given their `_TO_NUMBERS` text:
    a tab or comma right before a comma or newline."""
    tab, newline, comma = b"\t\n,"
    b = np.frombuffer(flat, np.uint8)
    before, after = b[:-1], b[1:]
    return bool((((before == tab) | (before == comma))
                 & ((after == newline) | (after == comma))).any())


def _column_chunk(chunk: list[bytes]) -> list[DemoRecord] | None:
    """The chunk's records read as step columns; None unless each line allows it.

    Each line but a blank one must hold a steps array that, less its number
    bytes, is the compact layout, and no other "steps".  The rest of the
    line (the header, with the array replaced by `[]`) must decode with
    orjson into a record whose top-level "steps" is the one cut out.  Like
    the array it stands for, `[]` is a whole value that no bytes after it
    can extend into another, as they could a number.  All
    the arrays, with every byte but the number bytes and commas made
    whitespace, are decoded by one `orjson.loads` as a flat array of
    numbers.  Each stretch between two commas holds one number's place, so
    this is valid JSON only when each stretch holds one JSON number; as no
    place is empty, that number is the place's own, and no number byte is
    anywhere else.  The records must then clear the batch check of
    `_build_chunk`.
    """
    for raw in chunk:
        # an escape (as `write_records` writes for text that is not printable
        # ASCII) refuses the chunk before any line of it is cut
        if _BACKSLASH in raw:
            return None
    headers, arrays = [], []
    for raw in chunk:
        if raw.isspace():
            continue
        start = raw.find(_STEPS_START) + len(b'"steps":')
        end = raw.rfind(b"}]") + len(b"}]")
        if start < len(b'"steps":') or end <= start:
            return None
        headers.append(raw[:start] + b"[]" + raw[end:])
        arrays.append(raw[start:end])
    # without escapes, a key "steps" is spelled so: each header holds only the one cut
    if not headers or b"\n".join(headers).count(b'"steps"') != len(headers):
        return None
    text = b",".join(arrays)
    sizes = _layout_sizes(text, len(arrays))
    if sizes is None:
        # Retried only here: a scan for "e-" and "e+" costs as much as the
        # layout check, and most chunks hold no exponent.
        text = _SIGNED_EXPONENT.sub(b"E", text)
        sizes = _layout_sizes(text, len(arrays))
    if sizes is None or any(map(_too_deep, headers)):
        return None
    try:
        heads = _heads(map(orjson.loads, headers))  # KeyError unless "steps" is top-level
        if heads is None:
            return None
        flat = text.translate(_TO_NUMBERS)
        if _empty_place(flat):
            return None
        values = orjson.loads(b"[" + flat + b"]")
        steps = np.fromiter(values, float, len(values)).reshape(-1, _STEP_VALUES)
        return _build_chunk(heads, values[::_STEP_VALUES], steps[:, 1:4], steps[:, 4:8],
                            steps[:, 8].copy(), [0, *itertools.accumulate(sizes)])
    except (orjson.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError):
        return None


def _decode(raw: bytes, line: int):
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _schema(line, "json", f"invalid JSON: {exc.msg}") from None
    except (UnicodeDecodeError, RecursionError) as exc:
        raise _schema(line, "json", f"invalid JSON: {exc}") from None


# orjson builds nested values by recursion on the C stack with no depth limit
# (an 8 MB stack overflows between 100 000 and 150 000 levels), so a line that
# may nest deeper than this takes the stdlib re-read instead, which raises
# RecursionError near 1000 levels.  A record nests 4 deep.
_MAX_FAST_DEPTH = 512
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'[]{}"\\')))
_NESTING_STEP = bytes(1 if c in b"[{" else 255 if c in b"]}" else 0 for c in range(256))
_ESCAPE = re.compile(rb"\\.", re.DOTALL)


def _depth(raw: bytes) -> int:
    """Nesting depth of a JSON text; for invalid text, at least that of its valid prefix."""
    s = raw.translate(None, _NOT_STRUCTURE)  # brackets, quotes and backslashes
    if s.count(b'"') != 2 * s.count(b'""'):  # a string holds a bracket or an escape
        s = b"".join(_ESCAPE.sub(b"", raw).translate(None, _NOT_STRUCTURE).split(b'"')[::2])
    steps = np.frombuffer(s.translate(_NESTING_STEP), dtype=np.int8)
    return int(steps.cumsum(dtype=np.int64).max(initial=0))


def _too_deep(raw: bytes) -> bool:
    """Whether a line may nest deeper than _MAX_FAST_DEPTH; exact for valid JSON."""
    if len(raw) <= 2 * _MAX_FAST_DEPTH:  # valid JSON closes every level it opens
        return False
    # `[` and `{` are the only bytes b with b | 0x20 == `{`; each opens at most one level
    opens = np.count_nonzero((np.frombuffer(raw, dtype=np.uint8) | 0x20) == ord("{"))
    return opens > _MAX_FAST_DEPTH and _depth(raw) > _MAX_FAST_DEPTH


def _orjson_objects(chunk: list[bytes]) -> list | None:
    """The chunk's objects as decoded by orjson, or None to have the stdlib decode it."""
    lines = [raw for raw in chunk if not raw.isspace()]
    if any(map(_too_deep, lines)):
        return None
    try:
        return list(map(orjson.loads, lines))
    except orjson.JSONDecodeError:
        return None


def _reread_chunk(chunk: list[bytes], lineno: int, batch: bool):
    """Decode a chunk with the stdlib `json` and validate it, raising at its first bad line.

    With `batch`, the objects are checked together first; without it, every
    line goes through `parse_record`.
    """
    objs, lines, error = [], [], None
    for raw in chunk:
        lineno += 1
        if not raw.strip():
            continue
        try:
            objs.append(_decode(raw, lineno))
        except SchemaError as exc:
            error = exc
            break
        lines.append(lineno)
    records = _parse_chunk(objs) if batch else None
    yield from map(parse_record, objs, lines) if records is None else records
    if error is not None:
        raise error


def _chunk_records(chunk: list[bytes], lineno: int):
    """The chunk's records read as columns, else from its orjson objects, else
    from the stdlib re-read of the chunk.

    A plain function, so that the decoded objects are freed before the
    records are yielded.
    """
    records = _column_chunk(chunk)
    if records is not None:
        return records
    objs = _orjson_objects(chunk)
    records = None if objs is None else _parse_chunk(objs)
    if records is None:
        # the batch check would refuse the stdlib's objects too: the two
        # decoders agree on every value that can pass it
        return _reread_chunk(chunk, lineno, batch=objs is None)
    return records


def iter_records(path):
    """Stream DemoRecords from a line-delimited file, validating each chunk.

    A chunk is read as step columns when each of its lines allows it
    (`_column_chunk`), else by decoding each line whole (`_parse_chunk`).
    Blank lines are skipped.  On the first bad line, the records before it
    are yielded and then its SchemaError or QuaternionNormError is raised.
    """
    with open(path, "rb") as fh:
        lineno = 0
        while chunk := fh.readlines(CHUNK_BYTES):
            yield from _chunk_records(chunk, lineno)
            lineno += len(chunk)


def ingest(path) -> list[DemoRecord]:
    """Load and validate a whole corpus file; errors carry line numbers."""
    return list(iter_records(path))


def record_to_dict(record: DemoRecord) -> dict:
    ann = None
    if record.annotations is not None:
        a = record.annotations
        ann = {
            "target_object": a.target_object,
            "object_position": list(a.object_position) if a.object_position else None,
            "object_color": a.object_color,
            "camera_bin": a.camera_bin,
        }
    steps = record.steps
    return {
        "id": record.id,
        "lab": record.lab,
        "instructions": list(record.instructions),
        "camera_extrinsics": {
            "pos": _floats(record.camera_pos),
            "quat": _floats(record.camera_quat),
        },
        "steps": [
            {"t": t, "ee_pos": pos, "ee_quat": quat, "gripper": grip}
            for t, pos, quat, grip in zip(
                np.asarray(steps.t, dtype=np.int64).tolist(), _floats(steps.ee_pos),
                _floats(steps.ee_quat), _floats(steps.gripper),
            )
        ],
        "annotations": ann,
    }


def _floats(values) -> list:
    """Nested lists of Python floats, as `float()` of each element gives."""
    return np.asarray(values, dtype=float).tolist()


# orjson writes a nonzero float as `repr` does when its magnitude lies in
# [_REPR_MIN, _REPR_MAX); outside, it writes 0.00001 for 1e-05, 1e16 for 1e+16
# and null for NaN and infinities.
_REPR_MIN, _REPR_MAX = 1e-4, 1e16


def _printable_ascii(text) -> bool:
    return type(text) is str and text.isascii() and text.isprintable()


def _orjson_safe(obj: dict) -> bool:
    """Whether orjson writes every string of `obj` as the stdlib does and raises on none of its values.

    True when every string is printable ASCII (orjson writes other text as
    raw UTF-8 where the stdlib escapes it, and raises on lone surrogates) and
    every position coordinate is a `float`: strings must be `str` and the
    position `float`s, since a hand-built record may hold numpy scalars (on
    which orjson raises) or text there; every other value of `obj` comes
    from `.tolist()`.
    """
    texts = [obj["id"], obj["lab"], *obj["instructions"]]
    ann = obj["annotations"]
    if ann is not None:
        texts += [label for name in _LABELS if (label := ann[name]) is not None]
        pos = ann["object_position"]
        if pos is not None and not all(type(v) is float for v in pos):
            return False
    return all(map(_printable_ascii, texts))


def _off_repr(values) -> np.ndarray:
    """Mask of the floats that orjson writes otherwise than `repr`: neither 0
    nor of magnitude in [_REPR_MIN, _REPR_MAX)."""
    mag = np.abs(np.asarray(values, dtype=float))
    return ~(((mag >= _REPR_MIN) & (mag < _REPR_MAX)) | (mag == 0.0))


def _off_repr_sites(record: DemoRecord, obj: dict) -> list:
    """The (list or dict, key) of each float of `obj` that orjson writes otherwise than `repr`."""
    steps, pos = record.steps, obj["annotations"] and obj["annotations"]["object_position"]
    arrays = [record.camera_pos, record.camera_quat, steps.ee_pos, steps.ee_quat, steps.gripper,
              *([pos] if pos else [])]
    if not _off_repr(np.concatenate([np.asarray(a, dtype=float).ravel() for a in arrays])).any():
        return []
    cam, rows, n = obj["camera_extrinsics"], obj["steps"], len(obj["steps"])
    sites = [(cam["pos"], i) for (i,) in np.argwhere(_off_repr(record.camera_pos)).tolist()]
    sites += [(cam["quat"], i) for (i,) in np.argwhere(_off_repr(record.camera_quat)).tolist()]
    for name in ("ee_pos", "ee_quat"):  # `record_to_dict` zips the steps to `n` rows
        off = np.argwhere(_off_repr(getattr(steps, name))[:n]).tolist()
        sites += [(rows[i][name], j) for i, j in off]
    sites += [(rows[i], "gripper") for (i,) in np.argwhere(_off_repr(steps.gripper)[:n]).tolist()]
    if pos:
        sites += [(pos, i) for (i,) in np.argwhere(_off_repr(pos)).tolist()]
    return sites


def _orjson_exact(record: DemoRecord, obj: dict) -> bool:
    """Whether `orjson.dumps(obj)` gives the bytes of the stdlib's compact `json.dumps`."""
    return _orjson_safe(obj) and not _off_repr_sites(record, obj)


# a placeholder `"\0k"` as orjson writes it: no printable ASCII string gives these bytes
_PIN = re.compile(rb'"\\u0000(\d+)"')


def _encode(record: DemoRecord) -> bytes:
    obj = record_to_dict(record)
    if not _orjson_safe(obj):
        return json.dumps(obj, separators=(",", ":")).encode() + b"\n"
    # each float orjson would write otherwise goes in as the placeholder
    # string "\0k", which is then replaced by the stdlib's text of it
    texts = []
    for values, key in _off_repr_sites(record, obj):
        texts.append(json.dumps(values[key]).encode())
        values[key] = f"\0{len(texts) - 1}"
    line = orjson.dumps(obj, option=orjson.OPT_APPEND_NEWLINE)
    return _PIN.sub(lambda m: texts[int(m[1])], line) if texts else line


def write_records(path, records) -> int:
    """Write records as line-delimited JSON; returns the record count.

    Each line holds the bytes of the stdlib's compact `json.dumps` of
    `record_to_dict`.  A record whose strings orjson writes as the stdlib
    does (`_orjson_safe`: printable ASCII, a position of floats) is encoded
    by orjson, about 4x faster, with the stdlib's text put in for each float
    orjson writes otherwise (`_off_repr_sites`: neither 0 nor of magnitude
    in [1e-4, 1e16)); any other record is encoded whole by the stdlib, which
    raises for a value it cannot write.
    The lines written before such an error stay in the file, and nothing else.

    An existing file is rewritten in place and cut to the new length
    (`overwrite`) rather than truncated on open, which frees its blocks and
    cost up to ~80 ms per call (see the module docstring).
    """
    n = 0
    with overwrite(path) as fh:
        for rec in records:
            fh.write(_encode(rec))
            n += 1
    return n


# ---------------------------------------------------------------------------
# gripper-signal annotations

def smooth_gripper(gripper: np.ndarray) -> np.ndarray:
    """Centered moving average of width GRIPPER_WINDOW, truncated at the edges."""
    g = np.asarray(gripper, dtype=float)
    n = len(g)
    half = GRIPPER_WINDOW // 2
    csum = np.concatenate(([0.0], np.cumsum(g)))
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half, n - 1)
    return (csum[hi + 1] - csum[lo]) / (hi - lo + 1)


def gripper_transitions(gripper: np.ndarray) -> tuple[np.ndarray, int]:
    """Every crossing of the smoothed signal at GRIPPER_THRESHOLD.

    Returns the indices i >= 1 where the smoothed signal lies on the other
    side of the threshold than at i - 1, and the position in that array of
    the first up-crossing: crossings alternate in direction, so it is 1 when
    the signal starts closed and 0 otherwise.
    """
    above = smooth_gripper(gripper) >= GRIPPER_THRESHOLD
    return np.flatnonzero(above[1:] != above[:-1]) + 1, int(above[:1].any())


def first_close_index(gripper: np.ndarray) -> int | None:
    """Index of the first up-crossing of the smoothed signal, if any."""
    crossings, first_up = gripper_transitions(gripper)
    return int(crossings[first_up]) if first_up < len(crossings) else None


def first_release_index(gripper: np.ndarray) -> int | None:
    """Index of the first down-crossing after the first close, if any: the
    crossing right after it."""
    crossings, first_up = gripper_transitions(gripper)
    return int(crossings[first_up + 1]) if first_up + 1 < len(crossings) else None


def extract_object_position(steps: Steps) -> tuple[float, float, float] | None:
    """End-effector position at the first smoothed gripper close, if any."""
    idx = first_close_index(steps.gripper)
    if idx is None:
        return None
    return tuple(float(v) for v in steps.ee_pos[idx])


def extract_release_position(steps: Steps) -> tuple[float, float, float] | None:
    """End-effector position at the first release after a close, if any."""
    idx = first_release_index(steps.gripper)
    if idx is None:
        return None
    return tuple(float(v) for v in steps.ee_pos[idx])


# ---------------------------------------------------------------------------
# camera bins

@dataclass(frozen=True)
class CameraBin:
    label: str
    theta_center: float
    phi_center: float
    theta_width: float = CAMERA_BIN_POLAR_WIDTH
    phi_width: float = CAMERA_BIN_AZIMUTH_WIDTH


DEFAULT_CAMERA_BINS = (
    CameraBin("agent-front", 45.0, 0.0),
    CameraBin("agent-left", 45.0, 60.0),
    CameraBin("agent-right", 45.0, -60.0),
    CameraBin("shoulder-left", 45.0, 120.0),
    CameraBin("shoulder-right", 45.0, -120.0),
)
UNBINNED = "unbinned"


def _wrap_deg(delta: float) -> float:
    return (delta + 180.0) % 360.0 - 180.0


def camera_angles(camera_pos, table_center=(0.0, 0.0, 0.0)) -> tuple[float, float]:
    """(theta, phi) in degrees of a camera position about the table center."""
    try:
        _, theta, phi = spherical_about(camera_pos, table_center)
    except ValueError:
        raise DegeneratePose("camera position coincides with table center") from None
    return theta, phi


def bin_camera_pose(camera_pos, table_center=(0.0, 0.0, 0.0),
                    bins: tuple[CameraBin, ...] = DEFAULT_CAMERA_BINS) -> str:
    """Angular camera bin of a camera position about the table center.

    Bin membership is radius-independent: the polar angle must lie within
    theta_width/2 of the bin center and the azimuth within phi_width/2
    (wrap-aware), boundaries inclusive.  Returns `unbinned` when no bin fits.
    """
    theta, phi = camera_angles(camera_pos, table_center)
    for b in bins:
        if abs(theta - b.theta_center) <= b.theta_width / 2.0 and \
                abs(_wrap_deg(phi - b.phi_center)) <= b.phi_width / 2.0:
            return b.label
    return UNBINNED


def _camera_bin(row) -> CameraBin:
    label = row["label"]
    if not isinstance(label, str):
        raise TypeError(f"label {label!r} is not a string")
    angles = (row["theta_center"], row["phi_center"],
              row.get("theta_width", CAMERA_BIN_POLAR_WIDTH),
              row.get("phi_width", CAMERA_BIN_AZIMUTH_WIDTH))
    if not _numbers(angles):
        raise TypeError(f"bin {label!r} has an angle that is not a JSON number")
    angles = tuple(map(float, angles))  # OverflowError for an int past the float range
    if not all(math.isfinite(v) for v in angles):
        raise ValueError(f"bin {label!r} has a non-finite centre or width")
    if not min(angles[2:]) > 0.0:  # such a bin matches no pose
        raise ValueError(f"bin {label!r} has a width that is not positive")
    return CameraBin(label, *angles)


def load_json_file(path, what: str):
    """The JSON value in a side file.  A file that is not UTF-8 JSON, or that
    nests too deep for the decoder, is an InputError naming it as `what`."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"bad {what} {path}: {exc!r}") from None


@contextlib.contextmanager
def overwrite(path, text: bool = False):
    """A buffered binary (or UTF-8 text) file that rewrites `path` in place.

    The file is opened without truncation, so an existing file keeps its
    blocks and its mode; a new one gets 0o666 less the umask, as `open(path,
    "w")` gives.  On exit, normal or by an exception, the buffer is flushed
    and a regular file is cut to the bytes written, so it holds exactly them
    and none of the old file's tail.  Other files (a FIFO, /dev/null, a
    terminal) are never truncated.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w" if text else "wb", encoding="utf-8" if text else None) as fh:
        try:
            yield fh
        finally:
            fh.flush()
            st = os.fstat(fd)
            if stat.S_ISREG(st.st_mode) and st.st_size > (end := os.lseek(fd, 0, os.SEEK_CUR)):
                os.ftruncate(fd, end)


def load_bin_table(path) -> tuple[CameraBin, ...]:
    """Read a camera-bin table from JSON: a list of
    {"label","theta_center","phi_center","theta_width","phi_width"} with a
    string label, angles that are finite JSON numbers and positive widths."""
    rows = load_json_file(path, "camera-bin table")
    try:
        if not isinstance(rows, list):
            raise TypeError(f"expected a list of bins, got {type(rows).__name__}")
        return tuple(_camera_bin(row) for row in rows)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad camera-bin table {path}: {exc!r}") from None


# ---------------------------------------------------------------------------
# color annotators

class OfflineColorTable:
    """Lookup-table annotator: record id -> color label."""

    def __init__(self, table: dict):
        self.table = dict(table)

    @classmethod
    def from_json(cls, path):
        """Read a JSON object mapping record ids to color label strings."""
        table = load_json_file(path, "color table")
        if not isinstance(table, dict):
            raise InputError(f"bad color table {path}: expected an object, got {type(table).__name__}")
        bad = next((rid for rid, label in table.items() if not isinstance(label, str)), None)
        if bad is not None:
            raise InputError(f"bad color table {path}: label of {bad!r} is not a string")
        return cls(table)

    def color_of(self, record: DemoRecord) -> str:
        label = self.table.get(record.id)
        if label is None:
            raise AnnotatorUnavailable(f"no color entry for record {record.id!r}")
        return label


def _env_int(name: str, default: str) -> int:
    text = os.environ.get(name, default)
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{name} must be an integer, got {text!r}") from None


class HttpColorAnnotator:
    """POSTs {"id", "image_ref", "object"} and expects {"color": str}.

    Configured only by environment: DVC_ANNOTATOR_URL (required),
    DVC_ANNOTATOR_TIMEOUT_MS (default 1000, at least 1 and at most
    threading.TIMEOUT_MAX seconds), DVC_ANNOTATOR_RETRIES (default 3).
    `session` stands in for a `requests.Session`.  `requests` is imported
    here and in `color_of`, so no other command pays for its import.

    Once every try for one record has timed out or failed to connect, the
    service is taken as gone and no later record asks it again; an error
    status or a reply without a color is retried for each record.
    """

    def __init__(self, session=None):
        self.url = os.environ.get(ANNOTATOR_URL_ENV)
        if not self.url:
            raise AnnotatorUnavailable(f"{ANNOTATOR_URL_ENV} is not set")
        timeout_ms = _env_int(ANNOTATOR_TIMEOUT_ENV, "1000")
        if timeout_ms < 1:  # requests refuses a timeout <= 0, and every color would be dropped
            raise InputError(f"{ANNOTATOR_TIMEOUT_ENV} must be >= 1, got {timeout_ms}")
        if timeout_ms > threading.TIMEOUT_MAX * 1000:  # socket.settimeout raises OverflowError
            raise InputError(f"{ANNOTATOR_TIMEOUT_ENV} must be <= {threading.TIMEOUT_MAX * 1000:.0f}, "
                             f"got {timeout_ms}")
        self.timeout = timeout_ms / 1000.0
        self.retries = max(_env_int(ANNOTATOR_RETRIES_ENV, "3"), 1)
        import requests

        self.session = session or requests.Session()
        self._gone = False

    def color_of(self, record: DemoRecord) -> str:
        import requests

        if self._gone:
            raise AnnotatorUnavailable("annotator stopped answering: every try for an earlier "
                                       "record timed out or failed to connect")
        payload = {
            "id": record.id,
            "image_ref": record.id,
            "object": (record.annotations.target_object
                       if record.annotations and record.annotations.target_object else ""),
        }
        last = None
        silent = True  # every try so far timed out or found no connection
        for _ in range(self.retries):
            try:
                resp = self.session.post(self.url, json=payload, timeout=self.timeout)
                resp.raise_for_status()
                body = resp.json()
                color = body.get("color") if isinstance(body, dict) else None
                if not isinstance(color, str):
                    raise AnnotatorUnavailable("annotator response lacks 'color' or it is not a string")
                return color
            except (requests.RequestException, ValueError, AnnotatorUnavailable) as exc:
                last = exc
                silent = silent and isinstance(exc, (requests.Timeout, requests.ConnectionError))
        self._gone = silent
        raise AnnotatorUnavailable(f"annotator failed after {self.retries} tries: {last}")


def annotate_color(record: DemoRecord, annotator) -> str:
    """Canonical color of the record's object via the configured annotator."""
    return lexmod.canonical_color(annotator.color_of(record))


# ---------------------------------------------------------------------------
# annotation pipeline

def annotate_record(record: DemoRecord, annotator=None,
                    table_center=(0.0, 0.0, 0.0),
                    bins: tuple[CameraBin, ...] = DEFAULT_CAMERA_BINS) -> DemoRecord:
    """Return a copy of `record` with derived annotations filled in.

    Fields that cannot be derived (no verbs in instructions, no gripper close,
    no color annotator) are left None rather than failing the record.
    """
    target = None
    if record.instructions:
        try:
            target = lexmod.extract_target_object(record.instructions)
        except (NoVerbFound, NoObjectFound):
            target = None
    position = extract_object_position(record.steps)
    camera_bin = bin_camera_pose(record.camera_pos, table_center, bins)
    ann = Annotations(
        target_object=target,
        object_position=position,
        object_color=None,
        camera_bin=camera_bin,
    )
    out = replace(record, annotations=ann)
    if annotator is not None:
        try:
            ann.object_color = annotate_color(out, annotator)
        except AnnotatorUnavailable:
            ann.object_color = None
    return out


def table_center_of(value) -> tuple[float, float, float]:
    """Parse an 'x,y,z' string or 3-sequence into a table-center tuple."""
    try:
        parts = [float(v) for v in (value.split(",") if isinstance(value, str) else value)]
    except (TypeError, ValueError):
        parts = []
    if len(parts) != 3 or not all(math.isfinite(v) for v in parts):
        raise InputError(f"table center needs exactly three finite numbers, got {value!r}")
    return tuple(parts)
