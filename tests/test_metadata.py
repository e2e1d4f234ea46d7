from __future__ import annotations

import json
import os
import re
import socket
import stat
import struct
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvcurate import lexicon, metadata
from dvcurate.errors import (
    AnnotatorUnavailable,
    DegeneratePose,
    DVCurateError,
    InputError,
    QuaternionNormError,
    SchemaError,
)
from dvcurate.geometry import UNIT_NORM_TOL

from conftest import (
    bin_camera_pos,
    brute_close_index,
    brute_smooth,
    brute_transitions,
    demo_row,
    element_record_to_dict,
    make_record,
    write_jsonl,
)
from test_acceptance import _write_big_corpus


# ---------------------------------------------------------------------------
# record schema

def test_parse_record_happy_path():
    rec = metadata.parse_record(demo_row(rid="d1", lab="lab2"), line=3)
    assert rec.id == "d1" and rec.lab == "lab2"
    assert rec.instructions == ("pick up the mug",)
    assert rec.steps.ee_pos.shape == (120, 3)
    assert rec.steps.t.dtype == np.int64
    assert rec.annotations is None
    assert len(rec.steps) == 120


def _mutate(**changes):
    row = demo_row()
    for key, value in changes.items():
        parts = key.split(".")
        obj = row
        for p in parts[:-1]:
            obj = obj[int(p)] if isinstance(obj, list) else obj[p]
        if value is _DELETE:
            del obj[parts[-1]]
        else:
            obj[parts[-1]] = value
    return row


_DELETE = object()


@pytest.mark.parametrize(
    "changes,field_hint",
    [
        ({"id": _DELETE}, "id"),
        ({"id": ""}, "id"),
        ({"id": 7}, "id"),
        ({"lab": 3}, "lab"),
        ({"instructions": "pick"}, "instructions"),
        ({"instructions": ["ok", 5]}, "instructions"),
        ({"camera_extrinsics.pos": [1.0, 2.0]}, "camera_extrinsics"),
        ({"camera_extrinsics.pos": [1.0, 2.0, float("nan")]}, "camera_extrinsics"),
        ({"camera_extrinsics.quat": [1.0, 0.0, 0.0]}, "camera_extrinsics"),
        ({"steps": []}, "steps"),
        ({"steps": "nope"}, "steps"),
        ({"annotations": 5}, "annotations"),
        ({"annotations": {"target_object": [1, 2]}}, "annotations.target_object"),
        ({"annotations": {"target_object": 2**64}}, "annotations.target_object"),
        ({"annotations": {"object_color": True}}, "annotations.object_color"),
        ({"annotations": {"object_color": {"r": 1}}}, "annotations.object_color"),
        ({"annotations": {"camera_bin": 7}}, "annotations.camera_bin"),
        ({"annotations": {"camera_bin": 0.5, "target_object": [1]}}, "annotations.target_object"),
        # numeric fields take JSON numbers only, not strings numpy could read or booleans
        ({"steps.5.ee_pos": ["0.1", 0.2, 0.3]}, "steps.ee_pos"),
        ({"steps.5.ee_pos": [0.1, True, 0.3]}, "steps.ee_pos"),
        ({"steps.5.ee_quat": [1, 0, False, 0]}, "steps.ee_quat"),
        ({"steps.5.gripper": "1"}, "gripper"),
        ({"steps.5.gripper": False}, "gripper"),
        ({"camera_extrinsics.pos": ["1.0", 0.0, "1"]}, "camera_extrinsics.pos"),
        ({"camera_extrinsics.quat": [True, 0, 0, 0]}, "camera_extrinsics.quat"),
        ({"annotations": {"object_position": ["0.1", True, "3e-1"]}}, "annotations.object_position"),
        ({"annotations": {"object_position": [0.1, 0.2, False]}}, "annotations.object_position"),
    ],
)
def test_parse_record_schema_errors(changes, field_hint):
    with pytest.raises(SchemaError) as err:
        metadata.parse_record(_mutate(**changes), line=9)
    assert err.value.line == 9
    assert field_hint in err.value.field


def test_parse_record_gripper_range_and_time_order():
    row = demo_row()
    row["steps"][5]["gripper"] = 1.5
    with pytest.raises(SchemaError, match="gripper"):
        metadata.parse_record(row)
    row = demo_row()
    row["steps"][5]["t"] = row["steps"][4]["t"]
    with pytest.raises(SchemaError, match="strictly increasing"):
        metadata.parse_record(row)


def test_parse_record_refuses_a_list_for_every_gripper_value():
    # np.array reads one-element lists as an (n, 1) gripper column
    row = demo_row(n=10)
    for step in row["steps"]:
        step["gripper"] = [step["gripper"]]
    with pytest.raises(SchemaError, match="gripper values must be numbers"):
        metadata.parse_record(row)


def test_parse_record_quaternion_norms():
    row = demo_row()
    row["camera_extrinsics"]["quat"] = [1.0, 1.0, 0.0, 0.0]
    with pytest.raises(QuaternionNormError) as err:
        metadata.parse_record(row, line=4)
    assert err.value.line == 4
    row = demo_row()
    row["steps"][17]["ee_quat"] = [0.9, 0.0, 0.0, 0.0]
    with pytest.raises(QuaternionNormError, match="step 17"):
        metadata.parse_record(row, line=2)


def test_parse_record_accepts_annotations():
    ann = {"target_object": "mug", "object_position": [0.1, 0.2, 0.02],
           "object_color": "red", "camera_bin": "agent-front"}
    rec = metadata.parse_record(demo_row(annotations=ann))
    assert rec.annotations.target_object == "mug"
    assert rec.annotations.object_position == (0.1, 0.2, 0.02)
    nulls = {"target_object": None, "object_color": None, "camera_bin": None}
    assert metadata.parse_record(demo_row(annotations=nulls)).annotations == metadata.Annotations()


def test_iter_records_line_numbers(tmp_path):
    path = tmp_path / "corpus.jsonl"
    good = json.dumps(demo_row(rid="a"))
    with open(path, "w") as fh:
        fh.write(good + "\n\n")      # blank line is skipped
        fh.write("{not json}\n")
    with pytest.raises(SchemaError) as err:
        list(metadata.iter_records(path))
    assert err.value.line == 3
    assert err.value.field == "json"


def test_iter_records_reports_bad_record_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    rows = [demo_row(rid="a"), demo_row(rid="b")]
    rows[1]["camera_extrinsics"]["quat"] = [2.0, 0.0, 0.0, 0.0]
    write_jsonl(path, rows)
    with pytest.raises(QuaternionNormError) as err:
        list(metadata.iter_records(path))
    assert err.value.line == 2


def test_write_read_roundtrip(tmp_path):
    path = tmp_path / "out.jsonl"
    ann = {"target_object": "mug", "object_position": [0.2, 0.0, 0.02],
           "object_color": "red", "camera_bin": "agent-front"}
    records = [make_record(rid="a"), metadata.parse_record(demo_row(rid="b", annotations=ann))]
    assert metadata.write_records(path, records) == 2
    back = metadata.ingest(path)
    assert [r.id for r in back] == ["a", "b"]
    assert np.array_equal(back[0].steps.ee_pos, records[0].steps.ee_pos)
    assert np.array_equal(back[0].steps.gripper, records[0].steps.gripper)
    assert back[1].annotations.object_color == "red"
    assert back[0].annotations is None


# ---------------------------------------------------------------------------
# chunked reader against line-by-line parse_record

def _line_by_line(path):
    """Reference reader: json.loads then parse_record, one line at a time."""
    records = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                return records, SchemaError(lineno, "json", f"invalid JSON: {exc.msg}")
            except (UnicodeDecodeError, RecursionError) as exc:
                return records, SchemaError(lineno, "json", f"invalid JSON: {exc}")
            try:
                records.append(metadata.parse_record(obj, lineno))
            except DVCurateError as exc:
                return records, exc
    return records, None


def _chunked(path):
    records = []
    try:
        for rec in metadata.iter_records(path):
            records.append(rec)
    except DVCurateError as exc:
        return records, exc
    return records, None


def _chunks(path) -> list[list[int]]:
    """Line numbers of each chunk, split the way iter_records reads."""
    chunks, lineno = [], 0
    with open(path, "rb") as fh:
        while lines := fh.readlines(metadata.CHUNK_BYTES):
            chunks.append(list(range(lineno + 1, lineno + len(lines) + 1)))
            lineno += len(lines)
    return chunks


def _assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.id, a.lab, a.instructions, a.annotations) == \
            (b.id, b.lab, b.instructions, b.annotations)
        for x, y in ((a.camera_pos, b.camera_pos), (a.camera_quat, b.camera_quat),
                     (a.steps.t, b.steps.t), (a.steps.ee_pos, b.steps.ee_pos),
                     (a.steps.ee_quat, b.steps.ee_quat), (a.steps.gripper, b.steps.gripper)):
            assert (x.dtype, x.shape, x.flags.c_contiguous) == (y.dtype, y.shape, y.flags.c_contiguous)
            assert x.tobytes() == y.tobytes()  # -0.0 and NaN payloads too


def _rows():
    """Rows of mixed length, so a chunk of CHUNK_BYTES holds a handful."""
    ann = {"target_object": "mug", "object_position": [0.2, 0.0, 0.02],
           "object_color": "red", "camera_bin": None}
    return [demo_row(rid=f"r{i}", lab=f"lab{i % 3}", n=(120, 2, 60, 3, 90)[i % 5],
                     annotations=ann if i % 2 else None)
            for i in range(40)]


def _dump(row) -> bytes:
    return json.dumps(row, separators=(",", ":")).encode() + b"\n"


def _last_step(row, **fields):
    row["steps"][-1].update(fields)


def _in_last_step(line: bytes, pattern: bytes, repl: bytes) -> bytes:
    """`line` with `pattern` replaced once in the text of its last step."""
    head, sep, tail = line.rpartition(b'{"t":')
    step, n = re.subn(pattern, repl, sep + tail, count=1)
    assert n == 1
    return head + step


def _two_steps_keys(line: bytes, bad_last: bool) -> bytes:
    """`line` with a second top-level "steps", of one step.

    Read as JSON, the last key wins.  With `bad_last` the second array's
    gripper is out of range, else the last gripper of the first array is.
    """
    row = json.loads(line)
    step = dict(row["steps"][0])
    if bad_last:
        step["gripper"] = 1.5
    else:
        _last_step(row, gripper=1.5)
        line = _dump(row)
    return line[:-2] + b',"steps":' + _dump([step])[:-1] + b"}\n"


def _steps_first_in_extra(row):
    """The steps nested in a field ahead of a top-level "steps" that is empty."""
    fields = dict(row)
    row.clear()
    row.update(extra={"steps": fields.pop("steps")}, steps=[], **fields)


def _swap_step_keys(row):
    row["steps"][-1] = dict(reversed(row["steps"][-1].items()))


_TOL = UNIT_NORM_TOL
# name -> fault on one row's dict, or on its encoded line (bytes -> bytes)
_FAULTS = {
    "bad json": lambda line: line.replace(b'"id":', b'"id" ', 1),
    "non-utf8": lambda line: line.replace(b'"lab":"', b'"lab":"\xff', 1),
    "missing key": lambda row: row.pop("lab"),
    "ragged ee_pos": lambda row: _last_step(row, ee_pos=[0.1, 0.2]),
    "nan ee_pos": lambda row: _last_step(row, ee_pos=[0.1, float("nan"), 0.3]),
    "inf camera pos": lambda row: row["camera_extrinsics"].update(pos=[0.6, float("inf"), 0.6]),
    "nan gripper": lambda row: row["steps"][0].update(gripper=float("nan")),
    "nan ee_quat": lambda row: _last_step(row, ee_quat=[float("nan"), 0.0, 0.0, 0.0]),
    "step quat norm just over": lambda row: _last_step(row, ee_quat=[1.0 + _TOL * 1.001, 0.0, 0.0, 0.0]),
    "step quat norm just under": lambda row: _last_step(row, ee_quat=[1.0 + _TOL * 0.999, 0.0, 0.0, 0.0]),
    "camera quat norm just over": lambda row: row["camera_extrinsics"].update(
        quat=[1.0 - _TOL * 1.001, 0.0, 0.0, 0.0]),
    "camera quat norm within margin": lambda row: row["camera_extrinsics"].update(
        quat=[1.0 - _TOL + 1e-13, 0.0, 0.0, 0.0]),
    "gripper out of range": lambda row: _last_step(row, gripper=1.5),
    "t not increasing": lambda row: _last_step(row, t=row["steps"][-2]["t"]),
    "float t truncating to valid": lambda row: _last_step(row, t=row["steps"][-1]["t"] + 0.5),
    "float t truncating to repeat": lambda row: _last_step(row, t=row["steps"][-1]["t"] - 0.5),
    "bool t": lambda row: row["steps"][1].update(t=True),
    "non-dict annotations": lambda row: row.update(annotations=[1, 2]),
    "t past int64": lambda row: _last_step(row, t=2**63),
    "non-iterable object_position": lambda row: row.update(annotations={"object_position": 5}),
    "two-number object_position": lambda row: row.update(annotations={"object_position": [0.2, 0.0]}),
    "nan object_position": lambda row: row.update(
        annotations={"object_position": [0.2, float("nan"), 0.02]}),
    "inf object_position": lambda row: row.update(
        annotations={"object_position": [float("-inf"), 0.0, 0.02]}),
    "nan camera quat": lambda row: row["camera_extrinsics"].update(
        quat=[float("nan"), 0.0, 0.0, 0.0]),
    "half-step t": lambda row: _last_step(row, t=1.5),
    # where orjson and the stdlib differ: each chunk must give the stdlib's answer
    "t of 2**64": lambda row: _last_step(row, t=2**64),
    "integer 10**30 in ee_pos": lambda row: _last_step(row, ee_pos=[10**30, 0.0, 0.3]),
    "NaN literal in an extra field": lambda row: row.update(extra=float("nan")),
    "Infinity literal in an extra field": lambda row: row["steps"][0].update(extra=float("inf")),
    "lone surrogate in lab": lambda row: row.update(lab="lab\ud800"),
    "utf-8 BOM": lambda line: b"\xef\xbb\xbf" + line,
    "target_object of 2**64": lambda row: row.update(annotations={"target_object": 2**64}),
    "number camera_bin": lambda row: row.update(annotations={"camera_bin": 7}),
    "list object_color": lambda row: row.update(annotations={"object_color": ["red"]}),
    # numpy and float() read these as numbers; the schema refuses them
    "string ee_pos": lambda row: _last_step(row, ee_pos=["0.1", 0.2, 0.3]),
    "bool ee_pos": lambda row: _last_step(row, ee_pos=[0.1, True, 0.3]),
    "string gripper": lambda row: row["steps"][0].update(gripper="1"),
    "bool camera quat": lambda row: row["camera_extrinsics"].update(quat=[True, 0, 0, 0]),
    "string object_position": lambda row: row.update(
        annotations={"object_position": ["0.1", True, "3e-1"]}),
    # 600 lies past _MAX_FAST_DEPTH and within the stdlib's recursion limit; 1200 past both
    "nested 600 deep in an extra field": lambda line: _nest_extra(line, 600),
    "nested 1200 deep in an extra field": lambda line: _nest_extra(line, 1200),
    "unclosed 2000 deep in an extra field": lambda line: _nest_extra(line, 2000, closed=False),
    # steps arrays near the compact layout that the column reader must not misread
    "key e_epos": lambda line: _in_last_step(line, rb'"ee_pos"', rb'"e_epos"'),
    "key EE_pos": lambda line: _in_last_step(line, rb'"ee_pos"', rb'"EE_pos"'),
    "digit in a key": lambda line: _in_last_step(line, rb'"ee_pos"', rb'"ee_p5os"'),
    **{f"gripper {text.decode()}":
       lambda line, text=text: _in_last_step(line, rb'"gripper":[^}]+', b'"gripper":' + text)
       for text in (b"1e", b"e5", b"+1", b"01", b".5", b"1.")},
    **{f"ee_pos {text.decode()}":
       lambda line, text=text: _in_last_step(line, rb'"ee_pos":\[[^,]+', b'"ee_pos":[' + text)
       for text in (b"1E5", b"1e5", b"1E-5")},
    "fifth step key": lambda row: _last_step(row, contact=0.5),
    "swapped step keys": _swap_step_keys,
    "whitespace in steps": lambda line: _in_last_step(
        line, rb'\],"ee_quat":\[', rb'], "ee_quat": ['),
    "two steps keys, bad last": lambda line: _two_steps_keys(line, bad_last=True),
    "two steps keys, bad first": lambda line: _two_steps_keys(line, bad_last=False),
    "escaped steps key after the steps": lambda line: line[:-2] + b',"st\\u0065ps":0}\n',
    "steps nested in annotations": lambda row: row.update(
        annotations={"target_object": "mug", "steps": row["steps"][:1]}),
    "valid steps nested ahead of empty steps": _steps_first_in_extra,
    "steps split in two arrays": lambda line: line.replace(b'},{"t":', b'}],[{"t":', 1),
    "}] in an annotation string": lambda row: row.update(annotations={"object_color": "red}]"}),
    # a number moved out of its place but not past a comma: the place is empty
    "t moved into its key": lambda line: _in_last_step(line, rb'"t":([^,]+),', rb'"t\1":,'),
    "x moved into its key": lambda line: _in_last_step(
        line, rb'"ee_pos":\[([^,]+),', rb'"ee_pos\1":[,'),
    "w moved before its bracket": lambda line: _in_last_step(
        line, rb'"ee_quat":\[([^,]+),', rb'"ee_quat":\1[,'),
    "z moved past its bracket": lambda line: _in_last_step(
        line, rb',([^,\]]+)\],"ee_quat"', rb',]\1,"ee_quat"'),
    "gripper moved into its key": lambda line: _in_last_step(
        line, rb'"gripper":([^}]+)}', rb'"gripper\1":}'),
    "gripper moved past its brace": lambda line: _in_last_step(
        line, rb'"gripper":([^}]+)}', rb'"gripper":}\1'),
    # bytes after the steps array that would extend a number put in its place
    **{f"{text.decode()} after the steps": lambda line, text=text: line.replace(
        b'}],"annotations"', b"}]" + text + b',"annotations"', 1)
       for text in (b".5", b"e5", b"E+1", b"0")},
}
_NON_NUMBER_FAULTS = ("string ee_pos", "bool ee_pos", "string gripper", "bool camera quat",
                      "string object_position")
# faults on the encoded line rather than on the row
_LINE_FAULTS = ("bad json", "non-utf8", "utf-8 BOM", "nested 600 deep in an extra field",
                "nested 1200 deep in an extra field", "unclosed 2000 deep in an extra field",
                "key e_epos", "key EE_pos", "digit in a key",
                *(f"gripper {t}" for t in ("1e", "e5", "+1", "01", ".5", "1.")),
                "ee_pos 1E5", "ee_pos 1e5", "ee_pos 1E-5", "whitespace in steps",
                "two steps keys, bad last", "two steps keys, bad first",
                "escaped steps key after the steps", "steps split in two arrays",
                *(name for name in _FAULTS if " moved " in name),
                *(name for name in _FAULTS if name.endswith(" after the steps")))


def _nest_extra(line: bytes, depth: int, closed: bool = True) -> bytes:
    """`line` with an extra field of `depth` nested lists, which no schema rule reads."""
    assert line.endswith(b"}\n")
    tail = b"]" * depth + b"}" if closed else b""
    return line[:-2] + b',"extra":' + b"[" * depth + tail + b"\n"


def _write_valid(kind, path):
    if kind == "big corpus":
        _write_big_corpus(path, 3000)
        return
    lines = [_dump(row) for row in _rows()]
    if kind == "blank lines":
        for k in (0, 5, 6, 17, 30):
            lines.insert(k, (b"\n", b"   \n", b"\t\r\n", b"\r\n", b" \x0c\n")[k % 5])
        lines.append(b"   ")
    elif kind == "crlf":
        lines = [line[:-1] + b"\r\n" for line in lines]
        lines[-1] = lines[-1].rstrip()
    elif kind == "chunk-sized lines":
        big = _dump(demo_row(rid="huge", n=2 * metadata.CHUNK_BYTES // 90))
        assert len(big) > metadata.CHUNK_BYTES
        lines[3:3] = [big]
        lines.append(big.replace(b'"huge"', b'"huge2"'))
    path.write_bytes(b"".join(lines))


@pytest.mark.parametrize(
    "case",
    [("valid", kind) for kind in ("big corpus", "blank lines", "crlf", "chunk-sized lines")]
    + [(fault, role) for fault in _FAULTS for role in ("first", "middle", "last")],
    ids="/".join,
)
def test_chunked_reader_matches_line_by_line(tmp_path, case):
    path = tmp_path / "corpus.jsonl"
    if case[0] == "valid":
        _write_valid(case[1], path)
    else:
        fault, role = case
        place = {"first": 0, "middle": None, "last": -1}[role]
        clean = [_dump(row) for row in _rows()]
        path.write_bytes(b"".join(clean))
        second = _chunks(path)[1]
        at = len(second) // 2 if place is None else place
        # A fault that lengthens its line may move the chunk bounds: from the
        # line in the role's place on, take the first that keeps the role.
        for target in second[at:] + second[:at]:
            rows, lines = _rows(), list(clean)
            inject = _FAULTS[fault]
            if fault in _LINE_FAULTS:
                lines[target - 1] = inject(lines[target - 1])
            else:
                inject(rows[target - 1])
                lines[target - 1] = _dump(rows[target - 1])
            path.write_bytes(b"".join(lines))
            chunk = next(c for c in _chunks(path) if target in c)
            if chunk[len(chunk) // 2 if place is None else place] == target:
                break
        else:
            pytest.fail(f"no line of the second chunk stays {role} in its chunk")
        assert len(chunk) >= 3
    got, got_err = _chunked(path)
    want, want_err = _line_by_line(path)
    _assert_same_records(got, want)
    assert type(got_err) is type(want_err)
    if case[0] in _NON_NUMBER_FAULTS:
        assert isinstance(want_err, SchemaError) and want_err.line == target
    if want_err is not None:
        assert str(got_err) == str(want_err)
        assert got_err.report() == want_err.report()
    elif case[0] == "valid":
        assert want and all(r.steps.t.base is not None for r in got)  # built by the batch path


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "unclosed"])
def test_deeply_nested_line_is_a_schema_error(tmp_path, closed):
    path = tmp_path / "corpus.jsonl"
    deep = b"[" * 200_000 + (b"]" * 200_000 if closed else b"") + b"\n"
    path.write_bytes(_dump(demo_row(rid="a")) + deep + _dump(demo_row(rid="b")))
    got, got_err = _chunked(path)
    assert [r.id for r in got] == ["a"]
    assert got_err.report() == _line_by_line(path)[1].report()
    assert (got_err.line, got_err.field) == (2, "json")
    assert "invalid JSON: maximum recursion depth exceeded" in str(got_err)


def test_valid_chunks_never_reach_the_stdlib_decoder(tmp_path, monkeypatch):
    path = tmp_path / "corpus.jsonl"
    rows = _rows() + [demo_row(rid="long", n=400)]  # more than _MAX_FAST_DEPTH brackets
    rows[7]["extra"] = [[["no rule reads this"]]]
    rows[5]["lab"] = "caf\u00e9 [b] \\ \"q\""  # escapes and brackets inside a string
    write_jsonl(path, rows)
    want = metadata.ingest(path)

    def refuse(raw, line):
        raise AssertionError(f"line {line} was re-read")

    monkeypatch.setattr(metadata, "_decode", refuse)
    _assert_same_records(metadata.ingest(path), want)


def test_written_records_take_the_column_path(tmp_path, monkeypatch):
    big = tmp_path / "big.jsonl"
    _write_big_corpus(big, 300)  # 2-step lines, as criterion 09 reads them
    records = metadata.ingest(big)
    for i in range(8):
        record = make_record(rid=f"long{i}", n=150, obj_pos=(3e-05 * i, -2.5e-07, 0.02))
        record.steps.ee_pos[7 + i] = (1e16 * (i + 1), -3e20, 1e-05)
        records.insert(40 * i, metadata.annotate_record(record) if i % 2 else record)
    path = tmp_path / "corpus.jsonl"
    metadata.write_records(path, records)
    text = path.read_bytes()
    assert all(x in text for x in (b"e-05", b"e-07", b"e+16", b"e+20", b'"annotations":{'))
    want, want_err = _line_by_line(path)
    assert want_err is None

    def refuse(*args):
        raise AssertionError("a chunk left the column reader")

    monkeypatch.setattr(metadata, "_orjson_objects", refuse)
    monkeypatch.setattr(metadata, "_parse_chunk", refuse)
    got = metadata.ingest(path)
    _assert_same_records(got, want)
    assert all(r.steps.t.base is not None for r in got)


# values whose text the column reader must read as the stdlib does
_SPECIAL_FLOATS = (0.0, -0.0, 1e-05, -2.5e-07, 5e-324, 1e16, -3e20, 1.7976931348623157e308)
_SPECIAL_GRIPPERS = (-0.0, 1e-05, 3e-07, 1.0)
_UNIT_QUATS = np.array([(1.0, 0.0, 0.0, 0.0), (-0.0, 0.0, 1.0, -0.0), (0.5, -0.5, 0.5, 0.5),
                        (0.6, 0.0, 0.8, 0.0), (0.0, 1e-09, 0.0, -1.0)])
_MUTATION_BYTES = b'0123456789eE+-., "[]{}:x\\'


@st.composite
def _column_records(draw):
    """A valid record of 1-200 steps: seeded values with drawn special values put in."""
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = draw(st.integers(-2**62, 2**62)) + np.cumsum(rng.integers(1, 1000, n))
    ee_pos, cam_pos = rng.uniform(-1.0, 1.0, (n, 3)), rng.uniform(-1.0, 1.0, 3)
    gripper = np.where(rng.random(n) < 0.5, rng.random(n), rng.integers(0, 2, n).astype(float))
    for where in draw(st.lists(st.sampled_from(["ee_pos", "cam_pos", "gripper"]), max_size=6)):
        i = draw(st.integers(0, n - 1))
        if where == "gripper":
            gripper[i] = draw(st.sampled_from(_SPECIAL_GRIPPERS))
        else:
            array = ee_pos[i] if where == "ee_pos" else cam_pos
            array[draw(st.integers(0, 2))] = draw(st.sampled_from(_SPECIAL_FLOATS))
    ann = draw(st.sampled_from([None, metadata.Annotations(),
                                metadata.Annotations("mug", (0.2, -0.0, 1e-05), "red", None)]))
    return metadata.DemoRecord(f"r{n}", "lab1", ("pick up the mug",), cam_pos,
                               _UNIT_QUATS[rng.integers(0, len(_UNIT_QUATS))],
                               metadata.Steps(t, ee_pos, _UNIT_QUATS[rng.integers(0, len(_UNIT_QUATS), n)],
                                              gripper), ann)


@given(st.lists(_column_records(), min_size=1, max_size=6), st.data())
@settings(max_examples=500, deadline=None)
def test_chunked_reader_matches_line_by_line_on_drawn_records(tmp_path_factory, records, data):
    path = tmp_path_factory.mktemp("read") / "corpus.jsonl"
    metadata.write_records(path, records)
    lines = path.read_bytes().splitlines(keepends=True)
    k = data.draw(st.integers(0, len(lines) - 1))
    line = lines[k]
    start, end = line.index(b'"steps":') + len(b'"steps":'), line.rindex(b"}]") + len(b"}]")
    # half the edits at a byte of the layout's keys and brackets, which are few
    keys = [start + i for i, c in enumerate(line[start:end]) if c not in b"0123456789+-.eE"]
    at = data.draw(st.one_of(st.sampled_from(keys), st.integers(start, end)))
    byte = bytes([data.draw(st.sampled_from(_MUTATION_BYTES))])
    mutation = data.draw(st.sampled_from(["insert", "delete", "replace", "integer", "move", "none"]))
    if mutation == "delete":
        line = line[:at] + line[at + 1:]
    elif mutation == "insert":
        line = line[:at] + byte + line[at:]
    elif mutation == "replace":
        line = line[:at] + byte + line[at + 1:]
    elif mutation == "integer":  # an integer in a float field: 1.0 -> 1
        ends = [m.start() for m in re.finditer(rb"\.0(?=[,\]}])", line[start:end])]
        if ends:
            cut = start + data.draw(st.sampled_from(ends))
            line = line[:cut] + line[cut + 2:]
    elif mutation == "move":  # a number's text to a nearby byte: '"t":5,' -> '"t5":,'
        a, b = data.draw(st.sampled_from(
            [m.span() for m in re.finditer(rb"-?\d[\d.eE+-]*", line[start:end])]))
        number, line = line[start + a:start + b], line[:start + a] + line[start + b:]
        to = data.draw(st.integers(max(start, start + a - 12), min(end - (b - a), start + a + 12)))
        line = line[:to] + number + line[to:]
    lines[k] = line
    path.write_bytes(b"".join(lines))
    got, got_err = _chunked(path)
    want, want_err = _line_by_line(path)
    _assert_same_records(got, want)
    assert type(got_err) is type(want_err)
    if want_err is not None:
        assert str(got_err) == str(want_err)
        assert got_err.report() == want_err.report()


def _count_calls(monkeypatch, name) -> list:
    """Patch `metadata.<name>` to record the arguments of each call."""
    calls, real = [], getattr(metadata, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(metadata, name, counted)
    return calls


def _one_chunk(tmp_path, fault):
    rows = [demo_row(rid=f"r{i}", n=10) for i in range(5)]
    fault(rows[3])
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, rows)
    assert len(_chunks(path)) == 1
    return path


def test_a_chunk_the_batch_check_refused_goes_straight_to_parse_record(tmp_path, monkeypatch):
    path = _one_chunk(tmp_path, lambda row: _last_step(row, t=0))
    want, want_err = _line_by_line(path)
    batch = _count_calls(monkeypatch, "_parse_chunk")
    single = _count_calls(monkeypatch, "parse_record")
    got, got_err = _chunked(path)
    assert len(batch) == 1  # on the orjson objects only
    assert [line for _, line in single] == [1, 2, 3, 4]
    _assert_same_records(got, want)
    assert got_err.report() == want_err.report()
    assert (got_err.line, got_err.field) == (4, "steps.t")


def test_a_chunk_orjson_refused_is_batch_checked_once_on_the_stdlib_objects(tmp_path, monkeypatch):
    path = _one_chunk(tmp_path, lambda row: row.update(extra=float("nan")))
    want, _ = _line_by_line(path)
    batch = _count_calls(monkeypatch, "_parse_chunk")
    single = _count_calls(monkeypatch, "parse_record")
    got, got_err = _chunked(path)
    assert len(batch) == 1 and batch[0][0][3]["extra"] != batch[0][0][3]["extra"]  # NaN
    assert single == []
    assert got_err is None and len(got) == 5
    _assert_same_records(got, want)


def test_true_and_false_outside_numeric_fields_keep_the_batch_path(tmp_path, monkeypatch):
    def fault(row):
        row.update(success=True, instructions=["put the false teeth in the cup"])
        row["steps"][0].update(contact=False)

    path = _one_chunk(tmp_path, fault)
    want, _ = _line_by_line(path)
    single = _count_calls(monkeypatch, "parse_record")
    got, got_err = _chunked(path)
    assert single == [] and got_err is None
    _assert_same_records(got, want)
    assert all(r.steps.t.base is not None for r in got)  # built by the batch path


def _json_depth(value) -> int:
    if isinstance(value, dict):
        value = list(value.values())
    return 1 + max(map(_json_depth, value), default=0) if isinstance(value, list) else 0


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats(allow_nan=False) | st.integers()
    | st.text(alphabet='[]{}"\\:,ab\n\u00e9\ud800'),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(alphabet='[]{}"\\ab', max_size=3), inner, max_size=4),
    max_leaves=40,
)


@given(_JSON_VALUES, st.booleans())
@settings(max_examples=500)
def test_depth_matches_the_nesting_of_the_value(value, ascii_only):
    raw = json.dumps(value, ensure_ascii=ascii_only).encode("utf-8", "surrogatepass")
    assert metadata._depth(raw) == _json_depth(value)


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=2000)
def test_orjson_reads_floats_to_the_stdlib_double(x):
    text = repr(x)
    assert struct.pack("<d", orjson.loads(text)) == struct.pack("<d", json.loads(text))


# ---------------------------------------------------------------------------
# gripper signal

@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60))
@settings(max_examples=200)
def test_smooth_matches_brute_oracle(g):
    got = metadata.smooth_gripper(np.array(g))
    want = brute_smooth(g)
    assert np.allclose(got, want, atol=1e-12)


# Dyadic gripper levels keep both summation orders exact, so the threshold
# comparison is well-defined (non-dyadic levels can land a window mean exactly
# on the threshold, where rounding order would decide the answer).
@given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=2, max_size=80))
@settings(max_examples=300)
def test_close_index_matches_brute_oracle(g):
    got = metadata.first_close_index(np.array(g))
    want = brute_close_index(g)
    assert got == want


@given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=80))
@settings(max_examples=300)
def test_gripper_transitions_match_brute_oracle(g):
    crossings, first_up = metadata.gripper_transitions(np.array(g))
    want = brute_transitions(g)
    assert crossings.tolist() == want
    s = brute_smooth(g)
    assert first_up == int(s[0] >= metadata.GRIPPER_THRESHOLD)
    ups = [i for i in want if s[i] >= metadata.GRIPPER_THRESHOLD]
    assert crossings[first_up:first_up + 1].tolist() == ups[:1]


def test_smoothed_step_crossing_frozen():
    # A hard 0->1 step at index 40 smooths to a crossing at 40: the centered
    # 15-step window first covers >= 8 closed samples there.
    g = np.array([0.0] * 40 + [1.0] * 40)
    s = metadata.smooth_gripper(g)
    assert s[39] == pytest.approx(7 / 15)
    assert s[40] == pytest.approx(8 / 15)
    assert metadata.first_close_index(g) == 40


def test_single_spike_is_smoothed_away():
    g = np.zeros(60)
    g[30] = 1.0
    assert metadata.first_close_index(g) is None


def test_release_requires_prior_close():
    g = np.concatenate([np.ones(30), np.zeros(30)])  # starts closed, opens
    assert metadata.first_close_index(g) is None
    assert metadata.first_release_index(g) is None
    g = np.concatenate([np.zeros(30), np.ones(30)])  # closes, never opens
    assert metadata.first_close_index(g) == 30
    assert metadata.first_release_index(g) is None


def test_pick_place_transitions_frozen():
    rec = make_record(n=120, close_at=30, release_at=80)
    g = rec.steps.gripper
    assert brute_transitions(g) == [30, 80]
    assert metadata.first_close_index(g) == 30
    assert metadata.first_release_index(g) == 80
    obj = metadata.extract_object_position(rec.steps)
    rel = metadata.extract_release_position(rec.steps)
    assert obj == tuple(rec.steps.ee_pos[30])
    assert rel == tuple(rec.steps.ee_pos[80])


def test_extract_positions_none_without_events():
    rec = make_record(close_at=200, release_at=None)  # never closes
    assert metadata.extract_object_position(rec.steps) is None
    assert metadata.extract_release_position(rec.steps) is None


# ---------------------------------------------------------------------------
# camera bins

@pytest.mark.parametrize("label", [b.label for b in metadata.DEFAULT_CAMERA_BINS])
def test_bin_centers_map_to_their_labels(label):
    pos = bin_camera_pos(label)
    assert metadata.bin_camera_pose(pos) == label


def test_bin_membership_is_radius_independent():
    for r in (0.3, 0.9, 5.0):
        assert metadata.bin_camera_pose(bin_camera_pos("agent-left", r=r)) == "agent-left"


def test_bin_boundaries_inclusive():
    from dvcurate.geometry import cartesian_from_spherical
    assert metadata.bin_camera_pose(cartesian_from_spherical(1.0, 52.5, 0.0)) == "agent-front"
    assert metadata.bin_camera_pose(cartesian_from_spherical(1.0, 37.5, 15.0)) == "agent-front"
    assert metadata.bin_camera_pose(cartesian_from_spherical(1.0, 52.6, 0.0)) == "unbinned"
    assert metadata.bin_camera_pose(cartesian_from_spherical(1.0, 45.0, 15.5)) == "unbinned"


def test_bin_azimuth_wraps():
    from dvcurate.geometry import cartesian_from_spherical
    # -125 degrees sits inside shoulder-right (center -120, width 30)
    assert metadata.bin_camera_pose(cartesian_from_spherical(1.0, 45.0, -125.0)) == "shoulder-right"
    # opposite the agent (phi 180) no default bin applies
    assert metadata.bin_camera_pose(cartesian_from_spherical(1.0, 45.0, 180.0)) == "unbinned"


def test_bin_respects_table_center_offset():
    center = (0.5, -0.3, 0.1)
    pos = bin_camera_pos("shoulder-left", center=center)
    assert metadata.bin_camera_pose(pos, table_center=center) == "shoulder-left"


def test_bin_degenerate_pose():
    with pytest.raises(DegeneratePose):
        metadata.bin_camera_pose((0.0, 0.0, 0.0), table_center=(0.0, 0.0, 0.0))


def test_load_bin_table(tmp_path):
    path = tmp_path / "bins.json"
    path.write_text(json.dumps([
        {"label": "top", "theta_center": 10.0, "phi_center": 0.0,
         "theta_width": 20.0, "phi_width": 360.0},
    ]))
    bins = metadata.load_bin_table(path)
    assert bins[0].label == "top"
    from dvcurate.geometry import cartesian_from_spherical
    pos = cartesian_from_spherical(1.0, 5.0, 170.0)
    assert metadata.bin_camera_pose(pos, bins=bins) == "top"


@pytest.mark.parametrize(
    "row",
    [
        {"label": 7, "theta_center": 45.0, "phi_center": 0.0},
        {"label": None, "theta_center": 45.0, "phi_center": 0.0},
        {"label": "x", "theta_center": float("nan"), "phi_center": 0.0},
        {"label": "x", "theta_center": 45.0, "phi_center": float("inf")},
        {"label": "x", "theta_center": 45.0, "phi_center": 0.0, "theta_width": float("nan")},
        {"label": "x", "theta_center": 45.0, "phi_center": 0.0, "phi_width": float("-inf")},
        # angles must be JSON numbers: float() would accept "45" and true
        {"label": "front", "theta_center": "45", "phi_center": True, "theta_width": "15",
         "phi_width": 30},
        {"label": "x", "theta_center": "45", "phi_center": 0.0},
        {"label": "x", "theta_center": 45.0, "phi_center": True},
        {"label": "x", "theta_center": 45.0, "phi_center": 0.0, "theta_width": "15"},
        {"label": "x", "theta_center": 45.0, "phi_center": 0.0, "phi_width": False},
        {"label": "x", "theta_center": None, "phi_center": 0.0},
        {"label": "x", "theta_center": [45.0], "phi_center": 0.0},
        {"label": "x", "theta_center": 10**400, "phi_center": 0.0},  # past the float range
    ],
)
def test_load_bin_table_rejects_labels_that_are_not_strings_and_non_finite_angles(tmp_path, row):
    # a number label would be written into camera_bin, which ingest refuses
    path = tmp_path / "bins.json"
    path.write_text(json.dumps([row]))
    with pytest.raises(InputError, match="bad camera-bin table"):
        metadata.load_bin_table(path)


@pytest.mark.parametrize("width", [{"theta_width": 0.0}, {"theta_width": -90.0},
                                   {"phi_width": 0}, {"phi_width": -1e-9}])
def test_load_bin_table_rejects_non_positive_widths(tmp_path, width):
    # such a bin matches no pose, so every record would be labelled unbinned
    path = tmp_path / "bins.json"
    path.write_text(json.dumps([{"label": "x", "theta_center": 45.0, "phi_center": 0.0, **width}]))
    with pytest.raises(InputError, match="width that is not positive"):
        metadata.load_bin_table(path)


def test_table_center_of():
    assert metadata.table_center_of("0,0,0") == (0.0, 0.0, 0.0)
    assert metadata.table_center_of(" 0.5 , -0.25 , 0.1 ") == (0.5, -0.25, 0.1)
    with pytest.raises(ValueError):
        metadata.table_center_of("1,2")


# ---------------------------------------------------------------------------
# color annotators

def test_offline_color_table(tmp_path):
    path = tmp_path / "colors.json"
    path.write_text(json.dumps({"d1": "Crimson"}))
    table = metadata.OfflineColorTable.from_json(path)
    rec = make_record(rid="d1")
    assert metadata.annotate_color(rec, table) == "red"
    with pytest.raises(AnnotatorUnavailable):
        table.color_of(make_record(rid="other"))


class _AnnotatorHandler(BaseHTTPRequestHandler):
    fail_first = 0
    blank_first = 0  # replies without "color" after the failures
    seen: list = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen.append(body)
        if type(self).fail_first > 0:
            type(self).fail_first -= 1
            self.send_response(500)
            self.end_headers()
            return
        reply = {"color": "navy"}
        if type(self).blank_first > 0:
            type(self).blank_first -= 1
            reply = {}
        payload = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def annotator_server(monkeypatch):
    """A live local annotator; DVC_ANNOTATOR_URL points at it."""
    server = HTTPServer(("127.0.0.1", 0), _AnnotatorHandler)
    _AnnotatorHandler.fail_first = 0
    _AnnotatorHandler.blank_first = 0
    _AnnotatorHandler.seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_port}/annotate"
    monkeypatch.setenv(metadata.ANNOTATOR_URL_ENV, url)
    yield url
    server.shutdown()
    thread.join()


def test_http_annotator_round_trip(annotator_server):
    rec = metadata.parse_record(demo_row(rid="d9", annotations={"target_object": "mug"}))
    annotator = metadata.HttpColorAnnotator()
    assert metadata.annotate_color(rec, annotator) == "blue"  # navy folds to blue
    assert _AnnotatorHandler.seen[-1] == {"id": "d9", "image_ref": "d9", "object": "mug"}


def test_http_annotator_retries_transient_failures(annotator_server, monkeypatch):
    _AnnotatorHandler.fail_first = 2
    monkeypatch.setenv(metadata.ANNOTATOR_RETRIES_ENV, "3")
    annotator = metadata.HttpColorAnnotator()
    assert annotator.color_of(make_record(rid="r")) == "navy"
    assert len(_AnnotatorHandler.seen) == 3


def test_http_annotator_retries_replies_without_color(annotator_server, monkeypatch):
    _AnnotatorHandler.blank_first = 2
    monkeypatch.setenv(metadata.ANNOTATOR_RETRIES_ENV, "3")
    annotator = metadata.HttpColorAnnotator()
    assert annotator.color_of(make_record(rid="r")) == "navy"
    assert len(_AnnotatorHandler.seen) == 3
    _AnnotatorHandler.blank_first = 99
    with pytest.raises(AnnotatorUnavailable, match="after 3 tries.*lacks 'color'"):
        annotator.color_of(make_record(rid="r"))


class _ReplySession:
    """A requests session whose every POST answers 200 with one JSON body."""

    def __init__(self, body):
        self.body = body
        self.posts = 0

    def post(self, url, json, timeout):
        self.posts += 1
        reply = mock.Mock()
        reply.json.return_value = self.body
        return reply


@pytest.mark.parametrize("body", [5, "colorless", ["color"], None, {"color": None}, {"color": 5}])
def test_http_annotator_retries_replies_that_hold_no_color_string(body, monkeypatch):
    session = _ReplySession(body)
    monkeypatch.setenv(metadata.ANNOTATOR_URL_ENV, "http://annotator.invalid")
    monkeypatch.setenv(metadata.ANNOTATOR_RETRIES_ENV, "2")
    annotator = metadata.HttpColorAnnotator(session=session)
    with pytest.raises(AnnotatorUnavailable, match="after 2 tries"):
        annotator.color_of(make_record(rid="r"))
    assert session.posts == 2
    assert metadata.annotate_record(make_record(rid="r"), annotator).annotations.object_color is None


def test_http_annotator_exhausts_retries(annotator_server, monkeypatch):
    _AnnotatorHandler.fail_first = 99
    monkeypatch.setenv(metadata.ANNOTATOR_RETRIES_ENV, "2")
    annotator = metadata.HttpColorAnnotator()
    with pytest.raises(AnnotatorUnavailable, match="after 2 tries"):
        annotator.color_of(make_record(rid="r"))


def test_http_annotator_stops_asking_a_service_that_never_answers(monkeypatch):
    # the service accepts each connection and never replies: once one record's
    # three tries time out, the other four records are not sent
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    accepted = []
    done = threading.Event()

    def accept():
        while not done.is_set():
            try:
                accepted.append(listener.accept()[0])
            except TimeoutError:
                pass

    thread = threading.Thread(target=accept, daemon=True)
    thread.start()
    monkeypatch.setenv(metadata.ANNOTATOR_URL_ENV, f"http://127.0.0.1:{listener.getsockname()[1]}/annotate")
    monkeypatch.setenv(metadata.ANNOTATOR_TIMEOUT_ENV, "100")
    monkeypatch.delenv(metadata.ANNOTATOR_RETRIES_ENV, raising=False)
    try:
        annotator = metadata.HttpColorAnnotator()
        colors = [metadata.annotate_record(make_record(rid=f"r{i}"), annotator).annotations.object_color
                  for i in range(5)]
    finally:
        done.set()
        thread.join(timeout=5)
        for conn in accepted:
            conn.close()
        listener.close()
    assert not thread.is_alive()
    assert colors == [None] * 5
    assert len(accepted) == 3
    with pytest.raises(AnnotatorUnavailable, match="stopped answering"):
        annotator.color_of(make_record(rid="r5"))


def test_http_annotator_keeps_asking_a_service_that_answers_with_errors(annotator_server, monkeypatch):
    _AnnotatorHandler.fail_first = 99
    monkeypatch.setenv(metadata.ANNOTATOR_RETRIES_ENV, "2")
    annotator = metadata.HttpColorAnnotator()
    for i in range(3):
        assert metadata.annotate_record(make_record(rid=f"r{i}"), annotator).annotations.object_color is None
    assert len(_AnnotatorHandler.seen) == 6


def test_http_annotator_requires_url(monkeypatch):
    monkeypatch.delenv(metadata.ANNOTATOR_URL_ENV, raising=False)
    with pytest.raises(AnnotatorUnavailable):
        metadata.HttpColorAnnotator()


def test_http_annotator_env_config(annotator_server, monkeypatch):
    monkeypatch.setenv(metadata.ANNOTATOR_TIMEOUT_ENV, "250")
    monkeypatch.setenv(metadata.ANNOTATOR_RETRIES_ENV, "4")
    annotator = metadata.HttpColorAnnotator()
    assert annotator.timeout == pytest.approx(0.25)
    assert annotator.retries == 4


def test_http_annotator_takes_the_largest_timeout_a_socket_accepts(monkeypatch):
    # one millisecond more is refused (tests/test_cli.py); socket.settimeout would overflow
    largest = int(threading.TIMEOUT_MAX * 1000)
    monkeypatch.setenv(metadata.ANNOTATOR_URL_ENV, "http://127.0.0.1:9/annotate")
    monkeypatch.setenv(metadata.ANNOTATOR_TIMEOUT_ENV, str(largest))
    annotator = metadata.HttpColorAnnotator(session=object())
    assert annotator.timeout == largest / 1000
    with socket.socket() as sock:
        sock.settimeout(annotator.timeout)
    monkeypatch.setenv(metadata.ANNOTATOR_TIMEOUT_ENV, str(largest + 1))
    with pytest.raises(InputError, match=metadata.ANNOTATOR_TIMEOUT_ENV):
        metadata.HttpColorAnnotator(session=object())


def test_http_annotator_defaults_follow_readme(annotator_server, monkeypatch):
    # the README's annotator table documents 1000 ms and 3 attempts
    monkeypatch.delenv(metadata.ANNOTATOR_TIMEOUT_ENV, raising=False)
    monkeypatch.delenv(metadata.ANNOTATOR_RETRIES_ENV, raising=False)
    annotator = metadata.HttpColorAnnotator()
    assert annotator.timeout == 1.0
    assert annotator.retries == 3


# ---------------------------------------------------------------------------
# annotate_record pipeline

def test_annotate_record_full():
    rec = make_record(
        rid="d1",
        instructions=("pick the mug and place it on the plate",),
        camera_pos=tuple(bin_camera_pos("agent-front")),
        obj_pos=(0.21, -0.07, 0.02),
    )
    table = metadata.OfflineColorTable({"d1": "scarlet"})
    out = metadata.annotate_record(rec, annotator=table)
    assert out.annotations.target_object == "mug"
    assert out.annotations.object_color == "red"
    assert out.annotations.camera_bin == "agent-front"
    assert out.annotations.object_position == pytest.approx((0.21, -0.07, 0.02))
    assert rec.annotations is None  # original untouched


def test_annotate_record_leaves_gaps_none():
    rec = make_record(instructions=("do the thing",), close_at=200, release_at=None)
    out = metadata.annotate_record(rec, annotator=None)
    assert out.annotations.target_object is None
    assert out.annotations.object_position is None
    assert out.annotations.object_color is None
    assert out.annotations.camera_bin is not None


def test_annotate_record_tolerates_annotator_failure():
    rec = make_record(rid="d1")
    table = metadata.OfflineColorTable({})  # no entry -> AnnotatorUnavailable
    out = metadata.annotate_record(rec, annotator=table)
    assert out.annotations.object_color is None
    assert out.annotations.target_object == "mug"


def test_annotate_derives_the_target_object_once_per_instruction_tuple(monkeypatch):
    calls = []
    real = lexicon.cluster_candidates

    def counted(words):
        calls.append(words)
        return real(words)

    monkeypatch.setattr(lexicon, "cluster_candidates", counted)
    lexicon._target_object.cache_clear()
    instructions = ("pick the mug and place it on the plate",)
    records = [make_record(rid=f"d{i}", instructions=instructions) for i in range(50)]
    targets = {metadata.annotate_record(rec).annotations.target_object for rec in records}
    assert targets == {"mug"}
    assert len(calls) == 1


def test_write_records_matches_per_element_json(tmp_path):
    full = {"target_object": "mug", "object_position": [0.2, -0.1, 0.02],
            "object_color": "red", "camera_bin": "agent-front"}
    no_position = {"target_object": None, "object_position": None,
                   "object_color": None, "camera_bin": "unbinned"}
    records = [
        make_record(rid="bare", n=150),
        make_record(rid="full", annotations=full, camera_pos=(0.1 / 3, -2.0 / 7, 0.9)),
        make_record(rid="no-position", annotations=no_position, n=1, close_at=0),
        metadata.annotate_record(make_record(rid="annotated", obj_pos=(1 / 3, 0.0, 0.1))),
    ]
    path = tmp_path / "out.jsonl"
    metadata.write_records(path, records)
    expected = "".join(json.dumps(element_record_to_dict(r), separators=(",", ":")) + "\n"
                       for r in records)
    assert path.read_text(encoding="utf-8") == expected


def _stdlib_lines(records) -> bytes:
    return b"".join(json.dumps(element_record_to_dict(r), separators=(",", ":")).encode() + b"\n"
                    for r in records)


# floats that orjson writes as repr() does, and the values around and past that range
_REPR_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]),
              st.floats(metadata._REPR_MIN, metadata._REPR_MAX, exclude_max=True)),
)
_EDGE_FLOATS = [
    float(np.nextafter(sign * bound, sign * toward))
    for bound in (1e-4, 1e16) for toward in (0.0, np.inf) for sign in (1.0, -1.0)
] + [1e-4, -1e-4, 1e16, -1e16, 3e-06, 5e-324, -2.2250738585072014e-308,
     1.7976931348623157e308, float("nan"), float("inf"), float("-inf"), -0.0]
_ANY_FLOATS = st.one_of(_REPR_FLOATS, st.floats(), st.sampled_from(_EDGE_FLOATS))
_PRINTABLE_TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e), max_size=8)
_ODD_CHARS = st.one_of(st.characters(), st.sampled_from(
    ["\x00", "\x1f", "\n", "\x7f", "\u2028", "\ud800", "\udfff", '"', "\\", "\u00e9",
     "\U0001f600"]))
_ODD_TEXT = st.builds(lambda a, c, b: a + c + b, _PRINTABLE_TEXT, _ODD_CHARS, _PRINTABLE_TEXT)
_ANY_TEXT = st.text(_ODD_CHARS, max_size=8)
# what a hand-built object_position may hold besides floats
_POSITION_VALUES = st.one_of(_ANY_FLOATS, st.integers(), st.builds(np.float64, _REPR_FLOATS),
                             st.sampled_from(["0.5", "\u0663", True]))


@st.composite
def _drawn_records(draw, any_floats=False):
    """A record of repr-safe floats and printable text with at most one odd value, or of anything.

    With `any_floats`, the floats are drawn from every float, the text stays printable.
    """
    wild = not any_floats and draw(st.booleans())
    floats = _ANY_FLOATS if wild or any_floats else _REPR_FLOATS
    text = _ANY_TEXT if wild else _PRINTABLE_TEXT
    n = draw(st.integers(1, 4))

    def rows(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(floats, min_size=size, max_size=size))).reshape(shape)

    arrays = [rows(3), rows(4), rows(n, 3), rows(n, 4), rows(n)]
    position = rows(3).tolist()
    texts = draw(st.lists(text, min_size=5, max_size=8))  # id, lab, 3 labels, instructions
    odd = "none" if wild else draw(st.sampled_from(["none", "float", "position", "text"]))
    if odd == "float":
        flat = draw(st.sampled_from(arrays)).reshape(-1)
        flat[draw(st.integers(0, flat.size - 1))] = draw(_ANY_FLOATS)
    elif odd == "position":
        position[draw(st.integers(0, 2))] = draw(_POSITION_VALUES)
    elif odd == "text":
        texts[draw(st.integers(0, len(texts) - 1))] = draw(_ODD_TEXT)
    rid, lab, target, color, camera_bin, *instructions = texts
    kind = "full" if odd == "position" else draw(st.sampled_from(["absent", "null", "full"]))
    ann = None if kind == "absent" else metadata.Annotations()
    if kind == "full":
        ann = metadata.Annotations(target, tuple(position), color, camera_bin)
    t = np.array(draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)))
    cam_pos, cam_quat, ee_pos, ee_quat, gripper = arrays
    return metadata.DemoRecord(rid, lab, tuple(instructions), cam_pos, cam_quat,
                               metadata.Steps(t, ee_pos, ee_quat, gripper), ann)


@given(st.lists(_drawn_records(), min_size=1, max_size=3))
@settings(max_examples=600, deadline=None)
def test_write_records_matches_the_stdlib_on_drawn_records(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("write") / "out.jsonl"
    assert metadata.write_records(path, records) == len(records)
    assert path.read_bytes() == _stdlib_lines(records)


@given(st.lists(_drawn_records(any_floats=True), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_write_records_matches_the_stdlib_on_records_of_any_floats(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("write") / "out.jsonl"
    assert metadata.write_records(path, records) == len(records)
    assert path.read_bytes() == _stdlib_lines(records)


_PLAIN = dict(
    id="r", lab="lab-1", instructions=("pick up the mug",),
    camera_pos=[0.64, 0.0, 0.64], camera_quat=[1.0, 0.0, 0.0, 0.0],
    ee_pos=[[0.1, -0.2, 0.3]] * 3, ee_quat=[[0.5, 0.5, -0.5, 0.5]] * 3, gripper=[0.0, 1.0, 0.5],
    target_object="mug", object_position=[0.2, -0.0, 0.02], object_color="red",
    camera_bin="agent-front")


def _plain_record(**changes) -> metadata.DemoRecord:
    """A record of printable ASCII and repr-safe floats, with `changes` applied."""
    f = {**_PLAIN, **changes}
    arrays = {k: np.array(f[k]) for k in ("camera_pos", "camera_quat", "ee_pos", "ee_quat", "gripper")}
    steps = metadata.Steps(np.arange(3), arrays["ee_pos"], arrays["ee_quat"], arrays["gripper"])
    ann = metadata.Annotations(f["target_object"], tuple(f["object_position"]),
                               f["object_color"], f["camera_bin"])
    return metadata.DemoRecord(f["id"], f["lab"], f["instructions"], arrays["camera_pos"],
                               arrays["camera_quat"], steps, ann)


def _one_odd_float():
    """Records that differ from _plain_record in one float orjson writes otherwise than `repr`."""
    for name in ("camera_pos", "camera_quat", "ee_pos", "ee_quat", "gripper", "object_position"):
        for x in (1e-5, -9.9e-5, 1e16, -1e22, float("nan"), float("-inf")):
            values = np.array(_PLAIN[name])
            values.reshape(-1)[-1] = x
            yield _plain_record(**{name: values.tolist()})


def _one_odd_value():
    """Records that differ from _plain_record in one value orjson may write otherwise."""
    for name in ("id", "lab", "instructions", "target_object", "object_color", "camera_bin"):
        for char in ("\x7f", "\u00e9", "\u2028", "\ud800"):
            text = f"a{char}b"
            yield _plain_record(**{name: (text,) if name == "instructions" else text})
    yield from _one_odd_float()
    for x in (np.float64(0.25), "\u0663", 10**20, True):
        yield _plain_record(object_position=[0.2, x, 0.02])


def test_write_records_matches_the_stdlib_with_one_odd_value(tmp_path):
    plain = _plain_record()
    assert metadata._orjson_exact(plain, metadata.record_to_dict(plain))
    records = [plain, *_one_odd_value()]
    path = tmp_path / "out.jsonl"
    metadata.write_records(path, records)
    assert path.read_bytes() == _stdlib_lines(records)


def test_odd_floats_do_not_send_a_record_to_the_stdlib_encoder(tmp_path, monkeypatch):
    # text that spells the placeholder orjson writes for "\0" stays as written
    records = [*_one_odd_float(),
               _plain_record(lab="\\u00000", instructions=('"\\u00001"',), gripper=[1e-5, 0.0, 1e16])]
    want = _stdlib_lines(records)
    dumped, dumps = [], json.dumps
    monkeypatch.setattr(json, "dumps", lambda obj, **kw: dumped.append(type(obj)) or dumps(obj, **kw))
    path = tmp_path / "out.jsonl"
    metadata.write_records(path, records)
    assert path.read_bytes() == want
    assert set(dumped) == {float} and len(dumped) == len(records) + 1


def _with_position(record, position):
    ann = metadata.Annotations("mug", position, "red", "agent-front")
    return metadata.DemoRecord(record.id, record.lab, record.instructions, record.camera_pos,
                               record.camera_quat, record.steps, ann)


def test_write_records_writes_numpy_float64_positions_as_the_stdlib(tmp_path):
    rec = _with_position(make_record(rid="a", n=5), (np.float64(0.2), 0.0, np.float64(1 / 3)))
    with pytest.raises(orjson.JSONEncodeError):
        orjson.dumps(rec.annotations.object_position[0])
    path = tmp_path / "out.jsonl"
    metadata.write_records(path, [rec])
    assert path.read_bytes() == _stdlib_lines([rec])
    assert b'"object_position":[0.2,0.0,0.3333333333333333]' in path.read_bytes()


def test_write_records_raises_the_stdlib_error_and_keeps_the_lines_before_it(tmp_path):
    good = [make_record(rid=f"ok{i}", n=5) for i in range(2)]
    bad = _with_position(make_record(rid="bad", n=5), (np.float32(0.25), 0.0, 0.0))
    with pytest.raises(TypeError) as want:
        json.dumps(element_record_to_dict(bad), separators=(",", ":"))
    path = tmp_path / "out.jsonl"
    with pytest.raises(TypeError) as got:
        metadata.write_records(path, [*good, bad, make_record(rid="after", n=5)])
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
    assert "float32" in str(got.value)
    assert path.read_bytes() == _stdlib_lines(good)


@given(st.lists(_drawn_records(), min_size=1, max_size=3), st.sampled_from(["longer", "shorter", "same"]),
       st.integers(1, 4096), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_write_records_over_an_existing_file_matches_a_fresh_write(tmp_path_factory, records, old_size,
                                                                   change, rng):
    d = tmp_path_factory.mktemp("rewrite")
    fresh, old = d / "fresh.jsonl", d / "old.jsonl"
    metadata.write_records(fresh, records)
    want = fresh.read_bytes()
    size = {"longer": len(want) + change, "shorter": max(len(want) - change, 0), "same": len(want)}[old_size]
    old.write_bytes(rng.randbytes(size))
    assert metadata.write_records(old, records) == len(records)
    assert old.read_bytes() == want == _stdlib_lines(records)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_write_records_error_over_a_longer_file_leaves_only_the_lines_before_it(tmp_path, k):
    records = [make_record(rid=f"ok{i}", n=5) for i in range(4)]
    records[k - 1] = _with_position(make_record(rid="bad", n=5), (np.float32(0.25), 0.0, 0.0))
    path = tmp_path / "out.jsonl"
    path.write_bytes(b"old\n" * 10_000)
    with pytest.raises(TypeError):
        metadata.write_records(path, records)
    assert path.read_bytes() == _stdlib_lines(records[:k - 1])


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
@pytest.mark.parametrize("text", [False, True])
def test_overwrite_gives_open_modes(tmp_path, umask, text):
    new, existing = tmp_path / "new", tmp_path / "existing"
    existing.write_bytes(b"old bytes")
    existing.chmod(0o604)
    old_umask = os.umask(umask)
    try:
        for path in (new, existing):
            with metadata.overwrite(path, text=text) as fh:
                fh.write("x" if text else b"x")
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
    assert stat.S_IMODE(existing.stat().st_mode) == 0o604
    assert new.read_bytes() == existing.read_bytes() == b"x"


def test_overwrite_does_not_truncate_on_open(tmp_path):
    path = tmp_path / "out.json"
    path.write_bytes(b"\0" * 5000)
    with metadata.overwrite(path, text=True) as fh:
        assert path.stat().st_size == 5000
        fh.write("café\n")
    assert path.read_bytes() == "café\n".encode("utf-8")


def test_overwrite_writes_to_a_fifo(tmp_path):
    # a FIFO has no offset to cut at: lseek on it raises ESPIPE
    path = tmp_path / "fifo"
    os.mkfifo(path)
    got = []
    reader = threading.Thread(target=lambda: got.append(path.read_bytes()), daemon=True)
    reader.start()
    with metadata.overwrite(path) as fh:
        fh.write(b"line\n")
    reader.join(timeout=10)
    assert got == [b"line\n"]
