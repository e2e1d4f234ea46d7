from __future__ import annotations

import hashlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dvcurate import cli, dvalgebra, genkit, metadata, taskspec

from conftest import DATA_DIR, demo_row, element_record_to_dict, write_jsonl

BIN_CARROT = str(DATA_DIR / "specs" / "valid" / "bin-carrot.mlspec")
WRAPPED_HUE = str(DATA_DIR / "specs" / "valid" / "wrapped-hue.mlspec")
MAKE_COFFEE = str(DATA_DIR / "specs" / "valid" / "make-coffee.mlspec")
JITTER_NEGATIVE = str(DATA_DIR / "specs" / "valid" / "jitter-negative.mlspec")
MALFORMED = str(DATA_DIR / "specs" / "malformed" / "m01-unbalanced.mlspec")


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def corpus(tmp_path):
    rows = [
        demo_row(rid="d0", lab="lab1", instructions=("pick up the mug",),
                 obj_pos=(0.2, 0.0, 0.02)),
        demo_row(rid="d1", lab="lab1", instructions=("put the pen in the cup",),
                 obj_pos=(0.1, 0.1, 0.02), place_pos=(-0.2, 0.3, 0.05)),
        demo_row(rid="d2", lab="lab2", instructions=("push the plate left",),
                 obj_pos=(-0.1, 0.2, 0.02)),
    ]
    return write_jsonl(tmp_path / "corpus.jsonl", rows)


# ---------------------------------------------------------------------------
# exit codes

def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys, "retrieve", "--corpus", "x.jsonl")[0] == 2
    assert run_cli(capsys, "sample-batches", "--target", "t", "--cotrain", "c")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "c.jsonl", "--cell", "nan"],
        ["profile", "c.jsonl", "--angular-cell", "-1"],
        ["classify", "--target", "t", "--cotrain", "c", "--dv", "objSpat", "--cell", "inf"],
        ["gen", "texture", "s.mlspec", "--seed", "1", "--out", "o", "--height", "0"],
        ["gen", "synth", "--demos", "d", "--anchors", "a", "--out", "o", "--bridge-step", "0"],
        ["gen", "synth", "--demos", "d", "--anchors", "a", "--out", "o", "--new-id", ""],
        ["gen", "instances", "--labs", "-1"],
        ["gen", "instances", "--labs", "0"],
        ["gen", "instances", "--labs", "2", "--coffee-lab", "9"],
        ["gen", "instances", "--labs", "2", "--coffee-lab", "2"],
        ["gen", "instances", "--coffee-lab", "-1"],
        ["gen", "instances", "--spatial", "0"],
        ["gen", "instances", "--spatial", "-1"],
        ["spec", "sample", "s.mlspec", "--seed", "1", "--count", "-2"],
        ["spec", "sample", "s.mlspec", "--seed", "1", "--count", "0"],
    ],
)
def test_out_of_range_values_are_usage_errors(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "must be" in err


def test_missing_file_exits_1_with_report(capsys, tmp_path):
    code, _, err = run_cli(capsys, "ingest", str(tmp_path / "nope.jsonl"))
    assert code == 1
    report = json.loads(err)
    assert report["error"] == "FileNotFound"


def test_domain_error_exits_1_with_positions(capsys):
    code, _, err = run_cli(capsys, "spec", "validate", MALFORMED)
    assert code == 1
    report = json.loads(err)
    assert report["error"] == "SpecSyntaxError"
    assert report["line"] >= 1 and report["col"] >= 1


# ---------------------------------------------------------------------------
# spec commands

def test_spec_validate_ok(capsys):
    code, out, _ = run_cli(capsys, "spec", "validate", BIN_CARROT, WRAPPED_HUE)
    assert code == 0
    assert out.splitlines() == [f"ok {BIN_CARROT}", f"ok {WRAPPED_HUE}"]


def test_spec_sample_deterministic_and_in_spec(capsys):
    code, out, _ = run_cli(capsys, "spec", "sample", BIN_CARROT, "--seed", "5", "--count", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    spec = taskspec.parse_file(BIN_CARROT)
    for line in lines:
        row = json.loads(line)
        assert row["spec_name"] == "bin-carrot"
        assert -0.30 <= row["object_pose"][0] <= -0.10
    code2, out2, _ = run_cli(capsys, "spec", "sample", BIN_CARROT, "--seed", "5", "--count", "3")
    assert out2 == out
    code3, out3, _ = run_cli(capsys, "spec", "sample", BIN_CARROT, "--seed", "6", "--count", "3")
    assert out3 != out


def test_spec_sample_to_file(capsys, tmp_path):
    dest = tmp_path / "instances.jsonl"
    code, out, _ = run_cli(capsys, "spec", "sample", BIN_CARROT,
                           "--seed", "1", "--count", "2", "--out", str(dest))
    assert code == 0 and out == ""
    assert len(dest.read_text().strip().splitlines()) == 2


@pytest.mark.parametrize(
    "spec,seed,digest",
    [
        (WRAPPED_HUE, 4, "aa4cdc17029b7cbbc8a92081c1965973b46c6e86efe073758fa759566825e407"),
        (JITTER_NEGATIVE, 9, "d0f20ac2baad3481438a04016113508f41d3b9a037f43abd5677bc48d8582261"),
    ],
)
def test_spec_sample_output_matches_golden_digests(capsys, spec, seed, digest):
    # pinned from the numpy hue mapping that preceded the float one; the first
    # spec's hue windows wrap, the second's table texture is a jitter
    code, out, _ = run_cli(capsys, "spec", "sample", spec, "--seed", str(seed), "--count", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# README examples

def _readme_cli_examples():
    """Each `dvcurate ...` command of README's `## CLI` sh block, continuations joined."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            assert argv[0] == "dvcurate", line
            commands.append(argv[1:])
    return commands


def test_readme_cli_examples_parse():
    examples = _readme_cli_examples()
    assert len(examples) == 12
    for argv in examples:
        args = cli.build_parser().parse_args(argv)
        if hasattr(args, "check"):
            args.check(args)


# ---------------------------------------------------------------------------
# gen commands

def test_gen_instances_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "gen", "instances")
    assert code == 0
    assert "total base=329 crossed=3600" in out
    code, out, _ = run_cli(capsys, "gen", "instances", "--format", "json")
    summary = json.loads(out)
    assert summary["total_base"] == 329
    assert summary["total_crossed"] == 3600
    assert len(summary["labs"]) == 8


def test_gen_instances_custom_roster(capsys):
    code, out, _ = run_cli(capsys, "gen", "instances", "--labs", "3", "--spatial", "10",
                           "--coffee-lab", "1", "--format", "json")
    assert code == 0
    summary = json.loads(out)
    assert summary["total_base"] == 2 * 41 + 42
    assert summary["total_crossed"] == 3 * 5 * 10
    coffee = [lab["lab"] for lab in summary["labs"]
              if any(t["name"] == "make-coffee" for t in lab["templates"])]
    assert coffee == ["lab2"]


@pytest.mark.parametrize(
    "argv,digest",
    [
        ((), "11c8a59bad674ce4ae7290a5d1bc6b1c25223eaf5398c1c8ad8ecaae6da12b2b"),
        (("--format", "json"), "e534645b3476b00a90ea130f7d9c5e798dae975ff404b10129fa292aa93a50df"),
        (("--labs", "3", "--spatial", "10", "--coffee-lab", "1", "--format", "json"),
         "339e50d3c03da332eb3d9b9ae4ab6738f976660ae95c6c96d86ede42373ec9ab"),
        (("--labs", "1", "--coffee-lab", "0"), "9cff72df4b39ac229c7ff3dcf17ff5c7ca1bbd59fc8e0f5b1392382aa9c2ea0e"),
    ],
)
def test_gen_instances_output_matches_golden_digests(capsys, argv, digest):
    # pinned from the per-lab object and receptacle rosters that preceded the template table
    code, out, _ = run_cli(capsys, "gen", "instances", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_gen_texture_writes_raster_and_ppm(capsys, tmp_path):
    out_path = tmp_path / "tex.dvtx"
    ppm_path = tmp_path / "tex.ppm"
    code, out, _ = run_cli(capsys, "gen", "texture", WRAPPED_HUE, "--seed", "9",
                           "--width", "32", "--height", "16",
                           "--which", "table", "--out", str(out_path),
                           "--ppm", str(ppm_path))
    assert code == 0 and "wrote" in out
    raster = genkit.read_raster(out_path)
    assert (raster.width, raster.height) == (32, 16)
    spec = taskspec.parse_file(WRAPPED_HUE)
    rendered = genkit.fractal_texture(spec.table_texture, 32, 16, seed=9)
    assert genkit.raster_within(spec.table_texture, rendered)
    # the file format quantizes to float32; read-back matches that cast exactly
    assert np.array_equal(raster.pixels, rendered.pixels.astype("<f4").astype(np.float64))
    assert ppm_path.read_bytes().startswith(b"P6\n32 16\n255\n")


@pytest.mark.parametrize(
    "spec,width,height,seed,digest",
    [
        (WRAPPED_HUE, 48, 40, 1, "3a3208c947b8dcd034810350d29fdf2afad0878cf03efcdee0f2398a77a8011d"),
        (BIN_CARROT, 64, 64, 7, "bbd3423dac3e108a1cd94edc2f997c9cfd6fb89e12e538f7305941ef8080dd6f"),
        (MAKE_COFFEE, 33, 100, 5, "022aa24417e03fe1df5418a0f7ea758929daef26459f75c619ad5313fb636d01"),
    ],
)
def test_gen_texture_bytes_match_golden_digests(capsys, tmp_path, spec, width, height, seed, digest):
    # pinned from the per-channel renderer that preceded the stacked one; the
    # first spec's object texture has a wrapped hue window (0.92 .. 0.06)
    out_path = tmp_path / "tex.dvtx"
    code, _, _ = run_cli(capsys, "gen", "texture", spec, "--seed", str(seed), "--width", str(width),
                         "--height", str(height), "--out", str(out_path))
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 8.00 EiB")])
def test_memory_error_exits_1_with_a_report(capsys, tmp_path, monkeypatch, exc):
    def exhausted(*args):
        raise exc

    monkeypatch.setattr(genkit, "fractal_texture", exhausted)
    code, _, err = run_cli(capsys, "gen", "texture", WRAPPED_HUE, "--seed", "1",
                           "--out", str(tmp_path / "t.dvtx"))
    assert code == 1
    report = json.loads(err)
    assert report["error"] == "Memory"
    assert report["message"] == (str(exc) or "out of memory")


def test_gen_texture_rejects_jitter_texture(capsys, tmp_path):
    code, _, err = run_cli(capsys, "gen", "texture", BIN_CARROT, "--seed", "1",
                           "--which", "table", "--out", str(tmp_path / "t.dvtx"))
    assert code == 1
    assert "fractal" in json.loads(err)["message"]


def test_gen_synth_end_to_end(capsys, tmp_path, corpus):
    source = metadata.ingest(corpus)[0]
    segments = genkit.decompose(
        source, taskspec.PredicateSequence(
            (taskspec.Primitive("pick"), taskspec.Primitive("place"))))
    anchors = [{"pos": list(map(float, s.anchor_pos)),
                "quat": list(map(float, s.anchor_quat))} for s in segments]
    anchors_path = tmp_path / "anchors.json"
    anchors_path.write_text(json.dumps(anchors))
    out_path = tmp_path / "synth.jsonl"
    code, out, _ = run_cli(capsys, "gen", "synth", "--demos", corpus, "--id", "d0",
                           "--goal", "pick,place", "--anchors", str(anchors_path),
                           "--out", str(out_path), "--new-id", "synth-9")
    assert code == 0
    assert "(120 steps from 2 segments)" in out
    synth = metadata.ingest(out_path)
    assert len(synth) == 1 and synth[0].id == "synth-9"
    assert np.allclose(synth[0].steps.ee_pos, source.steps.ee_pos, atol=1e-6)


def test_gen_synth_unknown_id(capsys, tmp_path, corpus):
    code, _, err = run_cli(capsys, "gen", "synth", "--demos", corpus, "--id", "ghost",
                           "--goal", "pick,place",
                           "--anchors", str(tmp_path / "a.json"),
                           "--out", str(tmp_path / "o.jsonl"))
    assert code == 1
    assert "ghost" in json.loads(err)["message"]


# ---------------------------------------------------------------------------
# corpus commands

def test_ingest_reports_counts(capsys, corpus):
    code, out, _ = run_cli(capsys, "ingest", corpus)
    assert code == 0
    report = json.loads(out)
    assert report == {"records": 3, "labs": {"lab1": 2, "lab2": 1}}


def test_ingest_rejects_bad_corpus(capsys, tmp_path):
    rows = [demo_row(rid="ok")]
    bad = demo_row(rid="bad")
    bad["camera_extrinsics"]["quat"] = [3.0, 0.0, 0.0, 0.0]
    rows.append(bad)
    path = write_jsonl(tmp_path / "bad.jsonl", rows)
    code, _, err = run_cli(capsys, "ingest", path)
    assert code == 1
    report = json.loads(err)
    assert report["error"] == "QuaternionNormError" and report["line"] == 2


def test_ingest_rejects_non_utf8_line(capsys, tmp_path):
    path = tmp_path / "latin1.jsonl"
    ok = json.dumps(demo_row(rid="ok")).encode()
    bad = json.dumps(demo_row(rid="caf\u00e9")).encode().replace(b"\\u00e9", b"\xe9")
    path.write_bytes(ok + b"\n" + bad + b"\n")
    code, _, err = run_cli(capsys, "ingest", str(path))
    assert code == 1
    report = json.loads(err)
    assert (report["error"], report["line"], report["field"]) == ("SchemaError", 2, "json")


def _big_t(row):
    row["steps"][-1]["t"] = 2**63


@pytest.mark.parametrize(
    "fault, field",
    [
        (_big_t, "steps"),
        (lambda row: row.update(annotations={"object_position": 5}), "annotations.object_position"),
        (lambda row: row.update(annotations={"object_position": [0.2, 0.0]}),
         "annotations.object_position"),
    ],
    ids=["t past int64", "non-iterable object_position", "two-number object_position"],
)
def test_ingest_reports_bad_field_values(capsys, tmp_path, fault, field):
    bad = demo_row(rid="bad")
    fault(bad)
    path = write_jsonl(tmp_path / "bad.jsonl", [demo_row(rid="ok"), bad])
    code, _, err = run_cli(capsys, "ingest", path)
    assert code == 1
    report = json.loads(err)
    assert (report["error"], report["line"], report["field"]) == ("SchemaError", 2, field)


def _last_step(**fields):
    return lambda row: row["steps"][-1].update(fields)


@pytest.mark.parametrize(
    "fault, error, field",
    [
        (lambda row: row.update(annotations={"object_position": [0.2, float("nan"), 0.02]}),
         "SchemaError", "annotations.object_position"),
        (lambda row: row["steps"][0].update(gripper=float("nan")), "SchemaError", "gripper"),
        (_last_step(ee_quat=[float("nan")] * 4), "QuaternionNormError", None),
        (lambda row: row["camera_extrinsics"].update(quat=[float("nan"), 0.0, 0.0, 0.0]),
         "QuaternionNormError", None),
        (_last_step(t=1.5), "SchemaError", "steps.t"),
        (lambda row: row["steps"][1].update(t=True), "SchemaError", "steps.t"),
    ],
    ids=["nan object_position", "nan gripper", "nan step quat", "nan camera quat", "half-step t",
         "bool t"],
)
def test_ingest_rejects_values_the_schema_forbids(capsys, tmp_path, fault, error, field):
    bad = demo_row(rid="bad", n=2)
    fault(bad)
    path = write_jsonl(tmp_path / "bad.jsonl", [demo_row(rid="ok"), bad])
    code, out, err = run_cli(capsys, "ingest", path)
    assert code == 1 and out == ""
    report = json.loads(err)
    assert (report["error"], report["line"], report.get("field")) == (error, 2, field)


def test_annotate_pipeline(capsys, tmp_path, corpus):
    colors = tmp_path / "colors.json"
    colors.write_text(json.dumps({"d0": "scarlet", "d1": "navy", "d2": "olive"}))
    out_path = tmp_path / "annotated.jsonl"
    code, out, _ = run_cli(capsys, "annotate", corpus, "--out", str(out_path),
                           "--color-table", str(colors))
    assert code == 0
    stats = json.loads(out)
    assert stats == {"records": 3, "target_object": 3, "object_position": 3,
                     "object_color": 3, "camera_bin": 3}
    annotated = metadata.ingest(out_path)
    assert [r.annotations.object_color for r in annotated] == ["red", "blue", "green"]
    assert annotated[0].annotations.target_object == "mug"
    assert annotated[0].annotations.camera_bin == "agent-front"


def _stdlib_bytes(records) -> bytes:
    return b"".join(json.dumps(element_record_to_dict(r), separators=(",", ":")).encode() + b"\n"
                    for r in records)


@pytest.fixture
def odd_corpus(tmp_path):
    """Non-ASCII lab and instruction text and a 3e-06 step coordinate beside a plain row."""
    rows = [
        demo_row(rid="d0", lab="lab-\u00e9t\u00e9", instructions=("pick up the mug \u2014 vite",)),
        demo_row(rid="d1", instructions=("put the pen in the cup",)),
        demo_row(rid="d2", lab="\u6771\u4eac", instructions=("push the plate \u2192 left",)),
        demo_row(rid="d3", instructions=("pick up the bowl",)),
    ]
    rows[1]["steps"][3]["ee_pos"][1] = 3e-06
    for step in rows[3]["steps"]:  # interpolation leaves values like 2.8e-17
        step["ee_pos"] = [round(v, 9) for v in step["ee_pos"]]
    return write_jsonl(tmp_path / "odd.jsonl", rows)


def test_annotate_writes_the_stdlib_bytes(capsys, tmp_path, odd_corpus):
    colors = tmp_path / "colors.json"
    colors.write_text(json.dumps({"d0": "scarlet", "d1": "navy", "d2": "olive", "d3": "red"}))
    out_path = tmp_path / "annotated.jsonl"
    code, _, _ = run_cli(capsys, "annotate", odd_corpus, "--out", str(out_path),
                         "--color-table", str(colors))
    assert code == 0
    table = metadata.OfflineColorTable.from_json(colors)
    want = [metadata.annotate_record(r, annotator=table) for r in metadata.ingest(odd_corpus)]
    data = out_path.read_bytes()
    assert data == _stdlib_bytes(want)
    assert [not metadata._odd_sites(r, metadata.record_to_dict(r)) for r in want] == \
        [False, False, False, True]
    assert b"lab-\\u00e9t\\u00e9" in data and b"3e-06" in data


@pytest.mark.parametrize("rid", ["d0", "d1", "d2", "d3"])
def test_gen_synth_writes_the_stdlib_bytes(capsys, tmp_path, odd_corpus, rid):
    source = next(r for r in metadata.ingest(odd_corpus) if r.id == rid)
    segments = genkit.decompose(source, taskspec.PredicateSequence(
        (taskspec.Primitive("pick"), taskspec.Primitive("place"))))
    anchors = [(np.array([0.25, -0.1, 0.0]), segments[0].anchor_quat),
               (np.array([-0.2, 0.3, 3e-06]), segments[1].anchor_quat)]
    anchors_path = tmp_path / "anchors.json"
    anchors_path.write_text(json.dumps([{"pos": p.tolist(), "quat": q.tolist()} for p, q in anchors]))
    out_path = tmp_path / "synth.jsonl"
    code, _, _ = run_cli(capsys, "gen", "synth", "--demos", odd_corpus, "--id", rid,
                         "--goal", "pick,place", "--anchors", str(anchors_path),
                         "--out", str(out_path))
    assert code == 0
    want = genkit.synthesize(segments, anchors, 0.05, like=source, new_id="synth-0")
    assert out_path.read_bytes() == _stdlib_bytes([want])


def test_gen_synth_bytes_match_golden_digest(capsys, tmp_path, corpus):
    # pinned from the numpy pose math that preceded the float one
    anchors = tmp_path / "anchors.json"
    anchors.write_text(json.dumps([
        {"pos": [0.25, -0.1, 0.02], "quat": [0.9238795325112867, 0.0, 0.0, 0.3826834323650898]},
        {"pos": [-0.2, 0.3, 0.05], "quat": [0.8660254037844387, 0.5, 0.0, 0.0]},
    ]))
    out_path = tmp_path / "synth.jsonl"
    code, out, _ = run_cli(capsys, "gen", "synth", "--demos", corpus, "--id", "d1", "--goal", "pick,place",
                           "--anchors", str(anchors), "--out", str(out_path))
    assert code == 0
    assert "(129 steps from 2 segments)" in out  # 120 source steps, 9 bridging the junction
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == "61a88157fbe00751c148a39dac65182aec907fbccc91dacdec5cd82b92411640"


def test_annotate_unknown_color_label_is_loud(capsys, tmp_path, corpus):
    colors = tmp_path / "colors.json"
    colors.write_text(json.dumps({"d0": "grass green", "d1": "navy", "d2": "olive"}))
    code, _, err = run_cli(capsys, "annotate", corpus, "--out", str(tmp_path / "a.jsonl"),
                           "--color-table", str(colors))
    assert code == 1
    assert json.loads(err)["error"] == "UnrecognizedColor"


@pytest.mark.parametrize("timeout_ms", ["0", "-5"])
def test_annotate_refuses_a_timeout_below_1ms(capsys, tmp_path, monkeypatch, corpus, timeout_ms):
    # requests refuses such a timeout on every try, which once left every color unset with exit 0
    monkeypatch.setenv(metadata.ANNOTATOR_URL_ENV, "http://127.0.0.1:9/annotate")
    monkeypatch.setenv(metadata.ANNOTATOR_TIMEOUT_ENV, timeout_ms)
    out = tmp_path / "a.jsonl"
    code, _, err = run_cli(capsys, "annotate", corpus, "--out", str(out), "--http-annotator")
    assert code == 1
    report = json.loads(err)
    assert report["error"] == "InputError"
    assert metadata.ANNOTATOR_TIMEOUT_ENV in report["message"]
    assert not out.exists()


@pytest.mark.parametrize("timeout_ms", ["9300000000000", str(10**30)])
def test_annotate_refuses_a_timeout_past_the_socket_limit(capsys, tmp_path, monkeypatch, corpus, timeout_ms):
    # socket.settimeout raises OverflowError above threading.TIMEOUT_MAX seconds
    monkeypatch.setenv(metadata.ANNOTATOR_URL_ENV, "http://127.0.0.1:9/annotate")
    monkeypatch.setenv(metadata.ANNOTATOR_TIMEOUT_ENV, timeout_ms)
    out = tmp_path / "a.jsonl"
    code, _, err = run_cli(capsys, "annotate", corpus, "--out", str(out), "--http-annotator")
    assert code == 1
    report = json.loads(err)
    assert report["error"] == "InputError"
    assert metadata.ANNOTATOR_TIMEOUT_ENV in report["message"]
    assert not out.exists()


def test_annotate_with_custom_bin_table(capsys, tmp_path, corpus):
    bins = tmp_path / "bins.json"
    bins.write_text(json.dumps([
        {"label": "everywhere", "theta_center": 45.0, "phi_center": 0.0,
         "theta_width": 90.0, "phi_width": 360.0}]))
    out_path = tmp_path / "annotated.jsonl"
    code, out, _ = run_cli(capsys, "annotate", corpus, "--out", str(out_path),
                           "--bin-table", str(bins))
    assert code == 0
    annotated = metadata.ingest(out_path)
    assert {r.annotations.camera_bin for r in annotated} == {"everywhere"}


def _side_file(tmp_path, data):
    path = tmp_path / "side.json"
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)
    return str(path)


@pytest.mark.parametrize(
    "case,error",
    [
        ("table-center", "InputError"),
        ("bin-table-bad-json", "InputError"),
        ("bin-table-object", "InputError"),
        ("bin-table-number-label", "InputError"),
        ("bin-table-nan-centre", "InputError"),
        ("bin-table-zero-width", "InputError"),
        ("bin-table-string-centre", "InputError"),
        ("annotator-retries", "InputError"),
        ("anchors-bad-json", "InputError"),
        ("anchors-deeply-nested", "InputError"),
        ("profile-camera-at-center", "DegeneratePose"),
        ("color-table-bad-json", "InputError"),
        ("color-table-list", "InputError"),
        ("color-table-number-label", "InputError"),
        ("color-table-deeply-nested", "InputError"),
        ("bin-table-deeply-nested", "InputError"),
        ("ingest-directory", "IsADirectory"),
        ("retrieve-query-directory", "IsADirectory"),
        ("retrieve-overflowing-query-number", "SpecRangeError"),
        ("retrieve-unknown-motion-label", "SpecRangeError"),
        ("retrieve-empty-object-name", "SpecRangeError"),
        ("spec-not-utf8", "UnicodeDecode"),
        ("synth-without-goal", "InputError"),
        ("synth-empty-corpus", "EmptyDataset"),
        ("synth-fewer-anchors-than-primitives", "InputError"),
        ("synth-more-anchors-than-primitives", "InputError"),
        ("synth-nan-anchor-pos", "InputError"),
        ("synth-infinite-anchor-pos", "InputError"),
        ("synth-nan-anchor-quat", "InputError"),
        ("synth-string-anchor-pos", "InputError"),
        ("synth-boolean-anchor-quat", "InputError"),
        ("synth-overflowing-anchor-pos", "InputError"),
        # the junction's length, or its count of bridge steps, is past what floats or numpy hold
        ("synth-anchors-too-far-apart", "DegenerateAnchor"),
        ("synth-bridge-step-too-fine", "DegenerateAnchor"),
        ("profile-number-camera-bin", "SchemaError"),
        ("ingest-list-target-object", "SchemaError"),
        ("ingest-deeply-nested", "SchemaError"),
        ("ingest-deeply-nested-closed", "SchemaError"),
        # the records are read while the output is written
        ("annotate-out-is-input", "InputError"),
        ("annotate-out-is-symlink-to-input", "InputError"),
    ],
)
def test_bad_inputs_exit_1_with_a_report(capsys, tmp_path, monkeypatch, corpus, case, error):
    out = str(tmp_path / "out.jsonl")
    corpus_bytes = pathlib.Path(corpus).read_bytes()

    def symlink_to_corpus():
        link = tmp_path / "link.jsonl"
        link.symlink_to(corpus)
        return str(link)

    deep = b"[" * 100_000  # deeper than the stdlib decoder recurses

    def anchors(count=2, pos=(0.1, 0.0, 0.0), quat=(1, 0, 0, 0)):
        path = tmp_path / "anchors.json"
        path.write_text(json.dumps([{"pos": list(pos), "quat": list(quat)}] * count))
        return str(path)

    def synth(anchors_file):
        return ["gen", "synth", "--demos", corpus, "--goal", "pick,place", "--anchors", anchors_file,
                "--out", out]

    nan, inf = float("nan"), float("inf")

    argv = {
        "table-center": lambda: ["annotate", corpus, "--out", out, "--table-center", "a,b"],
        "bin-table-bad-json": lambda: ["annotate", corpus, "--out", out,
                                       "--bin-table", _side_file(tmp_path, "[{")],
        "bin-table-object": lambda: ["annotate", corpus, "--out", out,
                                     "--bin-table", _side_file(tmp_path, '{"label": "x"}')],
        "bin-table-number-label": lambda: ["annotate", corpus, "--out", out, "--bin-table", _side_file(
            tmp_path, '[{"label": 7, "theta_center": 45, "phi_center": 0}]')],
        "bin-table-nan-centre": lambda: ["annotate", corpus, "--out", out, "--bin-table", _side_file(
            tmp_path, '[{"label": "x", "theta_center": NaN, "phi_center": 0}]')],
        "bin-table-zero-width": lambda: ["annotate", corpus, "--out", out, "--bin-table", _side_file(
            tmp_path, '[{"label": "x", "theta_center": 45, "phi_center": 0, "theta_width": 0}]')],
        "bin-table-string-centre": lambda: ["annotate", corpus, "--out", out, "--bin-table", _side_file(
            tmp_path, '[{"label": "x", "theta_center": "45", "phi_center": true}]')],
        "annotator-retries": lambda: ["annotate", corpus, "--out", out, "--http-annotator"],
        "anchors-bad-json": lambda: ["gen", "synth", "--demos", corpus, "--goal", "pick,place",
                                     "--anchors", _side_file(tmp_path, "not json"), "--out", out],
        "anchors-deeply-nested": lambda: synth(_side_file(tmp_path, deep)),
        "profile-camera-at-center": lambda: ["profile", write_jsonl(tmp_path / "c.jsonl", [
            demo_row(camera_pos=(0.0, 0.0, 0.0), annotations={"camera_bin": "agent-front"})])],
        "color-table-bad-json": lambda: ["annotate", corpus, "--out", out,
                                         "--color-table", _side_file(tmp_path, "{bad")],
        "color-table-list": lambda: ["annotate", corpus, "--out", out,
                                     "--color-table", _side_file(tmp_path, "[1,2]")],
        "color-table-number-label": lambda: ["annotate", corpus, "--out", out,
                                             "--color-table", _side_file(tmp_path, '{"r0": 5}')],
        "color-table-deeply-nested": lambda: ["annotate", corpus, "--out", out,
                                              "--color-table", _side_file(tmp_path, deep)],
        "bin-table-deeply-nested": lambda: ["annotate", corpus, "--out", out,
                                            "--bin-table", _side_file(tmp_path, deep)],
        "ingest-directory": lambda: ["ingest", str(tmp_path)],
        "retrieve-query-directory": lambda: ["retrieve", "--corpus", corpus, "--query", str(tmp_path)],
        "retrieve-overflowing-query-number": lambda: ["retrieve", "--corpus", corpus, "--report",
                                                      "--query-text", "(query :campose (:pos 1e999 0 0))"],
        "retrieve-unknown-motion-label": lambda: ["retrieve", "--corpus", corpus,
                                                  "--query-text", "(query :motion fly)"],
        "retrieve-empty-object-name": lambda: ["retrieve", "--corpus", corpus,
                                               "--query-text", '(query :object (include ""))'],
        "spec-not-utf8": lambda: ["spec", "validate", _side_file(tmp_path, b"(task :name \xff)")],
        "synth-without-goal": lambda: ["gen", "synth", "--demos", corpus, "--anchors", anchors(),
                                       "--out", out],
        "synth-empty-corpus": lambda: ["gen", "synth", "--demos", _side_file(tmp_path, ""),
                                       "--goal", "pick,place", "--anchors", anchors(), "--out", out],
        "synth-fewer-anchors-than-primitives": lambda: synth(anchors(count=1)),
        "synth-more-anchors-than-primitives": lambda: synth(anchors(count=3)),
        "synth-nan-anchor-pos": lambda: synth(anchors(pos=(0.1, nan, 0.0))),
        "synth-infinite-anchor-pos": lambda: synth(anchors(pos=(inf, 0.0, 0.0))),
        "synth-nan-anchor-quat": lambda: synth(anchors(quat=(nan, 0, 0, 0))),
        # float() and numpy read "0.1" and true as numbers, which JSON says they are not
        "synth-string-anchor-pos": lambda: synth(anchors(pos=("0.1", "0", "0"))),
        "synth-boolean-anchor-quat": lambda: synth(anchors(quat=(True, 0, 0, 0))),
        "synth-overflowing-anchor-pos": lambda: synth(anchors(pos=(10**400, 0, 0))),
        "synth-anchors-too-far-apart": lambda: synth(_side_file(tmp_path, json.dumps(
            [{"pos": [1e308, 0, 0], "quat": [1, 0, 0, 0]}, {"pos": [1.7e308, 0, 0], "quat": [1, 0, 0, 0]}]))),
        "synth-bridge-step-too-fine": lambda: synth(anchors()) + ["--bridge-step", "1e-300"],
        "profile-number-camera-bin": lambda: ["profile", write_jsonl(tmp_path / "c.jsonl", [
            demo_row(annotations={"camera_bin": 7, "target_object": [1, 2]})])],
        "ingest-list-target-object": lambda: ["ingest", write_jsonl(tmp_path / "c.jsonl", [
            demo_row(annotations={"target_object": [1, 2]})])],
        "ingest-deeply-nested": lambda: ["ingest", _side_file(tmp_path, b"[" * 200_000)],
        "ingest-deeply-nested-closed": lambda: ["ingest", _side_file(
            tmp_path, b"[" * 200_000 + b"]" * 200_000 + b"\n")],
        "annotate-out-is-input": lambda: ["annotate", corpus, "--out", corpus],
        "annotate-out-is-symlink-to-input": lambda: ["annotate", corpus, "--out", symlink_to_corpus()],
    }[case]()
    # the URL is never contacted: the retries setting fails first
    monkeypatch.setenv(metadata.ANNOTATOR_URL_ENV, "http://127.0.0.1:9/annotate")
    monkeypatch.setenv(metadata.ANNOTATOR_RETRIES_ENV, "x")
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(err)["error"] == error
    assert pathlib.Path(corpus).read_bytes() == corpus_bytes


# every command that writes a file, with OUT in the place of that file
_WRITERS = {
    "annotate": ("annotate", "{corpus}", "--out", "OUT"),
    "gen-texture": ("gen", "texture", WRAPPED_HUE, "--seed", "3", "--width", "8", "--height", "4",
                    "--out", "OUT"),
    "gen-texture-ppm": ("gen", "texture", WRAPPED_HUE, "--seed", "3", "--width", "8", "--height", "4",
                        "--out", "{tmp}/t.dvtx", "--ppm", "OUT"),
    "profile": ("profile", "{corpus}", "--out", "OUT"),
    "retrieve": ("retrieve", "--corpus", "{corpus}", "--query-text", "(query :motion pick push)",
                 "--out", "OUT"),
    "spec-sample": ("spec", "sample", WRAPPED_HUE, "--seed", "1", "--count", "2", "--out", "OUT"),
    "sample-batches": ("sample-batches", "--target", "{ids}", "--cotrain", "{ids}", "--seed", "1",
                       "--n", "3", "--out", "OUT"),
}


def _writer_argv(name, tmp_path, corpus, out):
    ids = tmp_path / "ids.txt"
    ids.write_text("d0\nd1\nd2\n")
    fields = {"corpus": corpus, "tmp": str(tmp_path), "ids": str(ids)}
    return [out if arg == "OUT" else arg.format(**fields) for arg in _WRITERS[name]]


@pytest.mark.parametrize("name", sorted(_WRITERS))
def test_writers_rewrite_an_existing_file_to_the_bytes_of_a_fresh_one(capsys, tmp_path, corpus, name):
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    assert run_cli(capsys, *_writer_argv(name, tmp_path, corpus, str(fresh)))[0] == 0
    want = fresh.read_bytes()
    old.write_bytes(b"\xff" * (len(want) + 4096))
    assert run_cli(capsys, *_writer_argv(name, tmp_path, corpus, str(old)))[0] == 0
    assert old.read_bytes() == want


@pytest.mark.parametrize("name", sorted(_WRITERS))
def test_writers_write_to_dev_null(capsys, tmp_path, corpus, name):
    # a character device is written but never truncated
    code, _, err = run_cli(capsys, *_writer_argv(name, tmp_path, corpus, os.devnull))
    assert code == 0 and err == ""


def test_profile_text_json_and_save(capsys, tmp_path, corpus):
    code, out, _ = run_cli(capsys, "profile", corpus)
    assert code == 0
    for name in dvalgebra.DV_NAMES:
        assert name in out
    saved = tmp_path / "profile.json"
    code, out, _ = run_cli(capsys, "profile", corpus, "--format", "json",
                           "--out", str(saved))
    assert code == 0
    payload = json.loads(out)
    assert payload["demo_count"] == 3
    assert payload["dvs"]["motion"]["elements"] == ["pick", "place", "push"]
    profile = dvalgebra.load_profile(saved)
    assert profile.demo_count == 3


def test_classify_pair(capsys, tmp_path):
    target_rows = [demo_row(rid=f"t{i}", obj_pos=(0.2, 0.0, 0.02)) for i in range(3)]
    spread_rows = [demo_row(rid=f"c{i}", obj_pos=(0.1 * i - 0.3, 0.05 * i, 0.02))
                   for i in range(8)]
    target = write_jsonl(tmp_path / "target.jsonl", target_rows)
    both = write_jsonl(tmp_path / "both.jsonl", spread_rows + target_rows)
    code, out, _ = run_cli(capsys, "classify", "--target", target, "--cotrain", both,
                           "--dv", "objSpat")
    assert code == 0 and out.strip() == "diverse_aligned"
    code, out, _ = run_cli(capsys, "classify", "--target", target, "--cotrain", both,
                           "--dv", "objSpat", "--format", "json")
    payload = json.loads(out)
    assert payload["case"] == "diverse_aligned"
    assert payload["aligned"] is True
    assert payload["rho"] == 5.0
    assert payload["cotrain_size"] == pytest.approx(9 * 0.02 ** 3)


@pytest.mark.parametrize("dv", ["tableTex", "objTex"])
def test_classify_refuses_a_dv_it_did_not_measure(capsys, corpus, dv):
    # no annotator reports table textures, and no record of `corpus` has a color
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "classify", "--target", corpus, "--cotrain", corpus,
                                 "--dv", dv, "--format", fmt)
        assert code == 1 and out == ""
        report = json.loads(err)
        assert (report["error"], report["dv"]) == ("DVNotMeasured", dv)


def test_classify_object_texture_needs_colors_on_both_sides(capsys, tmp_path, corpus):
    colored = write_jsonl(tmp_path / "colored.jsonl", [
        demo_row(rid=f"c{i}", annotations={"object_color": color})
        for i, color in enumerate(("red", "blue", "green", "red", "yellow", "purple"))])
    code, out, _ = run_cli(capsys, "classify", "--target", colored, "--cotrain", colored,
                           "--dv", "objTex")
    assert code == 0 and out.strip() == "not_diverse_aligned"
    code, _, err = run_cli(capsys, "classify", "--target", corpus, "--cotrain", colored,
                           "--dv", "objTex")
    assert code == 1 and json.loads(err)["error"] == "DVNotMeasured"


def test_retrieve_inline_query_and_report(capsys, tmp_path, corpus):
    colors = tmp_path / "colors.json"
    colors.write_text(json.dumps({"d0": "red", "d1": "blue", "d2": "red"}))
    annotated = tmp_path / "annotated.jsonl"
    run_cli(capsys, "annotate", corpus, "--out", str(annotated),
            "--color-table", str(colors))
    code, out, _ = run_cli(capsys, "retrieve", "--corpus", str(annotated),
                           "--query-text", '(query :color "red" :motion pick push)')
    assert code == 0
    assert out.splitlines() == ["d0", "d2"]
    code, out, _ = run_cli(capsys, "retrieve", "--corpus", str(annotated),
                           "--query-text", '(query :color "red" :motion pick push)',
                           "--report")
    report = json.loads(out)
    counts = [s["count"] for s in report["stages"]]
    assert counts == sorted(counts, reverse=True)
    assert report["final_count"] == 2


def test_retrieve_query_file_to_out(capsys, tmp_path, corpus):
    queries = tmp_path / "queries.mlq"
    queries.write_text('(query :campose (:pos 0.64 0.0 0.64))\n(query :motion place)\n')
    dest = tmp_path / "hits.txt"
    code, out, _ = run_cli(capsys, "retrieve", "--corpus", corpus,
                           "--query", str(queries), "--out", str(dest))
    assert code == 0 and out == ""
    assert dest.read_text().splitlines() == ["d0", "d1", "d2", "d1"]


def test_sample_batches_lines_and_stats(capsys, tmp_path):
    target = tmp_path / "target.txt"
    cotrain = tmp_path / "cotrain.txt"
    target.write_text("t0\nt1\n\n")
    cotrain.write_text("c0\nc1\nc2\n")
    code, out, _ = run_cli(capsys, "sample-batches", "--target", str(target),
                           "--cotrain", str(cotrain), "--seed", "42",
                           "--batch", "8", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(len(line.split()) == 8 for line in lines)
    assert set(" ".join(lines).split()) <= {"t0", "t1", "c0", "c1", "c2"}
    code, out2, _ = run_cli(capsys, "sample-batches", "--target", str(target),
                            "--cotrain", str(cotrain), "--seed", "42",
                            "--batch", "8", "--n", "3")
    assert out2 == out
    code, out, _ = run_cli(capsys, "sample-batches", "--target", str(target),
                           "--cotrain", str(cotrain), "--seed", "42",
                           "--batch", "100", "--n", "100", "--stats", "--no-counts")
    stats = json.loads(out)
    assert stats["total_draws"] == 10_000
    assert "draw_counts" not in stats
    assert abs(stats["target_fraction"] - 0.5) <= 3 * (0.25 / 10_000) ** 0.5


def test_sample_batches_stats_go_to_out(capsys, tmp_path):
    ids = tmp_path / "ids.txt"
    ids.write_text("a0\na1\n")
    argv = ("sample-batches", "--target", str(ids), "--cotrain", str(ids), "--seed", "5",
            "--batch", "16", "--n", "4", "--stats")
    code, printed, _ = run_cli(capsys, *argv)
    assert code == 0
    dest = tmp_path / "stats.json"
    code, out, _ = run_cli(capsys, *argv, "--out", str(dest))
    assert code == 0 and out == ""
    assert dest.read_text() == printed
    assert json.loads(printed)["total_draws"] == 64


@pytest.mark.parametrize("side, bad", [("--target", "a b"), ("--cotrain", "a\tb"),
                                       ("--target", "a\u2003b")])
def test_sample_batches_refuses_ids_with_whitespace(capsys, tmp_path, side, bad):
    good = tmp_path / "good.txt"
    good.write_text("c1\nc2\n")
    spaced = tmp_path / "spaced.txt"
    spaced.write_text(f"  a0  \n\n{bad}\n", encoding="utf-8")
    files = {"--target": good, "--cotrain": good, side: spaced}
    code, out, err = run_cli(capsys, "sample-batches", "--target", str(files["--target"]),
                             "--cotrain", str(files["--cotrain"]), "--seed", "1", "--batch", "4")
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["error"] == "InputError"
    assert str(spaced) in report["message"] and "line 3" in report["message"]


def test_sample_batches_bytes_match_pinned_digests(capsys, tmp_path):
    # digests of the per-slot sampler's output for these inputs: duplicate ids
    # in each pool, and one id in both
    target = tmp_path / "target.txt"
    cotrain = tmp_path / "cotrain.txt"
    target.write_text("\n".join([f"t{i}" for i in range(40)] + ["shared", "t3"]) + "\n")
    cotrain.write_text("\n".join([f"c{i}" for i in range(212)] + ["shared", "c7"]) + "\n")
    argv = ("sample-batches", "--target", str(target), "--cotrain", str(cotrain),
            "--omega", "0.3", "--batch", "37", "--n", "50", "--seed", "20240607")
    digests = {
        (): "673e18efde626e0becb62b330dd5e869dfe89e375f7f0d83ac9ad77e964ca951",
        ("--stats",): "a93def8614a73753d5e1a6c906fd3a5443e02668a99506fcc098e2c1d3035f36",
    }
    for extra, digest in digests.items():
        code, out, _ = run_cli(capsys, *argv, *extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ("sample-batches", "--omega", "1.5"),
        ("sample-batches", "--batch", "0"),
        ("sample-batches", "--stats", "--n", "0"),
        ("classify", "--dv", "objSpat", "--rho", "1"),
        ("classify", "--dv", "objSpat", "--rho", "inf"),
    ],
    ids=" ".join,
)
def test_out_of_range_options_are_usage_errors(capsys, tmp_path, argv):
    ids = tmp_path / "ids.txt"
    ids.write_text("a0\na1\n")
    corpus = write_jsonl(tmp_path / "corpus.jsonl", [demo_row(rid="d0")])
    files = {"sample-batches": ("--target", str(ids), "--cotrain", str(ids), "--seed", "1"),
             "classify": ("--target", corpus, "--cotrain", corpus)}[argv[0]]
    code, out, err = run_cli(capsys, argv[0], *files, *argv[1:])
    assert code == 2 and out == ""
    assert "usage:" in err and f"argument {argv[-2]}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--dv", "objSpat", "--format", "json"),
        ("profile", "--format", "json"),
        ("profile", "--format", "text"),
    ],
    ids=" ".join,
)
def test_each_support_is_measured_once(capsys, tmp_path, monkeypatch, corpus, argv):
    files = ("--target", corpus, "--cotrain", corpus) if argv[0] == "classify" else (corpus,)
    code, plain, _ = run_cli(capsys, argv[0], *files, *argv[1:])
    assert code == 0
    calls = []
    measure = dvalgebra.union_measure_3d

    def counted(boxes):
        calls.append(len(boxes))
        return measure(boxes)

    monkeypatch.setattr(dvalgebra, "union_measure_3d", counted)
    saved = tmp_path / "profile.json"
    out_file = ("--out", str(saved)) if argv[0] == "profile" else ()
    code, out, _ = run_cli(capsys, argv[0], *files, *argv[1:], *out_file)
    assert code == 0 and out == plain
    assert len(calls) == 2  # objSpat on each side, or objSpat and recepSpat
    if out_file:
        assert json.loads(saved.read_text()) == json.loads(run_cli(
            capsys, "profile", corpus, "--format", "json")[1])


def test_sample_batches_empty_pool_error(capsys, tmp_path):
    target = tmp_path / "target.txt"
    cotrain = tmp_path / "cotrain.txt"
    target.write_text("")
    cotrain.write_text("c0\n")
    code, _, err = run_cli(capsys, "sample-batches", "--target", str(target),
                           "--cotrain", str(cotrain), "--seed", "1")
    assert code == 1
    assert json.loads(err)["error"] == "EmptyPoolSelected"


def test_installed_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "dvcurate.cli", "gen", "instances"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "total base=329 crossed=3600" in proc.stdout


_IMPORT_BOUNDARY = """
import sys
from dvcurate import cli
assert cli.run(["--help"]) == 0
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "requests", "urllib3"))))
"""


def test_cli_starts_without_scipy_or_requests():
    # only `annotate --http-annotator` imports requests (the live-server annotator
    # tests use it), and no command imports scipy, a test-only dependency
    proc = subprocess.run([sys.executable, "-c", _IMPORT_BOUNDARY], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == ""


# ---------------------------------------------------------------------------
# contract fuzz: argv drawn from every subcommand and flag, over valid and
# corrupted side files, exits 0, 1 or 2, never with a traceback, and every
# exit 1 carries a JSON report on stderr; that report, and the stdout of
# `classify` and `profile --format json`, are strict JSON (no NaN or Infinity)

_SMALL = ("-1", "0", "1", "3", "x")
_FLOATS = ("-1", "0", "0.05", "1.5", "nan", "inf", "x")
_SEEDS = ("0", "7", "-3", "x")
_CENTERS = ("0,0,0", "0.1,0.2,0.3", "a,b", "1,2", "nan,0,0")
_FORMATS = ("text", "json", "yaml")
_OUTPUTS = ("out", "out-in-missing-dir", "dir")  # written to, so never drawn as an input


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "subdir").mkdir()

    def put(name, data):
        path = d / name
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(data)
        return str(path)

    rows = [
        demo_row(rid="d0", obj_pos=(0.2, 0.0, 0.02),
                 annotations={"target_object": "mug", "object_position": [0.2, 0.0, 0.02],
                              "object_color": "red", "camera_bin": "agent-front"}),
        demo_row(rid="d1", instructions=("put the pen in the cup",), obj_pos=(0.1, 0.1, 0.02)),
        demo_row(rid="d2", lab="lab2", instructions=("push the plate left",),
                 camera_pos=(0.0, 0.0, 0.0)),
    ]
    good = write_jsonl(d / "good.jsonl", rows)
    lines = open(good, encoding="utf-8").read().splitlines()
    nan_row = json.loads(lines[0])
    nan_row["camera_extrinsics"]["pos"][0] = float("nan")
    return {
        "good": good,
        "truncated": put("truncated.jsonl", lines[0] + "\n" + lines[1][:60] + "\n"),
        "duplicate": put("duplicate.jsonl", lines[0] + "\n" + lines[0] + "\n"),
        # d2's camera sits at the table centre (DegeneratePose); without it the
        # corpus profiles, so `profile` and `classify` can exit 0
        "profilable": put("profilable.jsonl", lines[0] + "\n" + lines[1] + "\n"),
        "wrong-types": put("wrong-types.jsonl", json.dumps({"id": 3, "steps": "x"}) + "\n"),
        "nan": put("nan.jsonl", json.dumps(nan_row) + "\n"),
        "not-utf8": put("not-utf8.jsonl", b"\xff\xfe{}\n"),
        "empty": put("empty.txt", ""),
        "deep": put("deep.json", "[" * 100_000),
        "dir": str(d),
        "subdir": str(d / "subdir"),
        "missing": str(d / "missing.jsonl"),
        "colors": put("colors.json", json.dumps({"d0": "scarlet", "d1": "navy", "d2": "olive"})),
        "colors-bad-json": put("colors-bad.json", "{bad"),
        "colors-list": put("colors-list.json", "[1,2]"),
        "colors-number": put("colors-number.json", '{"d0": 5}'),
        "colors-unknown": put("colors-unknown.json", '{"d0": "grass green"}'),
        "queries": put("queries.sexp", '(query :object (include "mug"))\n'
                                       "(query :campose (:pos 0.64 0 0.64) :motion pick)\n"),
        "queries-bad": put("queries-bad.sexp", "(query :nope 1)"),
        "queries-open": put("queries-open.sexp", "(query :color"),
        "spec": BIN_CARROT,
        "spec-hue": WRAPPED_HUE,
        "spec-bad": MALFORMED,
        "ids": put("ids.txt", "d0\nd1\n"),
        "anchors": put("anchors.json", json.dumps([{"pos": [0.1, 0.0, 0.0], "quat": [1, 0, 0, 0]},
                                                   {"pos": [0.3, 0.2, 0.0], "quat": [1, 0, 0, 0]}])),
        "anchors-bad": put("anchors-bad.json", '[{"pos": [1]}]'),
        "anchors-strings": put("anchors-strings.json",
                               json.dumps([{"pos": ["0.1", "0", "0"], "quat": [True, 0, 0, 0]},
                                           {"pos": [0.3, 0.2, 0.0], "quat": [1, 0, 0, 0]}])),
        "anchors-one": put("anchors-one.json",
                           json.dumps([{"pos": [0.1, 0.0, 0.0], "quat": [1, 0, 0, 0]}])),
        "anchors-nan": put("anchors-nan.json",
                           json.dumps([{"pos": [0.1, float("nan"), 0.0], "quat": [1, 0, 0, 0]},
                                       {"pos": [0.3, 0.2, 0.0], "quat": [1, 0, 0, 0]}])),
        "bins": put("bins.json", json.dumps([{"label": "all", "theta_center": 45.0,
                                              "phi_center": 0.0, "theta_width": 90.0,
                                              "phi_width": 360.0}])),
        "bins-bad": put("bins-bad.json", '{"label": "x"}'),
        "bins-number-label": put("bins-number-label.json", json.dumps([{"label": 7, "theta_center": 45.0,
                                                                        "phi_center": 0.0}])),
        "bins-zero-width": put("bins-zero-width.json", json.dumps([{"label": "x", "theta_center": 45.0,
                                                                    "phi_center": 0.0,
                                                                    "theta_width": -90.0}])),
        "bins-string-centre": put("bins-string-centre.json", json.dumps([{"label": "x", "theta_center": "45",
                                                                          "phi_center": True}])),
        "out": str(d / "out.txt"),
        "out-in-missing-dir": str(d / "no-such-dir" / "out.txt"),
    }


@st.composite
def _argv(draw, files):
    def path():
        return files[draw(st.sampled_from(sorted(k for k in files if k not in _OUTPUTS)))]

    def output():
        return files[draw(st.sampled_from(_OUTPUTS))]

    def pick(values):
        return draw(st.sampled_from(values))

    def options(table):
        argv = []
        for flag, values in table:
            if draw(st.booleans()):
                argv.append(flag)
                if values is path or values is output:
                    argv.append(values())
                elif values is not None:
                    argv.append(pick(values))
        return argv

    command = pick(("spec validate", "spec sample", "gen instances", "gen texture", "gen synth",
                    "ingest", "annotate", "profile", "classify", "retrieve", "sample-batches"))
    # now and then a well-formed JSON run on a corpus that profiles, so that the
    # stdout of exit-0 runs is checked as well
    json_run = command in ("profile", "classify") and draw(st.integers(0, 2)) == 0

    def corpus():
        return files["profilable"] if json_run else path()

    out = ("--out", output)
    if command == "spec validate":
        head = [path() for _ in range(draw(st.integers(0, 2)))]
        table = []
    elif command == "spec sample":
        head = [path(), "--seed", pick(_SEEDS)]
        table = [("--count", _SMALL), out]
    elif command == "gen instances":
        head = []
        table = [("--labs", _SMALL), ("--spatial", _SMALL), ("--coffee-lab", _SMALL),
                 ("--format", _FORMATS)]
    elif command == "gen texture":
        head = [path(), "--seed", pick(_SEEDS), "--out", output()]
        table = [("--width", _SMALL), ("--height", _SMALL), ("--which", ("object", "table", "x")),
                 ("--ppm", output)]
    elif command == "gen synth":
        head = ["--demos", path(), "--anchors", path(), "--out", output()]
        table = [("--goal", ("pick,place", "pick", "fly,", "")), ("--spec", path),
                 ("--id", ("d0", "d1", "zz")), ("--bridge-step", _FLOATS), ("--new-id", ("s", ""))]
    elif command == "ingest":
        head = [path()]
        table = []
    elif command == "annotate":
        head = [path(), "--out", output()]
        table = [("--color-table", path), ("--http-annotator", None),
                 ("--table-center", _CENTERS), ("--bin-table", path)]
    elif command == "profile":
        head = [corpus()]
        table = [("--cell", _FLOATS), ("--angular-cell", _FLOATS), ("--table-center", _CENTERS),
                 out, ("--format", _FORMATS)]
    elif command == "classify":
        head = ["--target", corpus(), "--cotrain", corpus(),
                "--dv", pick(dvalgebra.DV_NAMES + ("bogus",))]
        table = [("--rho", _FLOATS), ("--cell", _FLOATS), ("--table-center", _CENTERS),
                 ("--format", _FORMATS)]
    elif command == "retrieve":
        source = (["--query", path()] if draw(st.booleans()) else
                  ["--query-text", pick(('(query :color "red")', "(query", "(query :motion pick)",
                                              "(query :motion fly)", '(query :object (include ""))'))])
        head = ["--corpus", path(), *source]
        table = [("--report", None), out]
    else:
        head = ["--target", path(), "--cotrain", path(), "--seed", pick(_SEEDS)]
        table = [("--omega", _FLOATS), ("--batch", _SMALL), ("--n", _SMALL), ("--stats", None),
                 ("--no-counts", None), out]
    argv = command.split() + head + (["--format", "json"] if json_run else options(table))
    if argv and draw(st.integers(0, 9)) == 0:  # now and then a required part goes missing
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


def _strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_contract_holds_for_drawn_argv(fuzz_files, data):
    argv = data.draw(_argv(fuzz_files), label="argv")
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(stdout), redirect_stderr(stderr):
        os.environ.pop(metadata.ANNOTATOR_URL_ENV, None)  # --http-annotator must never connect
        code = cli.run(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        report = _strict_json(err)
        assert isinstance(report["error"], str) and isinstance(report["message"], str)
    elif code == 0 and argv[0] in ("classify", "profile") and "--format" in argv \
            and argv[argv.index("--format") + 1] == "json":
        _strict_json(stdout.getvalue())


@pytest.mark.parametrize(
    "argv",
    [("profile", "--format", "json")]
    + [("classify", "--dv", dv, "--format", "json", "--rho", "1.5")
       for dv in dvalgebra.DV_NAMES if dv != "tableTex"],  # no annotator measures tableTex
    ids=" ".join,
)
def test_exit_0_json_reports_are_strict_json(capsys, fuzz_files, argv):
    corpus = fuzz_files["profilable"]
    files = ("--target", corpus, "--cotrain", corpus) if argv[0] == "classify" else (corpus,)
    code, out, _ = run_cli(capsys, argv[0], *files, *argv[1:])
    assert code == 0
    report = _strict_json(out)
    assert report["demo_count" if argv[0] == "profile" else "dv"]
