"""Command-line interface.

One binary with subcommands covering the full workflow: validate and sample
task specs, enumerate instances, render textures, synthesize trajectories,
ingest and annotate corpora, profile DV supports, classify target/co-training
pairs, retrieve aligned subsets, and emit re-balanced sample batches.

Exit codes: 0 success, 1 domain error (structured JSON report on stderr),
2 usage error.  Every randomized command takes a required --seed and is
reproducible from it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import dvalgebra, genkit, metadata, retrieval, sampler, taskspec
from .errors import DVCurateError, EmptyDataset, InputError


def _print_json(obj, stream=None) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True), file=stream or sys.stdout)


@contextlib.contextmanager
def _output(path):
    """The text file at `path`, rewritten in place (`metadata.overwrite`), or stdout
    when no path is given."""
    if not path:
        yield sys.stdout
        return
    with metadata.overwrite(path, text=True) as fh:
        yield fh


def _read_ids(path) -> list[str]:
    """One id per non-blank line.  An id may not hold whitespace, since
    `sample-batches` writes a batch as its ids joined by spaces."""
    ids = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            rid = line.strip()
            if len(rid.split()) > 1:
                raise InputError(f"{path} line {number}: id {rid!r} contains whitespace")
            if rid:
                ids.append(rid)
    return ids


def _read_anchors(path) -> list[tuple[np.ndarray, np.ndarray]]:
    """A JSON list of {"pos": [x,y,z], "quat": [w,x,y,z]} anchor poses whose
    values are finite JSON numbers."""
    def bad(why: str) -> InputError:
        return InputError(f"bad anchors file {path}: {why}")

    try:
        raw = [(a["pos"], a["quat"]) for a in metadata.load_json_file(path, "anchors file")]
    except (KeyError, TypeError) as exc:
        raise bad(repr(exc)) from None
    if not all(isinstance(pos, list) and len(pos) == 3 and isinstance(quat, list) and len(quat) == 4
               for pos, quat in raw):
        raise bad("each anchor needs a 3-vector pos and a 4-vector quat")
    if not all(metadata._numbers(pos + quat) for pos, quat in raw):  # float() reads "0.1" and true
        raise bad("every pos and quat value must be a JSON number")
    try:
        anchors = [(np.array(pos, dtype=float), np.array(quat, dtype=float)) for pos, quat in raw]
    except OverflowError:  # an integer past the float range
        raise bad("every pos and quat value must be finite") from None
    if not all(np.isfinite(pos).all() and np.isfinite(quat).all() for pos, quat in anchors):
        raise bad("every pos and quat value must be finite")
    return anchors


# ---------------------------------------------------------------------------
# subcommand implementations

def _cmd_spec_validate(args) -> int:
    for path in args.files:
        taskspec.parse_file(path)
        print(f"ok {path}")
    return 0


def _cmd_spec_sample(args) -> int:
    spec = taskspec.parse_file(args.file)
    with _output(args.out) as out:
        for i in range(args.count):
            inst = taskspec.sample_instance(spec, args.seed + i)
            out.write(json.dumps(taskspec.instance_to_dict(inst), sort_keys=True))
            out.write("\n")
    return 0


def _cmd_gen_instances(args) -> int:
    summary = genkit.enumeration_summary(genkit.enumerate_instances(args.labs, args.coffee_lab, args.spatial))
    if args.format == "json":
        _print_json(summary)
    else:
        for lab in summary["labs"]:
            counts = ", ".join(f"{t['name']}={t['count']}" for t in lab["templates"])
            print(f"{lab['lab']}: base={lab['base_count']} crossed={lab['crossed_count']} [{counts}]")
        print(f"total base={summary['total_base']} crossed={summary['total_crossed']}")
    return 0


def _cmd_gen_texture(args) -> int:
    spec = taskspec.parse_file(args.file)
    tex = spec.table_texture if args.which == "table" else spec.object_texture
    if tex.mode != "fractal":
        raise DVCurateError(
            f"{args.which} texture of {spec.name!r} is {tex.mode!r}; only fractal textures render"
        )
    raster = genkit.fractal_texture(tex, args.width, args.height, args.seed)
    genkit.write_raster(args.out, raster)
    if args.ppm:
        genkit.write_ppm(args.ppm, raster)
    print(f"wrote {args.out} ({args.width}x{args.height})")
    return 0


def _cmd_gen_synth(args) -> int:
    records = metadata.ingest(args.demos)
    if not records:
        raise EmptyDataset(f"no records in {args.demos}")
    by_id = {r.id: r for r in records}
    if args.id is not None:
        if args.id not in by_id:
            raise DVCurateError(f"no record with id {args.id!r} in {args.demos}")
        source = by_id[args.id]
    else:
        source = records[0]
    if args.goal:
        prims = tuple(
            taskspec.Primitive(p.strip(), custom=p.strip() not in taskspec.BUILTIN_PRIMITIVES)
            for p in args.goal.split(",")
        )
        goal = taskspec.PredicateSequence(prims)
    elif args.spec:
        goal = taskspec.parse_file(args.spec).goal
    else:
        raise InputError("gen synth needs a goal: pass --goal or --spec")
    anchors = _read_anchors(args.anchors)
    if len(anchors) != len(goal.primitives):
        raise InputError(f"{args.anchors} holds {len(anchors)} anchors for a goal of "
                         f"{len(goal.primitives)} primitives")
    segments = genkit.decompose(source, goal)
    synth = genkit.synthesize(segments, anchors, args.bridge_step, like=source, new_id=args.new_id)
    metadata.write_records(args.out, [synth])
    print(f"wrote {args.out} ({len(synth.steps)} steps from {len(segments)} segments)")
    return 0


def _cmd_ingest(args) -> int:
    count = 0
    labs: dict[str, int] = {}
    for rec in metadata.iter_records(args.file):
        count += 1
        labs[rec.lab] = labs.get(rec.lab, 0) + 1
    report = {"records": count, "labs": labs}
    _print_json(report)
    return 0


def _cmd_annotate(args) -> int:
    # the records are read while the output is written, so one file cannot be both
    with contextlib.suppress(OSError):  # a path that does not exist names no file yet
        if os.path.samefile(args.file, args.out):
            raise InputError(f"annotate would overwrite its input: {args.out} is {args.file}")
    annotator = None
    if args.color_table:
        annotator = metadata.OfflineColorTable.from_json(args.color_table)
    elif args.http_annotator:
        annotator = metadata.HttpColorAnnotator()
    center = metadata.table_center_of(args.table_center)
    bins = metadata.load_bin_table(args.bin_table) if args.bin_table else metadata.DEFAULT_CAMERA_BINS
    stats = {"records": 0, "target_object": 0, "object_position": 0, "object_color": 0, "camera_bin": 0}

    def annotated():
        for rec in metadata.iter_records(args.file):
            out = metadata.annotate_record(rec, annotator=annotator, table_center=center, bins=bins)
            ann = out.annotations
            stats["records"] += 1
            stats["target_object"] += ann.target_object is not None
            stats["object_position"] += ann.object_position is not None
            stats["object_color"] += ann.object_color is not None
            stats["camera_bin"] += ann.camera_bin is not None
            yield out

    metadata.write_records(args.out, annotated())
    _print_json(stats)
    return 0


def _cmd_profile(args) -> int:
    profile = dvalgebra.profile_dataset(
        metadata.iter_records(args.file),
        cell=args.cell,
        angular_cell=args.angular_cell,
        table_center=metadata.table_center_of(args.table_center),
    )
    report = dvalgebra.profile_to_dict(profile)  # measures every support once
    if args.out:
        dvalgebra.save_profile(args.out, report)
    if args.format == "json":
        _print_json(report)
    else:
        print(dvalgebra.profile_report(report))
    return 0


def _cmd_classify(args) -> int:
    center = metadata.table_center_of(args.table_center)
    target = dvalgebra.profile_dataset(metadata.iter_records(args.target), cell=args.cell, table_center=center)
    cotrain = dvalgebra.profile_dataset(metadata.iter_records(args.cotrain), cell=args.cell, table_center=center)
    m = dvalgebra.measure_case(dvalgebra.measured_support(target, args.dv),
                               dvalgebra.measured_support(cotrain, args.dv), rho=args.rho)
    if args.format == "json":
        _print_json(
            {
                "dv": args.dv,
                "rho": args.rho,
                "cell": args.cell,
                "target_size": m.target_size,
                "cotrain_size": m.cotrain_size,
                "aligned": m.aligned,
                "case": m.case.value,
            }
        )
    else:
        print(m.case.value)
    return 0


def _cmd_retrieve(args) -> int:
    if args.query_text:
        queries = [retrieval.parse_query(args.query_text)]
    else:
        queries = retrieval.parse_query_file(args.query)
    index = retrieval.build_index(metadata.iter_records(args.corpus))
    with _output(args.out) as out:
        for query in queries:
            if args.report:
                out.write(json.dumps(retrieval.retrieval_report(index, query), sort_keys=True))
                out.write("\n")
            else:
                for rid in retrieval.retrieve(index, query):
                    out.write(rid + "\n")
    return 0


def _cmd_sample_batches(args) -> int:
    stream = sampler.SampleStream(
        target_ids=tuple(_read_ids(args.target)),
        cotrain_ids=tuple(_read_ids(args.cotrain)),
        omega=args.omega,
        seed=args.seed,
        batch_size=args.batch,
    )
    with _output(args.out) as out:
        if args.stats:
            stats = sampler.stream_stats(stream, args.n)
            if args.no_counts:
                stats.pop("draw_counts", None)
            _print_json(stats, out)
        else:
            for ids in sampler.batches(stream, args.n):
                out.write(" ".join(ids))
                out.write("\n")
    return 0


# ---------------------------------------------------------------------------
# parser wiring

def _checked(convert, ok, what: str):
    """An argparse type: `convert`, then a usage error unless `ok(value)`."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


_POSITIVE_INT = _checked(int, lambda v: v >= 1, ">= 1")
_POSITIVE_FLOAT = _checked(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dvcurate", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spec", help="task-spec operations")
    spec_sub = p_spec.add_subparsers(dest="spec_command", required=True)
    p_val = spec_sub.add_parser("validate", help="parse and validate spec files")
    p_val.add_argument("files", nargs="+")
    p_val.set_defaults(func=_cmd_spec_validate)
    p_samp = spec_sub.add_parser("sample", help="sample concrete instances from a spec")
    p_samp.add_argument("file")
    p_samp.add_argument("--seed", type=int, required=True)
    p_samp.add_argument("--count", type=_POSITIVE_INT, default=1)
    p_samp.add_argument("--out")
    p_samp.set_defaults(func=_cmd_spec_sample)

    p_gen = sub.add_parser("gen", help="procedural generation")
    gen_sub = p_gen.add_subparsers(dest="gen_command", required=True)
    p_inst = gen_sub.add_parser("instances", help="enumerate task instances per lab")
    p_inst.add_argument("--labs", type=_POSITIVE_INT, default=genkit.DEFAULT_LAB_COUNT)
    p_inst.add_argument("--spatial", type=_POSITIVE_INT, default=genkit.DEFAULT_SPATIAL_COMBINATIONS)
    p_inst.add_argument("--coffee-lab", type=int, default=0)
    p_inst.add_argument("--format", choices=("text", "json"), default="text")

    def coffee_lab_in_range(args):
        if not 0 <= args.coffee_lab < args.labs:
            p_inst.error(f"argument --coffee-lab: must be in [0, {args.labs}), got {args.coffee_lab}")

    p_inst.set_defaults(func=_cmd_gen_instances, check=coffee_lab_in_range)
    p_tex = gen_sub.add_parser("texture", help="render a fractal texture raster")
    p_tex.add_argument("file", help="task-spec file supplying the texture range")
    p_tex.add_argument("--seed", type=int, required=True)
    p_tex.add_argument("--width", type=_POSITIVE_INT, default=64)
    p_tex.add_argument("--height", type=_POSITIVE_INT, default=64)
    p_tex.add_argument("--which", choices=("object", "table"), default="object")
    p_tex.add_argument("--out", required=True)
    p_tex.add_argument("--ppm")
    p_tex.set_defaults(func=_cmd_gen_texture)
    p_syn = gen_sub.add_parser("synth", help="synthesize a trajectory from re-anchored segments")
    p_syn.add_argument("--demos", required=True)
    p_syn.add_argument("--id", help="source record id (default: first record)")
    p_syn.add_argument("--spec", help="task-spec file supplying the goal sequence")
    p_syn.add_argument("--goal", help="comma-separated primitive labels (overrides --spec)")
    p_syn.add_argument("--anchors", required=True, help="JSON list of {pos, quat} poses")
    p_syn.add_argument("--bridge-step", type=_POSITIVE_FLOAT, default=0.05)
    p_syn.add_argument("--new-id", type=_checked(str, bool, "non-empty"), default="synth-0")
    p_syn.add_argument("--out", required=True)
    p_syn.set_defaults(func=_cmd_gen_synth)

    p_ing = sub.add_parser("ingest", help="validate a corpus file")
    p_ing.add_argument("file")
    p_ing.set_defaults(func=_cmd_ingest)

    p_ann = sub.add_parser("annotate", help="derive per-demo annotations")
    p_ann.add_argument("file")
    p_ann.add_argument("--out", required=True)
    p_ann.add_argument("--color-table", help="JSON id->color lookup table")
    p_ann.add_argument("--http-annotator", action="store_true",
                       help="use the HTTP annotator configured by DVC_ANNOTATOR_URL")
    p_ann.add_argument("--table-center", default="0,0,0")
    p_ann.add_argument("--bin-table", help="JSON camera-bin table")
    p_ann.set_defaults(func=_cmd_annotate)

    p_prof = sub.add_parser("profile", help="measure per-DV supports of a corpus")
    p_prof.add_argument("file")
    p_prof.add_argument("--cell", type=_POSITIVE_FLOAT, default=dvalgebra.DILATION_CELL_DEFAULT)
    p_prof.add_argument("--angular-cell", type=_POSITIVE_FLOAT, default=dvalgebra.ANGULAR_CELL_DEFAULT)
    p_prof.add_argument("--table-center", default="0,0,0")
    p_prof.add_argument("--out", help="write machine-readable profile JSON here")
    p_prof.add_argument("--format", choices=("text", "json"), default="text")
    p_prof.set_defaults(func=_cmd_profile)

    p_cls = sub.add_parser("classify", help="classify a target/co-training pair")
    p_cls.add_argument("--target", required=True)
    p_cls.add_argument("--cotrain", required=True)
    p_cls.add_argument("--dv", required=True, choices=dvalgebra.DV_NAMES)
    p_cls.add_argument("--rho", type=_checked(float, lambda v: math.isfinite(v) and v > 1.0, "finite and > 1"),
                       default=dvalgebra.RHO_DEFAULT)
    p_cls.add_argument("--cell", type=_POSITIVE_FLOAT, default=dvalgebra.DILATION_CELL_DEFAULT)
    p_cls.add_argument("--table-center", default="0,0,0")
    p_cls.add_argument("--format", choices=("text", "json"), default="text")
    p_cls.set_defaults(func=_cmd_classify)

    p_ret = sub.add_parser("retrieve", help="run retrieval queries over a corpus")
    p_ret.add_argument("--corpus", required=True)
    group = p_ret.add_mutually_exclusive_group(required=True)
    group.add_argument("--query", help="query file (one s-expression query per line)")
    group.add_argument("--query-text", help="inline query s-expression")
    p_ret.add_argument("--report", action="store_true", help="emit stagewise counts instead of ids")
    p_ret.add_argument("--out")
    p_ret.set_defaults(func=_cmd_retrieve)

    p_bat = sub.add_parser("sample-batches", help="emit re-balanced sample batches")
    p_bat.add_argument("--target", required=True, help="newline-delimited target ids")
    p_bat.add_argument("--cotrain", required=True, help="newline-delimited cotrain ids")
    p_bat.add_argument("--omega", type=_checked(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
                       default=sampler.OMEGA_DEFAULT)
    p_bat.add_argument("--batch", type=_POSITIVE_INT, default=32)
    p_bat.add_argument("--n", type=_POSITIVE_INT, default=1)
    p_bat.add_argument("--seed", type=int, required=True)
    p_bat.add_argument("--stats", action="store_true")
    p_bat.add_argument("--no-counts", action="store_true", help="omit per-id counts from --stats")
    p_bat.add_argument("--out")
    p_bat.set_defaults(func=_cmd_sample_batches)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "check"):
            args.check(args)  # a rule across arguments; a usage error like argparse's
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except DVCurateError as exc:
        _print_json(exc.report(), stream=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:  # a path that cannot be opened, read or written
        name = type(exc).__name__.removesuffix("Error")  # FileNotFound, IsADirectory, ...
        _print_json({"error": name, "message": str(exc)}, stream=sys.stderr)
        return 1
    except MemoryError as exc:  # an array too large to allocate, such as an oversized raster
        _print_json({"error": "Memory", "message": str(exc) or "out of memory"}, stream=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
