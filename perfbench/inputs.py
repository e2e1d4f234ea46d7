"""Seeded inputs for the benchmark workloads.

Everything the program receives is made here, from the workload seed alone:
the short-record retrieval corpora (shaped like acceptance criterion 09's),
their query mixes, the task specs of the collection study, the source demos
they are re-anchored from, and the offline color tables.  The arrays the
independent checks need (positions, labels, which annotations are missing)
are saved next to the files the program reads.

Run as a script to write the inputs of one (workload, seed) into a directory:

    python3 perfbench/inputs.py --workload retrieve-wide --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib

import numpy as np

WORKLOADS = ("retrieve-wide", "curate")

# --- retrieval corpora ------------------------------------------------------

WIDE_RECORDS = 4_000
OBJECTS = ("mug", "pen", "cup", "plate")
COLORS = ("red", "blue", "green")
INSTRUCTIONS = ("pick up the mug", "place the pen in the cup", "push the plate")
# motion labels of INSTRUCTIONS, from the README's verb list
INSTRUCTION_MOTION = (("pick",), ("place",), ("push",))
MOTIONS = ("pick", "place", "push")
PLANT_EVERY = 1000
PLANT_CAMERA = (0.64, 0.0, 0.64)
PLANT_OBJECT = (0.2, 0.0, 0.02)
MISSING_RATE = 0.02  # per annotation field
CAMERA_RANGE = 1.0   # cameras uniform in [-1, 1]^3
OBJECT_RANGE = 0.6   # objects uniform in [-0.6, 0.6]^3

CURATE_QUERIES = 80
# query kinds per mix: with five equal kinds the median latency falls inside
# the middle kind, not on the edge between two kinds of different cost
QUERY_KINDS = 5
# wide queries: camera half-widths and object full widths, 0.5 m to the whole workspace
WIDE_CAMERA_TOLS = (0.25, 0.5, 1.0, 2.0)
WIDE_OBJECT_EXTENTS = (0.5, 1.0, 1.8, 2.4)

# --- collection study ---------------------------------------------------------

RHO = 3.0
CELL = 0.02            # dvalgebra.DILATION_CELL_DEFAULT
OBJECT_Z = 0.02        # grasp height of every generated demo
TEXTURE_SIZE = 64
BRIDGE_STEP = 0.05
# demos per spec: (target, each broad co-training spec)
STUDY_SIZES = {"small": (10, 10), "large": (40, 60)}
# the target object region, and the lattice of sweep demos that covers it
TARGET_BOX = (0.300, -0.005, 0.310, 0.005)
LATTICE_STEP = 0.01    # < CELL / 2 away from any point of the covered region
LATTICE_Z = (0.015, 0.025)
# a query box around the sweep: its hits are the sampler's target pool in curate
SWEEP_CENTER = (0.305, 0.0, 0.02)
SWEEP_EXTENT = (0.06, 0.06, 0.04)
OBJECT_S, OBJECT_V = (0.5, 1.0), (0.4, 1.0)
TABLE_JITTER = {"h": (-0.02, 0.02), "s": (-0.1, 0.1), "v": (-0.1, 0.1)}

COLOR_SYNONYMS = {
    "red": ("red", "crimson", "scarlet", "ruby"),
    "blue": ("blue", "navy", "azure", "cobalt"),
    "green": ("green", "emerald", "olive", "lime"),
    "yellow": ("yellow", "gold", "golden", "lemon"),
    "purple": ("purple", "violet", "indigo", "lavender"),
}

# name, lab, object, receptacle, canonical color, hue window, object region,
# receptacle region, camera ranges (r, theta, phi), instruction, motion labels,
# source demo
STUDY_SPECS = (
    dict(name="target-carrot", lab="lab1", object="carrot", receptacle="bowl", color="red",
         hue=(0.95, 0.04), region=[TARGET_BOX], receptacle_region=[(0.30, 0.19, 0.33, 0.22)],
         camera=[(0.8, 1.0, 43.0, 47.0, -6.0, 6.0)],
         instruction="pick the carrot and place it in the bowl", motion=("pick", "place"),
         source=0, role="target"),
    dict(name="co-mug", lab="lab1", object="mug", receptacle="bin", color="blue",
         hue=(0.55, 0.65), region=[(-0.45, -0.30, -0.10, 0.05), (-0.50, 0.10, -0.20, 0.25)],
         receptacle_region=[(-0.45, -0.45, -0.05, -0.35)],
         camera=[(0.7, 1.1, 40.0, 50.0, 50.0, 70.0)],
         instruction="pick up the mug and put it in the bin", motion=("pick", "place"),
         source=1, role="cotrain"),
    dict(name="co-apple", lab="lab2", object="apple", receptacle="basket", color="green",
         hue=(0.25, 0.40), region=[(-0.40, -0.55, 0.15, -0.40)],
         receptacle_region=[(-0.50, -0.60, -0.30, -0.50)],
         camera=[(0.8, 1.0, 20.0, 30.0, -170.0, 170.0)],
         instruction="grab the apple and drop it into the basket", motion=("pick", "place"),
         source=1, role="cotrain"),
    dict(name="co-block", lab="lab3", object="block", receptacle="plate", color="yellow",
         hue=(0.12, 0.18), region=[(-0.30, 0.30, 0.10, 0.45)],
         receptacle_region=[(-0.10, 0.20, 0.05, 0.30)],
         camera=[(0.7, 1.0, 40.0, 50.0, 20.0, 40.0)],
         instruction="push the block then place it on the plate", motion=("push", "place"),
         source=1, role="cotrain"),
    dict(name="co-sweep", lab="lab4", object="cup", receptacle="drawer", color="purple",
         hue=(0.75, 0.85), region=[(0.28, -0.03, 0.33, 0.03)],
         receptacle_region=[(-0.15, -0.05, -0.05, 0.05)],
         camera=[(0.7, 1.0, 40.0, 50.0, 20.0, 40.0)],
         instruction="pick the cup and place it in the drawer", motion=("pick", "place"),
         source=2, role="sweep"),
)

# grasp-to-release displacement of each source demo (the place segment is
# re-anchored at the receptacle; this is where the carry ends before it)
SOURCE_OFFSETS = ((0.0, 0.20, 0.0), (0.05, 0.15, 0.0), (-0.40, 0.0, 0.0))
# steps of every source demo: the latest release (step 120) leaves a 30-step retreat
SOURCE_STEPS = 150


def lattice_points() -> list[tuple[float, float, float]]:
    """Sweep anchors: every point of TARGET_BOX grown by CELL/2 lies within
    LATTICE_STEP/2 (Chebyshev, per axis) of one of them, and every grasp
    height within CELL/2 of OBJECT_Z lies within 0.005 m of a level."""
    x0, y0, x1, y1 = TARGET_BOX
    h = CELL / 2.0
    nx = int(math.ceil(round((x1 - x0 + 2 * h) / LATTICE_STEP, 9)))
    ny = int(math.ceil(round((y1 - y0 + 2 * h) / LATTICE_STEP, 9)))
    xs = [x0 - h + i * (x1 - x0 + 2 * h) / nx for i in range(nx + 1)]
    ys = [y0 - h + j * (y1 - y0 + 2 * h) / ny for j in range(ny + 1)]
    return [(x, y, z) for z in LATTICE_Z for y in ys for x in xs]


# ---------------------------------------------------------------------------
# retrieval corpora

def write_short_corpus(path, n: int, seed: int) -> dict:
    """Criterion-09-shaped corpus: two steps per record, 8 labs, a planted
    conjunctive cluster every PLANT_EVERY records, and each annotation field
    missing on about MISSING_RATE of the records.  Returns the arrays the
    checks scan, holding the same floats as the text."""
    rng = np.random.default_rng([seed, 9])
    cam = np.round(rng.uniform(-CAMERA_RANGE, CAMERA_RANGE, size=(n, 3)), 4)
    obj = np.round(rng.uniform(-OBJECT_RANGE, OBJECT_RANGE, size=(n, 3)), 4)
    kind = rng.integers(0, len(OBJECTS), size=n)
    ckind = rng.integers(0, len(COLORS), size=n)
    planted = np.arange(n) % PLANT_EVERY == 0
    cam[planted] = PLANT_CAMERA
    obj[planted] = PLANT_OBJECT
    no_object = (rng.random(n) < MISSING_RATE) & ~planted
    no_position = (rng.random(n) < MISSING_RATE) & ~planted
    no_color = (rng.random(n) < MISSING_RATE) & ~planted
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            cx, cy, cz = (float(v) for v in cam[i])
            ox, oy, oz = (float(v) for v in obj[i])
            target = "null" if no_object[i] else f'"{OBJECTS[kind[i]]}"'
            position = "null" if no_position[i] else f"[{ox!r},{oy!r},{oz!r}]"
            color = "null" if no_color[i] else f'"{COLORS[ckind[i]]}"'
            fh.write(
                f'{{"id":"r{i}","lab":"lab{i % 8 + 1}",'
                f'"instructions":["{INSTRUCTIONS[kind[i] % 3]}"],'
                f'"camera_extrinsics":{{"pos":[{cx!r},{cy!r},{cz!r}],"quat":[1.0,0.0,0.0,0.0]}},'
                f'"steps":[{{"t":0,"ee_pos":[0.0,0.0,0.3],"ee_quat":[1.0,0.0,0.0,0.0],"gripper":0.0}},'
                f'{{"t":1,"ee_pos":[{ox!r},{oy!r},{oz!r}],"ee_quat":[1.0,0.0,0.0,0.0],"gripper":1.0}}],'
                f'"annotations":{{"target_object":{target},"object_position":{position},'
                f'"object_color":{color},"camera_bin":null}}}}\n'
            )
    return {
        "camera": cam,
        "object": np.where(no_position[:, None], np.nan, obj),
        "object_kind": np.where(no_object, -1, kind),
        "color_kind": np.where(no_color, -1, ckind),
        "instruction_kind": kind % 3,
    }


def _fmt(v: float) -> str:
    return repr(float(v))


def _triple(v) -> list[float]:
    return [float(x) for x in v]


def make_query(campose=None, tol=None, objspat=None, extent=None, include=None,
               exclude=None, color=None, motion=None) -> dict:
    """A query as text for the program plus the same parameters for the scan."""
    parts = []
    if include is not None:
        parts.append(f':object (include "{include}")')
    if exclude is not None:
        parts.append(f':object (exclude "{exclude}")')
    if campose is not None:
        campose = _triple(campose)
        sub = f":pos {' '.join(map(_fmt, campose))}"
        if tol is not None:
            tol = _triple(tol)
            sub += f" :tol {' '.join(map(_fmt, tol))}"
        parts.append(f":campose ({sub})")
    if objspat is not None:
        objspat = _triple(objspat)
        sub = f":center {' '.join(map(_fmt, objspat))}"
        if extent is not None:
            extent = _triple(extent)
            sub += f" :extent {' '.join(map(_fmt, extent))}"
        parts.append(f":objspat ({sub})")
    if color is not None:
        parts.append(f':color "{color}"')
    if motion is not None:
        motion = [str(m) for m in motion]
        parts.append(f":motion {' '.join(motion)}")
    return {"text": f"(query {' '.join(parts)})", "campose": campose, "tol": tol,
            "objspat": objspat, "extent": extent, "include": include,
            "exclude": exclude, "color": color, "motion": motion}


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def wide_queries(seed: int) -> list[dict]:
    """Boxes from 0.5 m across to the whole workspace, alone and combined
    with hash filters: every (camera tol, object extent) pair in five forms,
    twice with other centers."""
    rng = np.random.default_rng([seed, 12])
    out = []
    for _ in range(2):
        for tol in WIDE_CAMERA_TOLS:
            for ext in WIDE_OBJECT_EXTENTS:
                cam = dict(campose=rng.uniform(-0.5, 0.5, 3), tol=(tol, tol, tol))
                obj = dict(objspat=rng.uniform(-0.3, 0.3, 3), extent=(ext, ext, ext / 2.0))
                out += [
                    make_query(**cam),
                    make_query(**obj),
                    make_query(**cam, **obj),
                    make_query(**cam, include=_pick(rng, OBJECTS), color=_pick(rng, COLORS)),
                    make_query(**obj, motion=[_pick(rng, MOTIONS)]),
                ]
    return out


def curate_queries(seed: int) -> list[dict]:
    """Narrow queries over the annotated co-training corpus of the study, a
    fifth of each kind: objSpat around the sweep, camPose+motion,
    object+color, exclude+motion, motion."""
    rng = np.random.default_rng([seed, 13])
    out = []
    for k in range(CURATE_QUERIES // QUERY_KINDS):
        out.append(make_query(objspat=np.add(SWEEP_CENTER, rng.uniform(-0.01, 0.01, 3)),
                              extent=SWEEP_EXTENT))
        phi = math.radians(rng.uniform(20.0, 70.0))
        out.append(make_query(campose=(0.6 * math.cos(phi), 0.6 * math.sin(phi), 0.6),
                              tol=(0.3, 0.3, 0.3), motion=["pick"]))
        spec = STUDY_SPECS[1 + k % 4]
        out.append(make_query(include=spec["object"], color=spec["color"]))
        out.append(make_query(exclude=spec["object"], motion=["place"]))
        out.append(make_query(motion=[MOTIONS[k % len(MOTIONS)]]))
    return out


# ---------------------------------------------------------------------------
# collection study

def spec_text(spec: dict) -> str:
    h0, h1 = spec["hue"]
    region = " ".join(f"(bbox {' '.join(map(_fmt, b))})" for b in spec["region"])
    recep = " ".join(f"(bbox {' '.join(map(_fmt, b))})" for b in spec["receptacle_region"])
    camera = " ".join(
        f"(sph :r {_fmt(r0)} {_fmt(r1)} :theta {_fmt(t0)} {_fmt(t1)} :phi {_fmt(p0)} {_fmt(p1)})"
        for r0, r1, t0, t1, p0, p1 in spec["camera"])
    goal = "pick place" if spec["role"] != "cotrain" else "pick placeBin"
    jitter = " ".join(f":{ch} {_fmt(a)} {_fmt(b)}" for ch, (a, b) in TABLE_JITTER.items())
    return (
        f'(task\n  :name "{spec["name"]}"\n  :lab "{spec["lab"]}"\n'
        f"  :goal (sequence {goal})\n"
        f'  :object "{spec["object"]}"\n'
        f"  :object-texture (fractal :h {_fmt(h0)} {_fmt(h1)} "
        f":s {_fmt(OBJECT_S[0])} {_fmt(OBJECT_S[1])} :v {_fmt(OBJECT_V[0])} {_fmt(OBJECT_V[1])})\n"
        f"  :object-region (union {region})\n"
        f'  :receptacle "{spec["receptacle"]}"\n'
        f"  :receptacle-region (union {recep})\n"
        f"  :camera (union {camera})\n"
        f'  :table-texture (jitter :base "wood" {jitter})\n'
        f'  :instruction "{spec["instruction"]}")\n'
    )


def source_demo(k: int, rng) -> dict:
    """A pick-and-place demo whose gripper closes at step `close` and opens at
    step `release`: approach, carry by SOURCE_OFFSETS[k] with a lift, retreat.
    Every source has SOURCE_STEPS steps, so that the work of a round does not
    depend on the seed; the seed moves the close and release steps."""
    close = int(rng.integers(35, 51))
    release = close + int(rng.integers(45, 71))
    n = SOURCE_STEPS
    grasp = np.array([0.30, 0.0, OBJECT_Z])
    place = grasp + np.asarray(SOURCE_OFFSETS[k])
    start = np.array([0.10, -0.25, 0.35])
    steps = []
    for i in range(n):
        if i <= close:
            a = i / close
            p = start * (1 - a) + grasp * a
        elif i <= release:
            a = (i - close) / (release - close)
            p = grasp * (1 - a) + place * a
            p[2] += 0.12 * math.sin(math.pi * a)
        else:
            a = (i - release) / (n - 1 - release)
            p = place * (1 - a) + start * a
        yaw = math.radians(30.0) * i / (n - 1)
        steps.append({"t": i, "ee_pos": [float(v) for v in p],
                      "ee_quat": [math.cos(yaw / 2), 0.0, 0.0, math.sin(yaw / 2)],
                      "gripper": 1.0 if close <= i < release else 0.0})
    return {"id": f"source-{k}", "lab": "lab0", "instructions": ["pick up the block"],
            "camera_extrinsics": {"pos": [0.64, 0.0, 0.64], "quat": [1.0, 0.0, 0.0, 0.0]},
            "steps": steps, "annotations": None}


def study_plan(seed: int, size: str) -> dict:
    """Which demos to generate: per spec its count, instance seeds, source,
    color-table entries and, for the sweep, lattice anchors."""
    rng = np.random.default_rng([seed, 21])
    n_target, n_broad = STUDY_SIZES[size]
    lattice = lattice_points()
    specs = []
    colors = {"target": {}, "cotrain": {}}
    for spec in STUDY_SPECS:
        count = {"target": n_target, "cotrain": n_broad, "sweep": len(lattice)}[spec["role"]]
        corpus = "target" if spec["role"] == "target" else "cotrain"
        ids = [f"{spec['name']}-{k}" for k in range(count)]
        for rid in ids:
            synonyms = COLOR_SYNONYMS[spec["color"]]
            colors[corpus][rid] = synonyms[int(rng.integers(len(synonyms)))]
        specs.append({
            "file": f"{spec['name']}.mlspec",
            "corpus": corpus,
            "ids": ids,
            "instance_seeds": [int(v) for v in rng.integers(0, 2**62, size=count)],
            "source": spec["source"],
            "anchors": lattice if spec["role"] == "sweep" else None,
        })
    return {"specs": specs, "colors": colors}


# ---------------------------------------------------------------------------

def write_inputs(workload: str, seed: int, out_dir) -> None:
    """Write every input of (workload, seed) into out_dir."""
    out = pathlib.Path(out_dir)
    (out / "specs").mkdir(parents=True, exist_ok=True)
    if workload == "curate":
        queries = curate_queries(seed)
        target_query = make_query(objspat=SWEEP_CENTER, extent=SWEEP_EXTENT)
    else:
        arrays = write_short_corpus(out / "corpus.jsonl", WIDE_RECORDS, seed)
        np.savez(out / "corpus.npz", **arrays)
        queries = wide_queries(seed)
        target_query = make_query(campose=PLANT_CAMERA, objspat=PLANT_OBJECT)
    for spec in STUDY_SPECS:
        (out / "specs" / f"{spec['name']}.mlspec").write_text(spec_text(spec), encoding="utf-8")
    rng = np.random.default_rng([seed, 31])
    with open(out / "sources.jsonl", "w", encoding="utf-8") as fh:
        for k in range(len(SOURCE_OFFSETS)):
            fh.write(json.dumps(source_demo(k, rng)) + "\n")
    plan = study_plan(seed, "large" if workload == "curate" else "small")
    for corpus, table in plan.pop("colors").items():
        (out / f"colors-{corpus}.json").write_text(json.dumps(table), encoding="utf-8")
    plan.update(queries=queries, target_query=target_query, workload=workload, seed=seed)
    (out / "plan.json").write_text(json.dumps(plan, indent=1), encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    tmp = pathlib.Path(args.out + ".tmp")
    write_inputs(args.workload, args.seed, tmp)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
