"""dvcurate benchmark: one command, two workloads, checked outputs.

    python3 perfbench/run.py --workload retrieve-wide --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the program is imported from `src/`.  Each
run is one process and one client in a closed loop.  It repeats whole rounds
until `--seconds` have passed (at least MIN_ROUNDS).  A round is one pass of
the study loop (specs -> generated demos -> annotated corpora -> profiles ->
classified DV pairs) and one pass of retrieval (ingest + index, a fixed query
mix, a run of sampler batches).  The workload sets the sizes and the queries;
see README.md.  Every output is checked against values computed apart from
the program (checks.py), and every check counts as an operation.

The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics, or with `--trace 1` the
per-layer metrics, each per round).  The line before it gives attempted and
failed counts per kind of operation.  Inputs are written once per
(workload, seed) under perfbench/_inputs (`--regenerate` writes them again);
the traced run's totals go to perfbench/_trace.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import inputs
from tracer import Tracer

BENCH = pathlib.Path(__file__).resolve().parent
MIN_ROUNDS = 3
OMEGA = 0.5
BATCH_SIZE = 256
BATCHES_PER_ROUND = 256
PROFILE_REPEATS = 3
# index builds per round, so that setup_s, a median, rests on more than a
# handful of samples
SETUP_REPEATS = 3
CLASSIFY_REPEATS = 5
REDRAWN_BATCHES = 8
CLASSIFIED_DVS = ("camPose", "objTex", "objSpat", "recepSpat", "motion", "scene")
WINDOWS = "camPose.windows"  # the continuous camera support behind camPose
KINDS = ("demos", "records", "dv_pairs", "queries", "batches", "checks")

END_TO_END_UNITS = {
    "setup_s": "s", "query_p50_ms": "ms", "query_p95_ms": "ms", "draws_per_s": "ids/s",
    "generate_demos_per_s": "demos/s", "annotate_records_per_s": "records/s",
    "profile_s": "s", "classify_s": "s", "peak_rss_mb": "MB",
}

# per-layer metric -> (traced function or counter, statistic); all per round
PER_LAYER = {
    "metadata.iter_records.s": ("metadata.iter_records", "s"),
    "metadata.records": ("metadata.records", "count"),
    "metadata.annotate_record.self_s": ("metadata.annotate_record", "self_s"),
    "metadata.annotations.target_object": ("metadata.annotations.target_object", "count"),
    "metadata.annotations.object_position": ("metadata.annotations.object_position", "count"),
    "metadata.annotations.object_color": ("metadata.annotations.object_color", "count"),
    "metadata.annotations.camera_bin": ("metadata.annotations.camera_bin", "count"),
    "metadata.write_records.s": ("metadata.write_records", "s"),
    "metadata.write_records.records": ("metadata.write_records.records", "count"),
    "metadata.extract_object_position.s": ("metadata.extract_object_position", "s"),
    "metadata.extract_release_position.s": ("metadata.extract_release_position", "s"),
    "lexicon.extract_target_object.s": ("lexicon.extract_target_object", "s"),
    "lexicon.extract_target_object.calls": ("lexicon.extract_target_object", "calls"),
    "lexicon.motion_labels.s": ("lexicon.motion_labels", "s"),
    "lexicon.motion_labels.calls": ("lexicon.motion_labels", "calls"),
    "retrieval.build_index.self_s": ("retrieval.build_index", "self_s"),
    "retrieval.parse_query.s": ("retrieval.parse_query", "s"),
    "retrieval.retrieve.s": ("retrieval.retrieve", "s"),
    "retrieval.hits": ("retrieval.hits", "count"),
    "sampler.batch.s": ("sampler.batch", "s"),
    "sampler.draws": ("sampler.draws", "count"),
    "taskspec.parse.s": ("taskspec.parse", "s"),
    "taskspec.sample_instance.s": ("taskspec.sample_instance", "s"),
    "genkit.fractal_texture.s": ("genkit.fractal_texture", "s"),
    "genkit.fractal_texture.pixels": ("genkit.fractal_texture.pixels", "count"),
    "genkit.decompose.s": ("genkit.decompose", "s"),
    "genkit.synthesize.s": ("genkit.synthesize", "s"),
    "genkit.synthesize.steps": ("genkit.synthesize.steps", "count"),
    "dvalgebra.profile_dataset.self_s": ("dvalgebra.profile_dataset", "self_s"),
    "dvalgebra.union_measure_3d.s": ("dvalgebra.union_measure_3d", "s"),
    "dvalgebra.union_measure_2d.s": ("dvalgebra.union_measure_2d", "s"),
    "dvalgebra.boxes": ("dvalgebra.boxes", "count"),
    "dvalgebra.is_aligned.s": ("dvalgebra.is_aligned", "s"),
}


def load_program(root: pathlib.Path):
    """Import dvcurate from the checkout's src/, and only from there."""
    src = root / "src"
    if not (src / "dvcurate" / "__init__.py").is_file():
        raise SystemExit(f"error: no dvcurate sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import dvcurate
    from dvcurate import dvalgebra, genkit, geometry, lexicon, metadata, retrieval, sampler, taskspec

    if pathlib.Path(dvcurate.__file__).resolve().parent != (src / "dvcurate").resolve():
        raise SystemExit(f"error: dvcurate was imported from {dvcurate.__file__}, not {src}")
    return argparse.Namespace(dvalgebra=dvalgebra, genkit=genkit, geometry=geometry,
                              lexicon=lexicon, metadata=metadata, retrieval=retrieval,
                              sampler=sampler, taskspec=taskspec)


def ensure_inputs(workload: str, seed: int, regenerate: bool) -> pathlib.Path:
    """The input directory of (workload, seed), written by inputs.py in a
    child process so that its memory does not count in this run's peak."""
    digest = hashlib.sha256((BENCH / "inputs.py").read_bytes()).hexdigest()[:12]
    root = BENCH / "_inputs"
    out = root / f"{workload}-{seed}-{digest}"
    if regenerate and out.exists():
        shutil.rmtree(out)
    if not out.is_dir():
        root.mkdir(parents=True, exist_ok=True)
        subprocess.run([sys.executable, str(BENCH / "inputs.py"), "--workload", workload,
                        "--seed", str(seed), "--out", str(out)], check=True, timeout=300)
    return out


class Ledger:
    """Attempted and failed operations per kind; checks are operations too."""

    def __init__(self):
        self.attempted = dict.fromkeys(KINDS, 0)
        self.failed = dict.fromkeys(KINDS, 0)
        self.correct = True
        self._shown = 0

    def _say(self, text: str) -> None:
        if self._shown < 20:
            print(text, file=sys.stderr)
        self._shown += 1

    def attempt(self, kind: str, n: int = 1) -> None:
        self.attempted[kind] += n

    def fail(self, kind: str, what: str, exc: BaseException, n: int = 1) -> None:
        self.failed[kind] += n
        self._say(f"FAILED {kind}: {what}: {type(exc).__name__}: {exc}")

    def check(self, problems: list[str]) -> None:
        self.attempted["checks"] += 1
        if problems:
            self.failed["checks"] += 1
            self.correct = False
            for p in problems[:3]:
                self._say(f"CHECK FAILED: {p}")


def median(values) -> float:
    return float(statistics.median(values))


def mean(values) -> float:
    """A shared vCPU can run ~1.8x slower for seconds at a time.  A median of
    repeats then jumps between the fast and the slow state; a mean moves
    smoothly with the share of the run spent in each."""
    return float(statistics.fmean(values))


# ---------------------------------------------------------------------------
# the study loop

SPEC_BY_FILE = {f"{s['name']}.mlspec": s for s in inputs.STUDY_SPECS}


class Study:
    """Specs -> generated demos -> annotated corpora -> profiles -> cases."""

    def __init__(self, prog, data: pathlib.Path, work: pathlib.Path, plan: dict,
                 ledger: Ledger, seed: int):
        self.p, self.data, self.plan, self.ledger, self.seed = prog, data, plan, ledger, seed
        self.spec_text = {s["file"]: (data / "specs" / s["file"]).read_text(encoding="utf-8")
                          for s in plan["specs"]}
        self.sources = list(prog.metadata.iter_records(data / "sources.jsonl"))
        self.raw = {c: work / f"{c}-raw.jsonl" for c in ("target", "cotrain")}
        self.annotated = {c: work / f"{c}-annotated.jsonl" for c in ("target", "cotrain")}
        self.times = {k: [] for k in ("generate", "annotate", "profile", "classify")}
        self.work = {"generate": [], "annotate": []}  # demos made, records annotated
        self.first_profiles = None
        self.expected_cases = None
        self.lattice = next(s["anchors"] for s in plan["specs"] if s["anchors"])

    def round(self) -> None:
        made = self.generate()
        self.annotate(made)
        profiles = self.profile(made)
        if profiles is not None:
            self.classify(profiles)

    def generate(self) -> dict:
        p, ledger = self.p, self.ledger
        made = {"target": {}, "cotrain": {}}  # id -> (record, spec dict, instance, anchor, raster)
        gc.collect()
        start = time.perf_counter()
        for s in self.plan["specs"]:
            spec_d = SPEC_BY_FILE[s["file"]]
            try:
                spec = p.taskspec.parse(self.spec_text[s["file"]])
                source = self.sources[s["source"]]
                segments = p.genkit.decompose(source, spec.goal)
            except Exception as exc:  # every demo of the spec fails
                ledger.attempt("demos", len(s["ids"]))
                ledger.fail("demos", s["file"], exc, len(s["ids"]))
                continue
            for k, (rid, iseed) in enumerate(zip(s["ids"], s["instance_seeds"])):
                ledger.attempt("demos")
                try:
                    inst = p.taskspec.sample_instance(spec, iseed)
                    raster = p.genkit.fractal_texture(spec.object_texture, inputs.TEXTURE_SIZE,
                                                      inputs.TEXTURE_SIZE, iseed)
                    if s["anchors"]:
                        anchor = tuple(s["anchors"][k])
                    else:
                        anchor = (*inst.object_pose, inputs.OBJECT_Z)
                    place = (*inst.receptacle_pose, inputs.OBJECT_Z)
                    cam = p.geometry.cartesian_from_spherical(*inst.camera_pose)
                    like = dataclasses.replace(
                        source, lab=spec.lab, instructions=(spec.instruction,), camera_pos=cam,
                        camera_quat=p.geometry.look_at_quat(cam, (0.0, 0.0, 0.0)))
                    rec = p.genkit.synthesize(
                        segments, [(anchor, segments[0].anchor_quat), (place, segments[1].anchor_quat)],
                        inputs.BRIDGE_STEP, like=like, new_id=rid)
                except Exception as exc:
                    ledger.fail("demos", rid, exc)
                    continue
                made[s["corpus"]][rid] = (rec, spec_d, inst, anchor, raster.pixels)
        written = {c: p.metadata.write_records(self.raw[c], (m[0] for m in made[c].values()))
                   for c in made}
        elapsed = time.perf_counter() - start
        self.times["generate"].append(elapsed)
        self.work["generate"].append(sum(len(m) for m in made.values()))

        for corpus, entries in made.items():
            ledger.check(checks.mismatch(f"{corpus} records written", written[corpus], len(entries)))
            for rid, (_, spec_d, inst, _, pixels) in entries.items():
                ledger.check([f"{rid}: {x}" for x in checks.instance_in_spec(
                    spec_d, inst, (inputs.OBJECT_S, inputs.OBJECT_V), inputs.TABLE_JITTER)])
                ledger.check([f"{rid}: {x}" for x in checks.raster_in_spec(
                    spec_d, pixels, (inputs.OBJECT_S, inputs.OBJECT_V), inputs.TEXTURE_SIZE)])
        return made

    def annotate(self, made: dict) -> None:
        p, ledger = self.p, self.ledger
        out = {}
        gc.collect()
        start = time.perf_counter()
        for corpus in ("target", "cotrain"):
            table = p.metadata.OfflineColorTable.from_json(self.data / f"colors-{corpus}.json")
            records = []
            for rec in p.metadata.iter_records(self.raw[corpus]):
                ledger.attempt("records")
                try:
                    records.append(p.metadata.annotate_record(rec, annotator=table))
                except Exception as exc:
                    ledger.fail("records", rec.id, exc)
            p.metadata.write_records(self.annotated[corpus], records)
            out[corpus] = records
        elapsed = time.perf_counter() - start
        self.times["annotate"].append(elapsed)
        self.work["annotate"].append(sum(len(r) for r in out.values()))

        for corpus, records in out.items():
            ledger.check(checks.mismatch(f"{corpus} annotated ids", sorted(r.id for r in records),
                                          sorted(made[corpus])))
            for rec in records:
                if rec.id not in made[corpus]:
                    continue
                _, spec_d, inst, anchor, _ = made[corpus][rec.id]
                ledger.check(checks.annotation(rec.id, rec.annotations, spec_d["object"],
                                               spec_d["color"], anchor, inst.camera_pose[1:]))

    def profile(self, made: dict):
        """Profile both annotated corpora PROFILE_REPEATS times, each timed."""
        p, ledger = self.p, self.ledger
        for _ in range(PROFILE_REPEATS):
            gc.collect()
            start = time.perf_counter()
            try:
                profiles = {c: p.dvalgebra.profile_dataset(p.metadata.iter_records(self.annotated[c]))
                            for c in ("target", "cotrain")}
                reports = {c: p.dvalgebra.profile_to_dict(profiles[c]) for c in profiles}
            except Exception as exc:
                ledger.check([f"profile raised {type(exc).__name__}: {exc}"])
                return None
            self.times["profile"].append(time.perf_counter() - start)
            if self.first_profiles is None:
                self.first_profiles = reports
                self.check_profiles(made, profiles, reports)
            else:
                ledger.check([] if reports == self.first_profiles else
                             ["profiles differ from the first ones on the same inputs"])
        return profiles

    def expected_sets(self, made: dict, corpus: str) -> dict:
        entries = made[corpus].values()
        return {
            "camPose": {checks.expected_bin(*e[2].camera_pose[1:])[0] for e in entries},
            "objTex": {e[1]["color"] for e in entries},
            "motion": set().union(*(e[1]["motion"] for e in entries)),
            "scene": {e[1]["lab"] for e in entries},
        }

    def check_profiles(self, made: dict, profiles: dict, reports: dict) -> None:
        """Discrete supports against the generator's choices; spatial
        measures against a Karp-Luby estimate from the support's own boxes.
        Also fixes the expected case of every classified pair."""
        rng = np.random.default_rng([self.seed, 41])
        estimates = {}
        for corpus in ("target", "cotrain"):
            want = self.expected_sets(made, corpus)
            for dv, labels in want.items():
                got = set(profiles[corpus].dvs[dv].elements)
                self.ledger.check(checks.mismatch(f"{corpus} {dv} support", sorted(got), sorted(labels)))
            for dv in ("objSpat", "recepSpat", WINDOWS):
                support = self.support(profiles[corpus], dv)
                size = reports[corpus]["campose_windows" if dv == WINDOWS else "dvs"]
                size = size["size"] if dv == WINDOWS else size[dv]["size"]
                try:
                    est, se = checks.union_estimate(support.elements, rng)
                except ValueError as exc:  # boxes of unequal size: no estimate
                    self.ledger.check([f"{corpus} {dv}: {exc}"])
                    continue
                estimates[corpus, dv] = est
                self.ledger.check(checks.measure(f"{corpus} {dv}", size, est, se))

        cases, problems = {}, []
        sets = {c: self.expected_sets(made, c) for c in ("target", "cotrain")}
        for dv in CLASSIFIED_DVS + (WINDOWS,):
            if dv in sets["target"]:
                cases[dv] = checks.discrete_case(sets["target"][dv], sets["cotrain"][dv], inputs.RHO)
                continue
            if ("target", dv) not in estimates or ("cotrain", dv) not in estimates:
                problems.append(f"{dv}: no measure estimate")
                continue
            diverse = checks.diverse_by_margin(estimates["target", dv], estimates["cotrain", dv], inputs.RHO)
            aligned = checks.aligned_by_construction(
                self.support(profiles["target"], dv).elements,
                self.support(profiles["cotrain"], dv).elements,
                self.lattice if dv == "objSpat" else None)
            if diverse is None or aligned is None:
                problems.append(f"{dv}: case not known by construction (diverse {diverse}, aligned {aligned})")
            else:
                cases[dv] = checks.CASES[diverse, aligned]
        if set(cases.values()) != set(checks.CASES.values()):
            problems.append(f"expected cases {sorted(set(cases.values()))} miss one of the four labels")
        self.ledger.check(problems)
        self.expected_cases = cases

    @staticmethod
    def support(profile, dv: str):
        return profile.campose_windows if dv == WINDOWS else profile.dvs[dv]

    def classify(self, profiles: dict) -> None:
        """Classify every measured DV pair CLASSIFY_REPEATS times, each timed."""
        p, ledger = self.p, self.ledger
        for _ in range(CLASSIFY_REPEATS):
            labels = {}
            gc.collect()
            start = time.perf_counter()
            for dv in CLASSIFIED_DVS + (WINDOWS,):
                ledger.attempt("dv_pairs")
                try:
                    labels[dv] = p.dvalgebra.classify_case(self.support(profiles["target"], dv),
                                                           self.support(profiles["cotrain"], dv),
                                                           rho=inputs.RHO).value
                except Exception as exc:
                    ledger.fail("dv_pairs", dv, exc)
            self.times["classify"].append(time.perf_counter() - start)
            for dv, label in labels.items():
                want = (self.expected_cases or {}).get(dv)
                ledger.check([] if label == want else [f"{dv}: case {label}, want {want}"])


# ---------------------------------------------------------------------------
# retrieval: ingest + index, queries, sampler

def short_scan_corpus(data: pathlib.Path) -> checks.ScanCorpus:
    a = np.load(data / "corpus.npz")
    names = np.array(inputs.OBJECTS + ("",), dtype=object)  # kind -1 -> ""
    colors = np.array(inputs.COLORS + ("",), dtype=object)
    kind = a["instruction_kind"]
    motion = {}
    for j, labels in enumerate(inputs.INSTRUCTION_MOTION):
        for label in labels:
            motion[label] = motion.get(label, np.zeros(len(kind), dtype=bool)) | (kind == j)
    return checks.ScanCorpus([f"r{i}" for i in range(len(kind))], a["camera"], a["object"],
                             names[a["object_kind"]], colors[a["color_kind"]], motion)


def jsonl_scan_corpus(path: pathlib.Path) -> checks.ScanCorpus:
    """Scan arrays read straight from a corpus file with the json module."""
    motion_of = {s["instruction"]: s["motion"] for s in inputs.STUDY_SPECS}
    ids, cam, obj, names, colors, rows = [], [], [], [], [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            d = json.loads(line)
            ann = d.get("annotations") or {}
            ids.append(d["id"])
            cam.append(d["camera_extrinsics"]["pos"])
            obj.append(ann.get("object_position") or [float("nan")] * 3)
            names.append(ann.get("target_object") or "")
            colors.append(ann.get("object_color") or "")
            rows.append(set().union(*(motion_of[i] for i in d["instructions"])))
    motion = {label: np.array([label in r for r in rows], dtype=bool) for label in inputs.MOTIONS}
    return checks.ScanCorpus(ids, cam, obj, names, colors, motion)


class Retrieval:
    def __init__(self, prog, corpus_path, scan_corpus, plan: dict, ledger: Ledger, seed: int):
        self.p, self.ledger, self.seed = prog, ledger, seed
        self.corpus_path = corpus_path    # callable: the corpus file of this round
        self.scan_corpus = scan_corpus    # callable: its scan arrays
        self.queries = plan["queries"]
        self.target_query = plan["target_query"]
        self.setup = []
        self.latencies = []
        self.draw_times = []
        self.draws = 0
        self.target_draws = 0
        self.checked_draws = 0
        self.pools = None

    def round(self, k: int) -> None:
        p, ledger = self.p, self.ledger
        path = self.corpus_path()
        for _ in range(SETUP_REPEATS):
            gc.collect()
            start = time.perf_counter()
            index = p.retrieval.build_index(p.metadata.iter_records(path))
            self.setup.append(time.perf_counter() - start)

        corpus = self.scan_corpus()
        ledger.check(checks.mismatch("indexed records", list(index.ids), corpus.ids.tolist()))
        target = p.retrieval.retrieve(index, p.retrieval.parse_query(self.target_query["text"]))
        ledger.check(checks.query_result(corpus, self.target_query, target))

        results = []
        gc.collect()
        for q in self.queries:
            ledger.attempt("queries")
            t0 = time.perf_counter()
            try:
                ids = p.retrieval.retrieve(index, p.retrieval.parse_query(q["text"]))
            except Exception as exc:
                ledger.fail("queries", q["text"], exc)
                continue
            self.latencies.append(time.perf_counter() - t0)
            results.append((q, ids))
        for q, ids in results:
            ledger.check(checks.query_result(corpus, q, ids))
        del results

        self.sample(k, target, list(index.ids))

    def sample(self, k: int, target: list, cotrain: list) -> None:
        p, ledger = self.p, self.ledger
        stream = p.sampler.SampleStream(tuple(target), tuple(cotrain), omega=OMEGA,
                                        seed=self.seed, batch_size=BATCH_SIZE)
        drawn = {}
        gc.collect()
        start = time.perf_counter()
        for b in range(k * BATCHES_PER_ROUND, (k + 1) * BATCHES_PER_ROUND):
            ledger.attempt("batches")
            try:
                drawn[b] = p.sampler.batch(stream, b)
            except Exception as exc:
                ledger.fail("batches", f"batch {b}", exc)
        self.draw_times.append(time.perf_counter() - start)
        self.draws += sum(len(v) for v in drawn.values())

        target_set, pools = set(target), set(target) | set(cotrain)
        if self.pools is None:
            self.pools = (target_set, set(cotrain))
        for batch in drawn.values():
            ledger.check(checks.batch_draws(batch, pools, BATCH_SIZE))
            self.checked_draws += len(batch)
            self.target_draws += sum(1 for i in batch if i in target_set)
        order = np.random.default_rng([self.seed, 51, k]).permutation(sorted(drawn))
        for b in order[:REDRAWN_BATCHES][::-1]:
            again = p.sampler.batch(stream, int(b))
            ledger.check([] if again == drawn[int(b)] else [f"batch {b} differs when drawn again"])

    def finish(self) -> None:
        if self.checked_draws:
            self.ledger.check(checks.target_share(self.target_draws, self.checked_draws, OMEGA, *self.pools))


# ---------------------------------------------------------------------------

def install_tracing(tr: Tracer, p) -> None:
    def annotated(t, args, kwargs, rec):
        ann = rec.annotations
        for field in ("target_object", "object_position", "object_color", "camera_bin"):
            if getattr(ann, field) is not None:
                t.count(f"metadata.annotations.{field}")

    def boxes(t, args, kwargs, result):
        if t.caller() not in ("dvalgebra.union_measure_3d", "dvalgebra.union_measure_2d"):
            t.count("dvalgebra.boxes", len(args[0]))

    counted = {
        (p.metadata, "iter_records"): lambda t, a, k, r: t.count("metadata.records"),
        (p.metadata, "annotate_record"): annotated,
        (p.metadata, "write_records"): lambda t, a, k, r: t.count("metadata.write_records.records", r),
        (p.metadata, "extract_object_position"): None,
        (p.metadata, "extract_release_position"): None,
        (p.lexicon, "extract_target_object"): None,
        (p.lexicon, "motion_labels"): None,
        (p.retrieval, "build_index"): None,
        (p.retrieval, "parse_query"): None,
        (p.retrieval, "retrieve"): lambda t, a, k, r: t.count("retrieval.hits", len(r)),
        (p.sampler, "batch"): lambda t, a, k, r: t.count("sampler.draws", len(r)),
        (p.taskspec, "parse"): None,
        (p.taskspec, "sample_instance"): None,
        (p.genkit, "fractal_texture"):
            lambda t, a, k, r: t.count("genkit.fractal_texture.pixels", r.width * r.height),
        (p.genkit, "decompose"): None,
        (p.genkit, "synthesize"): lambda t, a, k, r: t.count("genkit.synthesize.steps", len(r.steps)),
        (p.dvalgebra, "profile_dataset"): None,
        (p.dvalgebra, "classify_case"): None,
        (p.dvalgebra, "support_size"): None,
        (p.dvalgebra, "union_measure_3d"): boxes,
        (p.dvalgebra, "union_measure_2d"): boxes,
        (p.dvalgebra, "is_aligned"): None,
    }
    for (module, attr), on_result in counted.items():
        tr.wrap(module, attr, on_result)


def end_to_end(study: Study, retr: Retrieval) -> dict:
    lat_ms = np.asarray(retr.latencies) * 1e3
    values = {
        "setup_s": median(retr.setup),
        "query_p50_ms": float(np.percentile(lat_ms, 50)),
        "query_p95_ms": float(np.percentile(lat_ms, 95)),
        "draws_per_s": retr.draws / sum(retr.draw_times),
        "generate_demos_per_s": sum(study.work["generate"]) / sum(study.times["generate"]),
        "annotate_records_per_s": sum(study.work["annotate"]) / sum(study.times["annotate"]),
        "profile_s": mean(study.times["profile"]),
        "classify_s": mean(study.times["classify"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(tr: Tracer, rounds: int) -> dict:
    totals = tr.totals()
    out = {}
    for name, (source, stat) in PER_LAYER.items():
        if stat == "count":
            value, unit = tr.counters.get(source, 0), "count/round"
        else:
            value = totals["functions"].get(source, {}).get(stat, 0)
            unit = "calls/round" if stat == "calls" else "s/round"
        out[name] = {"value": value / rounds, "unit": unit}
    return out


def prepare(args, prog, data: pathlib.Path, work: pathlib.Path):
    """Everything a run needs before its first round (not timed, not traced)."""
    plan = json.loads((data / "plan.json").read_text(encoding="utf-8"))
    ledger = Ledger()
    study = Study(prog, data, work, plan, ledger, args.seed)
    if args.workload == "curate":
        retr = Retrieval(prog, lambda: study.annotated["cotrain"],
                         lambda: jsonl_scan_corpus(study.annotated["cotrain"]), plan, ledger, args.seed)
    else:
        scan = short_scan_corpus(data)
        retr = Retrieval(prog, lambda: data / "corpus.jsonl", lambda: scan, plan, ledger, args.seed)
    return ledger, study, retr


def run_rounds(seconds: float, study: Study, retr: Retrieval) -> int:
    """Whole rounds until `seconds` have passed, at least MIN_ROUNDS."""
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        study.round()
        retr.round(rounds)
        rounds += 1
    retr.finish()
    return rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regenerate", action="store_true", help="write this seed's inputs again")
    args = ap.parse_args(argv)

    prog = load_program(pathlib.Path.cwd())
    data = ensure_inputs(args.workload, args.seed, args.regenerate)
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ledger, study, retr = prepare(args, prog, data, work)
        if args.trace:
            with Tracer() as tr:
                install_tracing(tr, prog)
                rounds = run_rounds(args.seconds, study, retr)
            metrics = per_layer(tr, rounds)
            trace_dir = BENCH / "_trace"
            trace_dir.mkdir(exist_ok=True)
            (trace_dir / f"{args.workload}-{args.seed}.json").write_text(
                json.dumps({"workload": args.workload, "seed": args.seed, "rounds": rounds,
                            **tr.totals()}, indent=1), encoding="utf-8")
            print(json.dumps({"traced_end_to_end": end_to_end(study, retr)}))
        else:
            rounds = run_rounds(args.seconds, study, retr)
            metrics = end_to_end(study, retr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": rounds,
                      "operations": {k: {"attempted": ledger.attempted[k], "failed": ledger.failed[k]}
                                     for k in KINDS},
                      "per_round": {"setup_s": retr.setup,
                                    **{f"{k}_s": v for k, v in study.times.items()}}}))
    print(json.dumps({"correct": ledger.correct, "attempted": sum(ledger.attempted.values()),
                      "failed": sum(ledger.failed.values()), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
