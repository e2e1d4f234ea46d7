"""Self-test of the benchmark's checks at toy sizes.

Each check must pass a correct output and catch a planted mismatch (a
dropped id, a stray draw, a biased mixture, a shifted cube, ...).  Needs
only numpy and scipy, not the program:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import numpy as np

import checks
import inputs

FAILURES = []


def expect(name: str, passes: list, planted: list) -> None:
    """`passes` must be empty (correct output); `planted` must not be."""
    if passes:
        FAILURES.append(f"{name}: flagged a correct output: {passes}")
    if not planted:
        FAILURES.append(f"{name}: missed the planted mismatch")
    print(f"{'ok ' if not passes and planted else 'BAD'} {name}")


def toy_corpus(rng, n=300) -> checks.ScanCorpus:
    cam = np.round(rng.uniform(-1, 1, (n, 3)), 2)
    obj = np.round(rng.uniform(-0.6, 0.6, (n, 3)), 2)
    obj[::17] = np.nan
    names = np.array(["mug", "pen", ""], dtype=object)[rng.integers(0, 3, n)]
    colors = np.array(["red", "blue", ""], dtype=object)[rng.integers(0, 3, n)]
    kind = rng.integers(0, 3, n)
    motion = {m: kind == j for j, m in enumerate(inputs.MOTIONS)}
    return checks.ScanCorpus([f"r{i}" for i in range(n)], cam, obj, names, colors, motion)


def test_retrieval(rng) -> None:
    corpus = toy_corpus(rng)
    q = inputs.make_query(campose=corpus.camera[5], tol=(0.5, 0.5, 0.5), motion=["pick", "push"])
    want = checks.scan(corpus, q)
    expect("query: dropped id", checks.query_result(corpus, q, want),
           checks.query_result(corpus, q, want[1:]))
    expect("query: reordered ids", checks.query_result(corpus, q, want),
           checks.query_result(corpus, q, want[::-1]))
    # closed boxes: a record exactly on the boundary matches
    corpus.camera[7] = corpus.camera[5] + np.array([0.5, -0.5, 0.0])
    corpus.motion["pick"][7] = True
    q_edge = inputs.make_query(campose=corpus.camera[5], tol=(0.5, 0.5, 0.5), motion=["pick"])
    edge = checks.scan(corpus, q_edge)
    expect("query: closed boundary", [] if "r7" in edge else ["r7 missing"],
           checks.query_result(corpus, q_edge, [i for i in edge if i != "r7"]))
    q_ex = inputs.make_query(exclude="pen", objspat=(0.0, 0.0, 0.0))
    want = checks.scan(corpus, q_ex)
    unknown = [i for i, name in zip(corpus.ids, corpus.object_name) if name == ""][:1]
    expect("query: exclude keeps only known objects", checks.query_result(corpus, q_ex, want),
           checks.query_result(corpus, q_ex, sorted(want + unknown, key=lambda s: int(s[1:]))))


def test_sampler(rng) -> None:
    target = {f"t{i}" for i in range(5)}
    cotrain = {f"c{i}" for i in range(50)} | {"t0"}
    pools = target | cotrain
    good = ["t1"] * 255 + ["c3"]
    expect("sampler: id from no pool", checks.batch_draws(good, pools, 256),
           checks.batch_draws(good[:-1] + ["x9"], pools, 256))
    expect("sampler: short batch", checks.batch_draws(good, pools, 256),
           checks.batch_draws(good[:-1], pools, 256))
    t, c = sorted(target), sorted(cotrain)

    def share(omega, n=100_000):
        pick_t = rng.random(n) < omega
        ids = np.where(pick_t, np.array(t)[rng.integers(0, len(t), n)],
                       np.array(c)[rng.integers(0, len(c), n)])
        return sum(1 for i in ids if i in target), n

    expect("sampler: target share", checks.target_share(*share(0.5), 0.5, target, cotrain),
           checks.target_share(*share(0.52), 0.5, target, cotrain))


def test_generation() -> None:
    spec = inputs.STUDY_SPECS[0]
    sv = (inputs.OBJECT_S, inputs.OBJECT_V)
    inst = SimpleNamespace(object_pose=(0.305, 0.0), receptacle_pose=(0.31, 0.2),
                           camera_pose=(0.9, 45.0, 1.0), object_hsv=(0.99, 0.7, 0.5),
                           table_hsv=(0.0, 0.05, -0.05))
    shifted = SimpleNamespace(**{**vars(inst), "object_pose": (0.305, 0.0051)})
    expect("instance: object outside region", checks.instance_in_spec(spec, inst, sv, inputs.TABLE_JITTER),
           checks.instance_in_spec(spec, shifted, sv, inputs.TABLE_JITTER))
    off_hue = SimpleNamespace(**{**vars(inst), "object_hsv": (0.5, 0.7, 0.5)})
    expect("instance: hue outside a wrapped window",
           checks.instance_in_spec(spec, inst, sv, inputs.TABLE_JITTER),
           checks.instance_in_spec(spec, off_hue, sv, inputs.TABLE_JITTER))
    pixels = np.zeros((4, 4, 3)) + (0.01, 0.6, 0.6)
    bad = pixels.copy()
    bad[2, 3, 1] = 0.2
    expect("texture: pixel outside the window", checks.raster_in_spec(spec, pixels, sv, 4),
           checks.raster_in_spec(spec, bad, sv, 4))


def test_annotation() -> None:
    ann = SimpleNamespace(target_object="carrot", object_color="red",
                          object_position=(0.3, 0.0, 0.02), camera_bin="agent-front")
    args = ("d0", "carrot", "red", (0.3, 0.0, 0.02), (45.0, 3.0))
    good = checks.annotation(args[0], ann, *args[1:])
    for field, value in (("object_position", (0.3, 1e-6, 0.02)), ("camera_bin", "agent-left"),
                         ("object_color", "crimson"), ("target_object", "bowl")):
        planted = SimpleNamespace(**{**vars(ann), field: value})
        expect(f"annotation: wrong {field}", good, checks.annotation(args[0], planted, *args[1:]))
    expect("annotation: angles at a bin edge", good,
           checks.annotation(args[0], ann, *args[1:4], (45.0, 14.8)))
    expect("bins: unbinned between bins",
           [] if checks.expected_bin(45.0, 30.0)[0] == "unbinned" else ["binned"],
           [] if checks.expected_bin(45.0, 59.0)[0] == "unbinned" else ["binned"])


def cubes(centers, side=1.0):
    h = side / 2.0
    return [tuple(np.concatenate([np.subtract(c, h), np.add(c, h)])) for c in centers]


def test_measures(rng) -> None:
    # two pairs of unit cubes, each pair overlapping by half: union 1.5 + 1.5
    support = cubes([(0, 0, 0), (0.5, 0, 0), (3, 3, 3), (3, 3.5, 3)])
    est, se = checks.union_estimate(support, rng, 50_000)
    shifted = cubes([(0, 0, 0), (0.5, 0, 0), (3, 3, 3), (3, 5, 3)])
    est_shifted, se_shifted = checks.union_estimate(shifted, rng, 50_000)
    expect("measure: exact union", checks.measure("toy", 3.0, est, se),
           checks.measure("toy", 3.0, est_shifted, se_shifted))
    expect("measure: overlaps counted twice", checks.measure("toy", 3.0, est, se),
           checks.measure("toy", 4.0, est, se))
    squares = [(0, 0, 2, 2), (1, 1, 3, 3)]
    est2, se2 = checks.union_estimate(squares, rng, 50_000)
    expect("measure: 2d union", checks.measure("toy2d", 7.0, est2, se2),
           checks.measure("toy2d", 8.0, est2, se2))


def test_cases() -> None:
    expect("case: discrete",
           [] if checks.discrete_case({"a"}, {"a", "b", "c", "d"}, 3.0) == "diverse_aligned" else ["x"],
           [] if checks.discrete_case({"a"}, {"b", "c"}, 3.0) == "not_diverse_aligned" else ["x"])
    expect("case: ratio near rho is not known",
           [] if checks.diverse_by_margin(1.0, 10.0, 3.0) is True else ["x"],
           [] if checks.diverse_by_margin(1.0, 3.2, 3.0) is not None else ["x"])
    side = inputs.CELL
    anchors = inputs.lattice_points()
    target = cubes([(0.305, 0.0, inputs.OBJECT_Z), (0.3, 0.005, inputs.OBJECT_Z)], side)
    lattice = cubes(anchors, side)
    covered = checks.aligned_by_construction(target, lattice, anchors)
    moved = lattice[:]
    moved[7] = tuple(v + 0.004 for v in moved[7])
    expect("case: covering lattice", [] if covered is True else [f"aligned {covered}"],
           [] if checks.aligned_by_construction(target, moved, anchors) is True else ["shifted cube"])
    far = cubes([(-0.3, 0.0, inputs.OBJECT_Z)], side)
    expect("case: disjoint supports",
           [] if checks.aligned_by_construction(target, far) is False else ["x"],
           [] if checks.aligned_by_construction(target, far + target[:1]) is False else ["touching"])


def main() -> int:
    rng = np.random.default_rng(7)
    test_retrieval(rng)
    test_sampler(rng)
    test_generation()
    test_annotation()
    test_measures(rng)
    test_cases()
    for f in FAILURES:
        print(f, file=sys.stderr)
    print(f"{'FAIL' if FAILURES else 'PASS'}: {len(FAILURES)} problems")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
