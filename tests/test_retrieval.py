from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvcurate import lexicon as lexmod
from dvcurate import metadata, retrieval
from dvcurate.errors import DuplicateId, SpecRangeError, SpecSyntaxError
from dvcurate.retrieval import RetrievalQuery

from conftest import oracle_parse_query

_DUMMY_STEPS = metadata.Steps(
    t=np.arange(2, dtype=np.int64),
    ee_pos=np.zeros((2, 3)),
    ee_quat=np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)),
    gripper=np.zeros(2),
)


def mini_record(rid, camera_pos=(0.6, 0.0, 0.6), obj_pos=None, target=None,
                color=None, instructions=()):
    ann = metadata.Annotations(
        target_object=target,
        object_position=tuple(obj_pos) if obj_pos is not None else None,
        object_color=color,
        camera_bin=None,
    )
    return metadata.DemoRecord(
        id=rid, lab="lab1", instructions=tuple(instructions),
        camera_pos=np.asarray(camera_pos, dtype=float),
        camera_quat=np.array([1.0, 0.0, 0.0, 0.0]),
        steps=_DUMMY_STEPS, annotations=ann,
    )


def linear_scan(records, q: RetrievalQuery) -> list[str]:
    """Definitional filter semantics: one plain pass over the records."""
    out = []
    for rec in records:
        ann = rec.annotations
        if q.object_include is not None:
            if ann is None or ann.target_object != q.object_include:
                continue
        if q.object_exclude is not None:
            if ann is None or ann.target_object is None or ann.target_object == q.object_exclude:
                continue
        if q.campose_target is not None:
            delta = [abs(rec.camera_pos[i] - q.campose_target[i]) for i in range(3)]
            if any(delta[i] > q.campose_tol[i] for i in range(3)):
                continue
        if q.objspat_center is not None:
            if ann is None or ann.object_position is None:
                continue
            delta = [abs(ann.object_position[i] - q.objspat_center[i]) for i in range(3)]
            if any(delta[i] > q.objspat_extent[i] / 2.0 for i in range(3)):
                continue
        if q.color is not None:
            if ann is None or ann.object_color != q.color:
                continue
        if q.motion is not None:
            labels = lexmod.motion_labels(rec.instructions) if rec.instructions else frozenset()
            if not labels & q.motion:
                continue
        out.append(rec.id)
    return out


# ---------------------------------------------------------------------------
# query object and parser

def test_query_defaults_pinned():
    q = RetrievalQuery(object_include="mug")
    assert q.campose_tol == (0.20, 0.20, 0.10)
    assert q.objspat_extent == (0.60, 0.60, 0.30)
    assert retrieval.CAMPOSE_TOL_DEFAULT == (0.20, 0.20, 0.10)
    assert retrieval.OBJSPAT_EXTENT_DEFAULT == (0.60, 0.60, 0.30)


def test_query_validation():
    with pytest.raises(SpecRangeError, match="at least one filter"):
        RetrievalQuery()
    with pytest.raises(SpecRangeError, match="mutually exclusive"):
        RetrievalQuery(object_include="a", object_exclude="b")
    with pytest.raises(SpecRangeError, match="> 0"):
        RetrievalQuery(campose_target=(0, 0, 0), campose_tol=(0.1, 0.0, 0.1))
    with pytest.raises(SpecRangeError, match="> 0"):
        RetrievalQuery(objspat_center=(0, 0, 0), objspat_extent=(-0.1, 0.2, 0.2))
    with pytest.raises(SpecRangeError, match="at least one primitive"):
        RetrievalQuery(motion=frozenset())
    with pytest.raises(SpecRangeError, match="three finite numbers"):
        RetrievalQuery(campose_target=(0.0, float("nan"), 0.0))
    with pytest.raises(SpecRangeError, match="three finite numbers"):
        RetrievalQuery(objspat_center=(0.0, 0.0))


def test_parse_query_full_form():
    q = retrieval.parse_query(
        '(query :object (include "mug")'
        ' :campose (:pos 0.5 0.5 0.5 :tol 0.25 0.25 0.25)'
        ' :objspat (:center 0.2 0.0 0.02 :extent 0.4 0.4 0.2)'
        ' :color "red"'
        ' :motion pick place)'
    )
    assert q.object_include == "mug" and q.object_exclude is None
    assert q.campose_target == (0.5, 0.5, 0.5)
    assert q.campose_tol == (0.25, 0.25, 0.25)
    assert q.objspat_center == (0.2, 0.0, 0.02)
    assert q.objspat_extent == (0.4, 0.4, 0.2)
    assert q.color == "red"
    assert q.motion == frozenset({"pick", "place"})


def test_parse_query_defaults_and_exclude():
    q = retrieval.parse_query('(query :campose (:pos 0.5 0.5 0.5) :object (exclude "pen"))')
    assert q.campose_tol == (0.20, 0.20, 0.10)
    assert q.object_exclude == "pen" and q.object_include is None
    q2 = retrieval.parse_query('(query :objspat (:center 0.0 0.0 0.0))')
    assert q2.objspat_extent == (0.60, 0.60, 0.30)


@pytest.mark.parametrize(
    "source",
    [
        '(lookup :color "red")',
        '(query :object "mug")',
        '(query :object (find "mug"))',
        '(query :campose (:tol 0.1 0.1 0.1))',
        '(query :campose (:pos 1 2))',
        '(query :campose (:pos 1 2 3 :radius 9))',
        '(query :objspat (:extent 1 1 1))',
        '(query :color red)',
        '(query :motion)',
        '(query :weather "sunny")',
    ],
)
def test_parse_query_rejects_malformed(source):
    with pytest.raises(SpecSyntaxError) as err:
        retrieval.parse_query(source)
    assert err.value.line >= 1 and err.value.col >= 1


@pytest.mark.parametrize(
    "source,field",
    [
        ("(query :campose (:pos 1e999 0 0))", "campose.pos"),
        ("(query :campose (:pos 0 0 0 :tol 0.1 1e999 0.1))", "campose.tol"),
        ("(query :objspat (:center 0 -1e999 0))", "objspat.center"),
        ("(query :objspat (:center 0 0 0 :extent 0.1 0.1 1e999))", "objspat.extent"),
    ],
)
def test_parse_query_rejects_overflowing_numbers(source, field):
    with pytest.raises(SpecRangeError, match="three finite numbers") as err:
        retrieval.parse_query(source)
    assert err.value.field == field


def test_parse_query_rejects_empty_conjunction():
    with pytest.raises(SpecRangeError, match="at least one filter"):
        retrieval.parse_query('(query)')


def test_parse_query_file(tmp_path):
    path = tmp_path / "queries.mlq"
    path.write_text('(query :color "red")\n(query :motion pick)\n')
    queries = retrieval.parse_query_file(path)
    assert len(queries) == 2
    assert queries[0].color == "red"
    assert queries[1].motion == frozenset({"pick"})


def test_parse_query_accepts_every_label_motion_labels_can_give():
    labels = sorted(set(lexmod.DEFAULT_VERB_MAP.values()))
    assert labels == ["close", "open", "pick", "place", "pull", "push", "turnOff", "turnOn"]
    q = retrieval.parse_query(f"(query :motion {' '.join(labels)})")
    assert q.motion == frozenset(labels)


@pytest.mark.parametrize(
    "source,field,line,col",
    [
        ("(query :motion fly)", "motion", 1, 8),
        ("(query :color \"red\"\n  :motion pick placeBin)", "motion", 2, 3),
        ('(query :object (include ""))', "object", 1, 25),
        ('(query :object (exclude ""))', "object", 1, 25),
        ('(query :color "")', "color", 1, 15),
    ],
)
def test_parse_query_rejects_unknown_labels_and_empty_names(source, field, line, col):
    with pytest.raises(SpecRangeError) as err:
        retrieval.parse_query(source)
    assert (err.value.field, err.value.line, err.value.col) == (field, line, col)


# ---------------------------------------------------------------------------
# the one-pass query builder against the builder it replaced (conftest)

# each field is mostly well formed: a valid value is drawn more often than
# each of the faults next to it
_QUERY_NUMBERS = ("0.5", "-0.25", "1", "2.5e-1", "0.1") * 4 + ("0", "-1", "1e999", "-1e999", "x", '"3"')
_QUERY_NAMES = ('"mug"', '"pen"') * 4 + ('""', "mug", "1")
_QUERY_LABELS = ("pick", "place", "push", "turnOn") * 3 + ("fly", "placeBin", '"pick"', "1")
_QUERY_SEPARATORS = (" ", " ", " ", "\n", "\n  ", " ; note\n", "\t")
_QUERY_FIELDS = ("object", "campose", "objspat", "color", "motion")


@st.composite
def _query_texts(draw):
    def pick(values):
        return draw(st.sampled_from(values))

    def some(values, low, high):
        return [pick(values) for _ in range(draw(st.integers(low, high)))]

    def subform(required, optional, unknown):
        if pick((False,) * 9 + (True,)):
            return some(_QUERY_NUMBERS, 0, 1)
        keys = [required] if pick((True,) * 5 + (False,)) else []
        keys += some((optional, optional, unknown, required), 0, 2)
        tokens = ["("]
        for key in keys:
            tokens += [key] + some(_QUERY_NUMBERS, *pick(((3, 3),) * 6 + ((2, 2), (4, 4))))
        return tokens + [")"]

    kinds = draw(st.lists(st.sampled_from(_QUERY_FIELDS), min_size=1, max_size=4, unique=True))
    if pick((False,) * 19 + (True,)):
        kinds = []
    elif pick((False,) * 5 + (True,)):
        kinds.insert(draw(st.integers(0, len(kinds))), pick(kinds + ["other", "other"]))
    tokens = ["(", pick(("query",) * 19 + ("lookup",))]
    for kind in kinds:
        if kind == "object":
            if pick((True,) * 9 + (False,)):
                tokens += [":object", "(", pick(("include", "exclude") * 4 + ("find",)),
                           *some(_QUERY_NAMES, *pick(((1, 1),) * 6 + ((0, 2),))), ")"]
            else:
                tokens += [":object", *some(_QUERY_NAMES, 0, 2)]
        elif kind == "campose":
            tokens += [":campose", *subform(":pos", ":tol", ":radius")]
        elif kind == "objspat":
            tokens += [":objspat", *subform(":center", ":extent", ":pos")]
        elif kind == "color":
            tokens += [":color", *some(_QUERY_NAMES, *pick(((1, 1),) * 6 + ((0, 2),)))]
        elif kind == "motion":
            tokens += [":motion", *some(_QUERY_LABELS, *pick(((1, 2),) * 6 + ((0, 3),)))]
        else:
            tokens += pick(([":weather", '"sunny"'], ["mug"], ["(", ")"]))
    tokens.append(")")
    return pick(("", "; header\n")) + "".join(t + pick(_QUERY_SEPARATORS) for t in tokens)


def _query_outcome(parse, text):
    try:
        return "query", parse(text)
    except (SpecSyntaxError, SpecRangeError) as exc:
        return type(exc).__name__, str(exc), exc.line, exc.col


@settings(max_examples=600, deadline=None)
@given(_query_texts())
def test_parse_query_matches_the_builder_oracle(text):
    assert _query_outcome(retrieval.parse_query, text) == _query_outcome(oracle_parse_query, text)


# ---------------------------------------------------------------------------
# index construction

def test_build_index_rejects_duplicate_ids():
    records = [mini_record("a"), mini_record("a")]
    with pytest.raises(DuplicateId):
        retrieval.build_index(records)


def test_index_tracks_missing_annotations():
    records = [
        mini_record("full", obj_pos=(0.1, 0.1, 0.0), target="mug", color="red",
                    instructions=("pick up the mug",)),
        mini_record("bare"),
    ]
    index = retrieval.build_index(records)
    assert len(index) == 2
    assert index.missing["target_object"] == ["bare"]
    assert index.missing["object_position"] == ["bare"]
    assert index.missing["object_color"] == ["bare"]
    assert index.missing["motion"] == ["bare"]


# ---------------------------------------------------------------------------
# retrieval semantics

def test_closed_boundary_inclusion():
    records = [
        mini_record("at-edge", camera_pos=(0.7, 0.7, 0.6)),
        mini_record("beyond", camera_pos=(0.701, 0.7, 0.6)),
        mini_record("inside", camera_pos=(0.5, 0.5, 0.5)),
    ]
    index = retrieval.build_index(records)
    q = RetrievalQuery(campose_target=(0.5, 0.5, 0.5))
    assert retrieval.retrieve(index, q) == ["at-edge", "inside"]


def test_objspat_extent_is_full_width():
    records = [
        mini_record("edge", obj_pos=(0.3, 0.0, 0.0), target="mug"),
        mini_record("out", obj_pos=(0.3000001, 0.0, 0.0), target="mug"),
    ]
    index = retrieval.build_index(records)
    q = RetrievalQuery(objspat_center=(0.0, 0.0, 0.0))
    assert retrieval.retrieve(index, q) == ["edge"]


def test_exclude_requires_known_object():
    records = [
        mini_record("pen", target="pen"),
        mini_record("mug", target="mug"),
        mini_record("unknown"),
    ]
    index = retrieval.build_index(records)
    out = retrieval.retrieve(index, RetrievalQuery(object_exclude="pen"))
    assert out == ["mug"]


def test_motion_filter_matches_any_listed_primitive():
    records = [
        mini_record("p", instructions=("pick up the mug",)),
        mini_record("q", instructions=("push the plate to the left",)),
        mini_record("r", instructions=("open the drawer",)),
    ]
    index = retrieval.build_index(records)
    out = retrieval.retrieve(index, RetrievalQuery(motion=frozenset({"pick", "open"})))
    assert out == ["p", "r"]
    assert retrieval.retrieve(index, RetrievalQuery(motion=frozenset({"zzz"}))) == []


def test_results_in_insertion_order():
    records = [mini_record(f"r{i}", color="red") for i in range(20)]
    index = retrieval.build_index(records)
    assert retrieval.retrieve(index, RetrievalQuery(color="red")) == [f"r{i}" for i in range(20)]


# ---------------------------------------------------------------------------
# randomized equivalence with the linear scan

_OBJECTS = ["mug", "pen", "cup", "plate", None]
_COLORS = ["red", "blue", "green", None]
_INSTRUCTIONS = [
    ("pick up the mug",),
    ("place the pen in the cup",),
    ("push the plate to the edge",),
    ("pull the basket closer", "open the drawer"),
    ("do the thing",),
    (),
]


def _random_corpus(rng, n=400):
    records = []
    for i in range(n):
        obj = None
        if rng.random() < 0.8:
            obj = tuple(np.round(rng.uniform(-0.5, 0.5, size=3), 3))
        records.append(
            mini_record(
                f"r{i:04d}",
                camera_pos=tuple(np.round(rng.uniform(-1.0, 1.0, size=3), 3)),
                obj_pos=obj,
                target=_OBJECTS[rng.integers(len(_OBJECTS))],
                color=_COLORS[rng.integers(len(_COLORS))],
                instructions=_INSTRUCTIONS[rng.integers(len(_INSTRUCTIONS))],
            )
        )
    return records


def _random_query(rng, records) -> RetrievalQuery:
    values: dict = {}
    while not values:
        if rng.random() < 0.4:
            name = _OBJECTS[rng.integers(len(_OBJECTS) - 1)]
            if rng.random() < 0.5:
                values["object_include"] = name
            else:
                values["object_exclude"] = name
        if rng.random() < 0.5:
            anchor = records[rng.integers(len(records))].camera_pos
            values["campose_target"] = tuple(np.round(anchor + rng.uniform(-0.1, 0.1, 3), 3))
            if rng.random() < 0.3:
                values["campose_tol"] = tuple(rng.choice([0.1, 0.2, 0.3], size=3))
        if rng.random() < 0.5:
            values["objspat_center"] = tuple(np.round(rng.uniform(-0.4, 0.4, 3), 3))
            if rng.random() < 0.3:
                values["objspat_extent"] = tuple(rng.choice([0.2, 0.6, 1.0], size=3))
        if rng.random() < 0.3:
            values["color"] = _COLORS[rng.integers(len(_COLORS) - 1)]
        if rng.random() < 0.3:
            values["motion"] = frozenset(
                rng.choice(["pick", "place", "push", "pull", "open"],
                           size=rng.integers(1, 3), replace=False))
    return RetrievalQuery(**values)


def test_retrieve_matches_linear_scan_on_random_queries():
    rng = np.random.default_rng(7)
    records = _random_corpus(rng)
    index = retrieval.build_index(records)
    for _ in range(100):
        q = _random_query(rng, records)
        assert retrieval.retrieve(index, q) == linear_scan(records, q)


# per-axis half-widths are (h, h / 2, 2 h): tolerances from 0.001 m to 10 m
_HALF_WIDTHS = (0.002, 0.0137, 0.1, 0.35, 1.0, 2.5, 5.0)


def _face_points(center, half):
    """Points on, just inside and just outside each face of the box, per axis."""
    points = []
    for k in range(3):
        for sign in (-1.0, 1.0):
            face = center[k] + sign * half[k]
            for x in (face, np.nextafter(face, -sign * np.inf), np.nextafter(face, sign * np.inf)):
                p = list(center)
                p[k] = float(x)
                points.append(tuple(p))
    return points


def test_position_scan_matches_linear_scan_on_wide_boxes_and_faces():
    rng = np.random.default_rng(19)
    boxes = []
    for half in _HALF_WIDTHS:
        for center in (tuple(np.round(rng.uniform(-0.5, 0.5, 3), 3)), (0.25, -0.5, 0.125)):
            boxes.append((center, (half, half * 0.5, half * 2.0)))
    records = _random_corpus(rng, n=300)
    for center, half in boxes:
        for p in _face_points(center, half):
            i = len(records)
            obj = p if i % 3 else None
            records.append(mini_record(f"f{i:05d}", camera_pos=p, obj_pos=obj, target="mug",
                                       color="red", instructions=("pick up the mug",)))
    index = retrieval.build_index(records)
    assert len(index.missing["object_position"]) > 0

    on_face = 0
    for center, half in boxes:
        extent = tuple(2.0 * h for h in half)
        for q in (RetrievalQuery(campose_target=center, campose_tol=half),
                  RetrievalQuery(objspat_center=center, objspat_extent=extent),
                  RetrievalQuery(campose_target=center, campose_tol=half,
                                 objspat_center=center, objspat_extent=extent, color="red")):
            got = retrieval.retrieve(index, q)
            assert got == linear_scan(records, q)
            on_face += sum(rid.startswith("f") for rid in got)
    # boxes around every face point return every record that carries the position
    whole = RetrievalQuery(campose_target=(0.0, 0.0, 0.0), campose_tol=(20.0, 20.0, 20.0))
    assert retrieval.retrieve(index, whole) == [r.id for r in records]
    whole = RetrievalQuery(objspat_center=(0.0, 0.0, 0.0), objspat_extent=(40.0, 40.0, 40.0))
    assert retrieval.retrieve(index, whole) == [
        r.id for r in records if r.annotations.object_position is not None]
    assert on_face > 0


def test_gather_matches_linear_scan_on_all_none_and_empty():
    rng = np.random.default_rng(23)
    records = _random_corpus(rng, n=200)
    every = RetrievalQuery(campose_target=(0.0, 0.0, 0.0), campose_tol=(5.0, 5.0, 5.0))
    queries = [
        every,
        RetrievalQuery(objspat_center=(0.0, 0.0, 0.0), objspat_extent=(10.0, 10.0, 10.0)),
        RetrievalQuery(campose_target=(9.0, 9.0, 9.0)),
        RetrievalQuery(object_include="anvil"),
        RetrievalQuery(color="red", campose_target=(0.0, 0.0, 0.0), campose_tol=(5.0, 5.0, 5.0)),
    ]
    for corpus in (records, []):
        index = retrieval.build_index(corpus)
        for q in queries:
            got = retrieval.retrieve(index, q)
            assert got == linear_scan(corpus, q)
            assert type(got) is list and all(type(rid) is str for rid in got)
    index = retrieval.build_index(records)
    assert retrieval.retrieve(index, every) == [r.id for r in records]
    assert retrieval.retrieve(index, queries[2]) == []
    assert retrieval.retrieval_report(retrieval.build_index([]), every)["final_count"] == 0


def test_index_ids_are_a_read_only_array():
    index = retrieval.build_index([mini_record("a"), mini_record("b")])
    assert index.ids.dtype == object and index.ids.shape == (2,)
    assert list(index.ids) == ["a", "b"]
    with pytest.raises(ValueError):
        index.ids[0] = "c"
    assert retrieval.retrieve(index, RetrievalQuery(campose_target=(0.6, 0.0, 0.6))) == ["a", "b"]


# ---------------------------------------------------------------------------
# stagewise report

def test_report_counts_monotone_and_consistent():
    rng = np.random.default_rng(3)
    records = _random_corpus(rng)
    index = retrieval.build_index(records)
    for _ in range(50):
        q = _random_query(rng, records)
        report = retrieval.retrieval_report(index, q)
        counts = [s["count"] for s in report["stages"]]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert report["final_count"] == counts[-1] == len(retrieval.retrieve(index, q))
        assert report["total_records"] == len(records)


def test_report_stage_order_and_params():
    records = [mini_record("a", obj_pos=(0.1, 0.0, 0.0), target="mug", color="red",
                           instructions=("pick up the mug",))]
    index = retrieval.build_index(records)
    q = RetrievalQuery(object_include="mug", campose_target=(0.6, 0.0, 0.6),
                       objspat_center=(0.0, 0.0, 0.0), color="red",
                       motion=frozenset({"pick"}))
    report = retrieval.retrieval_report(index, q)
    assert [s["filter"] for s in report["stages"]] == [
        "object", "camPose", "objSpat", "color", "motion"]
    assert report["params"]["campose_tol"] == [0.20, 0.20, 0.10]
    assert report["params"]["objspat_extent"] == [0.60, 0.60, 0.30]
    assert report["missing_annotations"] == {
        "target_object": 0, "object_position": 0, "object_color": 0, "motion": 0}
    assert report["final_count"] == 1
