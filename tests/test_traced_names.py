"""The functions that the benchmark traces by name exist in the program.

`perfbench/run.py` (`install_tracing`) wraps functions of `dvcurate` modules
by attribute name, and `BENCHMARK.json` lists per-layer metrics named after
them.  A function renamed or folded into another would leave its metrics
empty with no error, so these tests read both files (and change neither) and
look each name up in the program.
"""

from __future__ import annotations

import ast
import importlib
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIMINGS = ("s", "self_s", "calls")  # per-layer statistics of a traced function


def _program_callable(dotted: str) -> bool:
    module, name = dotted.split(".")
    return callable(getattr(importlib.import_module(f"dvcurate.{module}"), name, None))


def _traced() -> list[str]:
    """`module.name` of each `(p.module, "name")` pair in `install_tracing`."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    install = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "install_tracing")
    return [f"{node.elts[0].attr}.{node.elts[1].value}" for node in ast.walk(install)
            if isinstance(node, ast.Tuple) and len(node.elts) == 2
            and isinstance(node.elts[0], ast.Attribute) and isinstance(node.elts[0].value, ast.Name)
            and node.elts[0].value.id == "p"
            and isinstance(node.elts[1], ast.Constant) and isinstance(node.elts[1].value, str)]


def _timed_metrics() -> list[str]:
    """`module.name` of each per-layer timing metric in BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [metric["name"].rsplit(".", 1) for metric in bench["per_layer"]]
    return [function for function, statistic in names if statistic in TIMINGS]


def test_every_traced_name_is_a_callable_of_the_program():
    traced = _traced()
    assert len(traced) >= 20  # the wrapper table was found
    assert [name for name in traced if not _program_callable(name)] == []


def test_every_per_layer_timing_is_of_a_traced_callable():
    timed = _timed_metrics()
    assert len(timed) >= 20
    assert [name for name in timed if not _program_callable(name)] == []
    assert sorted(set(timed) - set(_traced())) == []
