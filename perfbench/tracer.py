"""Per-layer tracing from outside the program.

A Tracer replaces module attributes of `dvcurate` with timing wrappers for
the length of a `with` block, so calls between modules (which look the name
up on the module) are recorded too.  For every wrapped function it keeps the
call count, wall time inside the calls (`s`) and that time minus the time
inside wrapped callees (`self_s`); per caller it keeps the same on each
(caller, callee) edge.  Counters record work done at the same boundaries.
Generator functions are timed per `next()`.  Nothing is recorded per call;
totals are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.edges = defaultdict(lambda: [0, 0.0])
        self.counters = defaultdict(int)
        self._stack: list[list] = []  # [name, seconds inside wrapped callees]
        self._patches: list[tuple] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def caller(self) -> str | None:
        """The wrapped function running now (inside `on_result`: the caller)."""
        return self._stack[-1][0] if self._stack else None

    def _timed(self, name: str, fn, *args, **kwargs):
        self._stack.append([name, 0.0])
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            _, inner = self._stack.pop()
            self.calls[name] += 1
            self.seconds[name] += elapsed
            self.self_seconds[name] += elapsed - inner
            caller = self._stack[-1] if self._stack else None
            if caller is not None:
                caller[1] += elapsed
            edge = self.edges[(caller[0] if caller else "-", name)]
            edge[0] += 1
            edge[1] += elapsed

    def wrap(self, module, attr: str, on_result=None) -> None:
        """Time `module.attr`; `on_result(tracer, args, kwargs, result)` runs
        after each call (for generators, with each yielded item)."""
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    try:
                        item = self._timed(name, next, gen)
                    except StopIteration:
                        return
                    if on_result is not None:
                        on_result(self, args, kwargs, item)
                    yield item
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = self._timed(name, fn, *args, **kwargs)
                if on_result is not None:
                    on_result(self, args, kwargs, result)
                return result

        self._patches.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)
        return False

    def totals(self) -> dict:
        return {
            "functions": {name: {"calls": self.calls[name], "s": self.seconds[name],
                                 "self_s": self.self_seconds[name]}
                          for name in sorted(self.calls)},
            "edges": {f"{a} > {b}": {"calls": n, "s": s}
                      for (a, b), (n, s) in sorted(self.edges.items())},
            "counters": dict(sorted(self.counters.items())),
        }
