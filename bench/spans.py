"""Spans recorded from outside the program, around the calls into each layer.

Each target names a function by the module that calls it, because solvers
imports its collaborators by name: the wrapper must replace that name where
the caller looks it up.  It replaces every snowteam module attribute bound
to the same function object, so the defining module and the package
namespace see the wrapper too.  A target that no longer exists is reported
absent and its metrics read 0; the run goes on.

Spans are kept in memory.  A layer's self time is its spans' durations minus
the parts their child spans cover, so the self times of all spans plus the
benchmark's own time (the remainder) add up to the traced wall time.
"""

from __future__ import annotations

import inspect
import sys
import tracemalloc
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Target:
    span: str
    module: str
    attr: str
    generator: bool = False


TARGETS = (
    Target("solvers.solve", "snowteam.solvers", "solve_st"),
    Target("solvers.solve", "snowteam.solvers", "solve_min_st"),
    Target("solvers.solve", "snowteam.solvers", "solve_max_st"),
    Target("solvers.solve", "snowteam.solvers", "solve_stu"),
    Target("solvers.subinstance", "snowteam.solvers", "solve_all_st"),
    Target("solvers.filter", "snowteam.solvers", "_candidate_feasible"),
    Target("trees.enum", "snowteam.solvers", "candidate_stream", generator=True),
    Target("tpe.build", "snowteam.solvers", "build_circuit"),
    Target("tpe.detect", "snowteam.solvers", "detect_zt_multilinear"),
    Target("digraph.closure", "snowteam.solvers", "transitive_closure"),
    Target("digraph.verify", "snowteam.digraph", "verify_st_solution"),
    Target("exact.solve", "snowteam.solvers", "solve_st_exact"),
    Target("gadgets.build", "snowteam.gadgets", "build_gadget"),
    Target("gadgets.extract", "snowteam.gadgets", "walks_to_cover"),
)

DETECT_KS = (3, 4, 5, 6, 7, 8)


@dataclass
class Span:
    id: int
    parent: int  # -1 for a span no other span contains
    request: int  # the operation being solved or checked
    name: str
    start: float
    end: float
    self_s: float
    info: dict


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.request = -1
        self._stack: list[list] = []  # [id, start, child seconds]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> None:
        self._stack.append([self._next_id, perf_counter(), 0.0])
        self._next_id += 1

    def _close(self, name: str, info: dict) -> None:
        end = perf_counter()
        sid, start, child = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += end - start
        self.spans.append(
            Span(sid, parent[0] if parent else -1, self.request, name, start, end,
                 end - start - child, info)
        )

    def _wrap_call(self, name: str, fn):
        bind = inspect.signature(fn).bind
        tracer = self

        def wrapper(*args, **kwargs):
            info: dict = {}
            if name == "tpe.detect":
                info["k"] = bind(*args, **kwargs).arguments.get("k")
                tracemalloc.start()
            tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, info)
                if name == "tpe.detect":
                    info["peak_b"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if name == "tpe.detect":
                info["yes"] = bool(result)
            elif name == "tpe.build":
                info["gates"] = len(result.gates)
            elif name == "solvers.filter":
                info["pass"] = bool(result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                info = {"item": True}
                tracer._open()
                try:
                    item = next(it)
                except StopIteration:
                    info["item"] = False
                    return
                finally:
                    tracer._close(name, info)
                yield item

        return wrapper

    # -- installing --------------------------------------------------------

    def _modules(self):
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "snowteam" or name.startswith("snowteam."))
        ]

    def install(self) -> None:
        self.absent = []
        modules = self._modules()
        for t in self.targets:
            fn = getattr(sys.modules.get(t.module), t.attr, None)
            if fn is None:
                self.absent.append(f"{t.module}.{t.attr}")
                continue
            make = self._wrap_generator if t.generator else self._wrap_call
            wrapper = make(t.span, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    def absent_layers(self) -> list[str]:
        """Layers none of whose targets could be wrapped."""
        layers = {t.span.split(".")[0] for t in self.targets}
        present = {
            t.span.split(".")[0] for t in self.targets
            if f"{t.module}.{t.attr}" not in self.absent
        }
        return sorted(layers - present)

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self, rounds: int, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-round layer metrics from the recorded spans."""
        by: dict[str, list[Span]] = {}
        for s in self.spans:
            by.setdefault(s.name, []).append(s)

        def count(name):
            return len(by.get(name, ()))

        def self_s(name):
            return sum(s.self_s for s in by.get(name, ()))

        def ratio(a, b):
            return a / b if b else 0.0

        items = sum(1 for s in by.get("trees.enum", ()) if s.info["item"])
        passes = sum(1 for s in by.get("solvers.filter", ()) if s.info["pass"])
        detects = by.get("tpe.detect", [])
        yes = sum(1 for s in detects if s.info.get("yes"))
        total_self = sum(s.self_s for s in self.spans)
        r = rounds
        m = {
            "trees.candidates": (items / r, "count"),
            "trees.enum_s": (self_s("trees.enum") / r, "s"),
            "trees.candidates_per_s": (ratio(items, self_s("trees.enum")), "1/s"),
            "solvers.filter_calls": (count("solvers.filter") / r, "count"),
            "solvers.filter_s": (self_s("solvers.filter") / r, "s"),
            "solvers.filter_pass_ratio": (ratio(passes, count("solvers.filter")), "ratio"),
            "solvers.subinstances": (count("solvers.subinstance") / r, "count"),
            "solvers.self_s": ((self_s("solvers.solve") + self_s("solvers.subinstance")) / r, "s"),
            "tpe.circuits": (count("tpe.build") / r, "count"),
            "tpe.build_s": (self_s("tpe.build") / r, "s"),
            "tpe.gates_max": (max((s.info["gates"] for s in by.get("tpe.build", ())), default=0), "count"),
            "tpe.detections": (len(detects) / r, "count"),
            "tpe.detect_s": (self_s("tpe.detect") / r, "s"),
            "tpe.detect_yes_ratio": (ratio(yes, len(detects)), "ratio"),
        }
        for k in DETECT_KS:
            at_k = [s.self_s for s in detects if s.info.get("k") == k]
            m[f"tpe.detect_s.k{k}"] = (ratio(sum(at_k), len(at_k)), "s")
        peak = max((s.info.get("peak_b", 0) for s in detects), default=0)
        m["tpe.detect_peak_mb"] = (peak / 2**20, "MB")
        m.update({
            "digraph.closure_calls": (count("digraph.closure") / r, "count"),
            "digraph.closure_s": (self_s("digraph.closure") / r, "s"),
            "digraph.verify_calls": (count("digraph.verify") / r, "count"),
            "digraph.verify_s": (self_s("digraph.verify") / r, "s"),
            "exact.solves": (count("exact.solve") / r, "count"),
            "exact.solve_s": (self_s("exact.solve") / r, "s"),
            "gadgets.build_s": (self_s("gadgets.build") / r, "s"),
            "gadgets.extract_s": (self_s("gadgets.extract") / r, "s"),
            "trace.wall_s": (wall_s / r, "s"),
            "trace.remainder_s": ((wall_s - total_self) / r, "s"),
        })
        return m

    def dump(self) -> dict:
        return {
            "absent": self.absent,
            "spans": [
                [s.id, s.parent, s.request, s.name, s.start, s.end, s.self_s, s.info]
                for s in self.spans
            ],
        }
