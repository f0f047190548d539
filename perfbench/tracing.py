"""In-memory tracing for the traced run: spans at layer boundaries, counters inside.

Wrappers are installed from outside the program, on the module globals and
oracle methods that pdfill's own code looks up at call time, so nothing
under src/ changes.  Coarse phases and every solved cycle or triangle get a
span; the oracle methods called millions of times only add to a count and
a time total.  Nothing is written until ``dump``.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []        # [id, parent id, name, start ns, end ns, error or None]
        self.calls = {}        # name -> [calls, total ns]
        self.counts = {}       # name -> count
        self._stack = []

    def add(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def record(self, name, start, end):
        """A span measured by the caller, under the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([len(self.spans), parent, name, start, end, None])

    def span(self, name, fn, on_result=None):
        """Wrap fn so each call is a span; on_result sees each return value."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [len(self.spans), parent, name, clock(), 0, None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                span[5] = type(err).__name__
                raise
            finally:
                span[4] = clock()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, name, fn):
        """Wrap fn so each call adds to a call count and a time total."""
        totals = self.calls.setdefault(name, [0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[0] += 1
                totals[1] += clock() - start

        return wrapper

    def counted_canonical(self, fn):
        """Like ``counted`` for DehnOracle.canonical, also counting cache hits.

        A call is a hit when it leaves the oracle's canonical cache the size
        it found it, so it was answered from the cache.
        """
        totals = self.calls.setdefault("canonical", [0, 0])
        self.counts.setdefault("canonical_hits", 0)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(oracle, word):
            before = len(oracle._canonical_cache)
            start = clock()
            try:
                return fn(oracle, word)
            finally:
                totals[0] += 1
                totals[1] += clock() - start
                if len(oracle._canonical_cache) == before:
                    counts["canonical_hits"] += 1

        return wrapper

    def named(self, name):
        return [s for s in self.spans if s[2] == name]

    def children(self, parent, name):
        return [s for s in self.spans if s[1] == parent[0] and s[2] == name]

    def dump(self, path, meta):
        with open(path, "w") as handle:
            json.dump(
                {
                    "meta": meta,
                    "span_fields": ["id", "parent", "name", "start_ns", "end_ns", "error"],
                    "spans": self.spans,
                    "calls": {k: {"calls": c, "total_ns": t} for k, (c, t) in self.calls.items()},
                    "counts": self.counts,
                },
                handle,
            )


def install(tracer, pdfill_modules, captured):
    """Wrap the layer entry points pdfill looks up; ``captured`` collects results."""
    groups, filling, folner, slimness = pdfill_modules

    def keep_ball(result):
        tracer.add("ball_elements", len(result))

    def keep_complex(complex_):
        captured["complex"] = complex_

    def keep_solve(result):
        tracer.add("search_nodes", result.nodes_explored)

    ball = tracer.span("ball", groups.ball, keep_ball)
    for module in (groups, filling, folner, slimness):
        module.ball = ball
    filling.build_ball_complex = tracer.span(
        "build_ball_complex", filling.build_ball_complex, keep_complex
    )
    filling.word_cycle = tracer.counted("word_cycle", filling.word_cycle)
    filling.minimal_filling = tracer.span("minimal_filling", filling.minimal_filling, keep_solve)
    slimness.triangle_slimness = tracer.span("triangle_slimness", slimness.triangle_slimness)
    slimness.lex_geodesic = tracer.counted("lex_geodesic", slimness.lex_geodesic)
    for cls in _oracle_classes(groups):
        if "multiply" in vars(cls):
            cls.multiply = tracer.counted("multiply", cls.multiply)
        if "distance" in vars(cls):
            cls.distance = tracer.counted("distance", cls.distance)
    groups.DehnOracle.canonical = tracer.counted_canonical(groups.DehnOracle.canonical)


def _oracle_classes(groups):
    seen = []
    pending = [groups.GroupOracle]
    while pending:
        cls = pending.pop()
        seen.append(cls)
        pending.extend(cls.__subclasses__())
    return seen


def _seconds(ns):
    return ns / 1e9


def _duration(span):
    return span[4] - span[3]


def _percentile_ms(durations, q):
    """Nearest-rank percentile of span durations, in milliseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(0, min(len(ordered) - 1, int(round(q * len(ordered))) - 1))
    return ordered[rank] / 1e6


def layer_metrics(tracer, probe_name, report, group, complex_):
    """The per-layer figures of one traced CLI run, keyed by metric name."""
    calls = {name: tracer.calls.get(name, [0, 0]) for name in
             ("multiply", "canonical", "distance", "word_cycle", "lex_geodesic")}
    probe = tracer.named(probe_name)[0]
    balls = tracer.named("ball")
    builds = tracer.named("build_ball_complex")
    solves = tracer.named("minimal_filling")
    triangles = tracer.named("triangle_slimness")

    def self_time(spans):
        return sum(_duration(s) - sum(_duration(c) for c in tracer.children(s, "ball"))
                   for s in spans)

    enumerate_ns = 0
    if probe_name == "isoperimetric_sweep" and builds:
        # the sweep enumerates closed walks between building and the first solve
        first_solve = min((s[3] for s in solves), default=probe[4])
        enumerate_ns = first_solve - builds[0][4]
    folner_ns = self_time([probe]) if probe_name == "folner_sweep" else 0
    sets = report.sets_examined if probe_name == "folner_sweep" else 0
    cycles = len(report.per_cycle) if probe_name == "isoperimetric_sweep" else 0
    solve_ns = [_duration(s) for s in solves]
    triangle_ns = [_duration(s) for s in triangles]
    cache = getattr(group, "_canonical_cache", None)
    return {
        "groups.ball_s": _seconds(sum(_duration(s) for s in balls)),
        "groups.ball_elements": tracer.counts.get("ball_elements", 0),
        "groups.multiply_calls": calls["multiply"][0],
        "groups.multiply_s": _seconds(calls["multiply"][1]),
        "groups.canonical_calls": calls["canonical"][0],
        "groups.canonical_hit_ratio": (
            tracer.counts.get("canonical_hits", 0) / calls["canonical"][0]
            if calls["canonical"][0] else 0.0
        ),
        "groups.canonical_cache_entries": len(cache) if cache is not None else 0,
        "groups.distance_calls": calls["distance"][0],
        "groups.distance_s": _seconds(calls["distance"][1]),
        "filling.build_s": _seconds(self_time(builds)),
        "filling.vertices": complex_.vertex_count if complex_ else 0,
        "filling.edges": complex_.edge_count if complex_ else 0,
        "filling.faces": complex_.face_count if complex_ else 0,
        "filling.enumerate_s": _seconds(enumerate_ns),
        "filling.word_cycle_calls": calls["word_cycle"][0],
        "filling.cycles": cycles,
        "filling.distinct_cycle_ratio": (
            cycles / calls["word_cycle"][0] if calls["word_cycle"][0] else 0.0
        ),
        "filling.solve_s": _seconds(sum(solve_ns)),
        "filling.solve_calls": len(solves),
        "filling.solve_p50_ms": statistics.median(solve_ns) / 1e6 if solve_ns else 0.0,
        "filling.solve_p99_ms": _percentile_ms(solve_ns, 0.99),
        "filling.search_nodes": tracer.counts.get("search_nodes", 0),
        "filling.unfilled": sum(1 for s in solves if s[5] == "NoFillingError"),
        "folner.enumerate_s": _seconds(folner_ns),
        "folner.sets": sets,
        "folner.sets_per_s": sets / _seconds(folner_ns) if folner_ns else 0.0,
        "slimness.triangles": len(triangles),
        "slimness.triangle_p50_ms": (
            statistics.median(triangle_ns) / 1e6 if triangle_ns else 0.0
        ),
        "slimness.triangle_p99_ms": _percentile_ms(triangle_ns, 0.99),
        "slimness.geodesic_s": _seconds(calls["lex_geodesic"][1]),
        "slimness.distance_calls_per_triangle": (
            calls["distance"][0] / len(triangles) if triangles else 0.0
        ),
    }
