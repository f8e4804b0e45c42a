"""Tracing from outside the program: wrap rankone's public callables.

Every public function and method of each ``rankone`` module is replaced
by a wrapper that times the call and attributes it to its layer (the
module name).  A function imported with ``from .schedules import
heights`` is bound separately in every importing module, so the wrapper
is installed under every name in every ``rankone`` module that holds
the original object.  Methods are patched once on their class.

Calls are aggregated per (layer, function) as count, total time, self
time and the number of wrapped calls beneath, and per (caller, callee)
as a call count.  Total time is measured around the wrapped call only.
Self time is total time minus the callees' time, each callee measured
from its wrapper's entry to its exit, so the wrappers' bookkeeping is
charged to the callee, never to the caller.

What a wrapper still adds to the figures is taken out with per-call
costs measured by ``calibrate`` on an empty function: the clock reads
inside a function's own bracket, the bare call into and return from a
callee's wrapper (left in the caller's self time), and a callee's whole
wrapper (left in every ancestor's total time).  ``corrected`` gives the
times net of these.

Individual spans are kept for the first SPAN_LIMIT calls of each
function; the high-frequency ones (hundreds of thousands of ``stage``
calls per pass) are aggregated only.  Everything stays in memory until
``dump`` writes it out.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from collections import Counter

LAYERS = ("schedules", "diagram", "isomorphism", "telescoping", "blocks", "cli")
SPAN_LIMIT = 200


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.recording = False
        self.stats: dict[str, list] = {}     # "layer.func" -> [calls, total_s, self_s, beneath]
        self.edges: Counter = Counter()      # (caller, callee) -> calls
        self.spans: list[tuple] = []         # (id, parent, name, start, end)
        self.stage_keys: dict = {}           # (id(schedule), n) -> schedule, kept alive
        self.results: Counter = Counter()    # counts read off return values
        self._stack: list[list] = []         # [name, span id, child seconds, beneath]
        self.per_call = {"own": 0.0, "in_caller": 0.0, "in_ancestors": 0.0}
        self._next_span = 0
        self._patches: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self):
        originals = {}
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        holders = [self.package, *self.modules.values()]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._patch(mod, attr, originals[obj])

    def _wrap_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(name, raw))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        edges = self.edges
        spans = self.spans
        clock = time.perf_counter
        observe = self._observers().get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            entry = clock()
            parent = stack[-1] if stack else None
            try:
                edges[(parent[0] if parent else None, name)] += 1
                span = None
                if stats[0] < SPAN_LIMIT:
                    span = tracer._next_span
                    tracer._next_span += 1
                frame = [name, span, 0.0, 0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stats[0] += 1
                    stats[1] += elapsed
                    stats[2] += elapsed - frame[2]
                    stats[3] += frame[3]
                    if span is not None:
                        spans.append((span, parent[1] if parent else None, name, start, start + elapsed))
                if observe is not None:
                    observe(args, result)
                return result
            finally:
                # the whole wrapper, bookkeeping included, counts as time in
                # a callee, so the caller's self time holds none of it
                if parent is not None:
                    parent[2] += clock() - entry
                    parent[3] += 1 + frame[3]

        return wrapper

    def _observers(self):
        def stage(args, result):
            self.stage_keys.setdefault((id(args[0]), args[1]), args[0])

        def paths(args, report):
            self.results["isomorphism.paths_tested"] += report.paths_tested

        def runs(args, tele):
            self.results["telescoping.runs_built"] += sum(st.q for st in tele.stages)

        def symbols(args, word):
            self.results["blocks.symbols_built"] += len(word)

        return {
            "schedules.ParamSchedule.stage": stage,
            "isomorphism.verify_isomorphism": paths,
            "telescoping.telescope": runs,
            "blocks.build_block": symbols,
        }

    def calibrate(self, reps=5, n=50_000):
        """Measure what a wrapper adds per call, on an empty function.

        ``own``: to the wrapped function's own self and total time;
        ``in_caller``: to its caller's self time; ``in_ancestors``: to
        the total time of every function above it.  Medians of `reps`.
        """
        clock = time.perf_counter

        def empty():
            pass

        def calls(fn):
            for _ in range(n):
                fn()

        def loop(fn):
            for _ in range(n):
                pass

        def timed(body):
            start = clock()
            body(empty)
            return clock() - start

        child = self._wrap("calibration.child", empty)
        parent = self._wrap("calibration.parent", calls)
        own, in_caller, in_ancestors = [], [], []
        self.recording = True
        try:
            for _ in range(reps):
                bare_loop, bare_calls = timed(loop), timed(calls)
                self.reset()
                parent(child)
                _, p_total, p_self, _ = self.stats["calibration.parent"]
                _, _, c_self, _ = self.stats["calibration.child"]
                own.append(c_self - (bare_calls - bare_loop))
                in_caller.append(p_self - bare_loop)
                in_ancestors.append(p_total - bare_calls)
        finally:
            self.recording = False
            del self.stats["calibration.child"], self.stats["calibration.parent"]
            self.reset()
        self.per_call = {
            "own": statistics.median(own) / n,
            "in_caller": statistics.median(in_caller) / n,
            "in_ancestors": statistics.median(in_ancestors) / n,
        }

    # -- per-pass bookkeeping ----------------------------------------------

    def reset(self):
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0, 0]
        self.edges.clear()
        self.spans.clear()
        self.stage_keys.clear()
        self.results.clear()
        self._next_span = 0

    def calls(self, name):
        return self.stats[name][0]

    def call_counts(self):
        return {name: s[0] for name, s in self.stats.items()}

    def corrected(self):
        """name -> (total_s, self_s) net of the wrappers' calibrated cost,
        neither below 0."""
        k = self.per_call
        made = Counter()
        for (caller, _), calls in self.edges.items():
            made[caller] += calls
        out = {}
        for name, (calls, total, own, beneath) in self.stats.items():
            total -= calls * k["own"] + beneath * k["in_ancestors"]
            own -= calls * k["own"] + made[name] * k["in_caller"]
            out[name] = (max(total, 0.0), max(own, 0.0))
        return out

    def total(self, name):
        return self.corrected()[name][0]

    def layer_self(self, layer):
        return sum(own for name, (_, own) in self.corrected().items()
                   if name.split(".", 1)[0] == layer)

    def pass_counts(self):
        """The deterministic part of one traced pass."""
        return {
            "calls": {name: s[0] for name, s in sorted(self.stats.items()) if s[0]},
            "edges": {f"{a} -> {b}": c for (a, b), c in sorted(self.edges.items(), key=str)},
            "results": dict(sorted(self.results.items())),
            "distinct_stages": len(self.stage_keys),
        }

    def pass_times(self):
        """Corrected times; the raw ones are these plus the calibrated costs."""
        return {
            name: {"total_s": total, "self_s": own}
            for name, (total, own) in sorted(self.corrected().items()) if self.stats[name][0]
        }

    def dump(self, path, extra):
        doc = dict(extra, wrapper_cost_per_call_s=self.per_call)
        doc["spans"] = [
            {"id": i, "parent": p, "name": n, "start": s, "end": e} for i, p, n, s, e in self.spans
        ]
        path.write_text(json.dumps(doc, indent=1))


def layer_metrics(tracer: Tracer, bytes_out: int) -> dict[str, float]:
    """Per-layer metrics of the pass the tracer has just recorded."""
    t = tracer
    stage_calls = t.calls("schedules.ParamSchedule.stage")
    expansive = t.calls("telescoping.build_expansive")
    attempts = t.edges[("telescoping.build_expansive", "telescoping.telescope")]
    return {
        "schedules.self_s": t.layer_self("schedules"),
        "schedules.stage_calls": stage_calls,
        "schedules.issues_calls": t.calls("schedules.Stage.issues"),
        "schedules.stage_distinct_ratio": len(t.stage_keys) / stage_calls if stage_calls else 0.0,
        "schedules.heights_calls": t.calls("schedules.heights"),
        "schedules.heights_s": t.total("schedules.heights"),
        "schedules.ratio_sum_calls": t.calls("schedules.spacer_ratio_sum"),
        "schedules.ratio_sum_s": t.total("schedules.spacer_ratio_sum"),
        "diagram.self_s": t.layer_self("diagram"),
        "diagram.from_tower_coordinates_calls": t.calls("diagram.from_tower_coordinates"),
        "diagram.level_indices_calls": t.calls("diagram.level_indices"),
        "diagram.successor_calls": t.calls("diagram.successor"),
        "diagram.validate_path_calls": t.calls("diagram.validate_path"),
        "isomorphism.self_s": t.layer_self("isomorphism"),
        "isomorphism.to_target_calls": t.calls("isomorphism.to_target"),
        "isomorphism.to_source_calls": t.calls("isomorphism.to_source"),
        "isomorphism.paths_tested": t.results["isomorphism.paths_tested"],
        "telescoping.self_s": t.layer_self("telescoping"),
        "telescoping.runs_built": t.results["telescoping.runs_built"],
        "telescoping.digit_decomposition_calls": t.calls("telescoping.digit_decomposition"),
        "telescoping.expansive_attempts": attempts / expansive if expansive else 0.0,
        "blocks.self_s": t.layer_self("blocks"),
        "blocks.symbols_built": t.results["blocks.symbols_built"],
        "blocks.kalikow_s": t.total("blocks.kalikow_sup_condition"),
        "cli.self_s": t.layer_self("cli"),
        "cli.bytes_out": bytes_out,
    }
