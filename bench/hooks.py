"""Timing hooks for the traced run, installed from the benchmark's own files.

Each hook replaces one module attribute that `lhzcode.cli` or `lhzcode.sim`
calls through with a wrapper. The wrapper times the call, keeps a stack of
open spans so that a span's self time excludes its hooked children, and
counts work from the arguments and the result. It hands both through
untouched. A hooked name that no longer exists, or whose arguments no longer
fit the counter, is reported in a note and the metrics that need it are left
out; the rest of the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import Counter
from time import perf_counter


def _draw(counts, args, result):
    true, _ = result
    counts["draw.trials"] += true.shape[0]


def _majority(counts, args, result):
    words, n, include_direct = args[:3]
    counts["majority.votes"] += words.shape[0] * (n - 1) * (n - 2 + bool(include_direct))


def _bp(counts, args, result):
    graph, p0, _, iterations = args[:4]
    counts["bp.trials"] += p0.shape[0]
    counts["bp.edge_updates"] += p0.shape[0] * iterations * sum(len(c) for c in graph.checks)
    counts["bp.converged"] += int(result[2].sum())


def _mle(counts, args, result):
    words, n = args[:2]
    counts["mle.candidates"] += words.shape[0] << (n - 1)


# (module, attribute, span, counter). Spans are named after the package
# module that does the work; the attribute is where the caller looks it up.
HOOKS = (
    ("lhzcode.cli", "main", "cli.main", None),
    ("lhzcode.sim", "run_cell", "sim.run_cell", None),
    ("lhzcode.sim", "_draw_words", "sim.draw", _draw),
    ("lhzcode.sim", "stream", "channel.stream", None),
    ("lhzcode.sim", "apply_iid_flip", "channel.apply_iid_flip", None),
    ("lhzcode.sim", "encode", "codes.encode", None),
    ("lhzcode.sim", "graph_for", "factor_graph.graph_for", None),
    ("lhzcode.decoders", "_bp_layout", "factor_graph.bp_layout", None),
    ("lhzcode.sim", "_majority_batch", "decoders.majority", _majority),
    ("lhzcode.sim", "_bp_batch", "decoders.bp", _bp),
    ("lhzcode.sim", "_mle_batch", "decoders.mle", _mle),
)


class Tracer:
    """Per-span call counts, total and self seconds, plus work counts."""

    def __init__(self):
        self.notes: dict[str, str] = {}  # span -> why it is missing
        self.reset()

    def reset(self):
        self.spans: dict[str, list] = {}  # span -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._open: list[float] = []  # child seconds of each open span

    def install(self):
        for module_name, attr, span, counter in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                self.notes[span] = f"cannot import {module_name}: {exc}"
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.notes[span] = f"{module_name}.{attr} not found"
                continue
            setattr(module, attr, self._wrap(fn, span, counter))

    def _wrap(self, fn, span, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = self._open.pop()
                if self._open:
                    self._open[-1] += dt
                s = self.spans.setdefault(span, [0, 0.0, 0.0])
                s[0] += 1
                s[1] += dt
                s[2] += dt - child
            if counter is not None and span not in self.notes:
                try:
                    counter(self.counts, args, result)
                except Exception as exc:  # the program changed shape; keep running without this count
                    self.notes[span] = f"cannot count {span}: {type(exc).__name__}: {exc}"
            return result

        return wrapper

    def snapshot(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.spans.items()}, "counts": dict(self.counts)}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


class _Pass:
    """Span and count lookups on one pass's snapshot; absent spans read 0."""

    def __init__(self, snap: dict):
        self.spans, self.counts = snap["spans"], Counter(snap["counts"])

    def calls(self, *spans):
        return sum(self.spans.get(s, [0, 0.0, 0.0])[0] for s in spans)

    def total(self, *spans):
        return sum(self.spans.get(s, [0, 0.0, 0.0])[1] for s in spans)

    def self_s(self, span):
        return self.spans.get(span, [0, 0.0, 0.0])[2]


BUILD = ("factor_graph.graph_for", "factor_graph.bp_layout")

# name: (unit, spans it reads, value in one pass). A `.s` metric is the
# span's whole time with hooked children included, except for the decoders,
# whose `.s` is self time; `.self_s` is always self time. Metrics in "count"
# are work counts, which depend only on the inputs.
METRICS = {
    "sim.draw.s": ("s", ("sim.draw",), lambda p: p.total("sim.draw")),
    "sim.draw.us_per_trial": ("us", ("sim.draw",),
                              lambda p: _ratio(p.total("sim.draw"), p.counts["draw.trials"], 1e6)),
    "sim.run_cell.self_s": ("s", ("sim.run_cell",), lambda p: p.self_s("sim.run_cell")),
    "channel.stream.calls": ("count", ("channel.stream",), lambda p: p.calls("channel.stream")),
    "channel.stream.s": ("s", ("channel.stream",), lambda p: p.total("channel.stream")),
    "channel.apply_iid_flip.s": ("s", ("channel.apply_iid_flip",),
                                 lambda p: p.total("channel.apply_iid_flip")),
    "codes.encode.calls": ("count", ("codes.encode",), lambda p: p.calls("codes.encode")),
    "codes.encode.s": ("s", ("codes.encode",), lambda p: p.total("codes.encode")),
    "factor_graph.build.s": ("s", BUILD, lambda p: p.total(*BUILD)),
    "factor_graph.build.calls": ("count", BUILD, lambda p: p.calls(*BUILD)),
    "decoders.majority.s": ("s", ("decoders.majority",), lambda p: p.self_s("decoders.majority")),
    "decoders.majority.ns_per_vote": ("ns", ("decoders.majority",), lambda p: _ratio(
        p.self_s("decoders.majority"), p.counts["majority.votes"], 1e9)),
    "decoders.bp.s": ("s", ("decoders.bp",), lambda p: p.self_s("decoders.bp")),
    "decoders.bp.calls": ("count", ("decoders.bp",), lambda p: p.calls("decoders.bp")),
    "decoders.bp.edge_updates": ("count", ("decoders.bp",), lambda p: p.counts["bp.edge_updates"]),
    "decoders.bp.ns_per_edge_update": ("ns", ("decoders.bp",), lambda p: _ratio(
        p.self_s("decoders.bp"), p.counts["bp.edge_updates"], 1e9)),
    "decoders.bp.converged_frac": ("fraction", ("decoders.bp",),
                                   lambda p: _ratio(p.counts["bp.converged"], p.counts["bp.trials"])),
    "decoders.mle.s": ("s", ("decoders.mle",), lambda p: p.self_s("decoders.mle")),
    "decoders.mle.candidates": ("count", ("decoders.mle",), lambda p: p.counts["mle.candidates"]),
    "decoders.mle.ns_per_candidate": ("ns", ("decoders.mle",), lambda p: _ratio(
        p.self_s("decoders.mle"), p.counts["mle.candidates"], 1e9)),
    "cli.main.self_s": ("s", ("cli.main",), lambda p: p.self_s("cli.main")),
}
UNITS = {name: unit for name, (unit, _, _) in METRICS.items()} | {"trace.overhead_frac": "fraction"}


def layer_metrics(snapshots: list[dict], notes: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, one snapshot per pass.

    Work counts come from the first pass and must repeat in every pass.
    Times are the median over passes, except factor_graph.build.s: the
    graphs are built once per process, so it is the sum over the run.
    A metric that reads a span named in notes is left out.
    """
    passes = [_Pass(s) for s in snapshots]
    out, messages = {}, []
    for name, (unit, spans, value) in METRICS.items():
        if notes.keys() & set(spans):
            messages.append(f"absent: {name} ({'; '.join(notes[s] for s in spans if s in notes)})")
            continue
        values = [value(p) for p in passes]
        if unit == "count":
            out[name] = values[0]
            if any(v != values[0] for v in values):
                messages.append(f"{name} differed between passes: {values}")
        elif name == "factor_graph.build.s":
            out[name] = sum(values)
        else:
            out[name] = statistics.median(values)
    return out, messages
