"""Spans around the program's public functions, for the traced run.

The program is not edited: while a traced pass runs, ``Tracer.installed``
replaces the module attributes listed in ``targets()`` with wrappers that
open a span, call the original and close the span.  Callers inside the
package look these names up on the module at call time (``hotpath.embed_search``
from ``detect``, ``witness.build_W`` from ``detect``, ``run_trial`` from
``run_experiment``), so spans nest and a layer's self time is its span's
duration minus the time its child spans cover.

Spans stay in memory and are written out once, after the run.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

from sparsewitness import analytics, detect, experiment, gnp, graphs, hotpath, witness
from sparsewitness import logic

from workloads import Recorder

MODES = {
    hotpath.MODE_COUNT_DOMINATING: "count_dominating",
    hotpath.MODE_COLLECT: "collect",
    hotpath.MODE_FIND: "find",
}
LAYERS = ("experiment", "gnp", "graphs", "detect", "hotpath", "witness", "logic",
          "analytics")
BACKENDS = ("pure", "cython")

# Per-layer metrics of the traced run, in the order they are printed.
PER_LAYER = [
    ("gnp.sample_dense_us", "us"), ("gnp.sample_sparse_us", "us"),
    ("gnp.edges", "count"), ("graphs.bits_us", "us"), ("graphs.from_arrays_us", "us"),
]
for _mode in MODES.values():
    PER_LAYER += [
        (f"hotpath.{_mode}.calls", "count"), (f"hotpath.{_mode}.search_s", "s"),
        (f"hotpath.{_mode}.expansions", "count"),
        (f"hotpath.{_mode}.ns_per_expansion", "ns"),
        (f"hotpath.{_mode}.hits_per_expansion", "ratio"),
        (f"hotpath.{_mode}.budget_exceeded", "count"),
    ]
for _backend in BACKENDS:
    PER_LAYER += [(f"hotpath.backend.{_backend}.search_s", "s"),
                  (f"hotpath.backend.{_backend}.expansions", "count")]
PER_LAYER += [
    ("hotpath.backends_compared", "count"),
    ("detect.wasted_expansion_frac", "ratio"),
    ("witness.build_s", "s"), ("witness.process_step_us", "us"),
    ("witness.process_steps", "count"), ("witness.parity_s", "s"),
    ("logic.evaluate_s", "s"),
    ("analytics.certificate_s", "s"), ("analytics.window_report_us", "us"),
    ("analytics.first_moment_us", "us"),
]
PER_LAYER += [(f"{layer}.self_s", "s") for layer in LAYERS]
PER_LAYER += [
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
    ("trace.uncovered_s", "s"), ("trace.spans", "count"),
]

NAME, PARENT, ITEM, T0, T1, INFO = range(6)


def _sample_info(args, kwargs, g):
    cfg = args[0] if args else kwargs["cfg"]
    return ("sparse" if cfg.p < gnp.SPARSE_FACTOR / max(cfg.n, 1) else "dense", g.m)


def _search_info(args, kwargs, res):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else hotpath.MODE_FIND)
    return (mode, res.count, res.expansions, res.exceeded, res.backend)


def _detect_info(args, kwargs, res):
    return (res.outcome, res.expansions)


def targets():
    """(owner, attribute, span name, info from (args, kwargs, result))."""
    plain = [
        (experiment, "run_experiment"), (experiment, "run_trial"),
        (witness, "build_W"), (witness, "build_W_star"), (witness, "process_run"),
        (witness, "process_step"), (witness, "has_gamma_r_property"),
        (logic, "evaluate"),
        (analytics, "sequence_part1"), (analytics, "sequence_part2"),
        (analytics, "window_report"), (analytics, "expected_W_dominating"),
        (analytics, "expected_W_star"),
    ]
    out = [(owner, attr, f"{owner.__name__.rsplit('.', 1)[1]}.{attr}", None)
           for owner, attr in plain]
    out += [
        (gnp, "sample_gnp", "gnp.sample_gnp", _sample_info),
        (detect, "find_dominating_induced_W", "detect.find_dominating_induced_W",
         _detect_info),
        (hotpath, "embed_search", "hotpath.embed_search", _search_info),
    ]
    return out


class Tracer(Recorder):
    """A Recorder that also keeps spans: [name, parent, item, t0, t1, info]."""

    def __init__(self, keep_kernel_calls: bool = False):
        super().__init__()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.current_item = None
        self.kernel_calls = [] if keep_kernel_calls else None

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1,
                           self.current_item, time.perf_counter(), 0.0, None])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.stack.pop()
        self.spans[idx][T1] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def item(self, key):
        outer, self.current_item = self.current_item, key
        try:
            with self.span("bench.item"), super().item(key):
                yield
        finally:
            self.current_item = outer

    def _wrap(self, original, name, info):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if info is not None:
                self.spans[idx][INFO] = info(args, kwargs, result)
            return result

        if name == "hotpath.embed_search" and self.kernel_calls is not None:
            def kept(*args, **kwargs):
                self.kernel_calls.append((args, kwargs))
                return traced(*args, **kwargs)
            return kept
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target, the graph constructor and the first ``.bits``
        build for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, info in targets():
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, info))
            cls = graphs.Graph
            from_arrays, bits = cls.__dict__["from_arrays"], cls.__dict__["bits"]
            saved += [(cls, "from_arrays", from_arrays), (cls, "bits", bits)]
            build = self._wrap(from_arrays.__func__, "graphs.from_arrays", None)
            cls.from_arrays = classmethod(build)
            first_build = self._wrap(bits.fget, "graphs.bits", None)
            cls.bits = property(
                lambda g: g._bits if g._bits is not None else first_build(g))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def scope(self):
        with self.installed(), self.span("bench.pass"):
            yield


def replay_kernel_calls(calls, backends):
    """Repeat recorded ``embed_search`` calls on every backend.

    Returns ({backend: (seconds, expansions)}, mismatches) where a mismatch
    is a call whose (count, expansions, exceeded) differs between backends.
    """
    totals = {b: [0.0, 0] for b in backends}
    mismatches = 0
    for args, kwargs in calls:
        seen = set()
        for b in backends:
            t0 = time.perf_counter()
            res = hotpath.embed_search(*args, **{**kwargs, "backend": b})
            totals[b][0] += time.perf_counter() - t0
            totals[b][1] += res.expansions
            seen.add((res.count, res.expansions, res.exceeded))
        mismatches += len(seen) > 1
    return {b: tuple(v) for b, v in totals.items()}, mismatches


def self_times(spans):
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[T1] - s[T0]
    return [s[T1] - s[T0] - c for s, c in zip(spans, covered)]


def per_layer(tracers, traced_walls, untraced_walls, replay=None):
    """Per-layer metrics over the traced passes (one Tracer each), as
    per-pass totals or per-call means.

    replay is ``replay_kernel_calls`` output for one pass, or None when
    only the active backend ran.
    """
    passes = len(tracers)
    rows = []  # (span, self seconds) over every pass
    for tr in tracers:
        rows += zip(tr.spans, self_times(tr.spans))
    by_name: dict[str, list] = {}
    for row in rows:
        by_name.setdefault(row[0][NAME], []).append(row)

    def incl(row):
        return row[0][T1] - row[0][T0]

    def total(*names):
        return sum(incl(r) for n in names for r in by_name.get(n, ())) / passes

    def mean_us(rs):
        return 1e6 * statistics.fmean(incl(r) for r in rs) if rs else 0.0

    m = {}
    samples = by_name.get("gnp.sample_gnp", [])
    for path in ("dense", "sparse"):
        m[f"gnp.sample_{path}_us"] = mean_us([r for r in samples if r[0][INFO][0] == path])
    m["gnp.edges"] = sum(r[0][INFO][1] for r in samples) / passes
    m["graphs.bits_us"] = mean_us(by_name.get("graphs.bits", []))
    m["graphs.from_arrays_us"] = mean_us(by_name.get("graphs.from_arrays", []))

    searches = by_name.get("hotpath.embed_search", [])
    for mode, label in MODES.items():
        calls = [(r[0][INFO], r[1]) for r in searches if r[0][INFO][0] == mode]
        secs = sum(t for _, t in calls)
        hits = sum(info[1] for info, _ in calls)
        exps = sum(info[2] for info, _ in calls)
        m[f"hotpath.{label}.calls"] = len(calls) / passes
        m[f"hotpath.{label}.search_s"] = secs / passes
        m[f"hotpath.{label}.expansions"] = exps / passes
        m[f"hotpath.{label}.ns_per_expansion"] = 1e9 * secs / exps if exps else 0.0
        m[f"hotpath.{label}.hits_per_expansion"] = hits / exps if exps else 0.0
        m[f"hotpath.{label}.budget_exceeded"] = sum(
            1 for info, _ in calls if info[3]) / passes
    if replay is None:
        replay = {hotpath.BACKEND: (sum(t for _, t in searches) / passes,
                                    sum(r[0][INFO][2] for r in searches) / passes)}
    for b in BACKENDS:
        m[f"hotpath.backend.{b}.search_s"], m[f"hotpath.backend.{b}.expansions"] = (
            replay.get(b, (0.0, 0)))
    m["hotpath.backends_compared"] = len(replay)

    detects = [r[0][INFO] for r in by_name.get("detect.find_dominating_induced_W", [])]
    spent = sum(exps for _, exps in detects)
    wasted = sum(exps for outcome, exps in detects if outcome == "budget_exceeded")
    m["detect.wasted_expansion_frac"] = wasted / spent if spent else 0.0

    m["witness.build_s"] = total("witness.build_W", "witness.build_W_star")
    m["witness.process_step_us"] = mean_us(by_name.get("witness.process_step", []))
    m["witness.process_steps"] = len(by_name.get("witness.process_step", [])) / passes
    m["witness.parity_s"] = total("witness.has_gamma_r_property")
    m["logic.evaluate_s"] = total("logic.evaluate")
    m["analytics.certificate_s"] = total("analytics.sequence_part1",
                                         "analytics.sequence_part2")
    m["analytics.window_report_us"] = mean_us(by_name.get("analytics.window_report", []))
    m["analytics.first_moment_us"] = mean_us(
        by_name.get("analytics.expected_W_dominating", [])
        + by_name.get("analytics.expected_W_star", []))

    layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
    for span, t in rows:
        layer_self[span[NAME].split(".", 1)[0]] += t
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / passes

    m["trace.wall_s"] = statistics.fmean(traced_walls)
    m["trace.untraced_wall_s"] = statistics.fmean(untraced_walls)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    m["trace.uncovered_s"] = layer_self["bench"] / passes
    m["trace.spans"] = len(rows) / passes
    units = dict(PER_LAYER)
    return {name: (m[name], units[name]) for name, _ in PER_LAYER}


def item_expansions(tracer):
    """Exact kernel expansions per item, summed over the item's searches."""
    per_item: dict[str, int] = {}
    for s in tracer.spans:
        if s[NAME] == "hotpath.embed_search" and s[ITEM] is not None:
            key = repr(s[ITEM])
            per_item[key] = per_item.get(key, 0) + s[INFO][2]
    return per_item


def dump(path, tracers, context, metrics, span_cap=100_000):
    """Write the context, the metrics, per-name span totals over all
    traced passes, and the first traced pass's exact expansions per item
    and spans (up to span_cap) as one JSON file."""
    totals: dict[str, list] = {}
    for tr in tracers:
        for s, t in zip(tr.spans, self_times(tr.spans)):
            row = totals.setdefault(s[NAME], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s[T1] - s[T0]
            row[2] += t
    first = tracers[0].spans
    origin = first[0][T0] if first else 0.0
    doc = {
        "context": context,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "span_totals": {k: {"calls": c, "incl_s": i, "self_s": t}
                        for k, (c, i, t) in sorted(totals.items())},
        "item_expansions": item_expansions(tracers[0]),
        "spans_total": len(first),
        "spans": [[s[NAME], s[PARENT], None if s[ITEM] is None else repr(s[ITEM]),
                   s[T0] - origin, s[T1] - origin] for s in first[:span_cap]],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
