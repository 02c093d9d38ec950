"""Per-layer spans around entdist's cross-module calls.

A ``Tracer`` replaces, for the duration of one CLI run, the names that one
entdist module looks up in another (``entdist.ml.estimate_distance``,
``EstimatorConfig.derive``, ``RealVector.norm`` and so on) with wrappers
that record a span (name, start, end, parent).  Spans stay in memory and
are written as JSON lines when the run ends; ``uninstall`` puts every
original object back.  ``summarize`` turns a span file into per-name call
counts, inclusive time and self time (a span's duration minus the part its
child spans cover).

Span names are ``<layer>.<function>``, where the layer is the entdist
module that owns the function.  ``core`` has no span: no CLI path runs it.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (owner, attribute, span name): every lookup a CLI run makes across a
# module boundary, patched where the caller looks it up.  An owner is a
# module, or "module:Class" for a method.
FUNCTION_TARGETS = (
    ("entdist.cli", "fig2_run", "experiments.fig2_run"),
    ("entdist.cli", "nn_run", "experiments.nn_run"),
    ("entdist.cli", "cluster_run", "experiments.cluster_run"),
    ("entdist.cli", "table_run", "experiments.table_run"),
    ("entdist.cli", "estimate_run", "experiments.estimate_run"),
    ("entdist.cli", "classify_two_cluster", "ml.classify_two_cluster"),
    ("entdist.cli", "nearest_neighbor_classify", "ml.nearest_neighbor_classify"),
    ("entdist.cli", "polar_scatter_svg", "svgplot.polar_scatter_svg"),
    ("entdist.cli", "cartesian_scatter_svg", "svgplot.cartesian_scatter_svg"),
    ("entdist.experiments", "fig2_test_vectors", "datasets.fig2_test_vectors"),
    ("entdist.experiments", "fig2_references", "datasets.fig2_references"),
    ("entdist.experiments", "classify_two_cluster", "ml.classify_two_cluster"),
    ("entdist.experiments", "nearest_neighbor_classify", "ml.nearest_neighbor_classify"),
    ("entdist.experiments", "unsupervised_cluster", "ml.unsupervised_cluster"),
    ("entdist.experiments", "estimate_distance", "protocol.estimate_distance"),
    ("entdist.ml", "estimate_distance", "protocol.estimate_distance"),
    ("entdist.protocol", "exact_p", "protocol.exact_p"),
    ("entdist.protocol", "apply_noise", "noise.apply_noise"),
    ("entdist.protocol:EstimatorConfig", "derive", "protocol.derive"),
    ("entdist.protocol:DistanceQuery", "__post_init__", "protocol.query_init"),
    ("entdist.vectors:RealVector", "__post_init__", "vectors.construct"),
)


def resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans for one process; install, run, uninstall, write."""

    def __init__(self):
        self.spans: list = []  # (name, parent id, start, end); id = list index
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._patches: list = []  # (owner, attribute, original)

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, start, end)

        return traced

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        for owner_name, attribute, name in FUNCTION_TARGETS:
            owner = resolve(owner_name)
            self._patch(owner, attribute, self.wrap(name, getattr(owner, attribute)))

        protocol, cli = resolve("entdist.protocol"), resolve("entdist.cli")
        real_vector = resolve("entdist.vectors:RealVector")
        sample_p = protocol.sample_p
        counters = self.counters

        def counted_sample_p(query, cfg):
            counters["protocol.shots"] += cfg.shots
            return sample_p(query, cfg)

        self._patch(protocol, "sample_p", self.wrap("protocol.sample_p", counted_sample_p))

        contour_segments = cli.contour_segments

        def counted_contour(f, *args, **kwargs):
            def counted_f(x, y):
                counters["svgplot.contour_evals"] += 1
                return f(x, y)

            return contour_segments(counted_f, *args, **kwargs)

        self._patch(cli, "contour_segments", self.wrap("svgplot.contour_segments", counted_contour))

        norm = real_vector.__dict__["norm"]
        self._patch(real_vector, "norm", property(self.wrap("vectors.norm", norm.fget)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def run_main(self, argv) -> int:
        return self.wrap("cli.main", resolve("entdist.cli").main)(argv)

    def write(self, path) -> None:
        # span names are plain identifiers, so formatting by hand is valid
        # JSON and several times faster than json.dumps per line
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(
                f'{{"id": {sid}, "name": "{name}", "parent": {parent}, '
                f'"start": {start!r}, "end": {end!r}}}\n'
                for sid, (name, parent, start, end) in enumerate(self.spans)
            )


def summarize(path) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds."""
    names, parents, durations = [], [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            names.append(span["name"])
            parents.append(span["parent"])
            durations.append(span["end"] - span["start"])
    child_time = [0.0] * len(names)
    for parent, duration in zip(parents, durations):
        if parent >= 0:
            child_time[parent] += duration
    stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for name, duration, children in zip(names, durations, child_time):
        entry = stats[name]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - children
    return dict(stats)


def _sum(stats: dict, prefix: str, key: str) -> float:
    return sum(entry[key] for name, entry in stats.items() if name.startswith(prefix))


def layer_metrics(stats: dict, sample: dict) -> dict[str, float]:
    """The per-layer metrics of one traced process.

    ``<layer>.self_s`` sums self time over the layer's spans; a metric named
    after one function is that function's self time, except
    ``protocol.estimate_s``, ``datasets.generate_s`` and
    ``svgplot.contour_s``, which are inclusive.  ``sample`` supplies the
    counters, the logical query count, the output sizes and the rounds.
    """

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def self_s(name):
        return stats.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return stats.get(name, {}).get("total_s", 0.0)

    counters = sample["counters"]
    queries = calls("protocol.estimate_distance")
    per_query = (lambda n: n / queries) if queries else (lambda n: 0.0)
    return {
        "cli.self_s": _sum(stats, "cli.", "self_s"),
        "cli.bytes_written": sample["bytes"]["data"],
        "experiments.self_s": _sum(stats, "experiments.", "self_s"),
        "datasets.generate_s": total_s("datasets.fig2_test_vectors"),
        "ml.self_s": _sum(stats, "ml.", "self_s"),
        "ml.calls": _sum(stats, "ml.", "calls"),
        "ml.rounds": sample["rounds"],
        "protocol.queries": queries,
        "protocol.estimate_s": total_s("protocol.estimate_distance"),
        "protocol.self_s": _sum(stats, "protocol.", "self_s"),
        "protocol.exact_p_s": self_s("protocol.exact_p"),
        "protocol.sample_s": self_s("protocol.sample_p"),
        "protocol.shots": counters.get("protocol.shots", 0),
        "protocol.derive_s": self_s("protocol.derive"),
        "protocol.streams": calls("protocol.derive"),
        "protocol.streams_per_query": per_query(calls("protocol.derive")),
        "protocol.useful_query_ratio": per_query(sample["logical_queries"]),
        "noise.apply_s": self_s("noise.apply_noise"),
        "noise.calls": calls("noise.apply_noise"),
        "vectors.constructed": calls("vectors.construct"),
        "vectors.construct_s": self_s("vectors.construct"),
        "vectors.norm_calls": calls("vectors.norm"),
        "vectors.norm_calls_per_query": per_query(calls("vectors.norm")),
        "svgplot.contour_s": total_s("svgplot.contour_segments"),
        "svgplot.contour_evals": counters.get("svgplot.contour_evals", 0),
        "svgplot.render_s": self_s("svgplot.polar_scatter_svg")
        + self_s("svgplot.cartesian_scatter_svg"),
        "svgplot.bytes": sample["bytes"]["svg"],
        "trace.spans": sum(entry["calls"] for entry in stats.values()),
    }
