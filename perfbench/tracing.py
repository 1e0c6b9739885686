"""Per-layer tracing for the traced run.

Every public function of every switchkit module is wrapped, and the wrapper
is installed on each switchkit module attribute bound to that function: a
line such as ``from .split import is_split`` copies the name into the
importing module, so wrapping only the defining module would miss the calls.
Nothing under src/ is edited.  A span's self time is its duration minus the
time its child spans cover.  Totals are kept exactly; the span records
themselves are kept in memory up to SPAN_CAP and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import types
from pathlib import Path
from time import perf_counter

SPAN_CAP = 100_000

# bit-twiddling helpers called from every layer; their time stays with the caller
UNWRAPPED = {"graph.bits_of", "graph.mask_of"}

UPPER_ALGORITHMS = (
    "upper.upper_split",
    "upper.upper_pseudo_split",
    "upper.upper_paw_free",
    "upper.upper_bipartite",
    "upper.upper_bipartite_chain",
    "upper.upper_star_costar",
    "upper.enumerate_upper_split",
)
# membership tests of the upper targets: the attempts behind witness_yield
TARGET_PREDICATES = {
    "split.is_split",
    "split.is_pseudo_split",
    "reference.is_paw_free",
    "reference.is_bipartite",
    "reference.is_triangle_free",
    "reference.is_complete_multipartite",
    "upper.is_bipartite_chain",
    "upper.star_costar_free",
}

# (function, metrics reported for it)
LAYER_FUNCTIONS = (
    ("graphio.parse_graph6", ("calls", "self_s")),
    ("graphio.emit_graph6", ("calls", "self_s")),
    ("graph.switch", ("calls", "self_s")),
    ("graph.induced", ("calls", "self_s")),
    ("canonical.canonical_form", ("calls", "self_s")),
    ("canonical.switching_class", ("calls", "self_s")),
    ("search.find_induced_path", ("calls", "self_s")),
    ("search.find_induced_cycle", ("calls", "self_s")),
    ("search.find_induced_embedding", ("calls", "self_s")),
    ("search.expand_switch_family", ("self_s",)),
    ("split.is_split", ("calls", "self_s")),
    ("split.is_pseudo_split", ("calls", "self_s")),
    ("split.all_split_partition_masks", ("calls", "self_s")),
    ("split.pq_split_partition_masks", ("calls", "self_s")),
    *((name, ("self_s",)) for name in UPPER_ALGORITHMS),
    ("oracle.oracle_upper", ("calls", "self_s")),
    ("oracle.oracle_lower", ("calls", "self_s")),
    ("lower.recognize_lower", ("calls", "self_s")),
    ("lower.lower_family", ("self_s",)),
    ("profiles.match_profile_family", ("calls", "self_s")),
    ("minors.has_minor", ("calls", "self_s")),
    ("reductions.build_p10_instance", ("self_s",)),
    ("reductions.build_c7_instance", ("self_s",)),
    ("reductions.verify_instance", ("calls", "self_s")),
    ("cli.run", ("self_s",)),
)
DERIVED = (
    ("canonical.cache_hit_ratio", "ratio"),
    ("upper.witness_yield", "ratio"),
    ("oracle.switches_per_s", "1/s"),
    ("reference.predicates.calls", "count"),
    ("reference.predicates.self_s", "s"),
    ("cli.start_s", "s"),
)
UNITS = {"calls": "count", "self_s": "s"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = [(f"{fn}.{kind}", UNITS[kind]) for fn, kinds in LAYER_FUNCTIONS for kind in kinds]
    return out + list(DERIVED)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [start, child time, span id]
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.depth = {"upper": 0, "oracle": 0}
        self.outer_seconds = {"upper": 0.0, "oracle": 0.0}
        self.inside = {"upper": 0, "oracle": 0}  # predicate / switch calls
        self.witnesses = 0
        self.spans: list[tuple] = []
        self.dropped = 0
        self.item_id = 0
        self.next_id = 0

    def wrap(self, name: str, fn):
        module = name.split(".", 1)[0]
        stack, stats, depth = self.stack, self.stats, self.depth
        counted_in = []  # layers whose spans count calls of this function
        if name in TARGET_PREDICATES:
            counted_in.append("upper")
        if name == "graph.switch":
            counted_in.append("oracle")
        is_algorithm = name in UPPER_ALGORITHMS
        stat = stats.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for m in counted_in:
                if depth[m]:
                    self.inside[m] += 1
            outermost = module in depth and depth[module] == 0
            if module in depth:
                depth[module] += 1
            self.next_id += 1
            span_id = self.next_id
            parent = stack[-1][2] if stack else 0
            frame = [perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                stat[0] += 1
                stat[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if module in depth:
                    depth[module] -= 1
                    if outermost:
                        self.outer_seconds[module] += duration
                self._record(span_id, parent, name, frame[0], end)
            if outermost and is_algorithm and result is not None:
                self.witnesses += len(result) if isinstance(result, list) else 1
            return result

        return traced

    def item(self, fn, *args):
        """A root span around one benchmark item; its spans share its id."""
        self.item_id += 1
        self.next_id += 1
        span_id = self.next_id
        frame = [perf_counter(), 0.0, span_id]
        self.stack.append(frame)
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self.stack.pop()
            self._record(span_id, 0, "item", frame[0], end)

    def _record(self, span_id, parent, name, start, end):
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, self.item_id, name, start, end))
        else:
            self.dropped += 1

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "parent", "item", "name", "start", "end"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans, "dropped": self.dropped}, fh)

    def metrics(self, cache_hit_ratio: float, cli_start_s: float) -> dict:
        def stat(name, i):
            return self.stats.get(name, [0, 0.0])[i]

        out = {}
        for fn, kinds in LAYER_FUNCTIONS:
            for kind in kinds:
                out[f"{fn}.{kind}"] = stat(fn, 0 if kind == "calls" else 1)
        attempts = self.inside["upper"]
        oracle_s = self.outer_seconds["oracle"]
        predicates = [n for n in self.stats if n.startswith("reference.is_")]
        derived = {
            "canonical.cache_hit_ratio": cache_hit_ratio,
            "upper.witness_yield": self.witnesses / attempts if attempts else 0.0,
            "oracle.switches_per_s": self.inside["oracle"] / oracle_s if oracle_s else 0.0,
            "reference.predicates.calls": sum(stat(n, 0) for n in predicates),
            "reference.predicates.self_s": sum(stat(n, 1) for n in predicates),
            "cli.start_s": cli_start_s,
        }
        out.update(derived)
        units = dict(metric_names())
        return {k: {"value": v, "unit": units[k]} for k, v in out.items()}


def install(tracer: Tracer) -> None:
    """Wrap every public switchkit function wherever a module binds it."""
    import switchkit

    modules = [
        importlib.import_module(f"switchkit.{info.name}")
        for info in pkgutil.iter_modules(switchkit.__path__)
    ]
    wrappers = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, val in vars(mod).items():
            name = f"{short}.{attr}"
            if (
                isinstance(val, types.FunctionType)
                and val.__module__ == mod.__name__
                and not attr.startswith("_")
                and name not in UNWRAPPED
            ):
                wrappers[val] = tracer.wrap(name, val)
    for mod in (*modules, switchkit):
        for attr, val in list(vars(mod).items()):
            if isinstance(val, types.FunctionType) and val in wrappers:
                setattr(mod, attr, wrappers[val])
