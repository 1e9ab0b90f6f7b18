"""Span recording for the traced run, and the per-layer metrics.

`Recorder.install` replaces each listed public function on its module with
a wrapper that records a span (name, start, end, parent, request id) and
gives `Cyclotomic`'s arithmetic methods count-only wrappers.  Calls inside
a module go through the module's globals, so they are caught too; names a
module bound with `from ... import` are not.  Spans stay in memory until
`dump`.  Recording is for one thread: the benchmark never passes --workers.
"""
from __future__ import annotations

import importlib
import json
import time

# Span layers: metric prefix -> (module, functions).  A layer's time is the
# self time of its spans (duration minus direct child spans); its calls are
# the spans entered from outside the layer.
SPAN_LAYERS = {
    "groups.build": ("groups", ["parse_builtin_spec", "builtin",
                                "direct_product", "from_cayley_table",
                                "from_permutation_generators"]),
    "groups.classes": ("groups", ["conjugacy_classes"]),
    "groups.structure": ("groups", [
        "center", "commutator_of", "commutator_subgroup",
        "centralizer_of_subgroup_mod", "upper_central_series",
        "lower_central_series", "nilpotency_class", "zn", "gamma",
        "normal_subgroups", "quotient", "is_camina_pair"]),
    "chartab.table": ("chartab", ["character_table"]),
    "chartab.class_mult": ("chartab", ["class_mult_coefficients"]),
    "chartab.load": ("chartab", ["load_table"]),
    "chartab.dump": ("chartab", ["dump_table"]),
    "chartab.inner_product": ("chartab", ["inner_product",
                                          "inner_product_on"]),
    "formulas.zeta_char": ("formulas", ["zeta_wn_char", "zeta_w2_frobenius",
                                        "c_wn"]),
    "formulas.closed": ("formulas", [
        "closed_zeta_gcp_center", "closed_zeta_camina3", "closed_zeta_tower",
        "unique_nonlinear_recursion"]),
    "formulas.classify": ("formulas", ["classify"]),
    "formulas.mixed": ("formulas", ["zeta_mixed_theorem21"]),
    "counting.brute": ("counting", ["zeta_brute", "zeta_element_counts"]),
    "words.parse": ("words", ["parse", "wn"]),
    "isoclinism.search": ("isoclinism", ["find_isoclinism"]),
    "isoclinism.scaling": ("isoclinism", ["verify_scaling"]),
    "fileio.import": ("fileio", ["import_group"]),
    "fileio.cache": ("fileio", ["cached_character_table"]),
    "cli.main": ("cli", ["main"]),
}

# Count-only wrappers on Cyclotomic methods.
COUNTED = {
    "cyclotomic.mul_calls": ["__mul__", "__rmul__"],
    "cyclotomic.add_calls": ["__add__", "__radd__", "__sub__", "__rsub__"],
    "cyclotomic.conjugate_calls": ["conjugate"],
    "cyclotomic.rational_calls": ["to_rational", "reduced"],
}


def _evals(args, kwargs, result):
    """Assignments enumerated by zeta_element_counts(G, word, domains)."""
    G, word = args[0], args[1]
    domains = args[2] if len(args) > 2 else kwargs.get("domains")
    sizes = ([G.order] * word.arity if domains is None else
             [G.order if d is None else d.order for d in domains.domains])
    evals = 1
    for s in sizes:
        evals *= s
    return {"evals": evals, "letter_steps": evals * len(word.letters)}


MEASURES = {
    "counting.zeta_element_counts": _evals,
    "words.parse": lambda a, k, r: {"letters": len(r.letters)},
    "words.wn": lambda a, k, r: {"letters": len(r.letters)},
    "chartab.load_table": lambda a, k, r: {"bytes": len(a[1])},
    "chartab.dump_table": lambda a, k, r: {"bytes": len(r)},
}


class Recorder:
    def __init__(self):
        # span: [name, layer, start_ns, end_ns, parent, request, extra]
        self.spans = []
        self.stack = []
        self.request = None
        self.counts = dict.fromkeys(COUNTED, 0)

    def wrap(self, name, layer, fn):
        spans, stack, measure = self.spans, self.stack, MEASURES.get(name)
        clock = time.perf_counter_ns
        rec = self

        def wrapper(*args, **kwargs):
            span = [name, layer, clock(), 0, stack[-1] if stack else -1,
                    rec.request, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if measure is not None:
                span[6] = measure(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def install(self):
        for layer, (modname, names) in SPAN_LAYERS.items():
            module = importlib.import_module(f"wordcount.{modname}")
            for fname in names:
                setattr(module, fname, self.wrap(
                    f"{modname}.{fname}", layer, getattr(module, fname)))
        cyc = importlib.import_module("wordcount.cyclotomic").Cyclotomic
        for key, methods in COUNTED.items():
            for m in methods:
                setattr(cyc, m, self._counter(key, getattr(cyc, m)))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans):
    """Self time (ns) of each span: duration minus its direct children's."""
    child = [0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    return [s[3] - s[2] - c for s, c in zip(spans, child)]


def summarize(spans, counts):
    """Per-layer sums for one process's spans."""
    acc = {"time": {}, "calls": {}, "names": {}, "extra": {},
           "cache": {"hit_ns": 0, "miss_ns": 0, "hits": 0, "misses": 0,
                     "bytes": 0},
           "main_ns": 0, "counts": dict(counts)}
    selfs = self_times(spans)
    hit = {}
    for s in spans:
        parent = spans[s[4]] if s[4] >= 0 else None
        if parent is not None and parent[0] == "fileio.cached_character_table":
            if s[0] == "chartab.load_table":
                hit[s[4]] = True
            if s[6] and "bytes" in s[6]:
                acc["cache"]["bytes"] += s[6]["bytes"]
    for i, (s, own) in enumerate(zip(spans, selfs)):
        name, layer = s[0], s[1]
        acc["time"][layer] = acc["time"].get(layer, 0) + own
        acc["names"][name] = acc["names"].get(name, 0) + 1
        entered = s[4] < 0 or spans[s[4]][1] != layer
        if entered:
            acc["calls"][layer] = acc["calls"].get(layer, 0) + 1
        for key, value in (s[6] or {}).items():
            # a word built inside another word-building call is not a new word
            if entered or key != "letters":
                acc["extra"][key] = acc["extra"].get(key, 0) + value
        if name == "fileio.cached_character_table":
            if hit.get(i):
                acc["cache"]["hit_ns"] += own
                acc["cache"]["hits"] += 1
            else:
                acc["cache"]["miss_ns"] += own
                acc["cache"]["misses"] += 1
        if name == "cli.main":
            acc["main_ns"] += s[3] - s[2]
    return acc


def merge(a, b):
    """Sum two summaries (nested dicts of numbers)."""
    out = dict(a)
    for key, value in b.items():
        if isinstance(value, dict):
            out[key] = merge(a.get(key, {}), value)
        else:
            out[key] = a.get(key, 0) + value
    return out


# (name, unit, better); the order is the report's.
LAYER_METRICS = [
    ("groups.build_s", "s", "lower"), ("groups.build_calls", "count", "lower"),
    ("groups.classes_s", "s", "lower"),
    ("groups.classes_calls", "count", "lower"),
    ("groups.structure_s", "s", "lower"),
    ("groups.structure_calls", "count", "lower"),
    ("groups.camina_pair_calls", "count", "lower"),
    ("chartab.table_s", "s", "lower"),
    ("chartab.table_calls", "count", "lower"),
    ("chartab.class_mult_calls", "count", "lower"),
    ("chartab.class_mult_s", "s", "lower"), ("chartab.load_s", "s", "lower"),
    ("chartab.dump_s", "s", "lower"),
    ("chartab.inner_product_s", "s", "lower"),
    ("chartab.table_reuse", "ratio", "higher"),
    ("cyclotomic.mul_calls", "count", "lower"),
    ("cyclotomic.add_calls", "count", "lower"),
    ("cyclotomic.conjugate_calls", "count", "lower"),
    ("cyclotomic.rational_calls", "count", "lower"),
    ("formulas.zeta_char_s", "s", "lower"),
    ("formulas.zeta_char_calls", "count", "lower"),
    ("formulas.c_wn_calls", "count", "lower"),
    ("formulas.closed_s", "s", "lower"), ("formulas.classify_s", "s", "lower"),
    ("formulas.mixed_s", "s", "lower"),
    ("counting.brute_s", "s", "lower"),
    ("counting.brute_calls", "count", "lower"),
    ("counting.evals", "count", "lower"),
    ("counting.letter_steps", "count", "lower"),
    ("counting.evals_per_s", "1/s", "higher"),
    ("words.parse_s", "s", "lower"), ("words.letters", "count", "lower"),
    ("isoclinism.search_s", "s", "lower"),
    ("isoclinism.scaling_s", "s", "lower"),
    ("fileio.import_s", "s", "lower"), ("fileio.cache_hit_s", "s", "lower"),
    ("fileio.cache_miss_s", "s", "lower"),
    ("fileio.cache_hits", "count", "higher"),
    ("fileio.cache_misses", "count", "lower"),
    ("fileio.cache_bytes", "B", "lower"),
    ("cli.main_s", "s", "lower"), ("cli.startup_s", "s", "lower"),
]

# Workloads on which each metric must be nonzero in the traced run, from
# the map of which end-to-end metric each layer should move (README.md).
_BOTH = ("tables-cli", "catalog-session")
DRIVEN_ON = {
    **{m: _BOTH for m, _, _ in LAYER_METRICS
       if m.split(".")[0] in ("groups", "chartab", "cyclotomic", "formulas")},
    **{m: ("brute-cli",) for m, _, _ in LAYER_METRICS
       if m.split(".")[0] in ("counting", "words")},
    **{m: ("tables-cli",) for m, _, _ in LAYER_METRICS
       if m.split(".")[0] in ("isoclinism", "fileio")},
    "chartab.load_s": ("tables-cli",),
    "chartab.dump_s": ("tables-cli",),
    "chartab.inner_product_s": ("catalog-session",),
    "chartab.table_reuse": ("catalog-session",),
    "formulas.mixed_s": ("catalog-session",),
    "cli.main_s": ("tables-cli", "brute-cli"),
    "cli.startup_s": ("tables-cli", "brute-cli"),
}


def layer_metrics(acc, cli_latency_s=0.0):
    """Every per-layer metric from a merged summary.  `cli_latency_s` is the
    summed latency of the CLI requests, so cli.startup_s is the part of it
    spent outside cli.main (interpreter start, imports, exit)."""
    t = {k: v / 1e9 for k, v in acc["time"].items()}
    calls, names, extra = acc["calls"], acc["names"], acc["extra"]
    cache, counts = acc["cache"], acc["counts"]
    table_calls = calls.get("chartab.table", 0)
    class_mult = calls.get("chartab.class_mult", 0)
    brute_s = t.get("counting.brute", 0.0)
    out = {}
    for layer in ("groups.build", "groups.classes", "groups.structure",
                  "chartab.table", "chartab.class_mult", "formulas.zeta_char",
                  "counting.brute"):
        out[layer + "_s"] = t.get(layer, 0.0)
        out[layer + "_calls"] = calls.get(layer, 0)
    for layer in ("chartab.load", "chartab.dump", "chartab.inner_product",
                  "formulas.closed", "formulas.classify", "formulas.mixed",
                  "words.parse", "isoclinism.search", "isoclinism.scaling",
                  "fileio.import", "cli.main"):
        out[layer + "_s"] = t.get(layer, 0.0)
    out["groups.camina_pair_calls"] = names.get("groups.is_camina_pair", 0)
    out["formulas.c_wn_calls"] = names.get("formulas.c_wn", 0)
    out["chartab.table_reuse"] = (1 - class_mult / table_calls
                                  if table_calls else 0.0)
    out.update(counts)
    out["counting.evals"] = extra.get("evals", 0)
    out["counting.letter_steps"] = extra.get("letter_steps", 0)
    out["counting.evals_per_s"] = (out["counting.evals"] / brute_s
                                   if brute_s else 0.0)
    out["words.letters"] = extra.get("letters", 0)
    out["fileio.cache_hit_s"] = cache["hit_ns"] / 1e9
    out["fileio.cache_miss_s"] = cache["miss_ns"] / 1e9
    out["fileio.cache_hits"] = cache["hits"]
    out["fileio.cache_misses"] = cache["misses"]
    out["fileio.cache_bytes"] = cache["bytes"]
    out["cli.startup_s"] = (cli_latency_s - acc["main_ns"] / 1e9
                            if acc["main_ns"] else 0.0)
    return {name: out[name] for name, _, _ in LAYER_METRICS}
