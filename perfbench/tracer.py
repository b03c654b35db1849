"""Span tracing of toricspec layers, installed from outside the library.

`install` wraps the public functions listed in TARGETS and rebinds each
wrapper in every toricspec module namespace that holds the original (the
library imports most names with `from ... import name`).  Every call records
a span (target, via, start, end, parent, job, value) in memory; `via` is the
namespace the call went through, so calls issued by `minimal` can be told
apart from calls issued by `cli`.  `aggregate` turns the spans of a pass into
per-target calls, self time (duration minus the time of child spans) and
value sums.

A target whose name no longer exists in the library is skipped and reported
as absent; the tracer never fails on API churn.
"""

import functools
import importlib
import sys
import time
from fractions import Fraction

LAYERS = ("cli", "polytope", "lattice", "quadforms", "oracle", "laurent", "groebner", "polys", "minimal")

# (module, attribute path, metric stem).  Several targets may share a stem;
# their spans are summed (the three multiplication entry points of Poly).
TARGETS = (
    ("cli", "run", "cli.run"),
    ("polytope", "validate", "polytope.validate"),
    ("polytope", "toric_data", "polytope.toric_data"),
    ("polytope", "rational_feasible", "polytope.rational_feasible"),
    ("polytope", "find_positive_b", "polytope.find_positive_b"),
    ("lattice", "integer_kernel", "lattice.integer_kernel"),
    ("lattice", "hermite_normal_form", "lattice.hermite_normal_form"),
    ("lattice", "rref", "lattice.rref"),
    ("lattice", "solve_integer", "lattice.solve_integer"),
    ("oracle", "feasible_supports", "oracle.feasible_supports"),
    ("oracle", "spectrum", "oracle.spectrum"),
    ("quadforms", "spectrum", "quadforms.spectrum"),
    ("laurent", "MonomialModule.generators", "laurent.generators"),
    ("laurent", "membership", "laurent.membership"),
    ("laurent", "membership_certified", "laurent.membership_certified"),
    ("laurent", "restrict", "laurent.restrict"),
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "saturate", "groebner.saturate"),
    ("groebner", "normal_form", "groebner.normal_form"),
    ("polys", "Poly.__mul__", "polys.mul"),
    ("polys", "Poly.term_mul", "polys.mul"),
    ("polys", "Poly.__pow__", "polys.mul"),
    ("minimal", "find_minimal_degree_element", "minimal.find_minimal_degree_element"),
    ("minimal", "nullstellensatz_exponents", "minimal.nullstellensatz_exponents"),
    ("minimal", "translated_point_bound", "minimal.translated_point_bound"),
)


def _componentwise_minimal_count(exps_list) -> int:
    """Generators not above another generator in every coordinate."""
    kept = []
    for e in sorted(set(exps_list), key=lambda g: (sum(g), g)):
        if not any(all(a >= b for a, b in zip(e, f)) for f in kept):
            kept.append(e)
    return len(kept)


def _value_of(stem, args, result, memo):
    """The per-span value a metric needs beyond calls and time."""
    if stem == "laurent.generators":
        key = args
        if key not in memo:
            memo[key] = (len(result), _componentwise_minimal_count(result))
        return memo[key]
    if stem == "laurent.membership":
        return 1 if result else 0
    if stem in ("groebner.buchberger", "oracle.feasible_supports"):
        return len(result)
    return None


class Tracer:
    def __init__(self):
        self.names = []   # span name id -> [stem, via]
        self.spans = []   # (name id, start, end, parent span index, job, value)
        self.stack = []
        self.job = None
        self.absent = []
        self._memo = {}

    def _wrap(self, fn, stem, via):
        name_id = len(self.names)
        self.names.append([stem, via])
        spans, stack, memo = self.spans, self.stack, self._memo
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name_id, start, clock(), parent, self.job, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[index] = (name_id, start, end, parent, self.job, _value_of(stem, args, result, memo))
            return result

        return traced

    def install(self):
        """Wrap every target; rebind in each namespace holding the original."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"toricspec.{layer}")
            except ImportError:
                continue
        namespaces = [m for name, m in sys.modules.items() if name == "toricspec" or name.startswith("toricspec.")]
        for layer, path, stem in TARGETS:
            owner = modules.get(layer)
            head, _, attr = path.rpartition(".")
            holder = getattr(owner, head, None) if head else owner
            original = getattr(holder, attr, None) if holder is not None else None
            if original is None or not callable(original):
                self.absent.append(f"{layer}.{path}")
                continue
            if head:
                setattr(holder, attr, self._wrap(original, stem, layer))
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        via = ns.__name__.rpartition(".")[2]
                        setattr(ns, key, self._wrap(original, stem, via))

    def dump(self):
        return {"names": self.names, "spans": self.spans, "absent": self.absent}


def aggregate(dumps):
    """Per-stem totals over worker dumps: calls, self_s, value sums, and
    calls broken down by the namespace they went through."""
    out = {}
    parents_of_feasibility = 0
    for dump in dumps:
        names, spans = dump["names"], dump["spans"]
        child_time = [0.0] * len(spans)
        for name_id, start, end, parent, _job, _value in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name_id, start, end, parent, _job, value) in enumerate(spans):
            stem, via = names[name_id]
            entry = out.setdefault(stem, {"calls": 0, "self_s": 0.0, "value": None, "via": {}})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            entry["via"][via] = entry["via"].get(via, 0) + 1
            if value is not None:
                if isinstance(value, (list, tuple)):
                    prev = entry["value"] or [0] * len(value)
                    entry["value"] = [a + b for a, b in zip(prev, value)]
                else:
                    entry["value"] = (entry["value"] or 0) + value
            if stem == "polytope.rational_feasible" and parent >= 0:
                if names[spans[parent][0]][0] == "oracle.feasible_supports":
                    parents_of_feasibility += 1
    out["_feasibility_tests"] = parents_of_feasibility
    return out


def _ratio(num, den):
    return float(Fraction(num, den)) if den else 0.0


def layer_metrics(agg) -> dict:
    """The per-layer metrics of BENCHMARK.json from an aggregate."""

    empty = {"calls": 0, "self_s": 0.0, "value": None, "via": {}}

    def get(stem, field="calls"):
        value = agg.get(stem, empty)[field]
        return 0 if value is None else value

    m = {}
    gen_value = get("laurent.generators", "value") or [0, 0]
    queries = get("laurent.membership")
    m["laurent.generators.calls"] = get("laurent.generators")
    m["laurent.generators.self_s"] = get("laurent.generators", "self_s")
    m["laurent.generators.count"] = gen_value[0]
    m["laurent.generators.calls_per_query"] = _ratio(get("laurent.generators"), queries)
    m["laurent.generators.minimal_frac"] = _ratio(gen_value[1], gen_value[0])
    m["laurent.membership.calls"] = queries
    m["laurent.membership.self_s"] = get("laurent.membership", "self_s")
    m["laurent.membership.member_frac"] = _ratio(get("laurent.membership", "value"), queries)
    m["laurent.restrict.calls"] = get("laurent.restrict")
    m["laurent.restrict.self_s"] = get("laurent.restrict", "self_s")
    m["groebner.buchberger.calls"] = get("groebner.buchberger")
    m["groebner.buchberger.self_s"] = get("groebner.buchberger", "self_s")
    m["groebner.buchberger.basis_len"] = _ratio(get("groebner.buchberger", "value"), get("groebner.buchberger"))
    m["groebner.saturate.calls"] = get("groebner.saturate")
    m["groebner.saturate.self_s"] = get("groebner.saturate", "self_s")
    m["groebner.normal_form.calls"] = get("groebner.normal_form")
    m["groebner.normal_form.self_s"] = get("groebner.normal_form", "self_s")
    m["polys.mul.calls"] = get("polys.mul")
    m["polys.self_s"] = get("polys.mul", "self_s")
    m["minimal.find_minimal_degree_element.self_s"] = get("minimal.find_minimal_degree_element", "self_s")
    m["minimal.nullstellensatz_exponents.self_s"] = get("minimal.nullstellensatz_exponents", "self_s")
    m["minimal.membership.calls"] = get("laurent.membership", "via").get("minimal", 0)
    m["minimal.membership_certified.calls"] = get("laurent.membership_certified", "via").get("minimal", 0)
    m["polytope.validate.calls"] = get("polytope.validate")
    m["polytope.validate.self_s"] = get("polytope.validate", "self_s")
    m["polytope.toric_data.self_s"] = get("polytope.toric_data", "self_s")
    m["polytope.rational_feasible.calls"] = get("polytope.rational_feasible")
    m["polytope.rational_feasible.self_s"] = get("polytope.rational_feasible", "self_s")
    m["polytope.find_positive_b.self_s"] = get("polytope.find_positive_b", "self_s")
    m["lattice.integer_kernel.calls"] = get("lattice.integer_kernel")
    m["lattice.integer_kernel.self_s"] = get("lattice.integer_kernel", "self_s")
    m["lattice.hermite_normal_form.self_s"] = get("lattice.hermite_normal_form", "self_s")
    m["lattice.rref.calls"] = get("lattice.rref")
    m["lattice.rref.self_s"] = get("lattice.rref", "self_s")
    m["lattice.solve_integer.self_s"] = get("lattice.solve_integer", "self_s")
    m["oracle.feasible_supports.self_s"] = get("oracle.feasible_supports", "self_s")
    m["oracle.feasible_supports.hit_ratio"] = _ratio(
        get("oracle.feasible_supports", "value"), agg.get("_feasibility_tests", 0)
    )
    m["oracle.spectrum.self_s"] = get("oracle.spectrum", "self_s")
    m["quadforms.spectrum.calls"] = get("quadforms.spectrum")
    m["quadforms.spectrum.self_s"] = get("quadforms.spectrum", "self_s")
    m["cli.run.calls"] = get("cli.run")
    m["cli.run.self_s"] = get("cli.run", "self_s")
    return m
