"""Spans around the public entry points of the bourbaki modules.

``install`` replaces each traced function with a wrapper in every bourbaki
module that holds it, including the names one module imports from another
(``bourbaki.function.to_ternary``, ``bourbaki.antiderivative.from_ternary``),
and returns a callable that puts the originals back.  Nothing in ``src/`` is
changed.  Helpers that run once per base-3 digit (``check_unit_interval``,
``affine_compose``, ``digit_step_map``, ``F_digit_step``, ``digit_stream``)
are left unwrapped, so a digit walk is charged to the entry point that runs
it and tracing does not add a call per digit.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict

LAYERS = ("cli", "ternary", "function", "antiderivative", "geometry", "render", "verify")

TRACED = {
    "ternary": ("to_ternary", "from_ternary", "compose_chain", "affine_fixed_point"),
    "function": (
        "build_iterate", "eval_iterate", "ifs_refine", "eval_exact", "bracket_value",
        "closed_form_value", "parse_decimal", "approx_eval", "classical_table",
    ),
    "antiderivative": (
        "build_F_iterate", "eval_F_exact", "integral_symmetric", "range_integral",
        "integral_closed_form",
    ),
    "geometry": (
        "box_count", "dimension_estimate", "cover_level", "interval_mass", "mass_measure",
        "mass_bound_check", "arc_length", "arc_length_profile", "iter_segment_squares",
    ),
    "render": ("format_rational", "decimal_12", "format_value", "csv_table", "svg_polyline"),
    "verify": ("run_verification",),
    "cli": ("run", "build_parser"),
}

SUITES = ("symmetry", "scaling", "integrals", "geometry", "family")

# Span fields: name, start, end, parent index (-1 for none), operation id, raised.
NAME, START, END, PARENT, OP, RAISED = range(6)


class Tracer:
    """Spans and counters of one traced pass, held in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(int)

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.op, False])
        self.stack.append(index)
        return index

    def end(self, index: int, raised: bool = False) -> None:
        span = self.spans[index]
        span[END] = self.clock()
        span[RAISED] = raised
        self.stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.end(index, raised=True)
            raise
        self.end(index)
        return result

    def add(self, key: str, amount: int) -> None:
        self.counters[key] += amount

    def raise_max(self, key: str, value: int) -> None:
        self.counters[key] = max(self.counters[key], value)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(
                    {"name": s[NAME], "start": s[START], "end": s[END],
                     "parent": s[PARENT], "op": s[OP], "raised": s[RAISED]}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one process nest, so the children of a span cover disjoint parts
    of its interval.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _after_to_ternary(t: Tracer, args, result) -> None:
    t.add("ternary.period_digits", len(result.period))
    t.raise_max("ternary.period_max", len(result.period))


def _after_rendered(t: Tracer, args, result) -> None:
    t.add("render.bytes", len(result))


def _after_arc_profile(t: Tracer, args, result) -> None:
    # Computed, not counted: one Decimal.sqrt per segment, 3**level per level.
    t.add("geometry.sqrt_calls", (3 ** (args[0] + 1) - 1) // 2)


AFTER = {
    "ternary.to_ternary": _after_to_ternary,
    "function.eval_exact": lambda t, args, r: t.raise_max("function.value_bits_max", _bits(r)),
    "function.build_iterate": lambda t, args, r: t.add("function.build_iterate.points", len(r)),
    "render.format_value": _after_rendered,
    "render.csv_table": _after_rendered,
    "render.svg_polyline": _after_rendered,
    "geometry.cover_level": lambda t, args, r: t.add("geometry.cover_level.rects", len(r)),
    "geometry.arc_length_profile": _after_arc_profile,
    "verify.run_verification": lambda t, args, r: t.add("verify.checks", r.cases),
}


def _traced_iterator(tracer: Tracer, name: str, iterator):
    """Re-yield ``iterator`` with one span per resumption, since a generator's
    work happens while it is consumed, not when it is created."""
    while True:
        index = tracer.begin(name)
        try:
            item = next(iterator)
        except StopIteration:
            tracer.end(index)
            return
        except BaseException:
            tracer.end(index, raised=True)
            raise
        tracer.end(index)
        yield item


def wrap(tracer: Tracer, name: str, fn):
    after = AFTER.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.calls[name] += 1
        result = tracer.span(name, fn, *args, **kwargs)
        if after is not None:
            after(tracer, args, result)
        if isinstance(result, types.GeneratorType):
            return _traced_iterator(tracer, name, result)
        return result

    return traced


def _wrap_suite(tracer: Tracer, name: str, fn):
    def traced(check, rng, samples):
        tracer.calls[name] += 1
        before = check.cases
        try:
            return tracer.span(name, fn, check, rng, samples)
        finally:
            tracer.add(f"{name}.checks", check.cases - before)

    return traced


def install(tracer: Tracer):
    """Wrap every traced function wherever a bourbaki module binds it."""
    import bourbaki.cli  # noqa: F401  (the package imports every other submodule)

    wrappers = {}
    for layer, names in TRACED.items():
        module = sys.modules[f"bourbaki.{layer}"]
        for attr in names:
            original = getattr(module, attr)
            wrappers[id(original)] = wrap(tracer, f"{layer}.{attr}", original)
    undo = []
    for modname, module in list(sys.modules.items()):
        if modname != "bourbaki" and not modname.startswith("bourbaki."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                undo.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
    suites = sys.modules["bourbaki.verify"]._SUITES
    saved_suites = dict(suites)
    for name, fn in saved_suites.items():
        suites[name] = _wrap_suite(tracer, f"verify.suite.{name}", fn)

    def uninstall() -> None:
        for module, attr, value in undo:
            setattr(module, attr, value)
        suites.update(saved_suites)

    return uninstall


def layer_metrics(tracer: Tracer, traced_s: float) -> dict[str, float]:
    """Per-layer figures of one traced pass that took ``traced_s`` seconds."""
    total = defaultdict(float)
    own_by_name = defaultdict(float)
    raised = defaultdict(int)
    for s, own in zip(tracer.spans, self_times(tracer.spans)):
        total[s[NAME]] += s[END] - s[START]
        own_by_name[s[NAME]] += own
        raised[s[NAME]] += s[RAISED]
    out: dict[str, float] = {}
    for name in (
        "ternary.to_ternary", "ternary.from_ternary", "function.eval_exact",
        "function.approx_eval", "function.build_iterate", "antiderivative.eval_F_exact",
        "antiderivative.build_F_iterate", "render.csv_table", "render.svg_polyline",
        "render.format_value", "geometry.arc_length_profile", "geometry.cover_level",
        "geometry.box_count",
    ) + tuple(f"verify.suite.{s}" for s in SUITES):
        out[f"{name}.s"] = total[name]
        if not name.startswith("verify.suite."):
            out[f"{name}.calls"] = tracer.calls[name]
    out["function.eval_exact.self_s"] = own_by_name["function.eval_exact"]
    out["antiderivative.eval_F_exact.self_s"] = own_by_name["antiderivative.eval_F_exact"]
    out["render.format_value.failed"] = raised["render.format_value"]
    for key in (
        "ternary.period_digits", "ternary.period_max", "function.value_bits_max",
        "function.build_iterate.points", "render.bytes", "geometry.sqrt_calls",
        "geometry.cover_level.rects", "verify.checks",
    ) + tuple(f"verify.suite.{s}.checks" for s in SUITES):
        out[key] = tracer.counters[key]
    out["cli.calls"] = tracer.calls["cli.run"]
    attributed = 0.0
    for layer in LAYERS:
        own = sum(v for k, v in own_by_name.items() if k.split(".", 1)[0] == layer)
        out[f"layer.{layer}.self_s"] = own
        attributed += own
    out["unattributed_s"] = traced_s - attributed
    return out
