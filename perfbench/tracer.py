"""Spans and counters at palfkit's module boundaries, installed from outside.

The tracer replaces public functions with timing wrappers in every palfkit
module that binds them (the defining module and each importer), so calls
from any caller are seen exactly once.  Nothing here is imported by an
untraced run.

Each wrapped call is a span: name, start, end, parent span and op.  A
span's self time is its duration minus the time its child spans cover.
``words.free_reduce`` and ``words.substitute`` run millions of times per
run; they are counted and timed (and their time is removed from their
parent's self time) but not kept as individual span records.
"""

from __future__ import annotations

import importlib
import math
from time import perf_counter

# Functions on the paths the three workloads run, by defining module; a span
# is named "<module>.<function>".
TARGETS = {
    "cli": ("main",),
    "report": ("build_family_report", "report_to_json", "homology_summary"),
    "grammar": ("parse_presentation", "parse_monodromy"),
    "lefschetz": (
        "mazur_family",
        "homology",
        "allowable",
        "pi1_presentation",
        "boundary_is_homology_sphere",
        "boundary_matrix",
        "family_curves",
        "family_twists",
    ),
    "intmatrix": ("smith_normal_form", "det", "cokernel_invariants", "kernel_rank"),
    "presentation": ("simplify_presentation",),
    "surface": ("compose", "power", "apply", "dehn_twist", "twist_of_image", "standard_curve"),
    "groupring": ("fox_derivative", "abelianize"),
    "knots": (
        "alexander_from_presentation",
        "fox_milnor_compose",
        "casson_surgery",
        "ribbon_presentation",
        "closed_form_factor",
        "closed_form_delta",
    ),
    "words": ("free_reduce", "substitute", "are_conjugate"),
}
AGGREGATED = {"words.free_reduce", "words.substitute"}
MODULES = tuple(TARGETS)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (span id, parent id, op, name, start, end)
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.family_points: list[tuple[int, float]] = []  # (n, mazur_family span seconds)
        self.op = -1
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        keep = name not in AGGREGATED
        observe = _OBSERVERS.get(name)
        calls[name] = 0
        self_s[name] = 0.0

        def traced(*args, **kwargs):
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                if keep:
                    spans.append((frame[0], parent[0] if parent else None, self.op, name, start, end))
            if observe is not None:
                observe(self, args, result, duration)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"palfkit.{m}") for m in MODULES]
        for short, names in TARGETS.items():
            home = importlib.import_module(f"palfkit.{short}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, value))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- results -------------------------------------------------------------

    def root_seconds(self) -> dict[int, float]:
        """Per op, the time covered by its top-level spans."""
        out: dict[int, float] = {}
        for _sid, parent, op, _name, start, end in self.spans:
            if parent is None:
                out[op] = out.get(op, 0.0) + end - start
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the two ``trace.*`` ones, which the
        caller measures around the traced run."""
        c, calls, self_s = self.counters, self.calls, self.self_s
        letters_in = c.get("words.free_reduce.letters_in", 0)
        attempts = calls["presentation.simplify_presentation"]
        out = {f"{name}.calls": calls[name] for name in COUNTED}
        out.update({f"{name}.self_s": self_s[name] for name in TIMED})
        out.update({
            "words.free_reduce.letters_in": letters_in,
            "words.free_reduce.keep_ratio": c.get("words.free_reduce.letters_out", 0) / letters_in if letters_in else 0.0,
            "lefschetz.mazur_family.growth_exp": growth_exponent(self.family_points),
            "lefschetz.gamma_len": c.get("lefschetz.gamma_len", 0),
            "presentation.moves": c.get("presentation.moves", 0),
            "presentation.trivial_ratio": c.get("presentation.trivial", 0) / attempts if attempts else 0.0,
            "knots.fox_matrix_cells": c.get("knots.fox_matrix_cells", 0),
            "knots.minor_size_max": c.get("knots.minor_size_max", 0),
        })
        return out


# Spans whose call counts and self times are reported.
COUNTED = ("words.free_reduce", "words.substitute", "surface.compose", "intmatrix.smith_normal_form",
           "groupring.fox_derivative")
TIMED = (
    "words.free_reduce", "words.substitute",
    "surface.compose", "surface.power", "surface.apply", "surface.dehn_twist",
    "lefschetz.mazur_family", "lefschetz.homology",
    "intmatrix.smith_normal_form", "intmatrix.det",
    "presentation.simplify_presentation",
    "groupring.fox_derivative", "groupring.abelianize",
    "knots.alexander_from_presentation",
    "grammar.parse_presentation", "grammar.parse_monodromy",
    "report.build_family_report", "report.report_to_json",
    "cli.main",
)
UNITS = {
    **{f"{name}.calls": "count" for name in COUNTED},
    **{f"{name}.self_s": "s" for name in TIMED},
    "words.free_reduce.letters_in": "letters",
    "words.free_reduce.keep_ratio": "ratio",
    "lefschetz.mazur_family.growth_exp": "slope",
    "lefschetz.gamma_len": "letters",
    "presentation.moves": "count",
    "presentation.trivial_ratio": "ratio",
    "knots.fox_matrix_cells": "count",
    "knots.minor_size_max": "rows",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_min": "ratio",
}


# -- counters taken from call arguments and results ---------------------------

def _free_reduce(t: Tracer, args, result, _duration) -> None:
    t.add("words.free_reduce.letters_in", len(args[0]))
    t.add("words.free_reduce.letters_out", len(result))


def _mazur_family(t: Tracer, args, result, duration) -> None:
    n = args[0]
    t.add("lefschetz.gamma_len", len(result.cycles[-1].word))
    t.add("lefschetz.gamma_len_expected", 14 * n - 4)
    t.family_points.append((n, duration))


def _simplify(t: Tracer, _args, result, _duration) -> None:
    t.add("presentation.moves", result.moves)
    t.add("presentation.trivial", result.verdict == "Trivial")


def _alexander(t: Tracer, args, _result, _duration) -> None:
    p = args[0]
    t.add("knots.fox_matrix_cells", len(p.relators) * p.rank)
    t.counters["knots.minor_size_max"] = max(t.counters.get("knots.minor_size_max", 0), p.rank - 1)


_OBSERVERS = {
    "words.free_reduce": _free_reduce,
    "lefschetz.mazur_family": _mazur_family,
    "presentation.simplify_presentation": _simplify,
    "knots.alexander_from_presentation": _alexander,
}


# Below this n a mazur_family call is dominated by fixed per-call cost.
GROWTH_MIN_N = 5


def growth_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) against log(n) over n >= GROWTH_MIN_N;
    0.0 without data."""
    pts = [(math.log(n), math.log(s)) for n, s in points if n >= GROWTH_MIN_N and s > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
