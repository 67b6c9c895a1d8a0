"""In-memory span tracer for the benchmark's traced runs.

The tracer works from outside the package.  Every public module-level
function that a layer module defines is replaced by a wrapper that records
one span (name, start, end, parent).  The replacement is made in the defining
module and in every ``cubesquares`` module that imported the function by
name; scripts started later import the wrapped function.  Spans stay in
memory and are written out once, when the traced process ends.

A layer is a package module, and a span's layer is the part of its name
before the first dot.  A span's self time is its duration minus the
durations of its child spans.  Summed over all spans, self time equals the
time covered by root spans, so layer self times plus the time inside no
span add up to the traced wall time.

Nothing here imports ``cubesquares`` at module level: the parent process and
the tests use the arithmetic without the package.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "params",
    "smooth",
    "cubesieve",
    "weights",
    "residues",
    "expsums",
    "localsolve",
    "w2",
    "arcs",
    "oscillatory",
    "generating",
    "mainterm",
    "census",
    "acceptance",
)


def _osc_route(args: tuple, kwargs: dict) -> str:
    # osc_integral_v(beta, params, method="kernel1d", ...): one span name per route
    method = kwargs.get("method", args[2] if len(args) > 2 else "kernel1d")
    return f"oscillatory.osc_integral_v[{method}]"


# Wrapped function -> (namer, counter).  A namer picks the span name from the
# call's arguments.  A counter is (counter name, f), and f(args, kwargs,
# result) is the amount added to that counter after each call.
HOOKS = {
    "oscillatory.osc_integral_v": (_osc_route, None),
    "weights.build_weight_table": (None, ("weights.support_entries", lambda a, k, table: len(table))),
    "cubesieve.sieve_cube_sums": (None, ("cubesieve.members", lambda a, k, sieve: int(sieve.flags.sum()))),
}

# Constructors that do a layer's work: (module, class, method, span name, counter).
METHOD_HOOKS = (
    (
        "mainterm",
        "RnEvaluator",
        "__post_init__",
        "mainterm.RnEvaluator",
        ("mainterm.rn_terms", lambda a, k, _: len(a[0].aa) + len(a[0].bb)),
    ),
)


def _is_public_function(module, attr: str, obj) -> bool:
    return (
        not attr.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    )


def rebind(replacements: dict[int, tuple[object, object]]) -> None:
    """Point every ``cubesquares`` module attribute at its replacement.

    `replacements` maps id(original) to (original, replacement).
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "cubesquares" or name.startswith("cubesquares.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


class Tracer:
    """Records spans of wrapped calls; one tracer per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int] | None] = []
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, namer=None, counter=None):
        fixed = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if namer is None else self._name_id(namer(args, kwargs))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of every layer."""
        replacements: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cubesquares.{layer}")
            for attr, obj in list(vars(module).items()):
                if _is_public_function(module, attr, obj) and id(obj) not in replacements:
                    name = f"{layer}.{attr}"
                    namer, counter = HOOKS.get(name, (None, None))
                    replacements[id(obj)] = (obj, self.wrap(obj, name, namer, counter))
        rebind(replacements)
        for layer, cls_name, method, name, counter in METHOD_HOOKS:
            cls = getattr(importlib.import_module(f"cubesquares.{layer}"), cls_name, None)
            if cls is not None and method in vars(cls):
                setattr(cls, method, self.wrap(vars(cls)[method], name, None, counter))

    def dump(self, path: str) -> None:
        doc = {"run_id": self.run_id, "names": self.names, "spans": self.spans, "counters": dict(self.counters)}
        with open(path, "w") as f:
            json.dump(doc, f)


def summarize(names: list[str], spans: list) -> dict:
    """Self time per layer and inclusive time per span name.

    Returns a dict with
      layer_self   layer -> sum of span self times
      layer_calls  layer -> number of spans
      fn_time      span name -> summed duration of its outermost spans
                   (a span inside another of the same name is not counted twice)
      fn_calls     span name -> number of spans
      covered      summed duration of root spans
    """
    child_time = [0.0] * len(spans)
    for nid, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out = {
        "layer_self": defaultdict(float),
        "layer_calls": defaultdict(int),
        "fn_time": defaultdict(float),
        "fn_calls": defaultdict(int),
        "covered": 0.0,
    }
    for i, (nid, t0, t1, parent) in enumerate(spans):
        name = names[nid]
        layer = name.split(".", 1)[0]
        duration = t1 - t0
        out["layer_self"][layer] += duration - child_time[i]
        out["layer_calls"][layer] += 1
        out["fn_calls"][name] += 1
        if parent < 0:
            out["covered"] += duration
        p = parent
        while p >= 0 and spans[p][0] != nid:
            p = spans[p][3]
        if p < 0:
            out["fn_time"][name] += duration
    return out
