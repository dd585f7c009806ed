"""Span tracing around realchar's public functions, from outside the package.

``Tracer.install`` wraps the layer functions the benchmark reports on, plus
every public layer function that another layer can call, so each span
boundary is a layer boundary or a named function.  It rebinds each wrapper
under every name that refers to the original in any loaded ``realchar``
module, so calls made through a ``from x import f`` binding are traced as
well as calls through the defining module.  Helpers called only inside their
own layer (``modp.mat_mul``, the ``poly_*`` functions) and the methods of
the permutation kernels (``PermTable.mul`` and friends, millions of calls)
are not wrapped; their time counts in the span that called them.

Spans are kept in memory and written out once, after the traced command ends.
``aggregate`` turns a span list into per-name self times, call counts and
extra quantities; a span's self time is its duration minus the durations of
its direct children, so the self times of all spans add up to the root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

PACKAGE = "realchar"
LAYERS = ("catalog", "perm", "chartab", "modp", "structure", "classify", "cli")


def _elements(bound, result):
    return result.order


def _lattice_members(bound, result):
    return len(result.members)


def _memo_hit(bound):
    args = bound.arguments
    key = (args.get("seed", 0), args.get("prime_override"))
    return int(key in args["g"].table_cache)


# Quantities recorded on a span besides its times: "after" hooks see the
# bound arguments and the result, "before" hooks see the arguments before
# the call runs (compute_table fills g.table_cache, so a memo hit must be
# read first).
AFTER = {"perm.enumerate_group": _elements, "structure.normal_subgroups": _lattice_members}
BEFORE = {"chartab.compute_table": _memo_hit}


class Tracer:
    """Records one span per call of a wrapped function: [name, start, end,
    parent index, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        before = BEFORE.get(name)
        after = AFTER.get(name)
        sig = inspect.signature(fn) if before or after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            extra = before(bound) if before is not None else None
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, extra]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                record[4] = after(bound, result)
            return result

        return traced

    def install(self, functions) -> None:
        """Wrap the named layer functions ("<layer>.<name>") and every public
        layer function that another layer module can call, by name or
        through the module object."""
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        public = {
            layer: {
                attr: obj
                for attr, obj in vars(module).items()
                if inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
            }
            for layer, module in modules.items()
        }
        chosen = {}
        for layer, funcs in public.items():
            for attr, obj in funcs.items():
                if f"{layer}.{attr}" in functions:
                    chosen[obj] = f"{layer}.{attr}"
        for layer, module in modules.items():
            for obj in vars(module).values():
                if inspect.ismodule(obj) and obj in modules.values() and obj is not module:
                    other = obj.__name__.rpartition(".")[2]
                    chosen.update((f, f"{other}.{a}") for a, f in public[other].items())
                elif inspect.isfunction(obj) and obj.__module__ != module.__name__:
                    other = obj.__module__.rpartition(".")[2]
                    if public.get(other, {}).get(obj.__name__) is obj:
                        chosen[obj] = f"{other}.{obj.__name__}"
        wrappers = {obj: self.wrap(name, obj) for obj, name in chosen.items()}
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def aggregate(span_lists) -> dict[str, dict[str, float]]:
    """Per span name, over the span lists of one or more processes: summed
    self time ``self_s``, call count ``calls`` and summed extra ``extra``."""
    out: dict[str, dict[str, float]] = {}
    for spans in span_lists:
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, extra) in enumerate(spans):
            agg = out.setdefault(name, {"self_s": 0.0, "calls": 0, "extra": 0})
            agg["self_s"] += end - start - child[i]
            agg["calls"] += 1
            if extra is not None:
                agg["extra"] += extra
    return out
