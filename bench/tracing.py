"""Span tracing of the ucamimo modules, installed from outside the package.

`Tracer.installed()` replaces every public function of each layer module
with a wrapper that records a span, under every name any ``ucamimo``
module namespace binds it to (so ``sim.build_channel`` is traced as
``channel.build_channel``).  The functions are found by scanning the
namespaces, so functions added or renamed later are traced without
editing this file.  Leaving the context restores the originals.

A span is ``[name, start, end, parent, thread, error, size]``.  The parent
is the innermost open span of the same thread; a span opened on a worker
thread with nothing open on it is parented to the innermost open span of
the main thread, which is the call that handed the work to the pool.  A
span's self time is its duration minus the part of its interval covered
by its children (their union, since children on different threads
overlap).
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from contextlib import contextmanager

PACKAGE = "ucamimo"
LAYERS = ("geometry", "channel", "spectrum", "design", "transceiver", "sim")

NAME, START, END, PARENT, THREAD, ERROR, SIZE = range(7)

# Work size recorded for a few spans: spectra evaluated, codebook entries scored.
SIZE_HOOKS = {
    "spectrum.singular_values": lambda args, kwargs, result: 1,
    "spectrum.singular_values_many": lambda args, kwargs, result: len(result),
    "transceiver.select_codebook_index": lambda args, kwargs, result: (
        args[1] if len(args) > 1 else kwargs["cb"]
    ).size,
}


def public_functions(module) -> dict:
    """Public functions defined in (not imported into) a module."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Collects spans from wrapped ucamimo functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_stack: list | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, span_name: str):
        size_hook = SIZE_HOOKS.get(span_name)
        spans = self.spans
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack and stack is not self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            span = [span_name, 0.0, 0.0, parent, threading.get_ident(), None, None]
            stack.append(span)
            span[START] = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc)
                raise
            finally:
                span[END] = perf()
                stack.pop()
                spans.append(span)
            if size_hook is not None:
                try:
                    span[SIZE] = size_hook(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    span[SIZE] = None
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every public layer function in every package namespace."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        originals: dict[int, tuple] = {}
        for layer in LAYERS:
            module = modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                raise RuntimeError(f"layer module {PACKAGE}.{layer} is not imported")
            for name, fn in public_functions(module).items():
                originals[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
        patched = []
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    patched.append((mod, attr, value))
        self._main_stack = self._stack()
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)
            self._main_stack = None

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans[:] = list(self.spans), []
        return spans


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Self time of every span, keyed by id(span)."""
    children: dict[int, list] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            children.setdefault(id(parent), []).append((span[START], span[END]))
    out = {}
    for span in spans:
        duration = span[END] - span[START]
        kids = children.get(id(span))
        out[id(span)] = duration - (_covered(kids, span[START], span[END]) if kids else 0.0)
    return out


def _has_ancestor(span: list, name: str) -> bool:
    parent = span[PARENT]
    while parent is not None:
        if parent[NAME] == name:
            return True
        parent = parent[PARENT]
    return False


CSV_FUNCTIONS = ("sim.write_csv", "sim.rows_to_csv")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times of one pass's spans."""
    selfs = self_times(spans)
    m: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0.0) + value

    for layer in LAYERS:
        add(f"{layer}.calls", 0)
        add(f"{layer}.self_s", 0.0)
    for key in (
        "design.search_calls", "design.water_fill_calls", "spectrum.points",
        "transceiver.codebook_calls", "transceiver.codebook_entries",
        "transceiver.codebook_builds", "transceiver.codebook_self_s",
        "transceiver.zf_calls", "transceiver.zf_singular", "transceiver.zf_self_s",
        "transceiver.other_self_s", "sim.csv_s",
    ):
        add(key, 0)
    water_fill_in_search = 0

    for span in spans:
        name = span[NAME]
        layer, _, fn = name.partition(".")
        self_s = selfs[id(span)]
        add(f"{layer}.calls", 1)
        if name in CSV_FUNCTIONS:
            parent = span[PARENT]
            if parent is None or parent[NAME] not in CSV_FUNCTIONS:
                add("sim.csv_s", span[END] - span[START])
        else:
            add(f"{layer}.self_s", self_s)
        if name == "design.search_beta_opt":
            add("design.search_calls", 1)
        elif name == "design.water_fill":
            add("design.water_fill_calls", 1)
            water_fill_in_search += _has_ancestor(span, "design.search_beta_opt")
        if layer == "spectrum" and span[SIZE] is not None:
            add("spectrum.points", span[SIZE])
        if layer == "transceiver":
            if "codebook" in fn:
                add("transceiver.codebook_self_s", self_s)
                if fn == "build_codebook":
                    add("transceiver.codebook_builds", 1)
                if fn == "select_codebook_index":
                    add("transceiver.codebook_calls", 1)
                    add("transceiver.codebook_entries", span[SIZE] or 0)
            elif fn.startswith("zf"):
                add("transceiver.zf_self_s", self_s)
                add("transceiver.zf_calls", 1)
                error = span[ERROR]
                if error is not None and issubclass(error, ValueError):
                    add("transceiver.zf_singular", 1)
            else:
                add("transceiver.other_self_s", self_s)
    searches = m["design.search_calls"]
    m["design.water_fill_calls_per_search"] = water_fill_in_search / searches if searches else 0.0
    return m
