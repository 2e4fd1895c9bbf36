"""Span recorder for the traced run.

Wraps dilatio's public functions wherever a module binds them (a
``from .linalg import kron`` in four modules means four bindings of one
function), records one span per call with its parent, and aggregates
self time and call counts.  Spans stay in memory until the run writes
them out.  The library itself is not edited.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

# The layers the traced run reports, each with the dilatio functions
# (module.function) whose calls it records.  The three dilation modes
# share the build, verify and evolve layers, so that every layer is
# reached on every workload; spans keep the function names, so the spans
# file still tells the modes apart.
LAYERS = {
    "channels.verify_cptp": ("channels.verify_cptp",),
    "channels.power": ("channels.power",),
    "channels.compose": ("channels.compose",),
    "stinespring.stinespring_unitary": ("stinespring.stinespring_unitary",),
    "linalg.complete_isometry_to_unitary": ("linalg.complete_isometry_to_unitary",),
    "linalg.kron": ("linalg.kron",),
    "linalg.is_unitary": ("linalg.is_unitary",),
    "linalg.partial_trace": ("linalg.partial_trace",),
    "dilation.build": (
        "semigroup.build_semigroup_dilation",
        "cyclic.detect_cycle",
        "cyclic.build_cyclic_dilation",
        "control.build_control_dilation",
    ),
    "dilation.verify": (
        "semigroup.verify_dilation",
        "cyclic.verify_cyclic_dilation",
        "control.verify_control_dilation",
    ),
    "dilation.evolve": (
        "semigroup.evolve",
        "cyclic.evolve_cyclic",
        "control.evolve_control",
        "control.reachable_set",
    ),
    "serialize.save_bundle": ("serialize.save_bundle",),
    "serialize.load_bundle": ("serialize.load_bundle",),
    "serialize.file_digest": ("serialize.file_digest",),
    "serialize.load_inputs": ("serialize.load_channel", "serialize.load_state"),
}
FUNCTIONS = tuple(f for functions in LAYERS.values() for f in functions)

NAME, START, END, PARENT = range(4)


class Recorder:
    """Spans as [name, start, end, parent index or -1], in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def instrument(self, functions=FUNCTIONS):
        """Replace every binding of each function in the loaded dilatio
        modules by a recording wrapper; restore them on exit."""
        importlib.import_module("dilatio.cli")  # loads every module the CLI uses
        modules = [m for n, m in sys.modules.items() if n == "dilatio" or n.startswith("dilatio.")]
        patched = []
        try:
            for name in functions:
                module_name, func_name = name.rsplit(".", 1)
                try:
                    original = getattr(importlib.import_module(f"dilatio.{module_name}"), func_name)
                except (ImportError, AttributeError):
                    # gone after a refactor: its layer records the rest
                    print(f"warning: dilatio.{name} not found, not traced", file=sys.stderr)
                    continue
                wrapper = self.wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)


def aggregate(spans: list[list], begin: int = 0, end: int | None = None):
    """Per-function (self seconds, calls) and the seconds covered by root
    spans, over spans[begin:end].  Self time is a span's duration minus
    the durations of its direct children."""
    end = len(spans) if end is None else end
    child = [0.0] * (end - begin)
    for i in range(begin, end):
        parent = spans[i][PARENT]
        if parent >= begin:
            child[parent - begin] += spans[i][END] - spans[i][START]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    covered = 0.0
    for i in range(begin, end):
        name, start, stop, parent = spans[i]
        self_s[name] = self_s.get(name, 0.0) + (stop - start) - child[i - begin]
        calls[name] = calls.get(name, 0) + 1
        if parent < begin:
            covered += stop - start
    return self_s, calls, covered
