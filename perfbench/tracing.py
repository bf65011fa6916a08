"""Span recording for the traced benchmark run.

A span is ``[name, start, end, parent, op, work]``: ``parent`` is the index of
the enclosing span (-1 at the top), ``op`` the key of the benchmark operation
that caused it, and ``work`` a size taken from the call's result (states of a
determinized automaton, witness words, ...).  Spans stay in memory and are
written out once the run ends.

Spans come from two places.  The benchmark opens its own spans around each
operation and around composite calls it splits into their public parts.  And
while ``Instrumentation.active()`` is on, every public function of the library
modules is replaced, in every library module namespace that holds it, by a
wrapper that records a span around the call.  Calls from inside the library go
through those namespaces too (``testgen.tp_from_text`` looks up
``tp_invariant_violations`` there), so they nest as child spans without any
change to the library.  Outside ``active()`` the library runs unwrapped.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from contextlib import contextmanager

LAYERS = ("iolts", "fsa", "conformance", "testgen", "testrun", "modelgen")

# Work recorded for a call, from (result, args).
WORK = {
    "iolts.determinize": lambda r, a: r.n_states,
    "fsa.compile_regex": lambda r, a: r.n_states,
    "fsa.intersect": lambda r, a: r.n_states,
    "conformance.ioco_desirable_language": lambda r, a: r.n_states,
    "conformance.build_fault_suite": lambda r, a: r.n_states,
    "conformance.witnesses_transition_cover": lambda r, a: len(r),
    "testgen.build_multigraph": lambda r, a: len(r.edges) + 1,
    "testgen.path_to_test_purpose": lambda r, a: len(r.states),
    "testrun.run_fault_model": lambda r, a: len(r.results),
    # a submachine that returns its argument is a fallback to the spec
    "modelgen.submachine": lambda r, a: int(r is a[0]),
}


class Tracer:
    """In-memory span list plus named counters for one run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.op = "setup"

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0,
               self.stack[-1] if self.stack else -1, self.op, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def wrap(self, name: str, fn):
        spans, stack, work = self.spans, self.stack, WORK.get(name)
        clock = time.perf_counter

        # span() inlined: a suite op makes some 30k wrapped calls
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                rec[5] = work(result, args)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children.

        Spans of one thread nest, so the children never overlap and their sum
        is the part of the parent they cover."""
        own = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def write(self, path: str) -> None:
        """Spans as gzip-compressed JSON lines, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, op, work in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9),
                                     parent, op, work]))
                fh.write("\n")


class Instrumentation:
    """Swaps the library's public functions for tracing wrappers on demand."""

    def __init__(self, package, tracer: Tracer):
        wrappers: dict[int, tuple[object, object]] = {}
        modules = [package]
        for layer in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            modules.append(mod)
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
        self._sites = []
        for mod in modules:
            for attr, obj in vars(mod).items():
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._sites.append((mod, attr, obj, hit[1]))

    @contextmanager
    def active(self):
        for mod, attr, _, wrapper in self._sites:
            setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, original, _ in self._sites:
                setattr(mod, attr, original)
