"""Spans and exact counters around calls into the chebotarev layers.

The program's source is not changed: while a :class:`Recorder` is
installed, each public function in :data:`LAYERS` is replaced by a timing
wrapper in every ``chebotarev`` module that holds a reference to it (for
example ``chebotarev.arcs.find_roots`` as well as
``chebotarev.poly.find_roots``), and the originals are put back afterwards.
Spans stay in memory until the run writes them out.  Span times are CPU
time of the process, like the op times in run.py.
"""

import importlib
import json
import sys
import time
from contextlib import contextmanager

#: (module, function) pairs timed as layers, in report order.
LAYERS = (
    ("poly", "find_roots"),
    ("powersum", "solve"),
    ("factor", "factorize"),
    ("connect", "is_connected"),
    ("connect", "grid_oracle"),
    ("connect", "complement_connected"),
    ("quadrature", "path_integral"),
    ("analysis", "check_chebotarev_conditions"),
    ("analysis", "green_via_integral"),
    ("analysis", "condition_points"),
    ("arcs", "trace"),
    ("arcs", "find_crossings"),
    ("arcs", "build_graph"),
    ("cli", "main"),
)

#: Layers whose calls are keyed by (coefficients, seed) to count repeats.
#: Both take the polynomial first and ``seed`` second.
KEYED = frozenset({"poly.find_roots", "factor.factorize"})

#: Layers whose ``fail_share`` is reported (calls that raised / calls).
FAILING = frozenset({"powersum.solve"})

#: Each span is a list [name, start, end, parent index, op index, failed, repeat].
NAME, START, END, PARENT, OP, FAILED, REPEAT = range(7)


class Recorder:
    """Records one span per wrapped call, nested by a call stack."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1
        self._seen = set()

    def begin_op(self, op_index):
        """Start attributing spans to a new op; repeats are counted per op."""
        self._op = op_index
        self._seen = set()

    def _wrap(self, name, fn):
        keyed = name in KEYED
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            repeat = False
            if keyed:
                seed = kwargs.get("seed", args[1] if len(args) > 1 else 0)
                key = (name, args[0].coeffs, seed)
                repeat = key in self._seen
                self._seen.add(key)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, False, repeat]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.process_time()
            try:
                return fn(*args, **kwargs)
            except Exception:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.process_time()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Rebind every layer function in every loaded chebotarev module."""
        originals = {}
        for mod, fn in LAYERS:
            original = getattr(importlib.import_module(f"chebotarev.{mod}"), fn)
            originals[id(original)] = self._wrap(f"{mod}.{fn}", original)
        patched = []
        modules = [m for key, m in sys.modules.items()
                   if key == "chebotarev" or key.startswith("chebotarev.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def write(self, path, origin):
        """Write the spans as JSON lines, times in CPU seconds from ``origin``."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME], "start": s[START] - origin, "end": s[END] - origin,
                    "parent": s[PARENT], "op": s[OP], "failed": s[FAILED],
                    "repeat": s[REPEAT],
                }) + "\n")


def self_times(spans):
    """Span duration minus the time covered by its direct child spans."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def tally(spans, ops):
    """Per-layer totals over the spans of the given op indices.

    Returns ``(counters, self_ms)``: exact integer counters keyed by metric
    name, and the summed self time per layer in milliseconds.
    """
    ops = set(ops)
    selfs = self_times(spans)
    counters = {}
    self_ms = {}
    for mod, fn in LAYERS:
        name = f"{mod}.{fn}"
        counters[f"{name}.calls"] = 0
        self_ms[name] = 0.0
        if name in KEYED:
            counters[f"{name}.repeats"] = 0
        if name in FAILING:
            counters[f"{name}.failures"] = 0
    counters["arcs.trace.root_solves"] = 0
    for i, s in enumerate(spans):
        if s[OP] not in ops:
            continue
        name = s[NAME]
        counters[f"{name}.calls"] += 1
        self_ms[name] += 1e3 * selfs[i]
        if name in KEYED and s[REPEAT]:
            counters[f"{name}.repeats"] += 1
        if name in FAILING and s[FAILED]:
            counters[f"{name}.failures"] += 1
        if name == "poly.find_roots" and _inside(spans, i, "arcs.trace"):
            counters["arcs.trace.root_solves"] += 1
    return counters, self_ms


def _inside(spans, i, name):
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
