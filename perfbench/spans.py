"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions of each measured module from the
outside: module functions are replaced in every ``ultrametrica`` module
namespace that holds them (``gleason`` imported its own ``mul``), class
methods are replaced on the class.  Each call records one span (name,
parent span, start and end in nanoseconds) in flat arrays, and the
benchmark's own phases (``bench.generate``, ``bench.setup``, ``bench.op``)
are spans too.  Only library calls inside a phase are counted; the
benchmark's hashing of op outputs between phases is its own work.

A span's self time is its duration minus the durations of its direct
children.  Counters are taken where the work happens, from the wrapped
call's arguments and result (``series.mul.products`` is the product of
the two term counts, ``series.mul.terms_out`` the result's term count).
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager


def _mul_counts(counters, args, result):
    f, g = args[0], args[1]
    counters["series.mul.products"] += len(f.terms) * len(g.terms)
    counters["series.mul.terms_out"] += len(result.terms)


def _evaluate_counts(counters, args, result):
    counters["tatealg.evaluate.terms_in"] += len(args[0].terms)


def _monomial_counts(counters, args, result):
    if result is not None:
        counters["gleason.oracle.monomial.hits"] += 1


# (module, attribute path, span name, counter hook)
TARGETS = (
    ("valuegroup", "Weight.sign", "valuegroup.Weight.sign", None),
    ("valuegroup", "Weight.bounds", "valuegroup.Weight.bounds", None),
    ("valuegroup", "compare", "valuegroup.compare", None),
    ("valuegroup", "weight_decimal", "valuegroup.weight_decimal", None),
    ("series", "make_series", "series.make_series", None),
    ("series", "add", "series.add", None),
    ("series", "mul", "series.mul", _mul_counts),
    ("series", "gauss_norm", "series.gauss_norm", None),
    ("series", "invert", "series.invert", None),
    ("series", "pth_root", "series.pth_root", None),
    ("series", "series_frac_pow", "series.series_frac_pow", None),
    ("series", "is_adapted", "series.is_adapted", None),
    ("tatealg", "evaluate", "tatealg.evaluate", _evaluate_counts),
    ("tatealg", "t_add", "tatealg.t_add", None),
    ("tatealg", "t_scale", "tatealg.t_scale", None),
    ("tatealg", "make_tate", "tatealg.make_tate", None),
    ("gleason", "build_schedule", "gleason.build_schedule", None),
    ("gleason", "standard_surjection", "gleason.standard_surjection", None),
    ("gleason", "SurjectionSpec.monomial_answer", "gleason.oracle.monomial",
     _monomial_counts),
    ("gleason", "SurjectionSpec.schedule_answer", "gleason.oracle.schedule", None),
    ("gleason", "GleasonSchedule.adapted_expression",
     "gleason.GleasonSchedule.adapted_expression", None),
    ("gleason", "divide_step", "gleason.divide_step", None),
    ("gleason", "reconstruct_preimage", "gleason.reconstruct_preimage", None),
    ("io", "surjection_to_json", "io.surjection_to_json", None),
    ("io", "series_to_json", "io.series_to_json", None),
    ("sampling", "random_series", "sampling.random_series", None),
)

PACKAGE = "ultrametrica"
SPAN_NAMES = tuple(t[2] for t in TARGETS)
PHASES = ("bench.generate", "bench.setup", "bench.op")


class Tracer:
    """Flat span store: parallel arrays indexed by span number."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters = Counter()
        self._stack = [-1]
        self._phases_open = [0]  # a list, so the wrappers share the number

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        phase = name in PHASES
        idx = self._open(self._id(name))
        self._phases_open[0] += phase
        self.start[idx] = time.perf_counter_ns()
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()
            self._phases_open[0] -= phase

    def wrap(self, name: str, fn, count=None):
        nid = self._id(name)
        open_span = self._open
        stack = self._stack
        start, end = self.start, self.end
        counters = self.counters
        phases_open = self._phases_open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = open_span(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count is not None and phases_open[0]:
                count(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target while the block runs, then restore them."""
        undo = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        try:
            for mod_name, path, name, count in TARGETS:
                owner = sys.modules[f"{PACKAGE}.{mod_name}"]
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(name, original, count))
                    undo.append((cls, meth, original))
                    continue
                original = getattr(owner, path)
                wrapper = self.wrap(name, original, count)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapper)
                            undo.append((mod, attr, original))
            yield self
        finally:
            for obj, attr, original in reversed(undo):
                setattr(obj, attr, original)

    def __len__(self):
        return len(self.start)

    def summary(self):
        """Per-name call count, total (inclusive) and self nanoseconds.

        Only spans inside a benchmark phase count, as do the counters:
        library calls the benchmark makes between phases (hashing op
        outputs) are its own work."""
        n = len(self.start)
        child = [0] * n
        root = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                child[p] += end[i] - start[i]
        phases = {self._ids[name] for name in PHASES if name in self._ids}
        calls = Counter()
        total = Counter()
        self_ns = Counter()
        name_id = self.name_id
        names = self.names
        for i in range(n):
            if name_id[root[i]] not in phases:
                continue
            name = names[name_id[i]]
            dur = end[i] - start[i]
            calls[name] += 1
            total[name] += dur
            self_ns[name] += dur - child[i]
        return calls, total, self_ns

    def inclusive_by_root(self, root_name: str, name: str) -> Counter:
        """Nanoseconds in outermost ``name`` spans, keyed by the index of
        the enclosing ``root_name`` span."""
        out = Counter()
        nid, rid = self._ids.get(name), self._ids.get(root_name)
        if nid is None or rid is None:
            return out
        name_id, parent = self.name_id, self.parent
        for i in range(len(self.start)):
            if name_id[i] != nid:
                continue
            p = parent[i]
            while p >= 0 and name_id[p] != nid and name_id[p] != rid:
                p = parent[p]
            if p >= 0 and name_id[p] == rid:
                out[p] += self.end[i] - self.start[i]
        return out

    def write(self, stem: str):
        """Write ``stem.json`` (names, counters, span count) and
        ``stem.spans`` (the name, parent, start and end arrays, in turn)."""
        with open(stem + ".json", "w") as fh:
            json.dump({"names": self.names, "counters": dict(self.counters),
                       "spans": len(self.start),
                       "arrays": ["name_id:i", "parent:i", "start:q", "end:q"]},
                      fh, sort_keys=True)
        with open(stem + ".spans", "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
