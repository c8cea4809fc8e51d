"""Span tracing from outside the package, for the benchmark's traced run.

`Tracer.installed()` replaces each traced public function, in every
finpart module namespace that holds it (so `profile_space` is wrapped
inside `coding` as well as `operators`), with a wrapper that records one
span: name, start, end, parent span and operation id.  Spans are kept in
compact arrays and written out at the end; per-layer metrics are derived
from them, plus a few counters read at the same call boundaries.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, function) pairs wrapped in the traced run
TRACED = [
    ("operators", "profile_space"),
    ("operators", "interior_sparse"),
    ("operators", "exists_uncovered_extension"),
    ("operators", "up_mask"),
    ("operators", "interior_mask"),
    ("operators", "boundary_mask"),
    ("coding", "encode"),
    ("coding", "materialize"),
    ("coding", "pullback_Y"),
    ("coding", "decode"),
    ("coding", "extract_slice"),
    ("core", "partition_from_ns"),
    ("ramsey", "has_property"),
    ("symmetry", "apply_perm"),
    ("symmetry", "preceq"),
    ("symmetry", "even_odd_orbits"),
    ("maps", "fin_to_disjoint"),
    ("maps", "disjoint_to_fin"),
    ("cli", "suite_fact00"),
    ("cli", "suite_nilpotency"),
    ("cli", "suite_bijection"),
    ("cli", "suite_symmetry"),
]


def _observe_materialize(counts, args, result):
    H, _ = result
    if H is not None:
        counts["coding.materialize.partitions"] += len(H)


def _observe_extract_slice(counts, args, result):
    counts["coding.extract_slice.scanned"] += len(args[0])
    counts["coding.extract_slice.returned"] += len(result)


def _observe_has_property(counts, args, result):
    counts["ramsey.colorings_searched"] += result.searched
    counts["ramsey.colorings_pruned"] += result.pruned


_OBSERVERS = {
    "coding.materialize": _observe_materialize,
    "coding.extract_slice": _observe_extract_slice,
    "ramsey.has_property": _observe_has_property,
}


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self, refused_type):
        self.refused_type = refused_type
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []
        self.op_id = 0
        self.counts = Counter()

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        observe = _OBSERVERS.get(name)
        cache_info = getattr(fn, "cache_info", None)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.span_name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.stack.append(sid)
            misses = cache_info().misses if cache_info else 0
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except self.refused_type:
                counts[name + ".refused"] += 1
                raise
            finally:
                self.end[sid] = perf_counter()
                self.stack.pop()
            if cache_info and cache_info().misses > misses:
                counts[name + ".misses"] += 1
                counts[name + ".build_s"] += self.end[sid] - self.start[sid]
            if observe:
                observe(counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        modules = [m for k, m in sys.modules.items()
                   if k == "finpart" or k.startswith("finpart.")]
        patched = []
        for mod_name, fn_name in TRACED:
            orig = getattr(sys.modules["finpart." + mod_name], fn_name)
            wrapped = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        patched.append((mod, attr, orig))
        try:
            yield self
        finally:
            for mod, attr, orig in patched:
                setattr(mod, attr, orig)

    def write(self, path):
        """Write every span as a tab-separated row, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tname\tstart\tend\tparent\top\n")
            for sid in range(len(self.start)):
                f.write(f"{sid}\t{self.names[self.span_name[sid]]}\t"
                        f"{self.start[sid]!r}\t{self.end[sid]!r}\t"
                        f"{self.parent[sid]}\t{self.op[sid]}\n")

    def layer_metrics(self):
        """Per-name call counts, inclusive and self seconds, and counters."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        calls = Counter()
        incl = Counter()
        self_s = Counter()
        for sid in range(n):
            name = self.names[self.span_name[sid]]
            dur = self.end[sid] - self.start[sid]
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur - child[sid]
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = incl[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(self.counts)
        return out
