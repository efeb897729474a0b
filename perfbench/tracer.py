"""Span tracing of amalg's public entry points, installed from outside.

``Tracer.installed()`` wraps each entry point in ENTRY_POINTS on its defining
module and on every other ``amalg`` module that imported it by name, so calls
between amalg modules are seen too (matgroup -> reduce_word, iso -> word_mul).
Leaf helpers (mat_mul, encode, element_order, ...) stay unwrapped: their time
lands in the caller's self time.  The original attributes are restored on
exit.

Spans live in flat in-memory arrays (name, parent, start, end).  When an op
ends, its spans are added to per-name totals, and kept for the span file
while fewer than SPANS_KEPT are kept; the file is written after the traced
phase.  A span's self time is its duration minus the durations of its direct
children; calls are strictly nested because everything runs in one thread.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import math
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Iterator

ENTRY_POINTS = (
    ("groups", "check_group_axioms"),
    ("groups", "make_hom"),
    ("groups", "hom_from_generators"),
    ("groups", "make_action"),
    ("products", "semidirect"),
    ("products", "functor_on_hom"),
    ("products", "verify_functor_laws"),
    ("amalgam", "make_amalgam"),
    ("amalgam", "reduce_word"),
    ("amalgam", "word_mul"),
    ("amalgam", "word_inv"),
    ("amalgam", "enumerate_forms"),
    ("amalgam", "random_form"),
    ("iso", "make_big_amalgam"),
    ("iso", "nu"),
    ("iso", "mu"),
    ("iso", "tau"),
    ("iso", "phi"),
    ("iso", "phi_inv"),
    ("iso", "verify_exact_sequence"),
    ("iso", "verify_split"),
    ("matgroup", "sl2_decompose"),
    ("matgroup", "gl2_decompose"),
    ("matgroup", "evaluate_word"),
    ("cli", "run"),
)

# The root span of every benchmark operation; its self time is the time spent
# outside all wrapped entry points (unwrapped library code and bench glue).
OP = "op"

# Reported groups of entry points (metric stem -> span names).
SPAN_GROUPS = {
    "groups.check_group_axioms": ("groups.check_group_axioms",),
    "groups.homs": ("groups.make_hom", "groups.hom_from_generators", "groups.make_action"),
    "products.semidirect": ("products.semidirect",),
    "products.functor": ("products.functor_on_hom", "products.verify_functor_laws"),
    "amalgam.make_amalgam": ("amalgam.make_amalgam",),
    "amalgam.reduce_word": ("amalgam.reduce_word",),
    "amalgam.word_mul": ("amalgam.word_mul",),
    "amalgam.word_inv": ("amalgam.word_inv",),
    "amalgam.forms": ("amalgam.enumerate_forms", "amalgam.random_form"),
    "iso.make_big_amalgam": ("iso.make_big_amalgam",),
    "iso.maps": ("iso.nu", "iso.mu", "iso.tau", "iso.phi", "iso.phi_inv"),
    "iso.verify_exact_sequence": ("iso.verify_exact_sequence",),
    "iso.verify_split": ("iso.verify_split",),
    "matgroup.sl2_decompose": ("matgroup.sl2_decompose",),
    "matgroup.gl2_decompose": ("matgroup.gl2_decompose",),
    "matgroup.evaluate_word": ("matgroup.evaluate_word",),
    "other": (OP,),
}

# Ops whose reduce_word input is shorter than this are left out of the
# log-log fit: their time is call overhead, not reduction work.
SLOPE_MIN_SYLLABLES = 64
# Spans kept for the span file, in whole ops; every span is aggregated.
SPANS_KEPT = 200_000


class Tracer:
    def __init__(self) -> None:
        self.names = [OP] + [f"{m}.{f}" for m, f in ENTRY_POINTS]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        # Spans of the ops kept for the file, then of the op in progress.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_seen = 0
        self._stack = [-1]
        self._patched: list[tuple[Any, str, Any]] = []
        # Totals over all ops, by span name.
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        # reduce_word spans of the op in progress: index, syllables in.
        self._reduce_span = array("i")
        self._reduce_in = array("i")
        self.syllables_in = 0
        self.syllables_out = 0
        # Per op: (reduce_word syllables in, reduce_word self seconds).
        self.reduce_per_op: list[tuple[int, float]] = []
        self.axiom_cells = 0
        self.axiom_calls = 0
        self.axiom_tables: set[Any] = set()
        self.hom_calls = 0
        self.hom_images: set[Any] = set()

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run fn inside a span called ``name``."""
        idx = len(self.span_name)
        self.span_name.append(self.name_id[name])
        self.span_parent.append(self._stack[-1])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.span_start[idx] = t0
            self.span_end[idx] = t1
            if len(self._stack) == 1:
                self._fold(idx)

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        if name == "amalgam.reduce_word":
            def wrapper(spec, word):
                syls = word.syllables if hasattr(word, "syllables") else word
                idx = len(self.span_name)
                form = self.call(name, fn, spec, word)
                self._reduce_span.append(idx)
                self._reduce_in.append(len(syls))
                self.syllables_in += len(syls)
                self.syllables_out += len(form.head) + (form.tail != spec.d.identity)
                return form
        elif name == "groups.check_group_axioms":
            def wrapper(g):
                self.axiom_calls += 1
                self.axiom_cells += g.order ** 3
                self.axiom_tables.add((g.mul, g.identity, g.inv, g.generators))
                return self.call(name, fn, g)
        elif name == "groups.make_hom":
            def wrapper(source, target, image):
                self.hom_calls += 1
                self.hom_images.add((source, target, tuple(image)))
                return self.call(name, fn, source, target, image)
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        return functools.wraps(fn)(wrapper)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        homes = {m: importlib.import_module(f"amalg.{m}") for m, _ in ENTRY_POINTS}
        mods = [m for n, m in list(sys.modules.items()) if n == "amalg" or n.startswith("amalg.")]
        try:
            for modname, fn_name in ENTRY_POINTS:
                original = getattr(homes[modname], fn_name)
                wrapper = self._wrap(f"{modname}.{fn_name}", original)
                for mod in mods:
                    if mod.__dict__.get(fn_name) is original:
                        self._patched.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapper)
            yield self
        finally:
            for mod, fn_name, original in reversed(self._patched):
                setattr(mod, fn_name, original)
            self._patched.clear()

    # -- aggregation -------------------------------------------------------

    def _fold(self, root: int) -> None:
        """Add the finished op starting at span ``root`` to the totals; keep
        its spans only while fewer than SPANS_KEPT are kept."""
        n = len(self.span_name)
        own = array("d", (self.span_end[i] - self.span_start[i] for i in range(root, n)))
        for i in range(root + 1, n):
            own[self.span_parent[i] - root] -= self.span_end[i] - self.span_start[i]
        for i in range(root, n):
            name = self.span_name[i]
            self.self_s[name] += own[i - root]
            self.calls[name] += 1
        self.reduce_per_op.append((sum(self._reduce_in),
                                   sum(own[i - root] for i in self._reduce_span)))
        del self._reduce_span[:], self._reduce_in[:]
        self.spans_seen += n - root
        if n > SPANS_KEPT:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                del arr[root:]

    def summary(self, ops: int) -> dict[str, float]:
        """Per-op self time and calls for each SPAN_GROUPS stem, plus the
        reduction and redundancy counters."""
        out: dict[str, float] = {}
        for stem, members in SPAN_GROUPS.items():
            ids = [self.name_id[m] for m in members]
            out[f"{stem}.self_s"] = sum(self.self_s[i] for i in ids) / ops
            out[f"{stem}.calls"] = sum(self.calls[i] for i in ids) / ops
        reduce_s = self.self_s[self.name_id["amalgam.reduce_word"]]
        out["amalgam.reduce_word.syllables_in"] = self.syllables_in / ops
        out["amalgam.reduce_word.syllables_out"] = self.syllables_out / ops
        out["amalgam.reduce_word.us_per_syllable"] = (
            1e6 * reduce_s / self.syllables_in if self.syllables_in else 0.0
        )
        out["amalgam.reduce_word.loglog_slope"] = self._reduce_slope()
        out["groups.check_group_axioms.cells"] = self.axiom_cells / ops
        out["groups.check_group_axioms.repeat_ratio"] = (
            self.axiom_calls / len(self.axiom_tables) if self.axiom_tables else 0.0
        )
        out["groups.make_hom.repeat_ratio"] = (
            self.hom_calls / len(self.hom_images) if self.hom_images else 0.0
        )
        return out

    def _reduce_slope(self) -> float:
        """Least-squares slope of log(reduce_word self time) against
        log(syllables in), both summed per op, over ops with at least
        SLOPE_MIN_SYLLABLES syllables.  0 when the sizes span less than 2x."""
        pts = [(math.log(n), math.log(t)) for n, t in self.reduce_per_op
               if n >= SLOPE_MIN_SYLLABLES and t > 0]
        if len(pts) < 3 or max(x for x, _ in pts) - min(x for x, _ in pts) < math.log(2):
            return 0.0
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxx = sum((x - mx) ** 2 for x, _ in pts)
        sxy = sum((x - mx) * (y - my) for x, y in pts)
        return sxy / sxx

    def write(self, path: Path) -> None:
        """The kept spans as gzipped CSV: name, parent index, start, end (s)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name,parent,start_s,end_s\n")
            for i in range(len(self.span_name)):
                f.write(f"{self.names[self.span_name[i]]},{self.span_parent[i]},"
                        f"{self.span_start[i]:.9f},{self.span_end[i]:.9f}\n")
