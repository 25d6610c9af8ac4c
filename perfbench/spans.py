"""Spans around fiberlab's layer boundaries, recorded from outside the program.

``Tracer.installed()`` replaces each boundary function with a wrapper at
the place its callers look it up (a module attribute or a class
attribute) and puts the originals back on exit.  A wrapper records one
span: a name, a start, an end, its parent span and the operation it ran
in, plus the counters of that boundary.  Spans stay in memory until
``dump`` writes them out.

A layer's self time is the length of its spans minus the part their
child spans cover; children run inside their parent on one thread, so
that part is the sum of the children's lengths.

A memory peak is the growth of the process's resident set over one span:
the highest RSS seen during the span minus the RSS at its start.  RSS is
read from ``/proc/self/statm`` at the span's boundaries, and about every
millisecond by ``rss_sampler.py`` in a process of its own.  Before an
outermost memory span starts, glibc's ``malloc_trim`` hands freed heap
pages back, so pages an earlier span freed do not hide this span's growth.
``tracemalloc`` would give allocation peaks, but it slows the lattice
closure about 15 times and the walk 5 times (I^3 of the appendix ideal:
1.6 s to 24.6 s and 4.4 s to 21.2 s), which puts one traced
appendix-lattice round past the run limit.
"""

from __future__ import annotations

import bisect
import contextlib
import ctypes
import functools
import os
import subprocess
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import fiberlab
from fiberlab import MonomialIdeal, betti, fiber, invariants, koszul, linalg, scenarios

_MB = float(1 << 20)

# The per-layer metrics, in report order: (name, unit, better).
METRICS = (
    ("ideals.calls", "count", "lower"),
    ("ideals.self_s", "s", "lower"),
    ("ideals.gens_out", "count", "lower"),
    ("betti.closure.calls", "count", "lower"),
    ("betti.closure.s", "s", "lower"),
    ("betti.closure.points", "count", "lower"),
    ("betti.walk.points", "count", "lower"),
    ("betti.walk.self_s", "s", "lower"),
    ("betti.walk.homology_per_point", "ratio", "lower"),
    ("betti.homology.calls", "count", "lower"),
    ("betti.homology.self_s", "s", "lower"),
    ("betti.homology.nonzero", "count", "lower"),
    ("betti.homology.nonzero_ratio", "ratio", "higher"),
    ("linalg.rank_mod_p.calls", "count", "lower"),
    ("linalg.rank_mod_p.s", "s", "lower"),
    ("linalg.rank_mod_p.cells", "count", "lower"),
    ("linalg.rank_exact.calls", "count", "lower"),
    ("linalg.rank_exact.s", "s", "lower"),
    ("linalg.rank_exact.nnz", "count", "lower"),
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.s", "s", "lower"),
    ("linalg.rref.cells", "count", "lower"),
    ("koszul.strand.calls", "count", "lower"),
    ("koszul.strand.s", "s", "lower"),
    ("koszul.strand.basis", "count", "lower"),
    ("koszul.tor_map.calls", "count", "lower"),
    ("koszul.tor_map.self_s", "s", "lower"),
    ("betti.table.calls", "count", "lower"),
    ("betti.table.distinct", "count", "lower"),
    ("betti.table.s", "s", "lower"),
    ("fiber.self_s", "s", "lower"),
    ("scenarios.self_s", "s", "lower"),
    ("betti.closure.peak_mb", "MB", "lower"),
    ("betti.walk.peak_mb", "MB", "lower"),
    ("betti.homology.peak_mb", "MB", "lower"),
    ("koszul.strand.peak_mb", "MB", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

# spans that report a memory peak
_MEMORY_LAYERS = ("betti.closure", "betti.walk", "betti.homology", "koszul.strand")
SAMPLER = Path(__file__).with_name("rss_sampler.py")


def _malloc_trim():
    """glibc's malloc_trim(0), or a no-op where there is no glibc."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is None:
        return lambda: None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return lambda: trim(0)


class _Resident:
    """RSS readings of this process: its own at span boundaries, and the sampler's."""

    def __init__(self):
        self.fd = os.open("/proc/self/statm", os.O_RDONLY)
        self.page = os.sysconf("SC_PAGE_SIZE")
        self.trim = _malloc_trim()
        self.times = array("d")
        self.sizes = array("q")
        self.sampler = subprocess.Popen(
            [sys.executable, str(SAMPLER), str(os.getpid())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.sampler.stdout.readline()  # "ready"

    def read(self, at: float) -> int:
        rss = int(os.pread(self.fd, 128, 0).split()[1]) * self.page
        self.times.append(at)
        self.sizes.append(rss)
        return rss

    def close(self) -> None:
        """Stop the sampler and merge its readings with this process's, by time."""
        os.close(self.fd)
        out, _ = self.sampler.communicate(timeout=60)  # closes its input: it stops
        readings = list(zip(self.times, self.sizes))
        for line in out.splitlines():
            t, rss = line.split()
            readings.append((float(t), int(rss)))
        readings.sort()
        self.times = array("d", (t for t, _ in readings))
        self.sizes = array("q", (v for _, v in readings))

    def highest(self, start: float, end: float) -> int:
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return max(self.sizes[lo:hi])


class _Frame:
    __slots__ = ("span", "layer", "start", "child", "memory")

    def __init__(self, span: int, layer: str):
        self.span = span
        self.layer = layer
        self.start = 0.0
        self.child = 0.0
        self.memory = False


class Tracer:
    """Spans and counters of one traced pass over a workload."""

    def __init__(self):
        self.layer_ids: dict[str, int] = {}
        self.span_layer = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list[_Frame] = []
        self.op = -1
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.count: dict[str, float] = defaultdict(float)
        self.tables: set = set()
        self.resident: _Resident | None = None
        self.memory_spans: list[tuple[str, int, int]] = []  # layer, span, RSS at start

    # -- spans -------------------------------------------------------------

    def _enter(self, layer: str) -> _Frame:
        lid = self.layer_ids.setdefault(layer, len(self.layer_ids))
        span = len(self.span_start)
        self.span_layer.append(lid)
        self.span_parent.append(self.stack[-1].span if self.stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        frame = _Frame(span, layer)
        if layer in _MEMORY_LAYERS:
            frame.memory = True
            if not any(outer.memory for outer in self.stack):
                self.resident.trim()
        self.stack.append(frame)
        frame.start = time.perf_counter()
        self.span_start.append(frame.start)
        if frame.memory:
            self.memory_spans.append((layer, span, self.resident.read(frame.start)))
        return frame

    def _exit(self) -> bool:
        """Close the innermost span; True when its parent is another layer."""
        end = time.perf_counter()
        frame = self.stack.pop()
        if frame.memory:
            self.resident.read(end)
        length = end - frame.start
        self.span_end[frame.span] = end
        self.self_s[frame.layer] += length - frame.child
        self.total_s[frame.layer] += length
        if self.stack:
            parent = self.stack[-1]
            parent.child += length
            return parent.layer != frame.layer
        return True

    @contextlib.contextmanager
    def operation(self, index: int):
        """The root span of one workload operation."""
        self.op = index
        self._enter("op")
        try:
            yield
        finally:
            self._exit()
            self.op = -1

    def wrap(self, layer: str, fn, counter=None):
        """``fn`` inside a span of ``layer``; ``counter(args, kwargs, result, entry)`` after it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                entry = tracer._exit()
            if counter is not None:
                counter(args, kwargs, result, entry)
            return result

        return traced

    # -- counters at the boundaries ------------------------------------------

    def _count_ideal(self, args, kwargs, result, entry) -> None:
        if entry:
            self.count["ideals.calls"] += 1
            if isinstance(result, MonomialIdeal):
                self.count["ideals.gens_out"] += len(result.gens)

    def _count_closure(self, args, kwargs, result, entry) -> None:
        self.count["betti.closure.calls"] += 1
        self.count["betti.closure.points"] += len(result)

    def _count_walk(self, args, kwargs, result, entry) -> None:
        self.count["betti.walk.points"] += len(args[0])

    def _count_homology(self, args, kwargs, result, entry) -> None:
        self.count["betti.homology.calls"] += 1
        self.count["betti.homology.nonzero"] += bool(result)

    def _count_rank_mod_p(self, args, kwargs, result, entry) -> None:
        self.count["linalg.rank_mod_p.calls"] += 1
        self.count["linalg.rank_mod_p.cells"] += args[0].size

    def _count_rank_exact(self, args, kwargs, result, entry) -> None:
        self.count["linalg.rank_exact.calls"] += 1
        self.count["linalg.rank_exact.nnz"] += sum(len(row) for row in args[0])

    def _count_rref(self, args, kwargs, result, entry) -> None:
        rows = args[0]
        self.count["linalg.rref.calls"] += 1
        self.count["linalg.rref.cells"] += len(rows) * len(rows[0]) if rows else 0

    def _count_strand(self, args, kwargs, result, entry) -> None:
        self.count["koszul.strand.calls"] += 1
        self.count["koszul.strand.basis"] += sum(len(b) for b in args[0].basis.values())

    def _count_tor_map(self, args, kwargs, result, entry) -> None:
        self.count["koszul.tor_map.calls"] += 1

    def _count_table(self, args, kwargs, result, entry) -> None:
        self.count["betti.table.calls"] += 1
        ideal = args[0]
        self.tables.add((ideal.ring.variables, ideal.gens, result.characteristic))

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary function where its callers look it up."""
        sites = [
            (MonomialIdeal, name, "ideals", self._count_ideal)
            for name in ("__add__", "__mul__", "__pow__", "intersect", "colon", "contains")
        ]
        sites += [
            (betti, "_closure", "betti.closure", self._count_closure),
            (betti, "_points_betti", "betti.walk", self._count_walk),
            (betti, "_homology_from_masks", "betti.homology", self._count_homology),
            (koszul._StrandComplex, "__init__", "koszul.strand", self._count_strand),
            (koszul, "tor_map", "koszul.tor_map", self._count_tor_map),
            (linalg, "rref", "linalg.rref", self._count_rref),
            (koszul, "rref", "linalg.rref", self._count_rref),
            (scenarios, "appendix_w", "scenarios", None),
        ]
        for module in (betti, koszul):
            sites.append((module, "rank_mod_p", "linalg.rank_mod_p", self._count_rank_mod_p))
            sites.append((module, "rank_exact", "linalg.rank_exact", self._count_rank_exact))
        for module in (fiberlab, invariants, fiber):
            sites.append((module, "betti_table", "betti.table", self._count_table))
        for name in ("check_reg_formula", "check_reg_formula_equigenerated",
                     "check_depth_formula", "reg_power_formula_terms",
                     "verify_betti_splitting", "verify_tor_vanishing_lemma", "filtration"):
            sites.append((fiber, name, "fiber", None))
        saved = [(owner, name, getattr(owner, name)) for owner, name, _, _ in sites]
        self.resident = _Resident()
        try:
            for (owner, name, layer, counter), (_, _, original) in zip(sites, saved):
                setattr(owner, name, self.wrap(layer, original, counter))
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)
            self.resident.close()

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the overhead, which needs an untraced pass."""
        c = self.count
        out = {
            "ideals.calls": c["ideals.calls"],
            "ideals.self_s": self.self_s["ideals"],
            "ideals.gens_out": c["ideals.gens_out"],
            "betti.closure.calls": c["betti.closure.calls"],
            "betti.closure.s": self.total_s["betti.closure"],
            "betti.closure.points": c["betti.closure.points"],
            "betti.walk.points": c["betti.walk.points"],
            "betti.walk.self_s": self.self_s["betti.walk"],
            "betti.walk.homology_per_point":
                c["betti.homology.calls"] / c["betti.walk.points"] if c["betti.walk.points"] else 0.0,
            "betti.homology.calls": c["betti.homology.calls"],
            "betti.homology.self_s": self.self_s["betti.homology"],
            "betti.homology.nonzero": c["betti.homology.nonzero"],
            "betti.homology.nonzero_ratio":
                c["betti.homology.nonzero"] / c["betti.homology.calls"]
                if c["betti.homology.calls"] else 0.0,
            "betti.table.calls": c["betti.table.calls"],
            "betti.table.distinct": len(self.tables),
            "betti.table.s": self.total_s["betti.table"],
            "fiber.self_s": self.self_s["fiber"],
            "scenarios.self_s": self.self_s["scenarios"],
            "koszul.strand.calls": c["koszul.strand.calls"],
            "koszul.strand.s": self.total_s["koszul.strand"],
            "koszul.strand.basis": c["koszul.strand.basis"],
            "koszul.tor_map.calls": c["koszul.tor_map.calls"],
            "koszul.tor_map.self_s": self.self_s["koszul.tor_map"],
        }
        for name in ("rank_mod_p", "rank_exact", "rref"):
            out[f"linalg.{name}.calls"] = c[f"linalg.{name}.calls"]
            out[f"linalg.{name}.s"] = self.total_s[f"linalg.{name}"]
        out["linalg.rank_mod_p.cells"] = c["linalg.rank_mod_p.cells"]
        out["linalg.rank_exact.nnz"] = c["linalg.rank_exact.nnz"]
        out["linalg.rref.cells"] = c["linalg.rref.cells"]
        peak = dict.fromkeys(_MEMORY_LAYERS, 0)
        for layer, span, base in self.memory_spans:
            top = self.resident.highest(self.span_start[span], self.span_end[span])
            peak[layer] = max(peak[layer], top - base)
        for layer in _MEMORY_LAYERS:
            out[f"{layer}.peak_mb"] = peak[layer] / _MB
        return out

    def dump(self, path) -> None:
        """Write every span as a tab-separated line."""
        names = {lid: layer for layer, lid in self.layer_ids.items()}
        with open(path, "w") as fh:
            fh.write("span\tname\tstart\tend\tparent\top\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{names[self.span_layer[i]]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_op[i]}\n")
