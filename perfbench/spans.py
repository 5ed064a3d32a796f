"""Spans and per-stage memory peaks around calls into ``ppn``.

Nothing in ``src/ppn`` is edited.  Each public function is wrapped at
the module attribute its caller resolves it through, and the original
is put back afterwards.  A span records its id, name, parent, thread
id, start and end; spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import math
import os
import threading
import tracemalloc
from collections import defaultdict
from itertools import count
from time import perf_counter_ns

import numpy as np


def _source_bytes(args, kwargs) -> int:
    source = args[0] if args else kwargs["source"]
    return os.path.getsize(source) if isinstance(source, (str, os.PathLike)) else 0


def _fasta_counts(args, kwargs, result):
    return (("seqio.records", len(result)), ("seqio.bytes_in", _source_bytes(args, kwargs)))


def _encode_counts(args, kwargs, result):
    return (("core.nt", result.length), ("core.dropped", result.dropped))


def _histogram_counts(args, kwargs, result):
    return (("core.windows", sum(result.values())), ("core.distinct_tuples", len(result)))


def _matrix_counts(args, kwargs, result):
    return (("phylo.pairs", math.comb(result.size, 2)),)


def _phylip_counts(args, kwargs, result):
    return (("phylo.phylip_bytes", _source_bytes(args, kwargs)),)


def _upgma_counts(args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    return (("phylo.upgma.merges", matrix.size - 1),)


def _quartet_counts(args, kwargs, result):
    return (("phylo.quartets", math.comb(len(args[0].leaf_names()), 4)),)


#: (module, attribute the caller resolves, span name, counter function).
#: A span is named after the module that defines the function, so the
#: two ``ppn_vector`` call sites share one layer name.
TARGETS = (
    ("seqio", "read_fasta", "seqio.read_fasta", _fasta_counts),
    ("seqio", "encode", "core.encode", _encode_counts),
    ("cli", "ppn_vector", "core.ppn_vector", None),
    ("phylo", "ppn_vector", "core.ppn_vector", None),
    ("core", "count_histogram", "core.count_histogram", _histogram_counts),
    ("phylo", "distance", "core.distance", None),
    ("phylo", "pairwise_matrix", "phylo.pairwise_matrix", _matrix_counts),
    ("phylo", "write_phylip", "phylo.write_phylip", None),
    ("phylo", "read_phylip", "phylo.read_phylip", _phylip_counts),
    ("phylo", "upgma", "phylo.upgma", _upgma_counts),
    ("phylo", "to_newick", "phylo.to_newick", None),
    ("phylo", "from_newick", "phylo.from_newick", None),
    ("phylo", "nrf", "phylo.nrf", None),
    ("phylo", "nqd", "phylo.nqd", _quartet_counts),
)

ROOT = "cli.main"
NAMES = (ROOT, *dict.fromkeys(target[2] for target in TARGETS))
COLUMNS = ("op", "id", "name", "parent", "thread", "start_ns", "end_ns")


class _Patcher:
    """Installs one wrapper per target and restores the originals."""

    def __init__(self, modules):
        self._modules = modules
        self._saved = []

    def wrap(self, fn, name, counter):
        raise NotImplementedError

    def __enter__(self):
        for module_name, attr, name, counter in TARGETS:
            module = self._modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(original, name, counter)
            if wrapper is original:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, functools.wraps(original)(wrapper))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


class Tracer(_Patcher):
    """Timed spans.  A worker thread's outermost span takes as parent the
    span open on the main thread, which is the call that started the
    pool."""

    def __init__(self, modules):
        super().__init__(modules)
        self.spans = []
        self.counts = []
        self._ids = count(1)
        self._local = threading.local()
        self._main_stack = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self.spans.append((sid, name, parent, threading.get_ident(), start, end))
            if counter is not None:
                self.counts.extend(counter(args, kwargs, result))
            return result

        return traced

    def call(self, fn, *args):
        """Run ``fn`` as the root span of one op."""
        return self.wrap(fn, ROOT, None)(*args)

    def take(self):
        """Spans and counts recorded since the last call, then forget them."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], []
        return spans, counts


def as_array(spans, op: int) -> np.ndarray:
    """One op's spans as int64 rows in ``COLUMNS`` order; the name
    column indexes ``NAMES``."""
    index = {name: i for i, name in enumerate(NAMES)}
    rows = [(op, sid, index[name], parent, tid, start, end)
            for sid, name, parent, tid, start, end in spans]
    return np.array(rows, dtype=np.int64).reshape(-1, len(COLUMNS))


def save(path, ops) -> None:
    """Write the spans of every traced op to one ``.npz`` file."""
    path.parent.mkdir(exist_ok=True)
    np.savez(path, spans=np.concatenate(ops), names=np.array(NAMES),
             columns=np.array(COLUMNS))


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per span name.

    A span's self time is its duration minus the union of its children's
    intervals.  Where spans on different threads have no running child
    at the same moment, that moment is split evenly between them, so the
    self times of one op add up to its root span.
    """
    parent_of = {}
    events = []
    for sid, name, parent, _tid, start, end in spans:
        parent_of[sid] = (parent, name)
        events.append((start, 1, sid))
        events.append((end, 0, sid))
    events.sort()
    running_children = defaultdict(int)
    active = set()
    exclusive = set()
    total = defaultdict(float)
    last = None
    for t, is_start, sid in events:
        if exclusive and t > last:
            share = (t - last) / len(exclusive)
            for s in exclusive:
                total[s] += share
        last = t
        parent = parent_of[sid][0]
        if is_start:
            active.add(sid)
            exclusive.add(sid)
            if parent in active:
                running_children[parent] += 1
                exclusive.discard(parent)
        else:
            active.discard(sid)
            exclusive.discard(sid)
            if parent in active:
                running_children[parent] -= 1
                if running_children[parent] == 0:
                    exclusive.add(parent)
    by_name = defaultdict(float)
    for sid, ns in total.items():
        by_name[parent_of[sid][1]] += ns / 1e9
    return dict(by_name)


class MemoryProbe(_Patcher):
    """Peak ``tracemalloc`` heap above the heap at entry, per stage,
    for the stages in ``names`` only.

    Only main-thread calls are measured: ``tracemalloc`` keeps one
    process-wide peak, so stages running at once on worker threads
    cannot be told apart.  Their allocations still count toward the
    main-thread stage that waits for them.
    """

    def __init__(self, modules, names):
        super().__init__(modules)
        self.names = set(names)
        self.peaks = defaultdict(int)
        self._stack = []

    def wrap(self, fn, name, counter):
        if name not in self.names:
            return fn

        def probed(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                return fn(*args, **kwargs)
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][1] = max(self._stack[-1][1], peak)
            tracemalloc.reset_peak()
            frame = [current, current]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                peak = max(tracemalloc.get_traced_memory()[1], frame[1])
                self.peaks[name] = max(self.peaks[name], peak - frame[0])
                if self._stack:
                    self._stack[-1][1] = max(self._stack[-1][1], peak)

        return probed
