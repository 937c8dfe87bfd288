"""Spans and counters recorded from outside the program.

The benchmark measures the layers of ``repro`` without editing them: when a
traced run starts, :func:`install_layer_probes` replaces a public function
or method of each layer with a wrapper that records a span (name, start,
end, parent span, op id) or bumps a counter, and calls the original.  While
``tracer.enabled`` is false each wrapper costs one attribute test.

A layer's self time is its span's duration minus the time its child spans
cover.  Calls nest strictly within a thread, so the children of a span never
overlap and their durations simply add up.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: One finished span: (op id, span id, parent span id or 0, name, start, end).
Span = Tuple[int, int, int, str, float, float]


class Tracer:
    """In-memory span and counter store shared by every probe of a process."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._span_ids = itertools.count(1)
        self._op_ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------
    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record ``name`` around the block; a span with no parent in this
        thread starts a new op id (one request)."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span_id = next(self._span_ids)
        if stack:
            op_id, parent_id = stack[-1][0], stack[-1][1]
        else:
            op_id, parent_id = next(self._op_ids), 0
        stack.append((op_id, span_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((op_id, span_id, parent_id, name, start, end))

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    # -- patching -----------------------------------------------------------
    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def wrap(self, owner: Any, attribute: str, name: str,
             after: Optional[Callable[["Tracer", tuple, Any], None]] = None
             ) -> None:
        """Record a ``name`` span around every call of ``owner.attribute``;
        ``after(tracer, args, result)`` may add counters from the call."""
        original = owner.__dict__[attribute]
        tracer = self

        @functools.wraps(original)
        def probe(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            with tracer.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        self._patch(owner, attribute, probe)

    def wrap_context(self, owner: Any, attribute: str, name: str) -> None:
        """Record a ``name`` span around the block of the context manager
        that ``owner.attribute(...)`` returns."""
        original = owner.__dict__[attribute]
        tracer = self

        @functools.wraps(original)
        @contextmanager
        def probe(*args, **kwargs):
            with tracer.span(name), original(*args, **kwargs) as value:
                yield value

        self._patch(owner, attribute, probe)

    def count_calls(self, owner: Any, attribute: str, name: str) -> None:
        """Count calls of ``owner.attribute`` under ``name`` (no span)."""
        original = owner.__dict__[attribute]
        tracer = self

        @functools.wraps(original)
        def probe(*args, **kwargs):
            tracer.count(name)
            return original(*args, **kwargs)

        self._patch(owner, attribute, probe)

    def count_yielded(self, owner: Any, attribute: str, name: str) -> None:
        """Count the rows a batch generator ``owner.attribute`` yields."""
        original = owner.__dict__[attribute]
        assert inspect.isgeneratorfunction(original), attribute
        tracer = self

        def counted(batches):
            for batch in batches:
                tracer.count(name, len(batch))
                yield batch

        @functools.wraps(original)
        def probe(*args, **kwargs):
            batches = original(*args, **kwargs)
            return counted(batches) if tracer.enabled else batches

        self._patch(owner, attribute, probe)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- reading ------------------------------------------------------------
    def aggregate(self) -> Dict[str, Any]:
        """Calls and self seconds per span name, plus the counters."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, _, parent_id, _, start, end in self.spans:
            if parent_id:
                child_time[parent_id] += end - start
        calls: Counter = Counter()
        self_s: Dict[str, float] = defaultdict(float)
        for _, span_id, _, name, start, end in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time.get(span_id, 0.0)
        return {"calls": dict(calls), "self_s": dict(self_s),
                "counts": dict(self.counts)}

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON line (op, span, parent, name, t0, t1)."""
        with open(path, "w", encoding="utf-8") as handle:
            for op_id, span_id, parent_id, name, start, end in self.spans:
                handle.write(json.dumps({
                    "op": op_id, "span": span_id, "parent": parent_id,
                    "name": name, "start": start, "end": end}) + "\n")


def merge_aggregates(*parts: Dict[str, Any]) -> Dict[str, Any]:
    """Sum aggregates of several tracers (e.g. client and server process)."""
    merged: Dict[str, Dict[str, float]] = {"calls": Counter(), "self_s":
                                           defaultdict(float),
                                           "counts": Counter()}
    for part in parts:
        for key in merged:
            for name, value in part.get(key, {}).items():
                merged[key][name] += value
    return {key: dict(value) for key, value in merged.items()}


# ---------------------------------------------------------------------------
# The probes: one per layer boundary the benchmark reports on
# ---------------------------------------------------------------------------
def _count_rows_returned(tracer: Tracer, args: tuple, result: Any) -> None:
    if isinstance(result, list):
        tracer.count("executor.rows_returned", len(result))
    elif result is not None:
        tracer.count("executor.rows_returned", 1)


def _count_impact(tracer: Tracer, args: tuple, impact: Any) -> None:
    tracer.count("dependencies.cells_recomputed", len(impact.recomputed))
    tracer.count("dependencies.cells_marked_outdated",
                 len(impact.marked_outdated))


def _count_linkage_rows(tracer: Tracer, args: tuple, result: Any) -> None:
    store = args[0]
    tracer.count("annotations.linkage_rows_loaded", len(store.backing))


def _count_frames(tracer: Tracer, args: tuple, frames: Any) -> None:
    tracer.count("wal.frames_replayed", len(frames))


def _count_encoded(tracer: Tracer, args: tuple, frame: Any) -> None:
    tracer.count("protocol.bytes", len(frame))


def _count_decoded(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("protocol.bytes", len(args[0]) + 4)


def install_layer_probes(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the benchmark reports."""
    from repro.annotations.manager import AnnotationManager
    from repro.annotations.storage import CompactRegionStore, NaiveCellStore
    from repro.authorization.approval import ApprovalManager
    from repro.catalog.table import Table
    from repro.client import NetworkConnection
    from repro.core.transactions import ReaderWriterLock, TransactionManager
    from repro.dbapi.connection import Cursor
    from repro.dependencies.tracker import DependencyTracker
    from repro.executor import engine as engine_module
    from repro.index.btree import BPlusTree
    from repro.index.hash_index import HashIndex
    from repro.planner import expressions, plan
    from repro.provenance.manager import ProvenanceManager
    from repro.server import protocol
    from repro.server import server as server_module
    from repro.storage.wal import FileWAL

    # Statement front end: DB-API cursor, parser, planner, codegen, executor.
    tracer.wrap(Cursor, "execute", "dbapi.execute")
    tracer.wrap(Cursor, "fetchall", "executor.fetch", _count_rows_returned)
    tracer.wrap(Cursor, "fetchone", "executor.fetch", _count_rows_returned)
    tracer.wrap(engine_module, "parse_prepared", "sql.parse")
    tracer.wrap(plan, "plan_select_joins", "planner.plan")
    tracer.wrap(expressions.BatchFilter, "__init__", "codegen.batch_filter")
    for method in ("execute", "execute_prepared", "stream_prepared"):
        tracer.wrap(engine_module.Engine, method, "executor.execute")
    tracer.count_yielded(Table, "scan_batches", "executor.rows_examined")
    tracer.count_calls(Table, "lookup_primary_key", "catalog.pk_lookups")
    tracer.count_calls(BPlusTree, "search", "index.lookups")
    tracer.count_calls(HashIndex, "search", "index.lookups")

    # The bdbms managers.
    tracer.wrap(AnnotationManager, "propagation_index",
                "annotations.propagation_index")
    for store in (NaiveCellStore, CompactRegionStore):
        tracer.wrap(store, "load_index", "annotations.load_linkage",
                    _count_linkage_rows)
    tracer.wrap(AnnotationManager, "add_annotation", "annotations.add")
    tracer.wrap(DependencyTracker, "handle_update",
                "dependencies.handle_update", _count_impact)
    tracer.wrap(DependencyTracker, "handle_delete",
                "dependencies.handle_delete", _count_impact)
    for method in ("log_insert", "log_update", "log_delete"):
        tracer.wrap(ApprovalManager, method, "approval.log")
    for method in ("approve", "disapprove"):
        tracer.wrap(ApprovalManager, method, "approval.review")
    tracer.wrap(ProvenanceManager, "record", "provenance.record")

    # Transactions and the write-ahead log.
    tracer.wrap(ReaderWriterLock, "acquire_read", "txn.read_lock_wait")
    tracer.wrap(ReaderWriterLock, "acquire_write", "txn.write_lock_wait")
    tracer.wrap(FileWAL, "commit", "wal.commit")
    tracer.wrap(FileWAL, "append", "wal.append")
    tracer.wrap(FileWAL, "sync", "wal.sync")
    tracer.wrap(FileWAL, "read_frames", "wal.read_frames", _count_frames)
    tracer.wrap(TransactionManager, "replay", "wal.replay")

    # Wire: client round trips, frame encoding on both ends, and the
    # server's per-request scope (lock waits and execution nest inside it).
    tracer.wrap_context(server_module, "session_scope", "server.request")
    tracer.wrap(NetworkConnection, "request", "client.request")
    tracer.wrap(protocol, "encode_frame", "protocol.encode", _count_encoded)
    tracer.wrap(protocol, "decode_payload", "protocol.decode", _count_decoded)
