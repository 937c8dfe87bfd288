"""The phases every workload goes through, and the closed-loop runner.

One run of a workload:

1. **set-up**, repeated ``setup_repeats`` times from the same seed; the
   median is ``setup_s`` and the last database is kept;
2. **warm-up**: a fixed number of the workload's own operations, checked
   but not timed, so every run reaches the same history before timing;
3. **snapshot**: the database is copied; the copy's size gives
   ``stored_bytes_per_user_byte``, its first reopen is verified against the
   shadow model and counted for lost paper state, and ``reopen_repeats``
   timed reopens, about half before and half after the measured phase, give
   ``reopen_s`` (median).  A fixed history keeps these independent of how
   fast the measured phase runs;
4. **measure** for ``--seconds`` (a traced run measures half untraced, half
   with the probes installed);
5. **final check**: close, reopen, verify every row again.

Each timed set-up, reopen and measured phase starts from a collected heap, so
the garbage of earlier set-ups is not collected inside a timed section.
"""

from __future__ import annotations

import gc
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.common import (
    Clock,
    ProgramError,
    Samples,
    copy_database,
    database_bytes,
    median,
    peak_rss_mb,
    remove_database,
    scaled_time,
    steal_s,
    summarize,
)
from perfbench.metrics import (
    END_TO_END,
    LATENCY_CLASSES,
    PER_LAYER,
    layer_metrics,
    render,
)
from perfbench.trace import Tracer, install_layer_probes, merge_aggregates


@dataclass
class Measurement:
    """What one measured phase produced."""

    samples: Samples
    ops_per_s: float
    #: Program counter deltas and other per-layer inputs (see layer_metrics).
    stats: Dict[str, float] = field(default_factory=dict)
    #: Trace aggregates recorded in other processes (the server).
    remote_aggregate: Optional[Dict[str, Any]] = None
    #: Peak memory of the process that served the workload, if not this one.
    peak_rss_mb: Optional[float] = None
    meta: Dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Program counters read through public attributes
# ---------------------------------------------------------------------------
def program_counters(db) -> Dict[str, float]:
    pool = db.catalog.pool
    counters = {
        "pool.hits": pool.stats.hits,
        "pool.misses": pool.stats.misses,
        "pool.evictions": pool.stats.evictions,
        "decoded.hits": pool.decoded.stats.hits,
        "decoded.misses": pool.decoded.stats.misses,
        "disk.page_reads": db.disk.stats.page_reads,
        "disk.page_writes": db.disk.stats.page_writes,
        "plan_cache.hits": db.engine.plan_cache.stats.hits,
        "plan_cache.misses": db.engine.plan_cache.stats.misses,
        "wal.fsyncs": 0,
        "wal.bytes": 0,
    }
    if db.wal is not None:
        counters["wal.fsyncs"] = db.wal.fsync_count
        counters["wal.bytes"] = db.wal.size_bytes()
    return counters


def counter_delta(after: Dict[str, float],
                  before: Dict[str, float]) -> Dict[str, float]:
    return {name: after[name] - before.get(name, 0) for name in after}


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------
def closed_loop(step: Callable[[Clock], None], seconds: float,
                tracer: Optional[Tracer] = None) -> Measurement:
    """Run ``step(clock)`` back to back for ``seconds``.

    Each step is one user action of one client; its statements time
    themselves through ``clock``.  A program error is counted (``Clock``)
    and the loop goes on; a wrong answer ends the run.
    """
    samples = Samples()
    clock = Clock(samples)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        try:
            with tracer.span("op") if tracer is not None else nullcontext():
                step(clock)
        except ProgramError:
            pass  # counted as failed by Clock
    return Measurement(samples, samples.ops_per_s(1))


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------
class Snapshot:
    """A copy of the database at the fixed history, reopened to time recovery.

    The first reopen is checked against the shadow model and counts the
    paper state lost.  Timed reopens run before and after the measured
    phase, so their median spans the run instead of one moment of the host.
    """

    def __init__(self, workload, workdir: str):
        from repro.storage.wal import wal_path_for
        workload.db.commit()  # durability point: buffered pages reach the file
        self.workload = workload
        self.path = os.path.join(workdir, "snapshot.db")
        copy_database(workload.path, self.path)
        self.figures: Dict[str, float] = {
            "stored_bytes_per_user_byte":
                database_bytes(self.path) / workload.user_bytes(),
            "wal.size_bytes": os.path.getsize(wal_path_for(self.path)),
        }
        self.times: List[float] = []

    def reopen(self, count: int) -> None:
        from repro import Database
        for _ in range(count):
            gc.collect()
            db, scaled, _ = scaled_time(lambda: Database(self.path))
            self.times.append(scaled)
            try:
                if "reopen_lost_items" not in self.figures:
                    self.figures["reopen_lost_items"] = \
                        self.workload.verify_reopened(db)
            finally:
                db.close()

    def trace_replay(self) -> None:
        """One more reopen with the probes on: WAL replay time and frames."""
        from repro import Database
        tracer = Tracer()
        install_layer_probes(tracer)
        tracer.enabled = True
        try:
            Database(self.path).close()
        finally:
            tracer.enabled = False
            tracer.uninstall()
        aggregate = tracer.aggregate()
        self.figures["wal.replay_s"] = (
            aggregate["self_s"].get("wal.replay", 0.0)
            + aggregate["self_s"].get("wal.read_frames", 0.0))
        self.figures["wal.frames"] = aggregate["counts"].get(
            "wal.frames_replayed", 0)

    def finish(self) -> Dict[str, float]:
        remove_database(self.path)
        self.figures["reopen_s"] = median(self.times)
        return self.figures


def _latencies(samples: Samples) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The p50 and tail metric of each latency class, and for every timed
    kind its sample count, p50, tail, the quantile the tail was read at and
    the p50 as measured on the wall clock, before scaling."""
    scaled = samples.scaled()
    values: Dict[str, float] = {}
    for kind, (p50_name, tail_name, cap) in LATENCY_CLASSES.items():
        summary = summarize(scaled.get(kind, []), cap)
        values[p50_name] = summary.p50 * 1000.0
        values[tail_name] = summary.tail * 1000.0
    meta: Dict[str, Any] = {"slowdown_p50": samples.median_slowdown(),
                            "scaled_per_run": samples.per_run}
    for kind, latencies in sorted(scaled.items()):
        summary = summarize(latencies, LATENCY_CLASSES.get(kind, (0, 0, 0.75))[2])
        meta[kind] = {"samples": summary.count,
                      "p50_ms": summary.p50 * 1000.0,
                      "tail_ms": summary.tail * 1000.0,
                      "tail_quantile": summary.tail_quantile,
                      "raw_p50_ms": median(samples.raw[kind]) * 1000.0}
    return values, meta


def _set_up(workload_class, settings: Dict[str, Any], seed: int,
            workdir: str, repeats: int
            ) -> Tuple[Any, List[float], List[float]]:
    """Build the workload's database ``repeats`` times; keep the last.
    Returns it with the set-up times, scaled and raw."""
    times: List[float] = []
    raw_times: List[float] = []
    for attempt in range(repeats):
        path = os.path.join(workdir, f"setup{attempt}.db")
        remove_database(path)
        workload = workload_class(settings, seed, path)
        gc.collect()
        _, scaled, raw = scaled_time(workload.setup)
        times.append(scaled)
        raw_times.append(raw)
        if attempt < repeats - 1:
            workload.close()
            remove_database(path)
    return workload, times, raw_times


def _traced_measure(workload, seconds: float
                    ) -> Tuple[Measurement, Measurement, Tracer,
                               Dict[str, float]]:
    """Half the time untraced, half with the probes installed."""
    untraced = workload.measure(seconds / 2, None)
    tracer = Tracer()
    install_layer_probes(tracer)
    before = workload.counters()
    tracer.enabled = True
    try:
        traced = workload.measure(seconds / 2, tracer)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    return untraced, traced, tracer, counter_delta(workload.counters(), before)


def run_workload(workload_class, params: Dict[str, Any], seed: int,
                 seconds: float, trace: bool, workdir: str,
                 trace_path: Optional[str]) -> Dict[str, Any]:
    """All phases of one run; returns the result object and metadata."""
    common = params["common"]
    workload, setup_times, raw_setup_times = _set_up(
        workload_class, params[workload_class.name], seed, workdir,
        common["setup_repeats"])
    workload.trace_path = trace_path
    workload.warm_up()
    reopens = Snapshot(workload, workdir)
    reopens.reopen(common["reopen_repeats"] // 2 + 1)
    if trace:
        reopens.trace_replay()
    gc.collect()
    stolen = steal_s()
    if trace:
        untraced, measured, tracer, stats = _traced_measure(workload, seconds)
    else:
        measured = workload.measure(seconds, None)
    stolen = steal_s() - stolen
    workload.close()
    final = workload.final_check()
    reopens.reopen(common["reopen_repeats"] // 2)
    snapshot = reopens.finish()

    samples = measured.samples
    latencies, latency_meta = _latencies(samples)
    meta: Dict[str, Any] = {
        "setup_s_each": setup_times,
        "setup_s_raw_each": raw_setup_times,
        "reopen_s_each": reopens.times,
        "steal_s_while_measuring": stolen,
        "latency": latency_meta,
        "snapshot": {key: snapshot[key] for key in
                     ("reopen_s", "reopen_lost_items", "wal.size_bytes")},
        "final": final,
    }
    meta.update(measured.meta)
    if not trace:
        values = {
            "setup_s": median(setup_times),
            "ops_per_s": measured.ops_per_s,
            "stored_bytes_per_user_byte":
                snapshot["stored_bytes_per_user_byte"],
            "peak_rss_mb": (measured.peak_rss_mb
                            if measured.peak_rss_mb is not None
                            else peak_rss_mb()),
            **latencies,
        }
        metrics = render(values, END_TO_END)
    else:
        aggregate = tracer.aggregate()
        if measured.remote_aggregate is not None:
            aggregate = merge_aggregates(aggregate, measured.remote_aggregate)
        stats.update(measured.stats)
        stats.update({key: snapshot[key] for key in
                      ("reopen_s", "wal.replay_s", "wal.frames",
                       "wal.size_bytes", "reopen_lost_items")})
        stats["failed_op_frac"] = (samples.failed / samples.attempted
                                   if samples.attempted else 0.0)
        stats["trace.untraced_ops_per_s"] = untraced.ops_per_s
        stats["trace.traced_ops_per_s"] = measured.ops_per_s
        stats["trace.overhead_frac"] = (
            1.0 - measured.ops_per_s / untraced.ops_per_s
            if untraced.ops_per_s else 0.0)
        metrics = render(layer_metrics(aggregate, stats, samples.attempted),
                         PER_LAYER)
        if trace_path is not None:
            tracer.write_spans(trace_path)
            meta["trace_file"] = trace_path
        samples.merge(untraced.samples)
    return {
        "result": {"correct": True, "attempted": samples.attempted,
                   "failed": samples.failed, "metrics": metrics},
        "meta": meta,
    }
