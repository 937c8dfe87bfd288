"""The metric catalogue: every name the benchmark prints, with its unit.

``END_TO_END`` and ``PER_LAYER`` are the single source the command's output
is built from; ``selfcheck.py`` checks that ``BENCHMARK.json`` declares
exactly these names with these units, and the reverse.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

#: name -> (unit, better).  Every workload reports every one of them.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "lookup_p50_ms": ("ms", "lower"),
    "lookup_p75_ms": ("ms", "lower"),
    "annotated_read_p50_ms": ("ms", "lower"),
    "annotated_read_p75_ms": ("ms", "lower"),
    "curation_write_p50_ms": ("ms", "lower"),
    "curation_write_p75_ms": ("ms", "lower"),
    "stored_bytes_per_user_byte": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Latency class -> (median metric, tail metric, cap of the tail quantile).
#: The tail stops at p75: on a shared 2-vCPU host p90-p99 of these classes
#: moved 10-70% between runs of unchanged code (scheduler and fsync noise).
LATENCY_CLASSES = {
    "lookup": ("lookup_p50_ms", "lookup_p75_ms", 0.75),
    "annotated_read": ("annotated_read_p50_ms", "annotated_read_p75_ms", 0.75),
    "curation_write": ("curation_write_p50_ms", "curation_write_p75_ms", 0.75),
}

#: name -> (unit, better).  Per-op values are averaged over every timed
#: statement of the traced window; a layer a workload bypasses reads 0.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # statement front end
    "dbapi.self_s": ("s/op", "lower"),
    "sql.parse.calls": ("count/op", "lower"),
    "sql.parse.self_s": ("s/op", "lower"),
    "plan_cache.hit_ratio": ("ratio", "higher"),
    "plan_cache.misses": ("count/op", "lower"),
    "planner.plan.self_s": ("s/op", "lower"),
    "codegen.batch_filters_per_op": ("count/op", "lower"),
    "codegen.self_s": ("s/op", "lower"),
    "executor.execute.self_s": ("s/op", "lower"),
    "executor.fetch.self_s": ("s/op", "lower"),
    "executor.rows_examined_per_row_returned": ("ratio", "lower"),
    "catalog.pk_lookups": ("count/op", "higher"),
    "index.lookups": ("count/op", "higher"),
    # annotations, dependencies, approval, provenance
    "annotations.propagation_index.calls": ("count/op", "lower"),
    "annotations.propagation_index.self_s": ("s/op", "lower"),
    "annotations.linkage_rows_loaded": ("count/op", "lower"),
    "annotations.add.self_s": ("s/op", "lower"),
    "dependencies.handle_update.self_s": ("s/op", "lower"),
    "dependencies.handle_delete.self_s": ("s/op", "lower"),
    "dependencies.cells_recomputed": ("count/op", "lower"),
    "dependencies.cells_marked_outdated": ("count/op", "lower"),
    "approval.log.self_s": ("s/op", "lower"),
    "approval.review.self_s": ("s/op", "lower"),
    "provenance.record.self_s": ("s/op", "lower"),
    # buffer pool, decoded-page cache, disk
    "pool.hit_ratio": ("ratio", "higher"),
    "pool.misses": ("count/op", "lower"),
    "pool.evictions": ("count/op", "lower"),
    "decoded.hit_ratio": ("ratio", "higher"),
    "disk.page_reads_per_op": ("count/op", "lower"),
    "disk.page_writes_per_op": ("count/op", "lower"),
    # write-ahead log, reopen and storage
    "wal.commits": ("count/op", "lower"),
    "wal.fsyncs": ("count/op", "lower"),
    "wal.bytes_per_commit": ("bytes", "lower"),
    "wal.commit_s": ("s/op", "lower"),
    "reopen_s": ("s", "lower"),
    "wal.replay_s": ("s", "lower"),
    "wal.frames": ("count", "lower"),
    "wal.size_bytes": ("bytes", "lower"),
    "reopen_lost_items": ("count", "lower"),
    # transactions, wire, server
    "txn.read_lock_wait_s": ("s/op", "lower"),
    "txn.write_lock_wait_s": ("s/op", "lower"),
    "client.round_trips_per_op": ("count/op", "lower"),
    "protocol.encode_s": ("s/op", "lower"),
    "protocol.decode_s": ("s/op", "lower"),
    "protocol.bytes_per_op": ("bytes/op", "lower"),
    "server.request.self_s": ("s/op", "lower"),
    "server.busy_rejects": ("count", "lower"),
    "failed_op_frac": ("ratio", "lower"),
    # the tracing itself
    "trace.untraced_ops_per_s": ("1/s", "higher"),
    "trace.traced_ops_per_s": ("1/s", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(aggregate: Mapping[str, Any], stats: Mapping[str, float],
                  ops: int) -> Dict[str, float]:
    """Per-layer values from a trace aggregate and program counter deltas.

    ``aggregate`` is :meth:`perfbench.trace.Tracer.aggregate` output (merged
    across processes for the served workload); ``stats`` holds deltas of the
    program's own counters over the traced window (pool, decoded cache,
    disk, plan cache, WAL) plus the reopen and generator figures.
    """
    calls = aggregate.get("calls", {})
    self_s = aggregate.get("self_s", {})
    counts = aggregate.get("counts", {})

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    def self_per_op(*names: str) -> float:
        return per_op(sum(self_s.get(name, 0.0) for name in names))

    pool_total = stats.get("pool.hits", 0) + stats.get("pool.misses", 0)
    decoded_total = stats.get("decoded.hits", 0) + stats.get("decoded.misses", 0)
    plan_total = stats.get("plan_cache.hits", 0) + stats.get("plan_cache.misses", 0)
    commits = calls.get("wal.append", 0)
    return {
        "dbapi.self_s": self_per_op("dbapi.execute"),
        "sql.parse.calls": per_op(calls.get("sql.parse", 0)),
        "sql.parse.self_s": self_per_op("sql.parse"),
        "plan_cache.hit_ratio": _ratio(stats.get("plan_cache.hits", 0), plan_total),
        "plan_cache.misses": per_op(stats.get("plan_cache.misses", 0)),
        "planner.plan.self_s": self_per_op("planner.plan"),
        "codegen.batch_filters_per_op": per_op(calls.get("codegen.batch_filter", 0)),
        "codegen.self_s": self_per_op("codegen.batch_filter"),
        "executor.execute.self_s": self_per_op("executor.execute"),
        "executor.fetch.self_s": self_per_op("executor.fetch"),
        "executor.rows_examined_per_row_returned": _ratio(
            counts.get("executor.rows_examined", 0),
            counts.get("executor.rows_returned", 0)),
        "catalog.pk_lookups": per_op(counts.get("catalog.pk_lookups", 0)),
        "index.lookups": per_op(counts.get("index.lookups", 0)),
        "annotations.propagation_index.calls": per_op(
            calls.get("annotations.propagation_index", 0)),
        "annotations.propagation_index.self_s": self_per_op(
            "annotations.propagation_index", "annotations.load_linkage"),
        "annotations.linkage_rows_loaded": per_op(
            counts.get("annotations.linkage_rows_loaded", 0)),
        "annotations.add.self_s": self_per_op("annotations.add"),
        "dependencies.handle_update.self_s": self_per_op(
            "dependencies.handle_update"),
        "dependencies.handle_delete.self_s": self_per_op(
            "dependencies.handle_delete"),
        "dependencies.cells_recomputed": per_op(
            counts.get("dependencies.cells_recomputed", 0)),
        "dependencies.cells_marked_outdated": per_op(
            counts.get("dependencies.cells_marked_outdated", 0)),
        "approval.log.self_s": self_per_op("approval.log"),
        "approval.review.self_s": self_per_op("approval.review"),
        "provenance.record.self_s": self_per_op("provenance.record"),
        "pool.hit_ratio": _ratio(stats.get("pool.hits", 0), pool_total),
        "pool.misses": per_op(stats.get("pool.misses", 0)),
        "pool.evictions": per_op(stats.get("pool.evictions", 0)),
        "decoded.hit_ratio": _ratio(stats.get("decoded.hits", 0), decoded_total),
        "disk.page_reads_per_op": per_op(stats.get("disk.page_reads", 0)),
        "disk.page_writes_per_op": per_op(stats.get("disk.page_writes", 0)),
        "wal.commits": per_op(commits),
        "wal.fsyncs": per_op(stats.get("wal.fsyncs", 0)),
        "wal.bytes_per_commit": _ratio(stats.get("wal.bytes", 0), commits),
        "wal.commit_s": self_per_op("wal.commit", "wal.append", "wal.sync"),
        "reopen_s": stats.get("reopen_s", 0.0),
        "wal.replay_s": stats.get("wal.replay_s", 0.0),
        "wal.frames": stats.get("wal.frames", 0),
        "wal.size_bytes": stats.get("wal.size_bytes", 0),
        "reopen_lost_items": stats.get("reopen_lost_items", 0),
        "txn.read_lock_wait_s": self_per_op("txn.read_lock_wait"),
        "txn.write_lock_wait_s": self_per_op("txn.write_lock_wait"),
        "client.round_trips_per_op": per_op(calls.get("client.request", 0)),
        "protocol.encode_s": self_per_op("protocol.encode"),
        "protocol.decode_s": self_per_op("protocol.decode"),
        "protocol.bytes_per_op": per_op(counts.get("protocol.bytes", 0)),
        "server.request.self_s": self_per_op("server.request"),
        "server.busy_rejects": stats.get("server.busy_rejects", 0),
        "failed_op_frac": stats.get("failed_op_frac", 0.0),
        "trace.untraced_ops_per_s": stats.get("trace.untraced_ops_per_s", 0.0),
        "trace.traced_ops_per_s": stats.get("trace.traced_ops_per_s", 0.0),
        "trace.overhead_frac": stats.get("trace.overhead_frac", 0.0),
    }


def render(values: Mapping[str, float],
           catalogue: Mapping[str, Tuple[str, str]]) -> Dict[str, Dict[str, Any]]:
    """``{"name": {"value": v, "unit": u}}`` for exactly the catalogue's names."""
    missing = set(catalogue) - set(values)
    extra = set(values) - set(catalogue)
    if missing or extra:
        raise KeyError(f"metric set mismatch: missing {sorted(missing)}, "
                       f"undeclared {sorted(extra)}")
    return {name: {"value": float(values[name]), "unit": catalogue[name][0]}
            for name in catalogue}
