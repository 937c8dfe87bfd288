"""Shared pieces of the benchmark: statistics, timing, host facts, data.

Everything here is workload-neutral.  The workloads build on it and
``run.py`` turns their results into the one-line JSON the command prints.
"""

from __future__ import annotations

import math
import os
import platform
import random
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: The tail of a latency sample is the highest percentile, up to the class's
#: cap, that still has at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


class WrongAnswer(AssertionError):
    """The program returned a result the shadow model says is wrong."""


class ProgramError(Exception):
    """The program under test raised during a timed operation (the operation
    is counted as failed; the original exception is the cause)."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------
def tail_quantile(count: int, cap: float) -> float:
    """The percentile (as a fraction) reported as the tail of ``count`` samples.

    It is the highest quantile ``q <= cap`` whose nearest-rank value has at
    least :data:`TAIL_MIN_BEYOND` samples above it.  When even the median
    has fewer beyond it (under twenty samples), the median stands in.
    """
    if count < 2 * TAIL_MIN_BEYOND:
        return 0.5
    return min(cap, (count - TAIL_MIN_BEYOND) / count)


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("quantile of an empty sample")
    # The epsilon keeps float error (0.9 * 100 = 90.00000000000001) from
    # moving the rank up by one.
    rank = max(1, math.ceil(q * len(sorted_values) - 1e-9))
    return sorted_values[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


@dataclass
class LatencySummary:
    count: int
    p50: float
    tail: float
    tail_quantile: float


def summarize(samples: Sequence[float], cap: float) -> LatencySummary:
    ordered = sorted(samples)
    q = tail_quantile(len(ordered), cap)
    return LatencySummary(len(ordered), quantile(ordered, 0.5),
                          quantile(ordered, q), q)


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------
#: Reported times are scaled to a host on which one call of
#: :func:`reference_work` takes this much CPU time.
REFERENCE_WORK_S = 0.0005
#: Calls of :func:`reference_work` per reading around a long timed section.
SPEED_READINGS = 9

_REFERENCE_TABLE = {f"key{index}": index for index in range(64)}
_REFERENCE_KEYS = tuple(_REFERENCE_TABLE)
#: Rows the memory half of the reference work walks (built on first use):
#: about 6 MB, more than the host's per-core caches.
_REFERENCE_ROWS: List[Tuple[str, int, str]] = []
_REFERENCE_ROW_COUNT = 30000
_reference_start = 0


def _reference_rows() -> List[Tuple[str, int, str]]:
    if not _REFERENCE_ROWS:
        _REFERENCE_ROWS.extend(
            (f"gene{index:05d}", index, f"{index:06d}" + "ACGT" * 9)
            for index in range(_REFERENCE_ROW_COUNT))
    return _REFERENCE_ROWS


def reference_work() -> int:
    """A fixed piece of interpreter work, in two halves.

    The first does dict lookups, integer arithmetic and string slicing on a
    table that stays in the core's caches; the second visits 250 rows spread
    over a 6 MB list, as a scan over decoded records does.  A busy
    neighbour slows the two halves by different amounts and the program
    sits between them; timed together they track the program's speed
    better than either alone.  Neither half allocates a container, so no
    garbage collection, whose cost would depend on the program's heap,
    lands in it.
    """
    global _reference_start
    rows = _reference_rows()
    total = 0
    table = _REFERENCE_TABLE
    for round_ in range(24):
        for key in _REFERENCE_KEYS:
            total += table[key] * round_ % 7
            total ^= len(key[1:])
    start = _reference_start
    _reference_start = (start + 7919) % _REFERENCE_ROW_COUNT
    for step in range(250):
        name, number, sequence = rows[(start + step * 101) % _REFERENCE_ROW_COUNT]
        if name in table:
            total += number
        total += sequence.count("A", 0, 8)
    return total


def slowdown() -> float:
    """How much slower than the reference host this thread runs right now.

    A shared host's speed moves by up to 1.8x within a second and between
    minutes (other tenants' load on the same cores), for the program and
    for a plain interpreter loop alike.  Thread CPU time of the reference
    work measures that speed; descheduling, lock waits and I/O, which the
    program may cause, are not in it.
    """
    _reference_rows()  # built once, outside the timed call
    start = time.thread_time()
    reference_work()
    return max(time.thread_time() - start, 1e-9) / REFERENCE_WORK_S


def scaled_time(call: Callable[[], T]) -> Tuple[T, float, float]:
    """Run ``call``; return its result, its wall time scaled to the
    reference host and the raw wall time.  The host's speed is the median
    of readings taken just before and just after the call (for sections
    longer than one speed reading can cover)."""
    readings = [slowdown() for _ in range(SPEED_READINGS)]
    started = time.perf_counter()
    result = call()
    elapsed = time.perf_counter() - started
    readings += [slowdown() for _ in range(SPEED_READINGS)]
    return result, elapsed / median(readings), elapsed


# ---------------------------------------------------------------------------
# Timed samples
# ---------------------------------------------------------------------------
@dataclass
class Samples:
    """Latencies per operation class plus the attempted/failed tally.

    ``raw`` holds each statement's wall-clock latency and ``speeds`` the
    :func:`slowdown` reading taken just before it.
    """

    raw: Dict[str, List[float]] = field(default_factory=dict)
    speeds: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: The program runs in another process (the server).  A reading taken
    #: here says little about that process's speed at one instant, so every
    #: latency is scaled by the median reading of the run instead.
    per_run: bool = False

    def add(self, kind: str, seconds: float, speed: float) -> None:
        self.raw.setdefault(kind, []).append(seconds)
        self.speeds.setdefault(kind, []).append(speed)
        self.attempted += 1

    def add_failure(self, kind: str) -> None:
        self.attempted += 1
        self.failed += 1

    def merge(self, other: "Samples") -> None:
        for kind, values in other.raw.items():
            self.raw.setdefault(kind, []).extend(values)
            self.speeds.setdefault(kind, []).extend(other.speeds[kind])
        self.attempted += other.attempted
        self.failed += other.failed

    def median_slowdown(self) -> float:
        return median([speed for speeds in self.speeds.values()
                       for speed in speeds])

    def scaled(self) -> Dict[str, List[float]]:
        """Latencies per kind scaled to the reference host."""
        if self.per_run:
            speed = self.median_slowdown()
            return {kind: [seconds / speed for seconds in values]
                    for kind, values in self.raw.items()}
        return {kind: [seconds / speed for seconds, speed
                       in zip(values, self.speeds[kind])]
                for kind, values in self.raw.items()}

    def ops_per_s(self, callers: int) -> float:
        """Statements per second ``callers`` closed-loop callers complete
        on the reference host: ``callers`` over the mean scaled latency.
        The benchmark's own work between statements (answer checks, speed
        readings) is not in it."""
        scaled = self.scaled().values()
        busy = sum(sum(values) for values in scaled)
        timed = sum(len(values) for values in scaled)
        return callers * timed / busy if busy else 0.0


class Clock:
    """Times each statement of a closed-loop operation into ``samples``.

    ``clock(kind, call)`` takes a speed reading, runs ``call`` and records
    its latency and the reading under ``kind``.  An exception from
    the program is counted as a failed operation and raised again as
    :class:`ProgramError`.
    """

    def __init__(self, samples: Samples):
        self.samples = samples

    def __call__(self, kind: str, call: Callable[[], object]):
        speed = slowdown()
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:
            self.samples.add_failure(kind)
            raise ProgramError(kind) from exc
        self.samples.add(kind, time.perf_counter() - start, speed)
        return result


# ---------------------------------------------------------------------------
# Host and process facts
# ---------------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def steal_s() -> float:
    """CPU time the hypervisor gave other guests instead of this host's
    vCPUs so far, summed over them (0 where ``/proc/stat`` is missing)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    ticks = os.sysconf("SC_CLK_TCK")
    return int(fields[8]) / ticks if len(fields) > 8 else 0.0


def host_meta() -> Dict[str, object]:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def engine_meta() -> Dict[str, object]:
    """The storage and flush defaults every workload runs with."""
    from repro import EngineConfig
    from repro.storage.buffer_pool import DEFAULT_POOL_SIZE
    from repro.storage.page import DEFAULT_PAGE_SIZE
    config = EngineConfig()
    return {
        "page_size": DEFAULT_PAGE_SIZE,
        "pool_pages": DEFAULT_POOL_SIZE,
        "synchronous": config.synchronous,
        "group_commit": config.group_commit,
        "decoded_page_cache_pages": config.decoded_page_cache_pages,
    }


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------
def database_bytes(path: str) -> int:
    """Bytes a database occupies on disk: data file plus its WAL."""
    from repro.storage.wal import wal_path_for
    total = 0
    for name in (path, wal_path_for(path)):
        if os.path.exists(name):
            total += os.path.getsize(name)
    return total


def copy_database(source: str, target: str) -> None:
    """Copy a database's data file and WAL (the WAL is fsync'ed per commit)."""
    from repro.storage.wal import wal_path_for
    for suffix_source, suffix_target in ((source, target),
                                         (wal_path_for(source),
                                          wal_path_for(target))):
        if os.path.exists(suffix_source):
            shutil.copyfile(suffix_source, suffix_target)


def remove_database(path: str) -> None:
    from repro.storage.wal import wal_path_for
    for name in (path, wal_path_for(path)):
        if os.path.exists(name):
            os.remove(name)


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------
DNA = "ACGT"
RESIDUES = "ACDEFGHIKLMNPQRSTVWY"


def dna(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(DNA) for _ in range(length))


def gene_id(index: int) -> str:
    """Unique gene identifiers by construction (``JW00042``)."""
    return f"JW{index:05d}"


def gene_name(index: int) -> str:
    """Unique gene names by construction (no draw, so no collisions)."""
    return f"gene{index:05d}"


def predict_protein(gene_sequence: str) -> str:
    """Deterministic stand-in for the prediction tool P of Figure 9."""
    residues = [RESIDUES[sum(map(ord, gene_sequence[i:i + 3])) % len(RESIDUES)]
                for i in range(0, max(len(gene_sequence) - 2, 0), 3)]
    return "".join(residues) or "M"


def user_bytes(values: Sequence[object]) -> int:
    """Bytes of user data in one row or one set of column values."""
    total = 0
    for value in values:
        if isinstance(value, str):
            total += len(value.encode("utf-8"))
        elif value is not None:
            total += 8
    return total


class Schedule:
    """Cycles through a fixed interleaving that holds each share exactly.

    One block of ``block`` draws contains ``round(share * block)`` of each
    name, shuffled once by a generator seeded with ``label`` alone; the
    schedule repeats that block.  Every run therefore executes the same
    sequence of operation kinds, so the mix and what precedes each
    operation (which decides what the buffer pool holds) do not drift with
    the seed; the seed still picks every key and value.
    """

    def __init__(self, shares: Dict[str, float], label: str,
                 block: int = 100):
        self.block: List[str] = []
        for name, share in sorted(shares.items()):
            self.block.extend([name] * round(share * block))
        if not self.block:
            raise ValueError(f"mix {shares!r} is empty at block size {block}")
        random.Random(f"schedule/{label}").shuffle(self.block)
        self.position = 0

    def next(self) -> str:
        name = self.block[self.position]
        self.position = (self.position + 1) % len(self.block)
        return name


def annotation_bodies(annotations) -> List[str]:
    """Sorted bodies of one cell's annotation set (order-free comparison)."""
    return sorted(annotation.body for annotation in annotations)


def wrap_body(text: str) -> str:
    """The stored form of a plain-text annotation value."""
    return f"<Annotation>{text}</Annotation>"

