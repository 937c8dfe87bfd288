"""Workload ``annotated_reads``: one curator browsing the annotated catalog.

A closed loop of PK lookups, A-SQL reads (ANNOTATION+PK, PROMOTE, AWHERE,
FILTER) and a few single-cell renames on a database that fits the buffer
pool.  It exercises sql -> plan cache -> planner -> codegen -> executor ->
annotations with no buffer misses and no wire; only the renames reach the
WAL.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from perfbench.common import Clock, Samples
from perfbench.gene_catalog import GeneCatalog, RequestSource, execute
from perfbench.harness import Measurement, closed_loop, program_counters
from perfbench.trace import Tracer


class AnnotatedReads:
    name = "annotated_reads"

    def __init__(self, settings: Dict[str, Any], seed: int, path: str):
        from repro import Database
        self.settings = settings
        self.seed = seed
        self.path = path
        self.catalog = GeneCatalog(settings["genes"],
                                   settings["cell_note_every"], seed)
        self.db = Database(path)
        self.cursor = self.db.connect().cursor()
        self.requests = RequestSource(self.catalog, range(len(self.catalog)),
                                      settings["mix"], self.name, seed)

    # -- phases ---------------------------------------------------------------
    def setup(self) -> None:
        self.catalog.load(self.cursor)

    def warm_up(self) -> None:
        self.catalog.tag_names(self.cursor)
        clock = Clock(Samples())  # checked, not timed
        for _ in range(self.settings["warmup_ops"]):
            self.step(clock)

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Measurement:
        return closed_loop(self.step, seconds, tracer)

    def counters(self) -> Dict[str, float]:
        return program_counters(self.db)

    def user_bytes(self) -> int:
        return self.catalog.user_bytes

    def verify_reopened(self, db) -> int:
        self.catalog.verify_table(db.connect().cursor())
        return 0  # this workload keeps no approval or outdated state

    def close(self) -> None:
        self.db.close()

    def final_check(self) -> Dict[str, Any]:
        from repro import Database
        db = Database(self.path)
        try:
            self.catalog.verify_table(db.connect().cursor())
        finally:
            db.close()
        return {"verified_rows": len(self.catalog)}

    # -- one user action ---------------------------------------------------------
    def step(self, clock: Clock) -> None:
        request = self.requests.next()
        answer = clock(request.kind, lambda: execute(self.cursor, request))
        request.verify(answer)
