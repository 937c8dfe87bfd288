"""Workload ``curation_writes``: the Figure 9 pipeline under content approval.

A file-backed database (``synchronous="full"``, group commit on: the
engine defaults) holds ``Gene``/``Protein``/``GeneMatching`` with the three
dependency rules of Figure 9: the executable prediction tool P
(``Gene.GSequence -> Protein.PSequence``), the non-executable lab experiment
(``Protein.PSequence -> Protein.PFunction``) and BLAST (``GeneMatching``).
``Gene`` runs under ``START CONTENT APPROVAL``.  Its pages outnumber the
buffer pool, so this is the workload that misses in the pool, writes pages
and commits through the WAL.

One client runs a closed loop of a lab member's and an administrator's
actions; every answer is checked against a shadow model of rows, outdated
marks, annotations and the approval log.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Set, Tuple

from perfbench.common import (
    Clock,
    Samples,
    Schedule,
    annotation_bodies,
    check,
    dna,
    gene_id,
    gene_name,
    predict_protein,
    user_bytes,
    wrap_body,
)
from perfbench.harness import Measurement, closed_loop, program_counters
from perfbench.trace import Tracer

#: Long enough that ``Gene`` alone outgrows the buffer pool: every scan of it
#: misses in the same way, instead of hitting or missing with what the
#: previous operation left behind (which made per-class medians bimodal).
SEQUENCE_LENGTH = 200
FUNCTIONS = ("Hypothetical protein", "Cell wall formation", "Exhibitor",
             "Transcription factor", "Membrane transport")
LAB = "lab_member"
ADMIN = "admin"
LOADER = "regulondb-loader"
SEQUENCER = "lab-sequencer"

LOOKUP_SQL = "SELECT GID, GName, GSequence FROM Gene WHERE GID = ?"
VIEW_SQL = ("SELECT GID, GName, GSequence FROM Gene ANNOTATION(GAnnotation) "
            "WHERE GID = ?")
PROTEIN_SQL = ("SELECT PName, GID, PSequence, PFunction FROM Protein "
               "WHERE PName = ?")
OUTDATED = "OUTDATED"


def blast_evalue(source_row: Dict[str, Any], target_row: Dict[str, Any]) -> float:
    """Deterministic stand-in for BLAST-2.2.15's E-value."""
    gene1 = str(source_row.get("Gene1") or source_row.get("gene1") or "")
    gene2 = str(source_row.get("Gene2") or source_row.get("gene2") or "")
    matches = sum(1 for a, b in zip(gene1, gene2) if a == b)
    return round(10 ** (-10 * matches / max(len(gene1), len(gene2), 1)), 12)


def _prediction_tool(source_row: Dict[str, Any],
                     target_row: Dict[str, Any]) -> str:
    sequence = source_row.get("GSequence") or source_row.get("gsequence") or ""
    return predict_protein(str(sequence))


class CurationWrites:
    name = "curation_writes"

    def __init__(self, settings: Dict[str, Any], seed: int, path: str):
        from repro import Database
        self.settings = settings
        self.path = path
        self.db = Database(path)
        self.admin = self.db.connect(ADMIN).cursor()
        self.lab = self.db.connect(LAB).cursor()
        self.rng = random.Random(f"{self.name}/ops/{seed}")
        self.kinds = Schedule(settings["mix"], self.name)
        share = settings["disapprove_share"]
        self.verdicts = Schedule({"disapprove": share, "approve": 1 - share},
                                 f"{self.name}/verdicts")
        self.lab_changes = 0
        data_rng = random.Random(f"{self.name}/data/{seed}")
        count = settings["genes"]
        self.original = [gene_id(index) for index in range(count)]
        #: gid -> [name, sequence] of every gene present.
        self.genes: Dict[str, List[str]] = {
            gid: [gene_name(index), dna(data_rng, SEQUENCE_LENGTH)]
            for index, gid in enumerate(self.original)}
        #: gid -> [pname, psequence, pfunction] (original genes only).
        self.proteins: Dict[str, List[str]] = {
            gid: [f"P{index:05d}", predict_protein(self.genes[gid][1]),
                  FUNCTIONS[index % len(FUNCTIONS)]]
            for index, gid in enumerate(self.original)}
        self.protein_tid: Dict[str, int] = {}
        self.outdated: Set[str] = set()
        self.notes: Dict[str, List[str]] = {}
        #: op id -> (kind, gid, undo data) for operations awaiting review.
        self.pending: "OrderedDict[int, Tuple[str, str, Any]]" = OrderedDict()
        self.next_op_id = 1
        #: Lab-inserted genes present -> True while their INSERT is pending.
        self.lab_genes: Dict[str, bool] = {}
        self.lab_serial = 0
        self.matching_rows = 0
        self.written = 0
        self.serial = 0
        self.last_reopen: Dict[str, int] = {}

    # -- phases ---------------------------------------------------------------
    def setup(self) -> None:
        from repro.dependencies.rules import DependencyRule, Procedure
        admin = self.admin
        admin.execute("CREATE TABLE Gene (GID TEXT PRIMARY KEY, GName TEXT, "
                      "GSequence SEQUENCE)")
        admin.execute("CREATE TABLE Protein (PName TEXT PRIMARY KEY, GID TEXT, "
                      "PSequence SEQUENCE, PFunction TEXT)")
        admin.execute("CREATE TABLE GeneMatching (Gene1 SEQUENCE, "
                      "Gene2 SEQUENCE, Evalue FLOAT)")
        admin.execute("CREATE ANNOTATION TABLE GAnnotation ON Gene")
        admin.execute("BEGIN")
        gene_tids = []
        for gid in self.original:
            row = (gid, *self.genes[gid])
            admin.execute("INSERT INTO Gene VALUES (?, ?, ?)", row)
            gene_tids.append(admin.lastrowid)
            protein = (self.proteins[gid][0], gid, *self.proteins[gid][1:])
            admin.execute("INSERT INTO Protein VALUES (?, ?, ?, ?)", protein)
            self.protein_tid[gid] = admin.lastrowid
            self.written += user_bytes(row) + user_bytes(protein)
        for first, second in zip(self.original[0::2], self.original[1::2]):
            pair = {"Gene1": self.genes[first][1],
                    "Gene2": self.genes[second][1]}
            row = (pair["Gene1"], pair["Gene2"], blast_evalue(pair, {}))
            admin.execute("INSERT INTO GeneMatching VALUES (?, ?, ?)", row)
            self.matching_rows += 1
            self.written += user_bytes(row)
        admin.execute("COMMIT")

        tracker = self.db.tracker
        tracker.register_rule(DependencyRule.create(
            name="gene_to_protein_sequence",
            sources=[("Gene", "GSequence")], targets=[("Protein", "PSequence")],
            procedure=Procedure("Prediction tool P", executable=True,
                                invertible=False,
                                implementation=_prediction_tool),
            source_key="GID", target_key="GID"))
        tracker.register_rule(DependencyRule.create(
            name="protein_sequence_to_function",
            sources=[("Protein", "PSequence")],
            targets=[("Protein", "PFunction")],
            procedure=Procedure("Lab experiment", executable=False,
                                invertible=False)))
        tracker.register_rule(DependencyRule.create(
            name="blast_evalue",
            sources=[("GeneMatching", "Gene1"), ("GeneMatching", "Gene2")],
            targets=[("GeneMatching", "Evalue")],
            procedure=Procedure("BLAST-2.2.15", executable=True,
                                invertible=False, implementation=blast_evalue)))
        admin.execute(f"GRANT SELECT, INSERT, UPDATE, DELETE ON Gene TO {LAB}")
        admin.execute("START CONTENT APPROVAL ON Gene COLUMNS GSequence "
                      f"APPROVED BY {ADMIN}")
        provenance = self.db.provenance
        provenance.register_tool(LOADER)
        provenance.register_tool(SEQUENCER)
        provenance.record("Gene", self.db.annotations.cells_for("Gene", gene_tids),
                          source="RegulonDB", operation="copy", agent=LOADER,
                          program=LOADER)

    def warm_up(self) -> None:
        clock = Clock(Samples())  # checked, not timed
        for _ in range(self.settings["warmup_ops"]):
            self.step(clock)

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Measurement:
        return closed_loop(self.step, seconds, tracer)

    def counters(self) -> Dict[str, float]:
        return program_counters(self.db)

    def user_bytes(self) -> int:
        return self.written

    def close(self) -> None:
        """Check the live approval log and outdated marks, then close."""
        pending = [operation.op_id for operation
                   in self.db.approval.pending_operations("Gene")]
        check(pending == list(self.pending),
              f"{len(pending)} operations pending, the shadow model has "
              f"{len(self.pending)}")
        marks = set(self.db.tracker.outdated_cells("Protein"))
        check(marks == {(self.protein_tid[gid], "PFunction")
                        for gid in self.outdated},
              f"{len(marks)} outdated marks, the shadow model has "
              f"{len(self.outdated)}")
        self.db.close()

    def verify_reopened(self, db) -> int:
        """Check every row and annotation; count approval and outdated state
        acknowledged before the reopen but missing after it."""
        cursor = db.connect(ADMIN).cursor()
        cursor.execute("SELECT GID, GName, GSequence FROM Gene")
        got = {row.values[0]: list(row.values[1:]) for row in cursor.fetchall()}
        check(got == self.genes, "Gene rows differ from the shadow model "
                                 "after reopen")
        cursor.execute("SELECT GID, PName, PSequence, PFunction FROM Protein")
        got = {row.values[0]: list(row.values[1:]) for row in cursor.fetchall()}
        check(got == self.proteins, "Protein rows differ from the shadow "
                                    "model after reopen")
        cursor.execute("SELECT Gene1 FROM GeneMatching")
        check(len(cursor.fetchall()) == self.matching_rows,
              "GeneMatching lost rows after reopen")
        cursor.execute("SELECT GID, GSequence FROM Gene ANNOTATION(GAnnotation)")
        for row in cursor.fetchall():
            got_notes = annotation_bodies(row.annotations[1])
            check(got_notes == sorted(self.notes.get(row.values[0], [])),
                  f"annotations of {row.values[0]} differ after reopen")

        pending = {operation.op_id: operation.op_type.value
                   for operation in db.approval.pending_operations("Gene")}
        lost_pending = sum(1 for op_id, (kind, _, _) in self.pending.items()
                           if pending.get(op_id) != kind)
        marks = set(db.tracker.outdated_cells("Protein"))
        lost_outdated = sum(1 for gid in self.outdated
                            if (self.protein_tid[gid], "PFunction") not in marks)
        self.last_reopen = {
            "pending": len(self.pending), "lost_pending": lost_pending,
            "outdated": len(self.outdated), "lost_outdated": lost_outdated}
        return lost_pending + lost_outdated

    def final_check(self) -> Dict[str, Any]:
        from repro import Database
        db = Database(self.path)
        try:
            lost = self.verify_reopened(db)
        finally:
            db.close()
        return dict(self.last_reopen, lost_items=lost, genes=len(self.genes))

    # -- one user action ---------------------------------------------------------
    def step(self, clock: Clock) -> None:
        self.serial += 1
        kind = self.kinds.next()
        if kind == "admin_review" and not self.pending:
            kind = "protein_read"
        getattr(self, kind)(clock)

    def _logged(self, kind: str, gid: str, undo: Any) -> None:
        self.pending[self.next_op_id] = (kind, gid, undo)
        self.next_op_id += 1

    def _check_view(self, gid: str, rows: List[Any]) -> None:
        if gid not in self.genes:
            check(not rows, f"view of deleted gene {gid} returned rows")
            return
        check(len(rows) == 1 and list(rows[0].values) == [gid, *self.genes[gid]],
              f"view of {gid} returned {[row.values for row in rows]!r}")
        annotations = rows[0].annotations
        check(not annotations[0] and not annotations[1],
              f"view of {gid}: unexpected GID/GName annotations")
        check(annotation_bodies(annotations[2])
              == sorted(self.notes.get(gid, [])),
              f"view of {gid}: GSequence annotations differ")

    def _view(self, clock: Clock, gid: str) -> None:
        rows = clock("annotated_read",
                     lambda: self.admin.execute(VIEW_SQL, (gid,)).fetchall())
        self._check_view(gid, rows)

    def lab_update(self, clock: Clock) -> None:
        """Look a gene up, then re-sequence it (logged for approval)."""
        gid = self.rng.choice(self.original)
        rows = clock("lookup",
                     lambda: self.lab.execute(LOOKUP_SQL, (gid,)).fetchall())
        check(len(rows) == 1 and list(rows[0].values) == [gid, *self.genes[gid]],
              f"lookup of {gid} returned {[row.values for row in rows]!r}")
        sequence = dna(self.rng, SEQUENCE_LENGTH)
        clock("curation_write", lambda: self.lab.execute(
            "UPDATE Gene SET GSequence = ? WHERE GID = ?", (sequence, gid)))
        check(self.lab.rowcount == 1, f"update of {gid} changed "
                                      f"{self.lab.rowcount} rows")
        old = self.genes[gid][1]
        self._resequenced(gid, sequence)
        self._logged("UPDATE", gid, old)
        self.written += len(sequence)

    def _resequenced(self, gid: str, sequence: str) -> None:
        """Tool P recomputes the protein; the lab result goes outdated."""
        self.genes[gid][1] = sequence
        self.proteins[gid][1] = predict_protein(sequence)
        self.outdated.add(gid)

    def lab_insert_delete(self, clock: Clock) -> None:
        """Sequence a new gene (with provenance), or delete a reviewed one."""
        deletable = sorted(gid for gid, pending in self.lab_genes.items()
                           if not pending)
        self.lab_changes += 1
        if deletable and self.lab_changes % 2 == 0:
            gid = self.rng.choice(deletable)
            clock("curation_write", lambda: self.lab.execute(
                "DELETE FROM Gene WHERE GID = ?", (gid,)))
            check(self.lab.rowcount == 1, f"delete of {gid} changed "
                                          f"{self.lab.rowcount} rows")
            del self.lab_genes[gid]
            self._logged("DELETE", gid, self.genes.pop(gid))
            return
        self.lab_serial += 1
        gid = f"JX{self.lab_serial:05d}"
        row = (gid, f"lab{self.lab_serial:05d}",
               dna(self.rng, SEQUENCE_LENGTH))

        def insert_with_provenance() -> None:
            self.lab.execute("INSERT INTO Gene VALUES (?, ?, ?)", row)
            tuple_id = self.lab.lastrowid
            self.db.provenance.record(
                "Gene", {(tuple_id, position) for position in range(3)},
                source="lab sequencer", operation="insert", agent=SEQUENCER,
                user=LAB)

        clock("curation_write", insert_with_provenance)
        self.genes[gid] = list(row[1:])
        self.lab_genes[gid] = True
        self._logged("INSERT", gid, None)
        self.written += user_bytes(row)

    def admin_annotate(self, clock: Clock) -> None:
        """View a gene with its annotations, then add a note to its sequence."""
        gid = self.rng.choice(self.original)
        self._view(clock, gid)
        note = f"curator note {self.serial}"
        clock("curation_write", lambda: self.admin.execute(
            f"ADD ANNOTATION TO Gene.GAnnotation VALUE '{note}' ON "
            f"(SELECT G.GSequence FROM Gene G WHERE G.GID = '{gid}')"))
        self.notes.setdefault(gid, []).append(wrap_body(note))
        self.written += len(note)

    def admin_review(self, clock: Clock) -> None:
        """Review the oldest pending operation by its content."""
        op_id, (kind, gid, undo) = next(iter(self.pending.items()))
        operation = self.db.approval.operation(op_id)
        check(operation.is_pending and operation.op_type.value == kind,
              f"approval log entry {op_id} is {operation.status.value} "
              f"{operation.op_type.value}, expected pending {kind}")
        self._view(clock, gid)
        approval = self.db.approval
        disapprove = self.verdicts.next() == "disapprove"
        if disapprove:  # runs the inverse statement: a write like any other
            clock("curation_write", lambda: approval.disapprove(op_id, ADMIN))
        else:
            # Approving only flips the log entry's status; timed on its own
            # so its near-zero latency does not split the write class's
            # median between two clusters.
            clock("approval", lambda: approval.approve(op_id, ADMIN))
        del self.pending[op_id]
        if kind == "INSERT":
            if disapprove:  # the inverse deletes the new gene
                del self.genes[gid]
                del self.lab_genes[gid]
            else:
                self.lab_genes[gid] = False
        elif disapprove and kind == "UPDATE":  # restore the old sequence
            self._resequenced(gid, undo)
        elif disapprove and kind == "DELETE":  # restore the deleted row
            self.genes[gid] = undo
            self.lab_genes[gid] = False

    def protein_read(self, clock: Clock) -> None:
        """Read a protein; its function carries OUTDATED when stale.  Half
        the reads pick a re-sequenced gene, so both answers get checked."""
        stale = sorted(self.outdated)
        gid = self.rng.choice(stale if stale and self.rng.random() < 0.5
                              else self.original)
        pname, psequence, pfunction = self.proteins[gid]
        rows = clock("annotated_read", lambda: self.admin.execute(
            PROTEIN_SQL, (pname,)).fetchall())
        check(len(rows) == 1 and list(rows[0].values)
              == [pname, gid, psequence, pfunction],
              f"protein {pname} returned {[row.values for row in rows]!r}")
        flags = [any(OUTDATED in body for body in annotation_bodies(cell))
                 for cell in rows[0].annotations]
        check(flags == [False, False, False, gid in self.outdated],
              f"protein {pname} outdated flags {flags}, expected PFunction "
              f"outdated={gid in self.outdated}")
