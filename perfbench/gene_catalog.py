"""The annotated gene catalog of Figures 2-4, with its shadow model.

Used by the ``annotated_reads`` workload (embedded) and the ``served_mixed``
workload (over the wire).  ``Gene`` holds ``genes`` rows; its ``GAnnotation``
table holds three kinds of annotation shaped like the paper's A1-A3:

* a table-wide one on every cell (``RegulonDB``),
* a half-table one on the ``GID`` and ``GName`` cells of the first half of
  the genes (``J. Bact. 2006``),
* one cell annotation on ``GSequence`` of every ``cell_note_every``-th gene.

The shadow model knows every row value and every cell's annotation bodies,
so each read below can be checked exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from perfbench.common import (
    Schedule,
    annotation_bodies,
    check,
    dna,
    gene_id,
    gene_name,
    user_bytes,
    wrap_body,
)

COLUMNS = ("GID", "GName", "GSequence")
TABLE_WIDE = "These genes were obtained from RegulonDB"
HALF_TABLE = "These genes are published in J. Bact. 2006"
CELL_NOTE = "Involved in methyltransferase activity (note {index})"
SEQUENCE_LENGTH = 60
#: Suffix of a renamed gene's name; fixed width (``serial`` < 10**7).
REVISION = "-r{serial:07d}"

LOOKUP_SQL = "SELECT GID, GName, GSequence FROM Gene WHERE GID = ?"
UPDATE_SQL = "UPDATE Gene SET GName = ? WHERE GID = ?"

#: The four A-SQL read shapes, each restricted to one gene by its key.
ANNOTATED_READS = {
    "annotation_pk": (
        "SELECT GID, GName, GSequence FROM Gene ANNOTATION(GAnnotation) "
        "WHERE GID = ?"),
    "promote": (
        "SELECT GID PROMOTE (GSequence) FROM Gene ANNOTATION(GAnnotation) "
        "WHERE GID = ?"),
    "awhere": (
        "SELECT GID, GName FROM Gene ANNOTATION(GAnnotation) WHERE GID = ? "
        "AWHERE annotation.value LIKE '%J. Bact%'"),
    "filter": (
        "SELECT GID, GName, GSequence FROM Gene ANNOTATION(GAnnotation) "
        "WHERE GID = ? FILTER annotation.value LIKE '%methyltransferase%'"),
}


class GeneCatalog:
    """Shadow of the ``Gene`` table and its annotations."""

    def __init__(self, genes: int, cell_note_every: int, seed: int):
        rng = random.Random(f"gene-catalog/{seed}")
        self.names = [gene_name(index) for index in range(genes)]
        self.sequences = [dna(rng, SEQUENCE_LENGTH) for _ in range(genes)]
        self.ids = [gene_id(index) for index in range(genes)]
        self.cell_note_every = cell_note_every
        self.half = genes // 2
        #: User bytes written so far (rows, annotation values, updates).
        self.user_bytes = 0

    def __len__(self) -> int:
        return len(self.ids)

    # -- loading --------------------------------------------------------------
    def load(self, cursor) -> None:
        """Create and fill the table and its annotations in one transaction."""
        cursor.execute("CREATE TABLE Gene (GID TEXT PRIMARY KEY, GName TEXT, "
                       "GSequence SEQUENCE)")
        cursor.execute("CREATE ANNOTATION TABLE GAnnotation ON Gene")
        cursor.execute("BEGIN")
        for index, gid in enumerate(self.ids):
            row = (gid, self.names[index], self.sequences[index])
            cursor.execute("INSERT INTO Gene VALUES (?, ?, ?)", row)
            self.user_bytes += user_bytes(row)
        # A-SQL annotation statements take no parameters.
        half = ", ".join(f"'{gid}'" for gid in self.ids[:self.half])
        cursor.execute(
            f"ADD ANNOTATION TO Gene.GAnnotation VALUE '{HALF_TABLE}' ON "
            f"(SELECT G.GID, G.GName FROM Gene G WHERE G.GID IN ({half}))")
        cursor.execute(
            f"ADD ANNOTATION TO Gene.GAnnotation VALUE '{TABLE_WIDE}' ON "
            f"(SELECT G.* FROM Gene G)")
        self.user_bytes += len(HALF_TABLE) + len(TABLE_WIDE)
        for index in range(0, len(self.ids), self.cell_note_every):
            note = CELL_NOTE.format(index=index)
            cursor.execute(
                f"ADD ANNOTATION TO Gene.GAnnotation VALUE '{note}' ON "
                f"(SELECT G.GSequence FROM Gene G "
                f"WHERE G.GID = '{self.ids[index]}')")
            self.user_bytes += len(note)
        cursor.execute("COMMIT")

    # -- expected answers -------------------------------------------------------
    def row(self, index: int) -> Tuple[str, str, str]:
        return (self.ids[index], self.names[index], self.sequences[index])

    def bodies(self, index: int, column: str) -> List[str]:
        texts = [TABLE_WIDE]
        if column in ("GID", "GName") and index < self.half:
            texts.append(HALF_TABLE)
        if column == "GSequence" and index % self.cell_note_every == 0:
            texts.append(CELL_NOTE.format(index=index))
        return sorted(wrap_body(text) for text in texts)

    def has_cell_note(self, index: int) -> bool:
        return index % self.cell_note_every == 0

    # -- operations ---------------------------------------------------------------
    def check_lookup(self, index: int, rows: Sequence[Any]) -> None:
        check(len(rows) == 1, f"lookup of {self.ids[index]} returned "
                              f"{len(rows)} rows")
        check(tuple(rows[0].values) == self.row(index),
              f"lookup of {self.ids[index]} returned {rows[0].values!r}")

    def check_annotated(self, shape: str, index: int,
                        rows: Sequence[Any]) -> None:
        """Values and per-column annotation bodies of one A-SQL read."""
        gid = self.ids[index]
        if shape == "awhere":
            if index >= self.half:
                check(not rows, f"AWHERE kept unpublished gene {gid}")
                return
            columns: Sequence[str] = ("GID", "GName")
        elif shape == "promote":
            columns = ("GID",)
        else:
            columns = COLUMNS
        check(len(rows) == 1, f"{shape} read of {gid} returned "
                              f"{len(rows)} rows")
        row = rows[0]
        full = dict(zip(COLUMNS, self.row(index)))
        check(tuple(row.values) == tuple(full[c] for c in columns),
              f"{shape} read of {gid} returned {row.values!r}")
        for position, column in enumerate(columns):
            expected = self.bodies(index, column)
            if shape == "promote":
                expected = sorted(set(expected)
                                  | set(self.bodies(index, "GSequence")))
            elif shape == "filter":
                expected = [body for body in expected
                            if "methyltransferase" in body]
            got = annotation_bodies(row.annotations[position])
            check(got == expected,
                  f"{shape} read of {gid}.{column}: annotations {got!r}, "
                  f"expected {expected!r}")

    def check_rowcount(self, rowcount: int, index: int) -> None:
        check(rowcount == 1, f"rename of {self.ids[index]} changed "
                             f"{rowcount} rows")

    @staticmethod
    def new_name(index: int, serial: int) -> str:
        """The name the ``serial``-th operation's rename of ``index`` writes:
        as wide as :meth:`tag_names` leaves every name."""
        return f"{gene_name(index)}{REVISION.format(serial=serial)}"

    def tag_names(self, cursor) -> None:
        """Append the revision tag to every name with one UPDATE.

        The first rename of a gene lengthens its row, and the program grows
        the heap for every row that gets longer: this UPDATE takes the
        ``Gene`` heap of 1000 genes from 27 to 185 pages, and every full
        scan slows with it.  Later renames keep the tagged width and leave
        the heap's size alone.  Done in the warm-up, the growth happens
        once, before timing; left to the measured renames, it would go on
        through the run, faster on a fast host than on a slow one, and the
        reads' medians would follow how many renames the host got through.
        """
        tag = REVISION.format(serial=0)
        cursor.execute("UPDATE Gene SET GName = GName || ?", (tag,))
        check(cursor.rowcount == len(self.ids),
              f"tagging names changed {cursor.rowcount} rows")
        for index in range(len(self.ids)):
            self.renamed(index, self.names[index] + tag)

    def renamed(self, index: int, name: str) -> None:
        """Apply an acknowledged rename to the shadow."""
        self.names[index] = name
        self.user_bytes += len(name)

    def verify_table(self, cursor) -> None:
        """Every row of a (re)opened database equals the shadow."""
        cursor.execute("SELECT GID, GName, GSequence FROM Gene")
        got = sorted(tuple(row.values) for row in cursor.fetchall())
        expected = sorted(self.row(index) for index in range(len(self.ids)))
        check(got == expected, f"Gene table differs from the shadow model "
                               f"({len(got)} rows, expected {len(expected)})")
        cursor.execute("SELECT GID, GSequence FROM Gene "
                       "ANNOTATION(GAnnotation)")
        index_of = {gid: index for index, gid in enumerate(self.ids)}
        for row in cursor.fetchall():
            index = index_of[row.values[0]]
            for position, column in enumerate(("GID", "GSequence")):
                got = annotation_bodies(row.annotations[position])
                check(got == self.bodies(index, column),
                      f"annotations of {row.values[0]}.{column} differ "
                      f"after reopen")


@dataclass
class Request:
    """One statement of the mix and the check of its answer."""

    kind: str
    gene: int
    sql: str
    params: Tuple[Any, ...]
    #: Checks the fetched rows (queries) or the rowcount (the rename) and
    #: applies an acknowledged write to the shadow model.
    verify: Callable[[Any], None]


def execute(cursor, request: Request) -> Any:
    """Run ``request`` on a DB-API cursor (local or network); the answer is
    the fetched rows of a query or the rowcount of the rename."""
    cursor.execute(request.sql, request.params)
    return cursor.fetchall() if cursor.description else cursor.rowcount


class RequestSource:
    """Seeded requests of the lookup / annotated read / rename mix.

    A source draws genes only from ``genes``: sources over disjoint gene
    sets can run concurrently and each still sees its genes' history in
    order, so every answer stays exactly checkable.
    """

    def __init__(self, catalog: GeneCatalog, genes: Sequence[int],
                 mix: Dict[str, float], label: str, seed: int):
        self.catalog = catalog
        self.genes = list(genes)
        self.noted = [index for index in self.genes
                      if catalog.has_cell_note(index)]
        self.rng = random.Random(f"{label}/{seed}")
        self.kinds = Schedule(mix, label)
        self.shapes = Schedule(dict.fromkeys(ANNOTATED_READS, 1),
                               f"{label}/shapes", len(ANNOTATED_READS))
        self.serial = 0

    def next(self) -> Request:
        self.serial += 1
        kind = self.kinds.next()
        catalog = self.catalog
        if kind == "annotated_read":
            shape = self.shapes.next()
            # A quarter of the reads target a gene with a cell note, so the
            # PROMOTE and FILTER shapes regularly carry one.
            pool = (self.noted if self.noted and self.rng.random() < 0.25
                    else self.genes)
            index = self.rng.choice(pool)
            return Request(kind, index, ANNOTATED_READS[shape],
                           (catalog.ids[index],),
                           lambda rows: catalog.check_annotated(shape, index,
                                                                rows))
        index = self.rng.choice(self.genes)
        if kind == "lookup":
            return Request(kind, index, LOOKUP_SQL, (catalog.ids[index],),
                           lambda rows: catalog.check_lookup(index, rows))
        name = catalog.new_name(index, self.serial)

        def acknowledged(rowcount: int) -> None:
            catalog.check_rowcount(rowcount, index)
            catalog.renamed(index, name)
        return Request(kind, index, UPDATE_SQL, (name, catalog.ids[index]),
                       acknowledged)
