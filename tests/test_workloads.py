"""Tests for the synthetic biological workload generators."""

from __future__ import annotations

import random

import pytest

from repro import Database
from repro.index.sbc.rle import rle_encode
from repro.workloads import (
    DNA_ALPHABET,
    SECONDARY_STRUCTURE_ALPHABET,
    build_gene_protein_pipeline,
    build_gene_tables,
    dna_corpus,
    dna_sequence,
    gene_identifier,
    gene_name,
    mutate_sequence,
    protein_sequence,
    secondary_structure_corpus,
    secondary_structure_sequence,
    structure_points,
)


class TestSequenceGenerators:
    def test_dna_sequence_alphabet_and_length(self):
        rng = random.Random(1)
        seq = dna_sequence(200, rng)
        assert len(seq) == 200
        assert set(seq) <= set(DNA_ALPHABET)

    def test_protein_sequence(self):
        rng = random.Random(1)
        seq = protein_sequence(100, rng)
        assert len(seq) == 100

    def test_secondary_structure_has_long_runs(self):
        rng = random.Random(5)
        seq = secondary_structure_sequence(600, rng, mean_run_length=10)
        assert len(seq) == 600
        assert set(seq) <= set(SECONDARY_STRUCTURE_ALPHABET)
        runs = rle_encode(seq)
        # Long runs: far fewer runs than characters (that is what makes the
        # SBC-tree experiments meaningful).
        assert len(runs) < len(seq) / 4
        # Adjacent runs always switch characters.
        assert all(runs[i][0] != runs[i + 1][0] for i in range(len(runs) - 1))

    def test_secondary_structure_zero_length(self):
        rng = random.Random(5)
        assert secondary_structure_sequence(0, rng) == ""

    def test_corpora_are_reproducible(self):
        assert secondary_structure_corpus(5, 100, seed=3) == \
            secondary_structure_corpus(5, 100, seed=3)
        assert dna_corpus(3, 50, seed=4) == dna_corpus(3, 50, seed=4)

    def test_mutation_changes_requested_positions_only_in_alphabet(self):
        rng = random.Random(9)
        original = dna_sequence(100, rng)
        mutated = mutate_sequence(original, 5, rng)
        assert len(mutated) == len(original)
        assert mutated != original
        assert set(mutated) <= set(DNA_ALPHABET)
        assert mutate_sequence(original, 0, rng) == original

    def test_structure_points_count_and_reproducibility(self):
        points = structure_points(50, seed=2)
        assert len(points) == 50
        assert points == structure_points(50, seed=2)

    def test_gene_identifier_format(self):
        assert gene_identifier(80) == "JW0080"


class TestWorkloadBuilders:
    def test_gene_tables_shape(self):
        db = Database()
        info = build_gene_tables(db, num_genes=16, overlap=0.25, seed=8)
        assert len(info["db1"]) == 16
        assert len(info["db2"]) == 16
        assert len(info["common"]) == 4
        assert set(info["common"]) == set(info["db1"]) & set(info["db2"])
        # Both tables carry annotation tables with annotations.
        for table in ("DB1_Gene", "DB2_Gene"):
            ann_table = db.annotations.get(table, "GAnnotation")
            assert ann_table.annotation_count() >= 1

    def test_gene_protein_pipeline_consistency(self):
        db = Database()
        ids = build_gene_protein_pipeline(db, num_genes=10, seed=4)
        assert len(ids["gene"]) == 10
        assert len(ids["protein"]) == 10
        assert len(ids["genematching"]) == 5
        # Every protein references an existing gene and its sequence is the
        # deterministic derivation of that gene's sequence.
        genes = {gid: seq for gid, _, seq in db.query("SELECT * FROM Gene").values()}
        for pname, gid, pseq, _ in db.query("SELECT * FROM Protein").values():
            assert gid in genes
            assert pseq
        # The dependency rules of Figure 9 are registered.
        assert len(db.tracker.rules) == 3

    def test_pipeline_redraws_repeated_gene_names(self):
        # Seed 5 draws the name 'hsgH' twice within 300 genes; the name is
        # also Protein's primary key, so the repeat must be redrawn.
        db = Database()
        ids = build_gene_protein_pipeline(db, num_genes=300, seed=5,
                                          with_matching=False)
        assert len(ids["protein"]) == 300
        names = [name for _, name, _ in db.query("SELECT * FROM Gene").values()]
        assert len(set(names)) == 300

    def test_pipeline_data_unchanged_for_collision_free_seeds(self):
        db = Database()
        build_gene_protein_pipeline(db, num_genes=10, seed=4,
                                    with_matching=False)
        rng = random.Random(4)
        expected = []
        for index in range(10):
            name = gene_name(index, rng)
            expected.append((gene_identifier(index), name,
                             dna_sequence(60, rng)))
        assert db.query("SELECT * FROM Gene").values() == expected

    def test_pipeline_without_matching_table(self):
        db = Database()
        ids = build_gene_protein_pipeline(db, num_genes=6, with_matching=False)
        assert ids["genematching"] == []
        assert len(db.tracker.rules) == 2
