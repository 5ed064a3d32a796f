"""The three workloads: inputs, the CLI calls of one op, and the checks.

Each op is a list of ``ppn`` command lines run in order through
``ppn.cli.main``.  Outputs go to files in the run's work directory and
are compared, outside the timed region, with references that
``oracle`` computes without calling ``ppn``.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import inputs
import oracle

RADIUS, STRIDE = 4, 1  # the CLI defaults, which every op uses


class Workload:
    name = ""
    #: kinds of calibration work whose speed tracks this workload's ops
    CALIBRATION = ("interpreter", "numpy")
    #: the memory pass runs ops 0 .. MEMORY_OPS-1
    MEMORY_OPS = 1

    def __init__(self, workdir: Path):
        self.dir = workdir

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def prepare(self, seed: int) -> None:
        """Generate and write the inputs of ``seed`` (part of set-up)."""
        raise NotImplementedError

    def reference(self) -> None:
        """Compute the expected outputs (not part of set-up)."""
        raise NotImplementedError

    def warmup(self) -> list[list[str]]:
        """Command lines of a small op that runs the same code paths."""
        raise NotImplementedError

    def op(self, i: int) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self, i: int) -> list[str]:
        raise NotImplementedError

    def check(self, i: int) -> bool:
        raise NotImplementedError

    def headline(self, op_s: float) -> tuple[str, float, str]:
        """The workload's named end-to-end metric from the median op time."""
        raise NotImplementedError

    def read(self, name: str) -> str:
        return Path(self.path(name)).read_text()


class GenomeVector(Workload):
    """``ppn vector`` over one FASTA of a few multi-Mnt records."""

    name = "genome_vector"
    LENGTHS = (3_000_000, 2_500_000, 2_000_000)
    GC = (0.38, 0.50, 0.62)

    def prepare(self, seed):
        rng = inputs.rng_for(seed, 1)
        self.records = []
        text = []
        for i, (length, gc) in enumerate(zip(self.LENGTHS, self.GC)):
            residues, codes = inputs.genome_record(rng, length, gc)
            self.records.append((f"chr{i + 1}", codes))
            text.append((f"chr{i + 1}", residues))
        Path(self.path("genome.fa")).write_bytes(inputs.fasta_bytes(text))
        warm, _ = inputs.genome_record(inputs.rng_for(seed, 2), 20_000, 0.5)
        Path(self.path("warm.fa")).write_bytes(inputs.fasta_bytes([("warm", warm)]))
        self.nt = sum(len(c) for _, c in self.records)

    def reference(self):
        vecs = oracle.vectors([c for _, c in self.records], RADIUS, STRIDE)
        self.expected = "".join(
            "\t".join(
                [rec_id, str(len(codes)), str(1 + (len(codes) - 1) // (STRIDE + 1)),
                 str(RADIUS), str(STRIDE)] + [str(c) for c in vec]
            ) + "\n"
            for (rec_id, codes), vec in zip(self.records, vecs)
        )

    def warmup(self):
        return [["vector", "--input", self.path("warm.fa"), "--output", self.path("warm.tsv")]]

    def op(self, i):
        return [["vector", "--input", self.path("genome.fa"), "--output", self.path("vectors.tsv")]]

    def outputs(self, i):
        return [self.path("vectors.tsv")]

    def check(self, i):
        return self.read("vectors.tsv") == self.expected

    def headline(self, op_s):
        return ("vector_nt_per_s", self.nt / op_s, "nt/s")


class ManyShortTree(Workload):
    """``ppn matrix`` then ``ppn tree --input dist.phy`` on many short records."""

    name = "many_short_tree"
    RECORDS = 300
    LENGTH = 200
    CALIBRATION = ("interpreter", "numpy", "threads")  # vectors run on a thread pool

    def prepare(self, seed):
        rng = inputs.rng_for(seed, 1)
        self.labels = [f"s{i + 1:04d}" for i in range(self.RECORDS)]
        self.codes = inputs.related_records(rng, self.RECORDS, self.LENGTH, rate=0.05)
        upper = np.frombuffer(b"ACGT", dtype=np.uint8)
        Path(self.path("short.fa")).write_bytes(
            inputs.fasta_bytes(zip(self.labels, upper[self.codes]))
        )
        warm = inputs.related_records(inputs.rng_for(seed, 2), 8, self.LENGTH, rate=0.05)
        Path(self.path("warm.fa")).write_bytes(
            inputs.fasta_bytes((f"w{i}", upper[c]) for i, c in enumerate(warm))
        )

    def reference(self):
        values = oracle.euclidean_matrix(oracle.vectors(list(self.codes), RADIUS, STRIDE))
        self.values = values
        self.phylip = oracle.phylip_text(self.labels, values)
        self.newick = oracle.upgma_newick(self.labels, values)

    def warmup(self):
        return [
            ["matrix", "--input", self.path("warm.fa"), "--output", self.path("warm.phy")],
            ["tree", "--input", self.path("warm.phy"), "--output", self.path("warm.nwk")],
        ]

    def op(self, i):
        return [
            ["matrix", "--input", self.path("short.fa"), "--output", self.path("dist.phy")],
            ["tree", "--input", self.path("dist.phy"), "--output", self.path("tree.nwk")],
        ]

    def outputs(self, i):
        return [self.path("dist.phy"), self.path("tree.nwk")]

    def check(self, i):
        phylip = self.read("dist.phy")
        if phylip != self.phylip:
            labels, values = oracle.parse_phylip(phylip)
            if labels != self.labels or not np.array_equal(values, self.values):
                return False
        return self.read("tree.nwk") == self.newick

    def headline(self, op_s):
        return ("tree_s", op_s, "s")


class TreeCompare(Workload):
    """``ppn treedist`` on 48-leaf pairs, binary and multifurcating,
    from near-identical to unrelated."""

    name = "tree_compare"
    LEAVES = 48
    #: (multifurcating, NNI moves between the two trees; None = unrelated)
    PAIRS = [(multi, moves) for multi in (False, True) for moves in (1, 6, 24, None)]
    CONTRACT = 0.3
    CALIBRATION = ("interpreter",)  # nQD is interpreter-bound
    # The op's peak is the split sets that nRF builds, so it depends on
    # tree shape.  The median over the four binary pairs, which have the
    # most splits, is reported; all eight would double the untimed pass.
    MEMORY_OPS = 4

    def prepare(self, seed):
        rng = inputs.rng_for(seed, 1)
        self.labels = [f"t{i + 1:02d}" for i in range(self.LEAVES)]
        self.pairs = []
        for i, (multi, moves) in enumerate(self.PAIRS):
            first = inputs.random_topology(rng, self.labels)
            if moves is None:
                second = inputs.random_topology(rng, self.labels)
            else:
                second = inputs.nni(rng, first, moves)
            if multi:
                first = inputs.contract(rng, first, self.CONTRACT)
                second = inputs.contract(rng, second, self.CONTRACT)
            for tree, tag in ((first, "a"), (second, "b")):
                Path(self.path(f"pair{i}{tag}.nwk")).write_text(inputs.newick(rng, tree))
            self.pairs.append((first, second))
        warm = inputs.rng_for(seed, 2)
        leaves = [f"w{i}" for i in range(8)]
        for tag in "ab":
            tree = inputs.random_topology(warm, leaves)
            Path(self.path(f"warm{tag}.nwk")).write_text(inputs.newick(warm, tree))

    def reference(self):
        quartets = oracle.QuartetIndex(self.LEAVES)
        self.expected = [
            (oracle.nrf(a, b), quartets.nqd(a, b, self.labels)) for a, b in self.pairs
        ]

    def warmup(self):
        return [["treedist", "--input", self.path("warma.nwk"), "--input",
                 self.path("warmb.nwk"), "--output", self.path("warm.tsv")]]

    def op(self, i):
        p = i % len(self.PAIRS)
        return [["treedist", "--input", self.path(f"pair{p}a.nwk"), "--input",
                 self.path(f"pair{p}b.nwk"), "--output", self.path("treedist.tsv")]]

    def outputs(self, i):
        return [self.path("treedist.tsv")]

    def check(self, i):
        rows = dict(line.split("\t") for line in self.read("treedist.tsv").splitlines())
        expected = self.expected[i % len(self.PAIRS)]
        # the CLI prints four decimals
        return rows.keys() == {"nRF", "nQD"} and all(
            math.isclose(float(rows[key]), value, abs_tol=0.5e-4 + 1e-12)
            for key, value in zip(("nRF", "nQD"), expected)
        )

    def headline(self, op_s):
        return ("treedist_s", op_s, "s")


WORKLOADS = {w.name: w for w in (GenomeVector, ManyShortTree, TreeCompare)}
