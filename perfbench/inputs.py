"""Seeded inputs for the benchmark workloads.

Everything here is generated with the benchmark's own numpy RNG, never
with ``ppn simulate``, so a change to the program's simulator cannot
change a workload.  The same seed always gives the same bytes.
"""

from __future__ import annotations

import copy

import numpy as np

FASTA_WIDTH = 60
_UPPER = np.frombuffer(b"ACGT", dtype=np.uint8)


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per (seed, stream), so that adding one
    input never shifts the random numbers of another."""
    return np.random.default_rng([seed, stream])


def _interval_mask(length: int, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    edges = np.zeros(length + 1, dtype=np.int32)
    np.add.at(edges, starts, 1)
    np.add.at(edges, np.minimum(starts + lengths, length), -1)
    return np.cumsum(edges[:-1]) > 0


def genome_record(rng: np.random.Generator, length: int, gc: float):
    """One soft-masked record with runs of ``N``.

    Returns ``(text, codes)``: the FASTA residue bytes as written, and
    the A/C/G/T codes (0..3) that remain once the ``N`` runs are
    dropped, which is what the program must see.
    """
    at = (1.0 - gc) / 2.0
    codes = rng.choice(4, size=length, p=[at, gc / 2.0, gc / 2.0, at]).astype(np.uint8)
    text = _UPPER[codes]
    n_masked = length // 4000
    lower = _interval_mask(
        length, rng.integers(0, length, n_masked), rng.geometric(1 / 800, n_masked)
    )
    text[lower] += ord("a") - ord("A")
    n_runs = max(2, length // 400_000)
    is_n = _interval_mask(
        length, rng.integers(0, length, n_runs), rng.integers(50, 3000, n_runs)
    )
    text[is_n] = ord("N")
    return text, codes[~is_n]


def fasta_bytes(records) -> bytes:
    """FASTA with ``FASTA_WIDTH``-column lines from ``(id, residue bytes)``."""
    out = []
    for rec_id, text in records:
        out.append(f">{rec_id} synthetic\n".encode())
        full = len(text) // FASTA_WIDTH
        body = np.empty((full, FASTA_WIDTH + 1), dtype=np.uint8)
        body[:, :FASTA_WIDTH] = text[: full * FASTA_WIDTH].reshape(full, FASTA_WIDTH)
        body[:, FASTA_WIDTH] = ord("\n")
        out.append(body.tobytes())
        tail = text[full * FASTA_WIDTH :]
        if len(tail):
            out.append(tail.tobytes() + b"\n")
    return b"".join(out)


def related_records(rng: np.random.Generator, count: int, length: int, rate: float):
    """``count`` equal-length code arrays, each a mutated copy of an
    earlier one, so the distances carry a tree signal and exact ties
    stay possible."""
    seqs = np.empty((count, length), dtype=np.uint8)
    seqs[0] = rng.integers(0, 4, length)
    for i in range(1, count):
        child = seqs[rng.integers(0, i)].copy()
        hit = rng.random(length) < rate
        child[hit] = (child[hit] + rng.integers(1, 4, int(hit.sum()))) % 4
        seqs[i] = child
    return seqs[rng.permutation(count)]


# -- trees: nested lists, a leaf is its label string ------------------------

def random_topology(rng: np.random.Generator, labels):
    """Rooted binary tree from joining random pairs."""
    nodes = list(labels)
    while len(nodes) > 1:
        i, j = sorted(rng.choice(len(nodes), 2, replace=False).tolist())
        right = nodes.pop(j)
        left = nodes.pop(i)
        nodes.append([left, right])
    return nodes[0]


def _internal_edges(tree):
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        for i, child in enumerate(node):
            if isinstance(child, list):
                out.append((node, i))
                stack.append(child)
    return out


def nni(rng: np.random.Generator, tree, moves: int):
    """Copy of a binary ``tree`` after ``moves`` rooted nearest-neighbour
    interchanges (a grandchild swaps places with its uncle)."""
    tree = copy.deepcopy(tree)
    for _ in range(moves):
        edges = _internal_edges(tree)
        parent, i = edges[rng.integers(len(edges))]
        child = parent[i]
        g = int(rng.integers(len(child)))
        child[g], parent[1 - i] = parent[1 - i], child[g]
    return tree


def contract(rng: np.random.Generator, tree, prob: float):
    """Copy of ``tree`` with each internal non-root edge contracted
    with probability ``prob``, which makes it multifurcating."""
    out = []
    for child in tree:
        if isinstance(child, list):
            sub = contract(rng, child, prob)
            if rng.random() < prob:
                out.extend(sub)
            else:
                out.append(sub)
        else:
            out.append(child)
    return out


def newick(rng: np.random.Generator, tree) -> str:
    """Newick text with random branch lengths on every non-root node."""

    def render(node) -> str:
        if isinstance(node, list):
            text = "(" + ",".join(render(c) for c in node) + ")"
        else:
            text = node
        return f"{text}:{rng.uniform(0.01, 1.0):.4f}"

    return "(" + ",".join(render(c) for c in tree) + ");\n"
