"""Independent reference results that every benchmark op is checked against.

None of this calls into ``ppn``.  Window counts come from a direct
convolution rather than prefix sums, UPGMA scans the whole matrix at
every merge rather than caching row minima, and the tree metrics are
computed from the generator's own tree structures.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

import numpy as np

PRIMES = (2, 3, 5, 7)
#: Vector component j uses the j-th assignment of primes to (A, C, G, T)
#: in lexicographic order, as documented by the program.
ASSIGNMENTS = tuple(permutations(PRIMES))
_INT64_LIMIT = 2**63


def _window_keys(codes: np.ndarray, radius: int, stride: int) -> np.ndarray:
    """Count tuple of each window, packed as fA + 10 fC + 100 fG + 1000 fT."""
    kernel = np.ones(2 * radius + 1, dtype=np.int64)
    keys = np.zeros(len(codes), dtype=np.int64)
    for base, weight in enumerate((1, 10, 100, 1000)):
        counts = np.convolve((codes == base).astype(np.int64), kernel, mode="same")
        keys += weight * counts
    return keys[:: stride + 1]


def vectors(code_arrays, radius: int = 4, stride: int = 1) -> list[tuple[int, ...]]:
    """Exact 24-component vectors of each code array (A=0 .. T=3)."""
    assert 2 * radius + 1 < 10, "packed keys need per-base counts below 10"
    keys = [_window_keys(c, radius, stride) for c in code_arrays]
    distinct, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    table = []
    for key in distinct.tolist():
        counts = (key % 10, key // 10 % 10, key // 100 % 10, key // 1000)
        table.append([math.prod(p**f for p, f in zip(row, counts)) for row in ASSIGNMENTS])
    largest = max(max(row) for row in table)
    if largest * max(len(k) for k in keys) >= _INT64_LIMIT:
        raise OverflowError("window-product sums would not fit in int64")
    table = np.array(table, dtype=np.int64)
    out = []
    start = 0
    for k in keys:
        mult = np.bincount(inverse[start : start + len(k)], minlength=len(distinct))
        start += len(k)
        out.append(tuple(int(v) for v in mult.astype(np.int64) @ table))
    return out


def euclidean_matrix(vecs) -> np.ndarray:
    """``math.sqrt`` of the exact integer sum of squared differences."""
    k = len(vecs)
    v = np.array(vecs, dtype=object)
    spread = max(max(c) - min(c) for c in zip(*vecs))
    exact64 = len(vecs[0]) * spread * spread < _INT64_LIMIT
    if exact64:
        v = v.astype(np.int64)
    out = np.zeros((k, k), dtype=np.float64)
    for i in range(k - 1):
        diff = v[i + 1 :] - v[i]
        ssq = (diff * diff).sum(axis=1)
        row = [math.sqrt(int(s)) for s in ssq]
        out[i, i + 1 :] = row
        out[i + 1 :, i] = row
    return out


def phylip_text(labels, values: np.ndarray) -> str:
    """The relaxed PHYLIP layout the program documents."""
    lines = [f"{len(labels)}\n"]
    for label, row in zip(labels, values.tolist()):
        lines.append(label + "".join(f"\t{v!r}" for v in row) + "\n")
    return "".join(lines)


def parse_phylip(text: str):
    """Labels and values of a PHYLIP matrix, for a format-tolerant check."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    return [r[0] for r in rows[1:]], np.array([[float(x) for x in r[1:]] for r in rows[1:]])


def upgma_newick(labels, values: np.ndarray) -> str:
    """Average-linkage tree as Newick, by a full scan at every merge.

    Ties break toward the lexicographically smallest pair of cluster
    labels, a cluster being labelled by its smallest leaf; the merged
    distance, heights and branch lengths use the documented formulas.
    """
    k = len(labels)
    work = np.array(values, dtype=np.float64)
    np.fill_diagonal(work, np.inf)
    key = list(labels)
    size = [1] * k
    height = [0.0] * k
    text = list(labels)
    alive = np.ones(k, dtype=bool)
    for _ in range(k - 1):
        best = float(work.min())
        rows, cols = np.nonzero(work == best)
        a, b = min(
            ((int(i), int(j)) for i, j in zip(rows, cols)),
            key=lambda p: (key[p[0]], key[p[1]]),
        )
        h = best / 2.0
        text[a] = f"({text[a]}:{h - height[a]!r},{text[b]}:{h - height[b]!r})"
        alive[b] = False
        others = np.nonzero(alive)[0]
        others = others[others != a]
        merged = (size[a] * work[others, a] + size[b] * work[others, b]) / (size[a] + size[b])
        work[a, others] = merged
        work[others, a] = merged
        work[b, :] = np.inf
        work[:, b] = np.inf
        size[a] += size[b]
        height[a] = h
        key[a] = min(key[a], key[b])
    return text[int(np.nonzero(alive)[0][0])] + ";\n"


# -- tree metrics over the generator's nested-list trees --------------------

def _clusters(tree) -> tuple[list[frozenset], frozenset]:
    """Leaf sets below every non-root node, and the whole leaf set."""
    out = []

    def below(node) -> frozenset:
        if not isinstance(node, list):
            leaves = frozenset((node,))
        else:
            leaves = frozenset().union(*(below(c) for c in node))
        out.append(leaves)
        return leaves

    everything = frozenset().union(*(below(c) for c in tree))
    return out, everything


def splits(tree) -> set[frozenset]:
    """Nontrivial bipartitions, each as the side without the smallest leaf."""
    clusters, leaves = _clusters(tree)
    ref = min(leaves)
    out = set()
    for side in clusters:
        if ref in side:
            side = leaves - side
        if 2 <= len(side) <= len(leaves) - 2:
            out.add(side)
    return out


def nrf(t1, t2) -> float:
    s1, s2 = splits(t1), splits(t2)
    return len(s1 ^ s2) / (len(s1) + len(s2)) if s1 or s2 else 0.0


def _path_lengths(tree, labels) -> np.ndarray:
    """Edge counts between leaves."""
    paths = {}

    def walk(node, trail):
        if isinstance(node, list):
            for i, child in enumerate(node):
                walk(child, trail + (i,))
        else:
            paths[node] = trail

    walk(tree, ())
    k = len(labels)
    out = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        for j in range(i + 1, k):
            p, q = paths[labels[i]], paths[labels[j]]
            common = 0
            while common < min(len(p), len(q)) and p[common] == q[common]:
                common += 1
            out[i, j] = out[j, i] = len(p) + len(q) - 2 * common
    return out


class QuartetIndex:
    """All C(k, 4) leaf quartets as index columns, built once."""

    def __init__(self, k: int):
        quads = np.array(list(combinations(range(k), 4)), dtype=np.intp)
        self.a, self.b, self.c, self.d = quads.T

    def categories(self, dist: np.ndarray) -> np.ndarray:
        """Four-point check: 0 ab|cd, 1 ac|bd, 2 ad|bc, -1 unresolved."""
        a, b, c, d = self.a, self.b, self.c, self.d
        sums = np.stack(
            [dist[a, b] + dist[c, d], dist[a, c] + dist[b, d], dist[a, d] + dist[b, c]]
        )
        low = sums.min(axis=0)
        cat = np.argmin(sums, axis=0)
        cat[(sums == low).sum(axis=0) > 1] = -1
        return cat

    def nqd(self, t1, t2, labels) -> float:
        c1 = self.categories(_path_lengths(t1, labels))
        c2 = self.categories(_path_lengths(t2, labels))
        return int((c1 != c2).sum()) / len(c1)
