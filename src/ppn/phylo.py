"""Distance matrices, UPGMA trees, Newick interchange, and tree metrics.

Trees are rooted node structures with optional branch lengths.  UPGMA
output is strictly binary and ultrametric; parsed trees may be
multifurcating.  The two comparison metrics (normalized Robinson-Foulds
and normalized quartet distance) operate on the unrooted form, so they
are insensitive to root placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import EncodedSequence, Metric, PpnParams, PpnVector, distance, ppn_vector
from .errors import (
    DuplicateIdError,
    DuplicateLeafError,
    LeafSetMismatchError,
    NewickParseError,
    NonFiniteDistanceError,
    TooFewLeavesError,
    ValidationError,
)

__all__ = [
    "DistanceMatrix",
    "TreeNode",
    "PhyloTree",
    "pairwise_matrix",
    "upgma",
    "to_newick",
    "from_newick",
    "nrf",
    "nqd",
    "write_phylip",
    "read_phylip",
]

# square brackets open and close Newick comments, which are not supported
_NEWICK_RESERVED = set("():,;[]")


class DistanceMatrix:
    """Symmetric non-negative matrix over labeled taxa.

    Symmetry and the zero diagonal are exact; entries above and below
    the diagonal are the same float, never recomputed values that merely
    agree approximately.
    """

    __slots__ = ("labels", "values")

    def __init__(self, labels, values):
        labels = tuple(labels)
        values = np.asarray(values, dtype=np.float64)
        k = len(labels)
        if k < 2:
            raise ValidationError(f"distance matrix needs >= 2 taxa, got {k}")
        if len(set(labels)) != k:
            raise DuplicateIdError("distance matrix labels are not unique")
        if values.shape != (k, k):
            raise ValidationError(
                f"matrix shape {values.shape} does not match {k} labels"
            )
        if not np.array_equal(values, values.T, equal_nan=True):
            raise ValidationError("distance matrix is not exactly symmetric")
        if np.any(np.diagonal(values) != 0.0):
            raise ValidationError("distance matrix diagonal must be exactly zero")
        with np.errstate(invalid="ignore"):
            if np.any(values < 0.0):
                raise ValidationError("distance matrix entries must be non-negative")
        values = values.copy()
        values.flags.writeable = False
        self.labels = labels
        self.values = values

    @property
    def size(self) -> int:
        return len(self.labels)

    def __getitem__(self, pair):
        a, b = pair
        return float(self.values[self.labels.index(a), self.labels.index(b)])


def pairwise_matrix(
    seqs: list[EncodedSequence],
    params: PpnParams,
    *,
    normalized: bool = False,
) -> DistanceMatrix:
    """All-pairs distance matrix over a sequence set.

    Each vector is computed once, in one in-order loop on the calling
    thread; a failure names the record and keeps its exception class.
    Every pair is evaluated once and mirrored.
    """
    if len(seqs) < 2:
        raise ValidationError(f"need >= 2 sequences, got {len(seqs)}")
    ids = [s.id for s in seqs]
    if len(set(ids)) != len(ids):
        dup = next(i for i in ids if ids.count(i) > 1)
        raise DuplicateIdError(f"duplicate sequence id {dup!r}")

    def vector_for(seq: EncodedSequence) -> PpnVector:
        try:
            return ppn_vector(seq, params)
        except Exception as exc:
            # Same class, record id in front.  ``__new__`` skips
            # ``__init__``, whose signature differs between classes.
            err = type(exc).__new__(type(exc), f"record {seq.id!r}: {exc}")
            err.__dict__.update(exc.__dict__)
            raise err from exc

    vectors = [vector_for(s) for s in seqs]

    k = len(seqs)
    values = np.zeros((k, k), dtype=np.float64)
    for i in range(k):
        for j in range(i + 1, k):
            d = distance(vectors[i], vectors[j], params.metric, normalized=normalized)
            values[i, j] = d
            values[j, i] = d
    return DistanceMatrix(ids, values)


@dataclass
class TreeNode:
    """One node of a rooted tree; leaves carry names, edges lengths."""

    name: str | None = None
    length: float | None = None
    children: list["TreeNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


class PhyloTree:
    """A rooted tree with uniquely labeled leaves."""

    __slots__ = ("root",)

    def __init__(self, root: TreeNode):
        self.root = root
        names = self.leaf_names()
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise DuplicateLeafError(f"duplicate leaf label {dup!r}")

    def walk(self):
        """Yield every node, parents before children."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def leaf_names(self) -> list[str]:
        return [n.name for n in self.walk() if n.is_leaf]


# -- UPGMA -------------------------------------------------------------------

def upgma(matrix: DistanceMatrix) -> PhyloTree:
    """Average-linkage agglomerative clustering into an ultrametric tree.

    Cluster-to-cluster distances are the size-weighted means of member
    distances; a merge at distance d sits at height d/2, and children
    get branch lengths down to their own heights.  Ties on the minimum
    distance break toward the lexicographically smallest pair of cluster
    labels (a cluster is labeled by its smallest leaf), which makes the
    output deterministic and independent of input row order.
    """
    if not np.all(np.isfinite(matrix.values)):
        raise NonFiniteDistanceError("distance matrix has NaN or infinite entries")
    k = matrix.size
    work = matrix.values.copy()
    np.fill_diagonal(work, np.inf)
    active = list(range(k))
    key = list(matrix.labels)
    size = [1] * k
    height = [0.0] * k
    node = [TreeNode(name=label) for label in matrix.labels]
    # cached per-row minima keep each step near-linear; retired rows sit
    # at inf and never win
    row_min = work.min(axis=1)

    while len(active) > 1:
        best = float(row_min.min())
        # every cluster in a tied pair has row_min == best, so the
        # smallest key among them is the pair's first member, and its
        # smallest-keyed tied partner is the second; no pair list needed
        tied = np.nonzero(row_min == best)[0]
        a = int(min(tied, key=lambda i: key[i]))
        partners = np.nonzero(work[a] == best)[0]
        b = int(min(partners, key=lambda j: key[j]))
        if key[b] < key[a]:
            a, b = b, a
        h = best / 2.0
        first, second = node[a], node[b]
        first.length = h - height[a]
        second.length = h - height[b]
        node[a] = TreeNode(children=[first, second])
        active.remove(b)
        others = np.array([c for c in active if c != a], dtype=np.intp)
        old_to_a = work[others, a]
        old_to_b = work[others, b]
        merged_dist = (size[a] * old_to_a + size[b] * old_to_b) / (
            size[a] + size[b]
        )
        work[a, others] = merged_dist
        work[others, a] = merged_dist
        work[b, :] = np.inf
        work[:, b] = np.inf
        row_min[b] = np.inf
        size[a] += size[b]
        height[a] = h
        key[a] = min(key[a], key[b])
        row_min[a] = work[a].min() if len(active) > 1 else np.inf
        for pos, c in enumerate(others):
            d = merged_dist[pos]
            if d <= row_min[c]:
                row_min[c] = d
            elif row_min[c] in (old_to_a[pos], old_to_b[pos]):
                # the cached minimum may have lived in a retired entry
                row_min[c] = work[c].min()

    return PhyloTree(node[active[0]])


# -- Newick ------------------------------------------------------------------

def _fmt_length(x: float) -> str:
    return repr(float(x))


def _check_label(label: str) -> str:
    if not label:
        raise ValidationError("empty node label cannot be serialized")
    if any(c in _NEWICK_RESERVED or c.isspace() for c in label):
        raise ValidationError(
            f"label {label!r} contains whitespace or a reserved Newick character"
        )
    if label.startswith("'"):
        raise ValidationError(f"label {label!r} would read as a quoted label")
    return label


def to_newick(tree: PhyloTree) -> str:
    """Serialize a tree to Newick text, terminating semicolon included.

    Iterative, so arbitrarily deep (caterpillar) trees serialize without
    hitting the interpreter recursion limit.
    """
    parts: list[str] = []
    stack: list[tuple[str, object]] = [("node", tree.root)]
    while stack:
        kind, payload = stack.pop()
        if kind == "text":
            parts.append(payload)
            continue
        node = payload
        if node.is_leaf:
            chunk = _check_label(node.name)
            if node.length is not None:
                chunk += ":" + _fmt_length(node.length)
            parts.append(chunk)
        else:
            tail = ")"
            if node.name is not None:
                tail += _check_label(node.name)
            if node.length is not None:
                tail += ":" + _fmt_length(node.length)
            stack.append(("text", tail))
            for i in range(len(node.children) - 1, -1, -1):
                stack.append(("node", node.children[i]))
                if i:
                    stack.append(("text", ","))
            parts.append("(")
    parts.append(";")
    return "".join(parts)


def from_newick(text: str) -> PhyloTree:
    """Parse Newick text; branch lengths and multifurcations optional.

    Errors carry the character offset at which parsing failed.  The
    parser keeps its own stack of open groups instead of recursing.
    Comments (``[...]``) and quoted labels are rejected, not read as labels.
    """
    pos = 0
    n = len(text)
    bracket = text.find("[")
    if bracket >= 0:
        raise NewickParseError("Newick comments ('[...]') are not supported", bracket)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_label() -> str | None:
        nonlocal pos
        if pos < n and text[pos] == "'":
            raise NewickParseError("quoted labels are not supported", pos)
        start = pos
        while pos < n and text[pos] not in _NEWICK_RESERVED and not text[pos].isspace():
            pos += 1
        return text[start:pos] if pos > start else None

    def parse_length() -> float | None:
        nonlocal pos
        skip_ws()
        if pos >= n or text[pos] != ":":
            return None
        pos += 1
        skip_ws()
        start = pos
        while pos < n and (text[pos] in "+-.eE" or text[pos].isdigit()):
            pos += 1
        try:
            length = float(text[start:pos])
        except ValueError:
            raise NewickParseError("expected a branch length after ':'", start) from None
        if not math.isfinite(length):
            raise NewickParseError("branch length is not finite", start)
        return length

    frames: list[list[TreeNode]] = []
    completed: TreeNode | None = None
    need_element = True
    while True:
        skip_ws()
        if need_element:
            if pos < n and text[pos] == "(":
                pos += 1
                frames.append([])
                continue
            label = parse_label()
            if label is None:
                found = text[pos] if pos < n else "end of input"
                raise NewickParseError(f"expected a leaf label, found {found!r}", pos)
            completed = TreeNode(name=label)
            completed.length = parse_length()
            need_element = False
        if not frames:
            break
        frames[-1].append(completed)
        skip_ws()
        if pos >= n:
            raise NewickParseError("expected ',' or ')'", pos)
        ch = text[pos]
        if ch == ",":
            pos += 1
            need_element = True
        elif ch == ")":
            pos += 1
            completed = TreeNode(name=parse_label(), children=frames.pop())
            completed.length = parse_length()
        else:
            raise NewickParseError(f"expected ',' or ')', found {ch!r}", pos)

    skip_ws()
    if pos >= n or text[pos] != ";":
        raise NewickParseError("expected ';'", pos)
    pos += 1
    skip_ws()
    if pos < n:
        raise NewickParseError("unexpected text after ';'", pos)
    return PhyloTree(completed)


# -- unrooted structure ------------------------------------------------------

def _check_comparable(t1: PhyloTree, t2: PhyloTree) -> dict[str, int]:
    """Each leaf's column in the membership tables, in label order."""
    s1, s2 = set(t1.leaf_names()), set(t2.leaf_names())
    if s1 != s2:
        only1 = sorted(s1 - s2)[:3]
        only2 = sorted(s2 - s1)[:3]
        raise LeafSetMismatchError(
            f"leaf sets differ (e.g. only in first: {only1}, only in second: {only2})"
        )
    if len(s1) < 4:
        raise TooFewLeavesError(f"tree comparison needs >= 4 leaves, got {len(s1)}")
    return {name: i for i, name in enumerate(sorted(s1))}


def _forks(tree: PhyloTree, column: dict[str, int]):
    """A tree's forks (vertices with >= 2 children) and the leaves below them.

    Returns the forks in walk order; per node id, its fork, or -1 - column
    for a leaf (a unary vertex passes up its child's); and the forks' leaf
    membership, ``int16`` forks x k, 1 where the leaf is below the fork.
    """
    order = list(tree.walk())
    forks = [node for node in order if len(node.children) > 1]
    fork_of = {id(node): f for f, node in enumerate(forks)}
    below = np.zeros((len(forks), len(column)), dtype=np.int16)
    ref: dict[int, int] = {}
    for node in reversed(order):
        if node.is_leaf:
            ref[id(node)] = -1 - column[node.name]
        elif len(node.children) == 1:
            ref[id(node)] = ref[id(node.children[0])]
        else:
            f = ref[id(node)] = fork_of[id(node)]
            for child in node.children:
                c = ref[id(child)]
                if c >= 0:
                    below[f] += below[c]
                else:
                    below[f, -1 - c] = 1
    return forks, ref, below


def _splits(tree: PhyloTree, column: dict[str, int]) -> set[bytes]:
    """Nontrivial splits as membership-row bytes.  Only the edge above a
    fork cuts off 2 to k - 2 leaves; a row holding column 0 (the smallest
    label) is flipped, so both sides of an edge make one entry."""
    below = _forks(tree, column)[2]
    size = below.sum(axis=1).tolist()
    below[below[:, 0] == 1] ^= 1
    return {row.tobytes() for row, n in zip(below, size) if 2 <= n <= len(column) - 2}


def nrf(t1: PhyloTree, t2: PhyloTree) -> float:
    """Normalized Robinson-Foulds distance in [0, 1].

    The symmetric difference of the two nontrivial split sets, divided
    by their combined size (2(k-3) for two fully binary trees on k
    leaves).  Two trees with no nontrivial splits at all are identical
    stars and score 0.  Splits are read off the same leaf-membership
    table as nQD's (see :func:`_forks`), forks x k ``int16``, so memory
    is at most 2k^2 bytes per tree.
    """
    column = _check_comparable(t1, t2)
    s1, s2 = _splits(t1, column), _splits(t2, column)
    denom = len(s1) + len(s2)
    if denom == 0:
        return 0.0
    return len(s1 ^ s2) / denom


# One node pair's terms in nqd are at most k^4/4 (the cells of its table
# partition the leaves) and a tree has at most 2k - 3 nodes, so the int64
# sum over the second tree's nodes for one node of the first stays under
# k^5/2 < 2^63 while k^5 < 2^64, i.e. k <= 7131; shared leaf counts (<= k)
# fit int16.  Sums over the first tree's nodes are Python ints.
_NQD_MAX_LEAVES = 7131


def _quartet_nodes(tree: PhyloTree, column: dict[str, int]):
    """A tree's signed nodes for quartet counting, as flat branch arrays.

    Each internal edge is a node of sign +1 whose two sides are its
    branches; each internal vertex is a node of sign -1 whose branches
    are the leaf sets beyond its neighbours.  A branch under 2 leaves
    holds no leaf pair and is dropped, and so is a node left with fewer
    than 2 branches.  A unary vertex has the same branches as the edge
    above it and the opposite sign, so unary vertices are skipped and a
    chain of them counts as one edge, which keeps a tree at <= 2k - 3
    nodes.

    Every kept branch is the leaf set below a fork (a vertex with >= 2
    children) or the complement of one.  Returns the forks' leaf
    membership (``int16``, forks x k); per branch, its fork, whether it
    is the complement, and the leaf count below its fork; and per node,
    the index of its first branch and its sign.
    """
    k = len(column)
    forks, ref, below = _forks(tree, column)
    size = below.sum(axis=1, dtype=np.int64)

    fork, complement, starts, signs = [], [], [], []

    def add(sign: int, node_forks: list[int], node_complement: list[bool]) -> None:
        if len(node_forks) >= 2:
            starts.append(len(fork))
            signs.append(sign)
            fork.extend(node_forks)
            complement.extend(node_complement)

    for f, node in enumerate(forks):
        outside = int(k - size[f] >= 2)
        if outside:
            add(1, [f, f], [False, True])
        inner = [c for c in (ref[id(child)] for child in node.children) if c >= 0]
        add(-1, inner + [f] * outside, [False] * len(inner) + [True] * outside)
    fork = np.array(fork, dtype=np.intp)
    complement = np.array(complement, dtype=bool)
    return below, fork, complement, size[fork], np.array(starts, dtype=np.intp), signs


def _resolved(width: np.ndarray, starts: np.ndarray, signs: list[int]) -> int:
    """Quartets one tree resolves: per node, signed, the (quartet, pairing)
    pairs whose two pairs lie in two different branches."""
    if not signs:
        return 0
    pairs = width * (width - 1) // 2
    total = np.add.reduceat(pairs, starts)
    per_node = (total * total - np.add.reduceat(pairs * pairs, starts)) // 2
    return int(np.array(signs) @ per_node)


def nqd(t1: PhyloTree, t2: PhyloTree) -> float:
    """Normalized quartet distance in [0, 1].

    Every 4-subset of leaves induces one of three resolved topologies or
    an unresolved star in each tree; the distance is the fraction of
    quartets whose categories differ.  Unresolved matches only
    unresolved.

    Quartets are counted, never listed, for trees of any degree (after
    Bryant, Tsang, Kearney & Li, SODA 2000, and Christiansen, Mailund,
    Pedersen, Randers & Stissing, AMB 2006).  For a quartet resolved as
    ab|cd, the edges that separate {a, b} from {c, d} outnumber the
    vertices holding the two pairs in two different branches by exactly
    1; for the other two pairings, and for an unresolved quartet, both
    numbers are 0.  Summed over all pairs of a node of each tree (edges
    +1, vertices -1, see :func:`_quartet_nodes`), the (quartet, pairing)
    pairs that both nodes separate count the quartets resolved alike in
    both trees, and those separated under any two pairings count the
    quartets resolved in both.  Both follow from each node pair's table
    of shared leaf counts, so the count is an exact integer.  The work is
    O(k^2) table cells for binary trees, and memory is O(k^2) for any
    shape.
    """
    column = _check_comparable(t1, t2)
    k = len(column)
    if k > _NQD_MAX_LEAVES:
        raise ValidationError(
            f"nQD is computed for at most {_NQD_MAX_LEAVES} leaves, got {k}"
        )
    below1, fork1, complement1, inside1, starts1, signs1 = _quartet_nodes(t1, column)
    below2, fork2, complement2, inside2, starts2, signs2 = _quartet_nodes(t2, column)
    width1 = np.where(complement1, k - inside1, inside1)
    width2 = np.where(complement2, k - inside2, inside2)
    resolved = _resolved(width1, starts1, signs1) + _resolved(width2, starts2, signs2)

    same = both = 0  # quartets resolved alike in both trees; resolved in both
    if signs2:
        sign2 = np.array(signs2, dtype=np.int64)
        shared = below1 @ below2.T  # leaves below both forks
        bounds = [*starts1.tolist(), len(fork1)]
        for start, end, sign1 in zip(bounds, bounds[1:], signs1):
            rows = slice(start, end)
            # n[i, b]: leaves in branch i of this node and in branch b of
            # the second tree, by |~A & B| = |B| - |A & B| on either side
            n = shared[fork1[rows]][:, fork2].astype(np.int64)
            n = np.where(complement1[rows, None], inside2 - n, n)
            n = np.where(complement2, width1[rows, None] - n, n)
            # P: two leaf pairs in cells on different rows and columns
            c = n * (n - 1) // 2
            row = np.add.reduceat(c, starts2, axis=1)
            total = row.sum(axis=0)
            col = c.sum(axis=0)
            p = (
                total * total
                - (row * row).sum(axis=0)
                - np.add.reduceat(col * col, starts2)
                + np.add.reduceat((c * c).sum(axis=0), starts2)
            ) // 2
            # Q: a, b, c, d in cells (i, x), (i, y), (j, x), (j, y), i < j, x < y;
            # one row i at a time keeps memory at the size of n
            q = 0
            for i in range(end - start - 1):
                prod = n[i] * n[i + 1 :]
                dot = np.add.reduceat(prod, starts2, axis=1)
                q = q + (
                    (dot * dot).sum(axis=0)
                    - np.add.reduceat((prod * prod).sum(axis=0), starts2)
                ) // 2
            same += sign1 * int(sign2 @ p)
            both += sign1 * int(sign2 @ (p + q))
    return (resolved - same - both) / math.comb(k, 4)


# -- PHYLIP interchange ------------------------------------------------------

def write_phylip(matrix: DistanceMatrix, fh) -> None:
    """Write a relaxed PHYLIP matrix: count line, then label + full row.

    Entries are printed with full round-trip precision so that reading
    the file back reproduces the exact same doubles.
    """
    fh.write(f"{matrix.size}\n")
    for label, row in zip(matrix.labels, matrix.values):
        fh.write("\t".join([_check_label(label), *map(repr, row.tolist())]) + "\n")


def read_phylip(source) -> DistanceMatrix:
    """Read a relaxed PHYLIP matrix written by :func:`write_phylip`."""
    own = isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")
    fh = open(source) if own else source
    try:
        lines = [line.strip() for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"distance matrix file is not valid {exc.encoding} text: {exc.reason}"
        ) from None
    finally:
        if own:
            fh.close()
    if not lines:
        raise ValidationError("empty distance matrix file")
    try:
        k = int(lines[0])
    except ValueError:
        raise ValidationError(
            f"expected a taxon count on the first line, found {lines[0]!r}"
        ) from None
    if len(lines) - 1 != k:
        raise ValidationError(f"expected {k} matrix rows, found {len(lines) - 1}")
    labels = []
    values = np.zeros((k, k), dtype=np.float64)
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != k + 1:
            raise ValidationError(
                f"matrix row {i + 1}: expected a label and {k} values, "
                f"found {len(parts)} fields"
            )
        labels.append(parts[0])
        try:
            values[i] = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise ValidationError(f"matrix row {i + 1}: {exc}") from None
    return DistanceMatrix(labels, values)
