"""Distance matrices, UPGMA trees, Newick interchange, and tree metrics.

Trees are rooted node structures with optional branch lengths.  UPGMA
output is strictly binary and ultrametric; parsed trees may be
multifurcating.  The two comparison metrics (normalized Robinson-Foulds
and normalized quartet distance) operate on the unrooted form, so they
are insensitive to root placement.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .core import EncodedSequence, PpnParams, _distance_rows, _record_vectors
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

#: cells in one block of :class:`DistanceMatrix`'s checks
_CHECK_CELLS = 1 << 15


class DistanceMatrix:
    """Symmetric non-negative matrix over labeled taxa.

    Symmetry and the zero diagonal are exact; entries above and below
    the diagonal are the same float, never recomputed values that merely
    agree approximately.  A zero is stored as +0.0 whatever its sign in
    the input, so a pair that differs only in the sign of a zero holds
    the same float too.
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
        # checked in blocks of rows: no temporary has more than about
        # _CHECK_CELLS cells, where a k x k one would rival the matrix
        step = max(1, _CHECK_CELLS // k)
        for a in range(0, k, step):
            upper, lower = values[a : a + step, a:], values[a:, a : a + step].T
            differ = upper != lower  # True at NaN, which must face NaN
            if not (np.isnan(upper[differ]) & np.isnan(lower[differ])).all():
                raise ValidationError("distance matrix is not exactly symmetric")
        if np.any(np.diagonal(values) != 0.0):
            raise ValidationError("distance matrix diagonal must be exactly zero")
        with np.errstate(invalid="ignore"):
            if any((values[a : a + step] < 0.0).any() for a in range(0, k, step)):
                raise ValidationError("distance matrix entries must be non-negative")
        # a new array, with -0.0 + 0.0 == +0.0
        values = values + 0.0
        values.flags.writeable = False
        self.labels = labels
        self.values = values

    @property
    def size(self) -> int:
        return len(self.labels)

    def __getitem__(self, pair):
        a, b = pair
        for label in (a, b):
            if label not in self.labels:
                raise ValidationError(f"distance matrix has no label {label!r}")
        return float(self.values[self.labels.index(a), self.labels.index(b)])


def pairwise_matrix(
    seqs: list[EncodedSequence],
    params: PpnParams,
    *,
    normalized: bool = False,
) -> DistanceMatrix:
    """All-pairs distance matrix over a sequence set.

    Each vector is computed once, after the ids are checked, by the
    CLI's route: short sequences batched, longer ones tallied.  Each
    vector's distances to all later vectors are one exact row from the
    code behind :func:`ppn.core.distance`, mirrored below the diagonal.
    """
    records = ((s.id, s.codes, None) for s in seqs)
    vectors = (vec for _, vec in _record_vectors(records, params))
    return _vector_matrix([s.id for s in seqs], vectors, params.metric, normalized)


def _vector_matrix(ids, vectors, metric, normalized: bool) -> DistanceMatrix:
    """Distance matrix over one vector per id.

    The ids are checked before ``vectors``, any iterable, is read.
    """
    if len(ids) < 2:
        raise ValidationError(f"need >= 2 sequences, got {len(ids)}")
    if len(set(ids)) != len(ids):
        dup = next(i for i in ids if ids.count(i) > 1)
        raise DuplicateIdError(f"duplicate sequence id {dup!r}")
    values = np.zeros((len(ids), len(ids)), dtype=np.float64)
    for i, row in enumerate(_distance_rows(list(vectors), metric, normalized)):
        values[i, i + 1 :] = values[i + 1 :, i] = row
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

    A merge rewrites the merged cluster's whole row and column at once
    and rescans only the rows whose cached minimum it may have retired.
    """
    k = matrix.size
    # a merge's sum reaches k times the largest entry (2x for rounding); NaN fails <=
    if not matrix.values.max() <= np.finfo(np.float64).max / (2 * k):
        raise NonFiniteDistanceError("distance matrix has NaN, infinite or huge entries")
    work = matrix.values.copy()
    np.fill_diagonal(work, np.inf)
    key = list(matrix.labels)
    size = [1] * k
    height = [0.0] * k
    node = [TreeNode(name=label) for label in matrix.labels]
    # cached per-row minima; retired rows and columns sit at inf, never win
    row_min = work.min(axis=1)

    for _ in range(k - 1):
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
        old_a = work[a].copy()
        old_b = work[b].copy()
        # inf at a, at b and at every retired cluster: inf absorbs the sum
        merged = (size[a] * old_a + size[b] * old_b) / (size[a] + size[b])
        work[a] = work[:, a] = merged
        work[b] = work[:, b] = np.inf
        lower = merged <= row_min
        # a minimum that merged did not undercut may have lived at a or b;
        # a and b are always stale, as each held best in the other's row
        stale = ~lower & ((row_min == old_a) | (row_min == old_b))
        row_min[lower] = merged[lower]
        row_min[stale] = work[stale].min(axis=1)
        size[a] += size[b]
        height[a] = h
        key[a] = min(key[a], key[b])

    return PhyloTree(node[a])


# -- Newick ------------------------------------------------------------------

# The Newick lexicon, each rule once, for the reader and both writers:
# whitespace is what str.isspace accepts (\s, on every code point); a label
# is a run of anything but whitespace and ():,;[] that opens with no quote
# ('[' opens a comment); a length is ':' amid whitespace, then a number.
_WHITESPACE = re.compile(r"\s*")
_LABEL = re.compile(r"(?!')[^\s():,;\[\]]+")
_LENGTH = re.compile(r"\s*:\s*([\d+\-.eE]*)")


def _check_label(label: str) -> str:
    """``label`` if it is one whole :data:`_LABEL`, so that
    :func:`from_newick` reads it back, else a :class:`ValidationError`."""
    if not label:
        raise ValidationError("empty node label cannot be serialized")
    if _LABEL.fullmatch(label):
        return label
    if label[0] == "'" and _LABEL.fullmatch("_" + label[1:]):
        raise ValidationError(f"label {label!r} would read as a quoted label")
    raise ValidationError(
        f"label {label!r} contains whitespace or a reserved Newick character"
    )


def _label_text(node: TreeNode) -> str:
    """A node's checked label (none for an unnamed fork) and exact length."""
    text = "" if node.name is None and node.children else _check_label(node.name)
    return text if node.length is None else f"{text}:{float(node.length)!r}"


def to_newick(tree: PhyloTree) -> str:
    """Serialize a tree to Newick text, terminating semicolon included.

    Iterative, so arbitrarily deep (caterpillar) trees serialize without
    hitting the interpreter recursion limit.
    """
    parts: list[str] = []
    stack: list[str | TreeNode] = [";", tree.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item.is_leaf:
            parts.append(_label_text(item))
        else:
            parts.append("(")
            stack += [")" + _label_text(item), item.children[-1]]
            for child in reversed(item.children[:-1]):
                stack += [",", child]
    return "".join(parts)


def from_newick(text: str) -> PhyloTree:
    """Parse Newick text; branch lengths and multifurcations optional.

    A leaf is a :data:`_LABEL`, a fork a parenthesized list of nodes and
    an optional label right after the ')'; either may end in a finite
    :data:`_LENGTH`.  :data:`_WHITESPACE` may stand between any two of
    those parts but a ')' and a label.

    Errors carry the character offset at which parsing failed.  The
    parser keeps its own stack of open groups instead of recursing.
    Comments (``[...]``) and quoted labels are rejected, not read as labels.
    """
    bracket = text.find("[")
    if bracket >= 0:
        raise NewickParseError("Newick comments ('[...]') are not supported", bracket)
    frames: list[list[TreeNode]] = []
    node = None  # the node just read, or None while one is expected
    pos = 0
    while node is None or frames:
        pos = _WHITESPACE.match(text, pos).end()
        if node is None:
            if text.startswith("(", pos):
                frames.append([])
                pos += 1
                continue
            node = TreeNode()
        else:
            frames[-1].append(node)
            if text.startswith(",", pos):
                node, pos = None, pos + 1
                continue
            if not text.startswith(")", pos):
                found = f", found {text[pos]!r}" if pos < len(text) else ""
                raise NewickParseError(f"expected ',' or ')'{found}", pos)
            node, pos = TreeNode(children=frames.pop()), pos + 1
        # the label and the length of the leaf or fork just begun
        label = _LABEL.match(text, pos)
        if label:
            node.name, pos = label[0], label.end()
        elif text.startswith("'", pos):
            raise NewickParseError("quoted labels are not supported", pos)
        elif node.is_leaf:
            found = text[pos : pos + 1] or "end of input"
            raise NewickParseError(f"expected a leaf label, found {found!r}", pos)
        length = _LENGTH.match(text, pos)
        if length:
            start, pos = length.span(1)
            try:
                # a digit that \d leaves out, such as \u00b2, spoils the number
                if text[pos : pos + 1].isdigit():
                    raise ValueError
                node.length = float(length[1])
            except ValueError:
                raise NewickParseError("expected a branch length after ':'", start) from None
            if not math.isfinite(node.length):
                raise NewickParseError("branch length is not finite", start)
    pos = _WHITESPACE.match(text, pos).end()
    if not text.startswith(";", pos):
        raise NewickParseError("expected ';'", pos)
    pos = _WHITESPACE.match(text, pos + 1).end()
    if pos < len(text):
        raise NewickParseError("unexpected text after ';'", pos)
    return PhyloTree(node)


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
    of shared leaf counts, so the count is an exact integer.  For binary
    trees there are O(k^2) table cells, but filling them takes the int16
    product of the two membership tables, O(k^3) multiply-adds with no
    BLAS for integers, and each node of the first tree costs some 40
    numpy calls on top.  Memory is O(k^2) for any shape.
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
    the file back reproduces the exact same doubles.  Each unordered
    pair is formatted once, as the matrix is exactly symmetric: row i is
    the strings row j < i made for column i, the diagonal, then its own
    entries right of the diagonal, which it hands on to their columns.
    A column's strings are dropped once its row is written.
    """
    fh.write(f"{matrix.size}\n")
    columns = [[] for _ in matrix.labels]
    for i, label in enumerate(matrix.labels):
        upper = list(map(repr, matrix.values[i, i + 1 :].tolist()))
        for column, text in zip(columns[i + 1 :], upper):
            column.append(text)
        left, columns[i] = columns[i], None
        # DistanceMatrix stores the diagonal as +0.0
        fh.write("\t".join([_check_label(label), *left, "0.0", *upper]) + "\n")


def read_phylip(source) -> DistanceMatrix:
    """Read a relaxed PHYLIP matrix written by :func:`write_phylip`.

    A value must be a number ``float`` reads from ASCII with no ``_``;
    anything else raises :class:`ValidationError` naming its row.  Rows
    are parsed as they are read, and the whole input is read before any
    error is raised: text that is not UTF-8 anywhere, then a wrong row
    count, win over the first bad row.
    """
    own = isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")
    fh = open(source, encoding="utf-8") if own else source
    try:
        return _parse_phylip(line for line in map(str.strip, fh) if line)
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"distance matrix file is not valid {exc.encoding} text: {exc.reason}"
        ) from None
    finally:
        if own:
            fh.close()


def _parse_phylip(lines) -> DistanceMatrix:
    """The matrix of the stripped non-blank ``lines`` of a PHYLIP text."""
    first = next(lines, None)
    if first is None:
        raise ValidationError("empty distance matrix file")
    try:
        k = int(first)
    except ValueError:
        for _ in lines:  # text that is not UTF-8 further on wins
            pass
        raise ValidationError(
            f"expected a taxon count on the first line, found {first!r}"
        ) from None
    labels, values = [], None
    error, rows = None, 0  # the first bad row's message; rows read
    for rows, line in enumerate(lines, 1):
        if error is not None or rows > k:
            continue
        parts = line.split()
        if len(parts) != k + 1:
            error = (
                f"matrix row {rows}: expected a label and {k} values, "
                f"found {len(parts)} fields"
            )
            continue
        # float() also reads "1_5" as 15.0 and non-ASCII digits such as
        # "\u0661" as 1.0; the fields are looked at one by one only when
        # the row holds "_" past its label or is not all ASCII
        if line.find("_", len(parts[0])) >= 0 or not line.isascii():
            bad = next((p for p in parts[1:] if "_" in p or not p.isascii()), None)
            if bad is not None:
                error = f"matrix row {rows}: {bad!r} is not an ASCII decimal number"
                continue
        try:
            row = [float(p) for p in parts[1:]]
        except ValueError as exc:
            error = f"matrix row {rows}: {exc}"
            continue
        if values is None:
            # a row of k + 1 fields bounds k by the input's own size
            values = np.zeros((k, k), dtype=np.float64)
        values[rows - 1] = row
        labels.append(parts[0])
    if rows != k:
        raise ValidationError(f"expected {k} matrix rows, found {rows}")
    if error is not None:
        raise ValidationError(error)
    return DistanceMatrix(labels, np.zeros((0, 0)) if values is None else values)
