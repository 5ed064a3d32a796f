"""Distance matrices, UPGMA trees, Newick interchange, and tree metrics.

Trees are rooted node structures with optional branch lengths.  UPGMA
output is strictly binary and ultrametric; parsed trees may be
multifurcating.  The two comparison metrics (normalized Robinson-Foulds
and normalized quartet distance) operate on the unrooted form, so they
are insensitive to root placement.
"""

from __future__ import annotations

import collections
import io
import math
import os
import re
import stat
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
from .seqio import _opened

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

#: rows in one block of :func:`write_phylip` and :func:`read_phylip`, read
#: only by :func:`_add`: a column holds one joined text per block above its
#: row, and a block's strings are held one per pair until its last row is
#: added; 8 held the least at k = 300 (writer peak 0.81 MB, against 0.98 at
#: 16 and 1.58 at 32)
_PHYLIP_ROWS = 8


def _check_distinct(items, error, what: str) -> None:
    """Raise ``error`` naming the first of ``items``, a sequence, that
    occurs more than once, if any does; each item is counted once."""
    counts = collections.Counter(items)
    if len(counts) != len(items):
        dup = next(x for x in items if counts[x] > 1)
        raise error(f"duplicate {what} {dup!r}")


class DistanceMatrix:
    """Symmetric non-negative matrix over labeled taxa.

    Symmetry and the zero diagonal are exact; entries above and below
    the diagonal are the same float, never recomputed values that merely
    agree approximately.  A zero is stored as +0.0 whatever its sign in
    the input, so a pair that differs only in the sign of a zero holds
    the same float too.  The constructor keeps a read-only copy and
    leaves the caller's array as it was; the matrix stages hand over
    arrays they made themselves, which are frozen in place.  ``ppn tree``
    runs the same checks (:meth:`_check`) on the array it builds and
    merges in it unfrozen, with no matrix made at all.
    """

    __slots__ = ("labels", "values")

    def __init__(self, labels, values):
        self._freeze(labels, np.array(values, dtype=np.float64))

    @classmethod
    def _adopt(cls, labels, values: np.ndarray) -> DistanceMatrix:
        """The matrix over a fresh float64 array that no one else holds,
        frozen in place with no copy."""
        matrix = cls.__new__(cls)
        matrix._freeze(labels, values)
        return matrix

    def _freeze(self, labels, values: np.ndarray) -> None:
        """Check ``labels`` and ``values``, make the zeros +0.0, freeze."""
        self.labels = self._check(labels, values)
        values.flags.writeable = False
        self.values = values

    @classmethod
    def _check(cls, labels, values: np.ndarray) -> tuple:
        """``labels`` as :meth:`_labels` gives them, once ``values`` is
        their exactly symmetric, non-negative float64 matrix with a zero
        diagonal; its zeros are made +0.0 in place."""
        labels = cls._labels(labels)
        k = len(labels)
        if values.shape != (k, k):
            raise ValidationError(
                f"matrix shape {values.shape} does not match {k} labels"
            )
        # one pass in blocks of rows: no temporary has more than about
        # _CHECK_CELLS cells, where a k x k one would rival the matrix;
        # a symmetric matrix has its signs all in the upper triangle
        step, negative = max(1, _CHECK_CELLS // k), False
        with np.errstate(invalid="ignore"):
            for a in range(0, k, step):
                upper, lower = values[a : a + step, a:], values[a:, a : a + step].T
                differ = upper != lower  # True at NaN, which must face NaN
                if not (np.isnan(upper[differ]) & np.isnan(lower[differ])).all():
                    raise ValidationError("distance matrix is not exactly symmetric")
                negative = negative or (upper < 0.0).any()
        if np.any(np.diagonal(values) != 0.0):
            raise ValidationError("distance matrix diagonal must be exactly zero")
        if negative:
            raise ValidationError("distance matrix entries must be non-negative")
        values += 0.0  # -0.0 + 0.0 == +0.0
        return labels

    @staticmethod
    def _labels(labels) -> tuple:
        """``labels`` as a tuple, once they are two or more, all distinct."""
        labels = tuple(labels)
        if len(labels) < 2:
            raise ValidationError(f"distance matrix needs >= 2 taxa, got {len(labels)}")
        _check_distinct(labels, DuplicateIdError, "taxon label")
        return labels

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
    ids, rows = _vector_rows(ids, vectors, metric, normalized)
    return DistanceMatrix._adopt(ids, _mirrored(rows, len(ids)))


def _vector_rows(ids, vectors, metric, normalized: bool):
    """The checked ids, and their matrix's rows right of the diagonal
    from :func:`ppn.core._distance_rows`, made one at a time: the first
    k - 1 rows, as the last has no entries there.

    The ids are checked before ``vectors``, any iterable, is read.
    """
    ids = DistanceMatrix._labels(ids)
    return ids, _distance_rows(list(vectors), metric, normalized)


def _mirrored(rows, k: int) -> np.ndarray:
    """The k x k float64 array, k >= 2, whose upper triangle is ``rows``,
    as :func:`_vector_rows` makes them, mirrored below a zero diagonal.

    The array is made once the first row is, when the rows' source no
    longer holds the vectors.
    """
    values = None
    for i, row in enumerate(rows):
        if values is None:
            values = np.zeros((k, k), dtype=np.float64)
        values[i, i + 1 :] = values[i + 1 :, i] = row
    return values


@dataclass(slots=True)
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
        _check_distinct(self.leaf_names(), DuplicateLeafError, "leaf label")

    @classmethod
    def _adopt(cls, root: TreeNode, names: list[str]) -> PhyloTree:
        """The tree over ``root``, whose leaf names in :meth:`walk` order
        are ``names``: checked as the constructor checks them, with no walk."""
        _check_distinct(names, DuplicateLeafError, "leaf label")
        tree = cls.__new__(cls)
        tree.root = root
        return tree

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

    A merge rewrites the merged cluster's whole row and column at once,
    with no copy of either merged row, and rescans only the rows whose
    cached minimum it may have retired.
    The merges run in a copy of ``matrix.values``, so ``matrix`` is
    left as it was; ``ppn tree`` hands :func:`_upgma` the array it built
    and holds no copy.
    """
    return _upgma(matrix.labels, matrix.values.copy())


def _upgma(labels: tuple, work: np.ndarray) -> PhyloTree:
    """:func:`upgma` of the matrix ``work`` over ``labels``, checked as
    :meth:`DistanceMatrix._check` checks it, merged in ``work`` itself,
    which it overwrites."""
    k = len(labels)
    # a merge's sum reaches k times the largest entry (2x for rounding); NaN fails <=
    if not work.max() <= np.finfo(np.float64).max / (2 * k):
        raise NonFiniteDistanceError("distance matrix has NaN, infinite or huge entries")
    np.fill_diagonal(work, np.inf)
    key = list(labels)
    size = [1] * k
    height = [0.0] * k
    node = [TreeNode(name=label) for label in labels]
    # cached per-row minima; retired rows and columns sit at inf, never win
    row_min = work.min(axis=1)

    for _ in range(k - 1):
        best = float(row_min.min())
        # every cluster in a tied pair has row_min == best, so the
        # smallest key among them is the pair's first member, and its
        # smallest-keyed tied partner is the second; no pair list needed
        a = min((row_min == best).nonzero()[0].tolist(), key=key.__getitem__)
        b = min((work[a] == best).nonzero()[0].tolist(), key=key.__getitem__)
        h = best / 2.0
        first, second = node[a], node[b]
        first.length = h - height[a]
        second.length = h - height[b]
        node[a] = TreeNode(children=[first, second])
        # stale and merged read rows a and b before they are overwritten;
        # inf at a, at b and at every retired cluster: inf absorbs the sum
        row_a, row_b = work[a], work[b]
        stale = (row_min == row_a) | (row_min == row_b)
        merged = (size[a] * row_a + size[b] * row_b) / (size[a] + size[b])
        work[a] = work[:, a] = merged
        work[b] = work[:, b] = np.inf
        # a minimum that merged did not undercut may have lived at a or b;
        # a and b are always stale, as each held best in the other's row
        stale &= merged > row_min
        np.minimum(row_min, merged, out=row_min)
        row_min[stale] = work[stale].min(axis=1)
        size[a] += size[b]
        height[a] = h
        key[a] = min(key[a], key[b])

    return PhyloTree(node[a])


# -- Newick ------------------------------------------------------------------

# The Newick lexicon, each rule once, for the reader and both writers:
# whitespace is what str.isspace accepts (\s, on every code point); a label
# is a run of anything but whitespace and ():,;[] that opens with no quote
# ('[' opens a comment); a length is ':' amid whitespace, then a number in
# ASCII digits.  The reader matches a node's label and length at once.
_WHITESPACE = re.compile(r"\s*")
_LABEL = re.compile(r"(?!')[^\s():,;\[\]]+")
_LENGTH = re.compile(r"\s*:\s*([0-9+\-.eE]*)")
_NODE = re.compile(f"({_LABEL.pattern})?(?:{_LENGTH.pattern})?")


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

    One :data:`_NODE` match reads a node's label and length, and
    whitespace is matched only where a character of it stands.  The leaf
    names are gathered as they are read, so the duplicate check walks no
    tree.
    """
    bracket = text.find("[")
    if bracket >= 0:
        raise NewickParseError("Newick comments ('[...]') are not supported", bracket)
    frames: list[list[TreeNode]] = []
    names: list[str] = []  # leaf names in text order
    node = None  # the node just read, or None while one is expected
    pos = 0
    while node is None or frames:
        char = text[pos : pos + 1]
        if char.isspace():
            pos = _WHITESPACE.match(text, pos).end()
            char = text[pos : pos + 1]
        if node is not None:
            frames[-1].append(node)
            if char == ",":
                node, pos = None, pos + 1
                continue
            if char != ")":
                found = f", found {char!r}" if char else ""
                raise NewickParseError(f"expected ',' or ')'{found}", pos)
            children, pos = frames.pop(), pos + 1
        elif char == "(":
            frames.append([])
            pos += 1
            continue
        else:
            children = []
        # the label and the length of the leaf or fork just begun
        parts = _NODE.match(text, pos)
        name, number = parts.groups()
        if name is None:
            if text.startswith("'", pos):
                raise NewickParseError("quoted labels are not supported", pos)
            if not children:
                found = text[pos : pos + 1] or "end of input"
                raise NewickParseError(f"expected a leaf label, found {found!r}", pos)
        elif not children:
            names.append(name)
        length = None
        if number is None:
            pos = parts.end()
        else:
            start, pos = parts.span(2)
            try:
                # a digit that [0-9] leaves out, such as \u00b2 or \u0663,
                # spoils the number
                if text[pos : pos + 1].isdigit():
                    raise ValueError
                length = float(number)
            except ValueError:
                raise NewickParseError("expected a branch length after ':'", start) from None
            if not math.isfinite(length):
                raise NewickParseError("branch length is not finite", start)
        node = TreeNode(name, length, children)
    pos = _WHITESPACE.match(text, pos).end()
    if not text.startswith(";", pos):
        raise NewickParseError("expected ';'", pos)
    pos = _WHITESPACE.match(text, pos + 1).end()
    if pos < len(text):
        raise NewickParseError("unexpected text after ';'", pos)
    # walk() meets the leaves in reverse text order
    names.reverse()
    return PhyloTree._adopt(node, names)


# -- unrooted structure ------------------------------------------------------

def _check_comparable(order1: list, order2: list) -> dict[str, int]:
    """Each leaf's column (its bit in :func:`_forks`'s leaf sets), in
    label order, from the two trees' nodes as :meth:`PhyloTree.walk`
    gives them."""
    s1 = {node.name for node in order1 if not node.children}
    s2 = {node.name for node in order2 if not node.children}
    if s1 != s2:
        only1 = sorted(s1 - s2)[:3]
        only2 = sorted(s2 - s1)[:3]
        raise LeafSetMismatchError(
            f"leaf sets differ (e.g. only in first: {only1}, only in second: {only2})"
        )
    if len(s1) < 4:
        raise TooFewLeavesError(f"tree comparison needs >= 4 leaves, got {len(s1)}")
    return {name: i for i, name in enumerate(sorted(s1))}


def _forks(order: list, column: dict[str, int], leaves=None):
    """A tree's forks (vertices with >= 2 children), numbered children
    first, from its nodes as :meth:`PhyloTree.walk` gives them.

    A fork's leaf set is the set bits of one ``int``, bit ``column[name]``
    for each leaf below it: the ``|`` of its children's.  A unary vertex
    passes up its child.  Returns per fork its leaf count, the forks
    among its children and its leaf bits, and, when ``leaves`` (k rows)
    is given, a table (``int16``, forks x ``leaves.shape[1]``) whose row
    for a fork is the sum of ``leaves[column]`` over its leaves, else None.
    """
    table = None
    if leaves is not None:
        count = sum(len(node.children) > 1 for node in order)
        table = np.zeros((count, leaves.shape[1]), dtype=np.int16)
    inner, bits = [], []
    # walked backwards, a vertex comes right after its children's subtrees,
    # so the last entries here are its children's: a fork, or -1 - column
    done: list[int] = []
    for node in reversed(order):
        if not node.children:
            done.append(-1 - column[node.name])
        elif len(node.children) > 1:
            f, below = len(bits), 0
            kids = done[-len(node.children) :]
            del done[-len(node.children) :]
            for c in kids:
                below |= bits[c] if c >= 0 else 1 << (-1 - c)
                if table is not None:
                    table[f] += table[c] if c >= 0 else leaves[-1 - c]
            bits.append(below)
            inner.append(tuple(c for c in kids if c >= 0))
            done.append(f)
    return [b.bit_count() for b in bits], inner, bits, table


def _splits(bits: list[int], k: int) -> set[int]:
    """Nontrivial splits as leaf bitmasks, from :func:`_forks`'s leaf bits
    on k leaves.  Only the edge above a fork cuts off 2 to k - 2 leaves;
    a set holding bit 0 (the smallest label) is replaced by its
    complement, so both sides of an edge make one entry."""
    full = (1 << k) - 1
    return {b ^ full if b & 1 else b for b in bits if 2 <= b.bit_count() <= k - 2}


def nrf(t1: PhyloTree, t2: PhyloTree) -> float:
    """Normalized Robinson-Foulds distance in [0, 1].

    The symmetric difference of the two nontrivial split sets, divided
    by their combined size (2(k-3) for two fully binary trees on k
    leaves).  Two trees with no nontrivial splits at all are identical
    stars and score 0.  A split is one ``int`` bitmask of the leaves on
    one side (see :func:`_forks`), so memory is O(k) words per split
    and no k x k table is made.
    """
    order1, order2 = list(t1.walk()), list(t2.walk())
    column = _check_comparable(order1, order2)
    k = len(column)
    return _nrf(_splits(_forks(order1, column)[2], k), _splits(_forks(order2, column)[2], k))


def _nrf(s1: set[int], s2: set[int]) -> float:
    """:func:`nrf` of two trees' split sets."""
    denom = len(s1) + len(s2)
    if denom == 0:
        return 0.0
    return len(s1 ^ s2) / denom


# nqd at k leaves: shared leaf counts n are int16 (n <= k < 2^15), and
# int32 in a chunk.  Leaf pairs per cell c = n(n-1)/2 (n(n-1) < k^2) and
# branch-pair products n_i n_j are int32 (branches i, j of one node are
# disjoint, so n_i + n_j <= k and n_i n_j <= k^2/4), and so are their sums
# over one second-tree node's branches, which are disjoint too: at most
# C(k, 2) and k^2/4.  Squares and all that follows are int64: one node
# pair's terms are at most k^4/4 and the second tree has at most 2k - 3
# nodes, so a signed sum over them stays under k^5/2 < 2^63 while
# k^5 < 2^64, i.e. k <= 7131.  Sums over the first tree's nodes are
# Python ints.
_NQD_MAX_LEAVES = 7131

#: cells (first-tree branches or branch pairs x second-tree branches) in
#: one chunk of :func:`nqd`'s first-tree nodes: at least this many, and at
#: least the shared-leaf table's cells over ``_NQD_SHARE``, or large trees
#: would take one node per chunk.  At its peak a chunk holds about 11
#: bytes per cell.  ``ppn treedist`` drops both trees before the chunks,
#: and at 48 leaves a chunk of 4 096 cells fits in what they held; the
#: public :func:`nqd` keeps its caller's trees, so its own peak there is
#: about 24 KB above what 2 048 cells gave
_NQD_CELLS = 1 << 12
_NQD_SHARE = 8

#: ``np.triu_indices(m, 1)`` by m, read-only, for the m that :func:`_pairs`
#: keeps
_TRIU: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _quartet_nodes(size: list[int], inner: list[tuple[int, ...]], k: int):
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
    children) or the complement of one.  Takes :func:`_forks`'s leaf
    counts and child forks; returns per branch its fork, whether it is
    the complement, and its leaf count (``int16``); and per node, the
    index of its first branch and its sign.
    """
    fork, complement, starts, signs = [], [], [], []
    for f, kids in enumerate(inner):
        outside = k - size[f] >= 2
        if outside:  # the edge above f: the leaves below it, and the rest
            starts.append(len(fork))
            signs.append(1)
            fork += (f, f)
            complement += (False, True)
        if len(kids) + outside >= 2:  # the vertex at f: its child forks, the rest
            starts.append(len(fork))
            signs.append(-1)
            fork += kids
            complement += (False,) * len(kids)
            if outside:
                fork.append(f)
                complement.append(True)
    inside = np.array(size, dtype=np.int16)[fork]
    complement = np.array(complement, dtype=bool)
    return (
        np.array(fork, dtype=np.intp),
        complement,
        np.where(complement, np.int16(k) - inside, inside),
        np.array(starts, dtype=np.intp),
        np.array(signs, dtype=np.int64),
    )


def _resolved(width: np.ndarray, starts: np.ndarray, signs: np.ndarray) -> int:
    """Quartets one tree resolves: per node, signed, the (quartet, pairing)
    pairs whose two pairs lie in two different branches."""
    if not len(signs):
        return 0
    pairs = width.astype(np.int64) * (width - 1) // 2
    total = np.add.reduceat(pairs, starts)
    per_node = (total * total - np.add.reduceat(pairs * pairs, starts)) // 2
    return int(signs @ per_node)


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
    of shared leaf counts, so the count is an exact integer.

    The leaves below both of two forks are summed up the first tree in
    the walk that finds its forks, each fork's row over the second
    tree's forks being the sum of its children's, so no product of
    membership tables is formed.  First-tree nodes with the same branch
    count m are scored together, in chunks of about ``_NQD_CELLS`` table
    cells or an ``_NQD_SHARE``-th of the shared-leaf table, whichever is
    more, all C(m, 2) branch pairs at once (see :func:`_separated`).
    Time and memory are O(k^2) for binary trees.
    """
    return _compare((t1, t2))[1]


def _compare(trees) -> tuple[float, float]:
    """:func:`nrf` and :func:`nqd` of the two trees that the iterable
    ``trees`` gives, each check made once, in :func:`nqd`'s order.

    Each tree is walked once, into one list of its nodes that both the
    leaf-set check and :func:`_forks` read: the second tree's leaf bits
    are unpacked into the 0/1 rows whose sums up the first tree make the
    shared-leaf table.  The trees are then dropped with their nodes and
    leaf names before either metric is computed, so nQD's chunks reuse
    their memory; ``ppn treedist`` hands over trees that nothing else
    holds.
    """
    t1, t2 = trees
    order1, order2 = list(t1.walk()), list(t2.walk())
    del t1, t2
    column = _check_comparable(order1, order2)
    k = len(column)
    if k > _NQD_MAX_LEAVES:
        raise ValidationError(
            f"nQD is computed for at most {_NQD_MAX_LEAVES} leaves, got {k}"
        )
    size2, inner2, bits2, _ = _forks(order2, column)
    del order2
    # below2[g, j]: 1 when leaf j is below fork g of t2; the packed bytes go
    # before t1's forks are summed
    width = (k + 7) // 8
    packed = b"".join(b.to_bytes(width, "little") for b in bits2)
    packed = np.frombuffer(packed, dtype=np.uint8).reshape(len(bits2), width)
    below2 = np.unpackbits(packed, axis=1, count=k, bitorder="little")
    del packed
    # shared[f, g]: leaves below both fork f of t1 and fork g of t2
    size1, inner1, bits1, shared = _forks(order1, column, below2.T)
    del order1, column, below2
    rf = _nrf(_splits(bits1, k), _splits(bits2, k))
    del bits1, bits2
    fork1, complement1, width1, starts1, signs1 = _quartet_nodes(size1, inner1, k)
    fork2, complement2, width2, starts2, signs2 = _quartet_nodes(size2, inner2, k)
    resolved = _resolved(width1, starts1, signs1) + _resolved(width2, starts2, signs2)
    if not len(signs1) or not len(signs2):
        return rf, resolved / math.comb(k, 4)
    second = _columns(size2, fork2, complement2, starts2, signs2)
    cells = max(_NQD_CELLS, shared.size // _NQD_SHARE)
    chunks = _chunks(fork1, complement1, width1, starts1, signs1, len(fork2), cells)
    # what the chunks do not read goes before them
    del size1, inner1, size2, inner2, fork2, complement2, width2

    same = both = 0  # quartets resolved alike in both trees; resolved in both
    for chunk in chunks:
        chunk_same, chunk_both = _separated(shared, *chunk, second, cells)
        same += chunk_same
        both += chunk_both
    return rf, (resolved - same - both) / math.comb(k, 4)


def _columns(size, fork, complement, starts, signs):
    """The second tree as :func:`_separated` reads it: fork leaf counts
    (``int16``), each branch's column, node starts and signs, and the
    columns of nonzero weight with their weights.

    A branch is the leaves below fork f (column f) or their complement
    (column F + f).  A signed sum over branches of a value that depends
    on the column alone is a weighted sum over columns, and most weigh
    0: the edge above fork f (+1) has f and F + f, the vertex above it
    (-1) has f, the vertex at f (-1) has F + f, unless dropped.
    """
    column = fork + len(size) * complement
    branch_sign = np.repeat(signs, np.diff(starts, append=len(fork)))
    weight = np.bincount(column, weights=branch_sign, minlength=2 * len(size))
    weight = weight.astype(np.int64)
    kept = np.flatnonzero(weight)
    return np.array(size, dtype=np.int16), column, starts, signs, kept, weight[kept]


def _chunks(fork, complement, width, starts, signs, branches: int, cells: int):
    """First-tree nodes with the same branch count m in chunks of about
    ``cells`` cells (a branch or branch pair x ``branches``).

    Yields the nodes' signs; their branches' forks, complement flags and
    widths (nodes x m); and ``triu_indices(m, 1)`` (:func:`_pairs`).
    """
    count = np.diff(starts, append=len(fork))
    for m in sorted(set(count.tolist())):
        nodes = count == m
        branch = starts[nodes, None] + np.arange(m)
        group = signs[nodes], fork[branch], complement[branch], width[branch]
        del nodes, branch
        pairs = _pairs(m)
        step = max(1, cells // (branches * max(m, len(pairs[0]))))
        for lo in range(0, len(group[0]), step):
            yield *(a[lo : lo + step] for a in group), pairs


def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(m, 1)``, read-only.  Nearly every node has the
    same few branch counts, so the pairs of an m with m^2 <= _NQD_CELLS,
    fewer than a chunk's cells, are kept in :data:`_TRIU` for every later
    call; those of a larger m are made anew."""
    pairs = _TRIU.get(m)
    if pairs is None:
        pairs = np.triu_indices(m, 1)
        for a in pairs:
            a.flags.writeable = False
        if m * m <= _NQD_CELLS:
            _TRIU[m] = pairs
    return pairs


def _separated(shared, signs, forks, complements, widths, pairs, second, cells):
    """Signed counts, as Python ints, of the (quartet, pairing) pairs that
    a chunk of first-tree nodes and the second tree's nodes (``second``,
    from :func:`_columns`) both separate: under one pairing (P) and
    under any two (P + Q).  Branch pairs go about ``cells`` cells at a
    time.

    In a node pair's table of shared leaf counts, P counts the pairs of
    leaf pairs in cells on different rows and columns, and Q the
    quartets a, b, c, d in cells (i, x), (i, y), (j, x), (j, y), i < j,
    x < y.
    """
    size2, column, starts2, signs2, kept, weights = second
    # n[g, i, j]: leaves in branch i of node g and in column j of the
    # second tree, by |~A & B| = |B| - |A & B| on either side
    n = shared[forks.ravel()]
    np.subtract(size2, n, out=n, where=complements.reshape(-1, 1))
    n = np.concatenate((n, widths.reshape(-1, 1) - n), axis=1)
    n = n.astype(np.int32).reshape(*forks.shape, -1)
    c = n - 1
    c *= n
    c >>= 1  # leaf pairs per cell
    # P = (total^2 - sum of row^2 - sum of col^2 + sum of c^2) / 2
    row = np.add.reduceat(c[..., column], starts2, axis=2, dtype=np.int32)
    row = row.astype(np.int64)
    total = row.sum(axis=1)
    total *= total
    row *= row
    total -= row.sum(axis=1)
    del row
    c = c[..., kept].astype(np.int64)
    col = c.sum(axis=1)
    col *= col
    c *= c
    col -= c.sum(axis=1)
    p = (total @ signs2 - col @ weights) // 2
    del c, total, col
    # Q = sum over i < j of (dot^2 - sum of prod^2) / 2, prod = n_i n_j and
    # dot its sum over a second-tree node; a node with many branches takes
    # its pairs m or more at a time, so they cost no more memory than n
    first, last = pairs
    step = max(n.shape[1], cells // (len(n) * len(column)))
    q = 0
    for lo in range(0, len(first), step):
        prod = n[:, first[lo : lo + step]]
        prod *= n[:, last[lo : lo + step]]
        dot = np.add.reduceat(prod[..., column], starts2, axis=2, dtype=np.int32)
        dot = dot.astype(np.int64)
        dot *= dot
        prod = prod[..., kept].astype(np.int64)
        prod *= prod
        q = q + (dot.sum(axis=1) @ signs2 - prod.sum(axis=1) @ weights) // 2
    return sum((signs * p).tolist()), sum((signs * (p + q)).tolist())


# -- PHYLIP interchange ------------------------------------------------------

def write_phylip(matrix: DistanceMatrix, fh) -> None:
    """Write a relaxed PHYLIP matrix: count line, then label + full row.

    ``fh`` may be a path (``str``, ``bytes`` or ``os.PathLike``), which
    is written as UTF-8, or an open text stream, which is left open.
    Entries are printed with full round-trip precision so that reading
    the file back reproduces the exact same doubles.  Each unordered
    pair is formatted once, as the matrix is exactly symmetric: the
    rows right of the diagonal go to :func:`_write_rows`, which
    ``ppn matrix`` feeds straight from the distance rows, with no
    matrix made.
    """
    values = matrix.values
    with _opened(fh, "w") as out:
        _write_rows(matrix.labels, (values[i, i + 1 :] for i in range(matrix.size - 1)), out)


def _write_rows(labels, rows, fh) -> None:
    """Write the PHYLIP matrix over ``labels`` whose upper triangle is
    ``rows``, an iterator of k - 1 float64 arrays, each row's entries
    right of the diagonal, which is +0.0.

    Rows are read, formatted and written one at a time, row i only once
    rows 0 to i - 1 are written.  Each row writes ``repr`` of its entries
    right of the diagonal, and left of it its column's fields from the
    rows above (:func:`_above`); :func:`_add` joins every
    :data:`_PHYLIP_ROWS` rows' strings into one tab-separated text per
    later column.  A column holds one text per earlier block, never one
    string per pair, and drops them once its row is written.
    """
    k = len(labels)
    fh.write(f"{k}\n")
    columns, block = [[] for _ in range(k)], []
    for i, label in enumerate(labels):
        # the last row has no entries right of the diagonal
        upper = list(map(repr, next(rows).tolist())) if i < k - 1 else []
        row = [_check_label(label), *_above(columns, block, i), "0.0", *upper]
        fh.write("\t".join(row) + "\n")
        block = _add(columns, block, upper, i + 1)


def _above(columns, block, i: int) -> list[str]:
    """Column ``i``'s fields above row ``i``, which it then drops.

    ``columns[i]`` holds one text per block above the current one, and
    ``block`` the current block's rows above row ``i``, each as its
    fields right of the diagonal.
    """
    above, columns[i] = columns[i], None
    above.extend(upper[i - p - 1] for p, upper in enumerate(block, i - len(block)))
    return above


def _add(columns, block, upper, b: int) -> list:
    """The current block once row ``b - 1``'s fields right of the
    diagonal, ``upper``, are added to ``block``.  A block of
    :data:`_PHYLIP_ROWS` rows gives every column from ``b`` on one
    tab-joined text of its fields in the block, and a new block begins.
    """
    block.append(upper)
    if len(block) < _PHYLIP_ROWS:
        return block
    tails = (row[b - p - 1 :] for p, row in enumerate(block, b - len(block)))
    for column, texts in zip(columns[b:], zip(*tails)):
        column.append("\t".join(texts))
    return []


def read_phylip(source) -> DistanceMatrix:
    """Read a relaxed PHYLIP matrix written by :func:`write_phylip`.

    ``source`` may be a path (``str``, ``bytes`` or ``os.PathLike``) or
    an open byte stream, both read as UTF-8, or an open text stream; a
    stream is left open.  A value must be a number ``float`` reads from
    ASCII with no ``_``; anything else raises :class:`ValidationError`
    naming its row.  The count line follows the same rule, and a
    negative count is refused too.  Rows are parsed as they are read,
    and the whole input is read before any error is raised: text that is
    not UTF-8 anywhere, then a wrong row count, win over the first bad
    row.  Where the lower triangle repeats the upper one's fields, as
    :func:`write_phylip` writes it, each unordered pair is converted
    once; other spellings of the same numbers, other whitespace and CRLF
    read to the same floats.  The k x k array is made only once all k
    rows are read and checked, so a count line that its rows never fill
    allocates nothing, from a path or an open stream alike.  A path to a
    regular file that holds k rows must be large enough to hold them; an
    open stream is not sized, as it may decode a file of another size
    (``gzip.open``).
    """
    return DistanceMatrix._adopt(*_read_phylip(source))


def _read_phylip(source) -> tuple[list, np.ndarray]:
    """The labels and the unchecked array :func:`read_phylip` reads."""
    with _opened(source, "r") as fh:
        # a stream the caller opened may decode a file of another size,
        # as gzip.open does, so only a path read here is sized
        size = None if fh is source else _size(fh)
        # a byte stream is read as UTF-8, as a path is, and detached after
        binary = isinstance(fh, (io.RawIOBase, io.BufferedIOBase))
        text = io.TextIOWrapper(fh, encoding="utf-8") if binary else fh
        try:
            return _parse_phylip((line for line in map(str.strip, text) if line), size)
        except UnicodeDecodeError as exc:
            raise ValidationError(
                f"distance matrix file is not valid {exc.encoding} text: {exc.reason}"
            ) from None
        finally:
            if binary:
                text.detach()


def _size(fh):
    """The bytes in the file ``fh``, or None for a pipe or a file that
    reports no size (as some virtual file systems do for files that hold
    text)."""
    st = os.fstat(fh.fileno())
    return st.st_size if stat.S_ISREG(st.st_mode) and st.st_size else None


def _parse_phylip(lines, size) -> tuple[list, np.ndarray]:
    """The labels and array of the stripped non-blank ``lines`` of a
    PHYLIP text of ``size`` bytes, or of unknown size when that is None.

    The count line is read by ``int`` only when it is ASCII, holds no
    ``_`` and is not negative.  Rows are walked one at a time, as
    :func:`_write_rows` writes them.  ``float`` reads each row's entries
    from its diagonal on.  A row is split from the right only as far as
    its diagonal, and its label off the text left of that, which is
    compared with the tab-joined fields the rows above had in the same
    column, held as :func:`_write_rows` holds them (:func:`_above`,
    :func:`_add`).  Only when the two texts differ is the row split
    whole, its field count checked, and its fields left of the diagonal
    joined with tabs and compared again; only when those differ too are
    they read one by one.  Fields hold no whitespace, so equal texts mean
    equal fields and so the same floats.  A row's checks and its ``float`` calls raise
    ``ValueError``, which records the first bad row's message at one
    place.  Each row read keeps its floats from the diagonal on, and a
    row that is not mirrored its floats left of it too; the k x k array
    is made from them only once all k rows are read and the column texts
    are gone, so its size is bounded by the rows the input holds, not by
    its count line.  A text of fewer than k(2k + 1) bytes cannot hold k
    rows of k + 1 fields: its rows are checked as any others, and k of
    them raise, as the file grew while it was read.
    """
    first = next(lines, None)
    if first is None:
        raise ValidationError("empty distance matrix file")
    try:
        k = int(first)  # which reads "1_0", "\u0663" and "-3" too
        if k < 0 or "_" in first or not first.isascii():
            raise ValueError
    except ValueError:
        for _ in lines:  # text that is not UTF-8 further on wins
            pass
        raise ValidationError(
            f"expected a taxon count on the first line, found {first!r}"
        ) from None
    # block: the current block's rows so far, as their fields right of the diagonal
    labels, kept, columns, block = [], [], None, []
    error, rows = None, 0  # the first bad row's message; rows read
    for rows, line in enumerate(lines, 1):
        if error is not None or rows > k:
            continue
        r = rows - 1
        try:
            above = "" if columns is None else "\t".join(_above(columns, block, r))
            # the diagonal and the fields right of it, and left of them the
            # label and, in a mirrored row, the column's text from the rows above
            fields = line.rsplit(None, k - r)
            label, *left = fields[0].split(None, 1)
            if len(fields) == k - r + 1 and "".join(left) == above:
                del fields[0]
            else:
                parts = line.split()
                if len(parts) != k + 1:
                    raise ValueError(
                        f"expected a label and {k} values, found {len(parts)} fields"
                    )
                mirrored = "\t".join(parts[1:rows]) == above
                fields = parts[rows if mirrored else 1 :]
            # float() also reads "1_5" as 15.0 and non-ASCII digits such as
            # "\u0661" as 1.0; the fields are looked at one by one only when
            # the row holds "_" past its label or is not all ASCII.  Fields
            # left out, left of a mirrored diagonal, are the column's text,
            # which its rows above passed
            if line.find("_", len(label)) >= 0 or not line.isascii():
                bad = next((p for p in fields if "_" in p or not p.isascii()), None)
                if bad is not None:
                    raise ValueError(f"{bad!r} is not an ASCII decimal number")
            row = np.fromiter(map(float, fields), np.float64, len(fields))
        except ValueError as exc:
            error = f"matrix row {rows}: {exc}"
            continue
        labels.append(label)
        kept.append(row)
        if columns is None:
            # the first row, of k + 1 fields, bounds k by the input's own size
            columns = [[] for _ in range(k)]
        block = _add(columns, block, fields[len(fields) + rows - k :], rows)
    if rows != k:
        raise ValidationError(f"expected {k} matrix rows, found {rows}")
    if error is not None:
        raise ValidationError(error)
    if size is not None and size < k * (2 * k + 1):  # k rows of one-character fields
        raise ValidationError("distance matrix file grew while it was read")
    values = np.zeros((k, k), dtype=np.float64)
    for r, row in enumerate(kept):
        if len(row) < k:  # a mirrored row: its lower fields are the column above
            values[r, :r] = values[:r, r]
        values[r, k - len(row) :] = row
    return labels, values
