"""Independent reference implementations the tests check the library
against.

Everything here recomputes results from first principles with plain
Python (string slicing, dicts, BFS) so that agreement with the library
is meaningful.  None of it imports the library's internals, except the
Newick label check that the per-entry PHYLIP writer calls as the
library's writer does; builders use only the public tree node type to
construct inputs.
"""

from __future__ import annotations

import decimal
import math
import os
import re
from collections import deque
from itertools import combinations
from pathlib import Path, PurePosixPath

from ppn.errors import NewickParseError
from ppn.phylo import PhyloTree, TreeNode, _check_label

BASES = "ACGT"


class PathLike:
    """An ``os.PathLike`` that is neither a ``str`` nor a ``pathlib`` path."""

    def __init__(self, path):
        self.path = path

    def __fspath__(self):
        return self.path


#: every form of the same file path that a reader or writer must open
PATH_FORMS = {
    "str": str,
    "bytes": os.fsencode,
    "Path": Path,
    "PurePosixPath": PurePosixPath,
    "PathLike": lambda path: PathLike(str(path)),
}


# -- window products, the slow way --------------------------------------------

def naive_window_counts(raw: str, radius: int, stride: int) -> list[tuple[int, int, int, int]]:
    """Count A, C, G, T in each window by slicing and str.count."""
    counts = []
    center = 1
    n = len(raw)
    while center <= n:
        window = raw[max(1, center - radius) - 1 : min(n, center + radius)]
        counts.append(tuple(window.count(b) for b in BASES))
        center += stride + 1
    return counts


def naive_vector(raw: str, radius: int, stride: int, perm_rows) -> list[int]:
    """Per-window recomputation of all component sums, no shortcuts."""
    counts = naive_window_counts(raw, radius, stride)
    out = []
    for row in perm_rows:
        total = 0
        for f in counts:
            prod = 1
            for prime, exponent in zip(row, f):
                prod *= prime**exponent
            total += prod
        out.append(total)
    return out


# -- FASTA, line by line --------------------------------------------------------

def _utf8_char_at(line: bytes, at: int) -> str:
    """The UTF-8 character that starts at ``line[at]``: the shortest slice
    from there that decodes, or, when none of up to four bytes does, the
    byte's Latin-1 reading."""
    for end in range(at + 1, at + 5):
        try:
            return line[at:end].decode("utf-8")
        except UnicodeDecodeError:
            pass
    return chr(line[at])


def line_fasta_outcome(data: bytes, policy: str = "drop"):
    """What reading FASTA ``data`` gives, worked out one line at a time.

    Returns the records as (id, bases, dropped), or the (error class
    name, message) of the first fault in file order: data before the
    first header, a header that is not UTF-8, an empty header, a
    repeated id, a non-base byte under the ``"strict"`` policy, a
    record without bases, or no record at all.  Lines end at CRLF, CR or
    LF; a header is a line that opens with '>' and is read as UTF-8.
    Every other line is walked byte by byte: A/C/G/T in either case are
    kept (upper-cased), ASCII whitespace is skipped, and any other byte
    counts as dropped; the strict message names the UTF-8 character the
    first such byte starts.
    """
    records = []

    def no_bases(seq_id):
        return ("EmptySequenceError", f"sequence {seq_id!r}: no A/C/G/T content")

    for number, line in enumerate(re.split(rb"\r\n|\r|\n", data), start=1):
        if line.startswith(b">"):
            if records and not records[-1][1]:
                return no_bases(records[-1][0])
            try:
                title = line[1:].decode("utf-8").strip()
            except UnicodeDecodeError:
                return ("MalformedFastaError",
                        f"line {number}: FASTA header is not valid UTF-8")
            if not title:
                return ("MalformedFastaError", f"line {number}: empty FASTA header")
            seq_id = title.split()[0]
            if any(seq_id == rec[0] for rec in records):
                return ("DuplicateIdError", f"duplicate record id {seq_id!r}")
            records.append([seq_id, [], 0])
            continue
        for at, byte in enumerate(line):
            if byte in b" \t\x0b\x0c":
                continue
            if not records:
                return (
                    "MalformedFastaError",
                    f"line {number}: sequence data before the first '>' header",
                )
            if byte in b"ACGTacgt":
                records[-1][1].append(chr(byte).upper())
            elif policy == "strict":
                return (
                    "InvalidCharacterError",
                    f"sequence {records[-1][0]!r}: invalid character "
                    f"{_utf8_char_at(line, at)!r} under strict policy",
                )
            else:
                records[-1][2] += 1
    if not records:
        return ("MalformedFastaError", "input contains no FASTA records")
    if not records[-1][1]:
        return no_bases(records[-1][0])
    return [(seq_id, "".join(bases), dropped) for seq_id, bases, dropped in records]


# -- exact metric --------------------------------------------------------------

def decimal_euclidean(a, b) -> decimal.Decimal:
    """Square root of the exact integer sum of squares, to 50 digits."""
    ssq = sum((x - y) ** 2 for x, y in zip(a, b))
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return decimal.Decimal(ssq).sqrt()


def exact_manhattan(a, b) -> int:
    return sum(abs(x - y) for x, y in zip(a, b))


def scalar_distance(a, b, metric, normalized: bool) -> float:
    """Distance between two PPN vectors, one component pair at a time.

    Integer differences are exact; floats appear only in the final sum and
    square root, or, when ``normalized``, in each component divided by its
    vector's window count (summed with ``math.fsum``).
    """
    if normalized:
        diffs = [
            x / a.windows - y / b.windows for x, y in zip(a.components, b.components)
        ]
        if metric == "euclidean":
            return math.sqrt(math.fsum(d * d for d in diffs))
        return math.fsum(abs(d) for d in diffs)
    if metric == "euclidean":
        ssq = sum((x - y) ** 2 for x, y in zip(a.components, b.components))
        return math.sqrt(ssq)
    return float(sum(abs(x - y) for x, y in zip(a.components, b.components)))


# -- PHYLIP, one repr or one float per matrix entry ---------------------------------

def per_entry_phylip(matrix, fh) -> None:
    """The PHYLIP writer that formats every entry of both triangles."""
    fh.write(f"{matrix.size}\n")
    for label, row in zip(matrix.labels, matrix.values):
        fh.write("\t".join([_check_label(label), *map(repr, row.tolist())]) + "\n")


def plain_phylip(text: str):
    """What reading PHYLIP ``text`` gives, every value through ``float``.

    Returns the labels and the rows of floats, or the message of the
    first fault: no line; a count line that is not an optional sign and
    ASCII digits, or is negative; a row count other than the count line's;
    then, in file order, a row of other than a label and k values, or a
    value that is not ASCII or holds ``_`` (which ``float`` would read),
    or that ``float`` rejects.  Lines end at LF, as an ``io.StringIO``
    gives them; they are stripped and blank ones skipped.  A row's values
    are all checked for ASCII and ``_`` before any is read.
    """
    lines = [line.strip() for line in text.split("\n")]
    lines = [line for line in lines if line]
    if not lines:
        return "empty distance matrix file"
    if not re.fullmatch(r"[+-]?[0-9]+", lines[0]) or int(lines[0]) < 0:
        return f"expected a taxon count on the first line, found {lines[0]!r}"
    k, rows = int(lines[0]), lines[1:]
    if len(rows) != k:
        return f"expected {k} matrix rows, found {len(rows)}"
    labels, values = [], []
    for n, row in enumerate(rows, start=1):
        label, *fields = row.split()
        if len(fields) != k:
            return (
                f"matrix row {n}: expected a label and {k} values, "
                f"found {len(fields) + 1} fields"
            )
        bad = [field for field in fields if "_" in field or not field.isascii()]
        if bad:
            return f"matrix row {n}: {bad[0]!r} is not an ASCII decimal number"
        try:
            values.append([float(field) for field in fields])
        except ValueError as exc:
            return f"matrix row {n}: {exc}"
        labels.append(label)
    return labels, values


# -- UPGMA, by a full scan at every merge ----------------------------------------

def oracle_upgma_newick(labels, values) -> str:
    """UPGMA Newick text, rescanning every live pair at every merge.

    The closest pair merges; ties go to the pair whose cluster keys (the
    smallest leaf label in each), sorted, come first.  The cluster with the
    smaller key is written first.  A merge at distance d sits at height
    d/2, and the merged cluster's distance to c is
    (size_a * d(a, c) + size_b * d(b, c)) / (size_a + size_b).
    """
    # live cluster index -> [key, size, height, newick text]
    live = {i: [label, 1, 0.0, label] for i, label in enumerate(labels)}
    dist = {(i, j): float(values[i][j]) for i in live for j in live if i != j}
    while len(live) > 1:
        pairs = (sorted(pair, key=lambda c: live[c][0]) for pair in combinations(live, 2))
        best, _, _, a, b = min((dist[i, j], live[i][0], live[j][0], i, j) for i, j in pairs)
        h = best / 2.0
        key_a, size_a, height_a, text_a = live[a]
        _, size_b, height_b, text_b = live.pop(b)
        for c in live:
            if c != a:
                d = (size_a * dist[a, c] + size_b * dist[b, c]) / (size_a + size_b)
                dist[a, c] = dist[c, a] = d
        text = f"({text_a}:{h - height_a!r},{text_b}:{h - height_b!r})"
        live[a] = [key_a, size_a + size_b, h, text]
    (text,) = (entry[3] for entry in live.values())
    return text + ";"


# -- random tree builders ------------------------------------------------------

def random_binary_tree(rng, labels) -> PhyloTree:
    """Join random subtree pairs until one rooted binary tree remains."""
    nodes = [TreeNode(name=lab) for lab in labels]
    while len(nodes) > 1:
        i, j = sorted(rng.sample(range(len(nodes)), 2))
        b = nodes.pop(j)
        a = nodes.pop(i)
        a.length = round(rng.uniform(0.1, 2.0), 6)
        b.length = round(rng.uniform(0.1, 2.0), 6)
        nodes.append(TreeNode(children=[a, b]))
    return PhyloTree(nodes[0])


def random_ultrametric(rng, k: int) -> list[list[float]]:
    """Distance matrix from a random agglomeration at increasing heights.

    Every pair's distance is twice the height at which their clusters
    merged, so the result is ultrametric by construction.
    """
    clusters = [[i] for i in range(k)]
    dist = [[0.0] * k for _ in range(k)]
    height = 0.0
    while len(clusters) > 1:
        height += rng.uniform(0.5, 2.0)
        i, j = sorted(rng.sample(range(len(clusters)), 2))
        right = clusters.pop(j)
        left = clusters.pop(i)
        for a in left:
            for b in right:
                dist[a][b] = dist[b][a] = 2.0 * height
        clusters.append(left + right)
    return dist


# -- Newick, one rule at a time -----------------------------------------------

# the reader's lexicon, one compiled rule per token
_NEWICK_WHITESPACE = re.compile(r"\s*")
_NEWICK_LABEL = re.compile(r"(?!')[^\s():,;\[\]]+")
_NEWICK_LENGTH = re.compile(r"\s*:\s*([0-9+\-.eE]*)")


def oracle_from_newick(text: str) -> PhyloTree:
    """Newick text read one token rule at a time: whitespace before every
    token, then a label, then a length, each matched on its own, and the
    tree built by the public constructor.  The same trees, error classes,
    messages and offsets as ``from_newick``."""
    bracket = text.find("[")
    if bracket >= 0:
        raise NewickParseError("Newick comments ('[...]') are not supported", bracket)
    frames: list[list[TreeNode]] = []
    node = None  # the node just read, or None while one is expected
    pos = 0
    while node is None or frames:
        pos = _NEWICK_WHITESPACE.match(text, pos).end()
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
        label = _NEWICK_LABEL.match(text, pos)
        if label:
            node.name, pos = label[0], label.end()
        elif text.startswith("'", pos):
            raise NewickParseError("quoted labels are not supported", pos)
        elif node.is_leaf:
            found = text[pos : pos + 1] or "end of input"
            raise NewickParseError(f"expected a leaf label, found {found!r}", pos)
        length = _NEWICK_LENGTH.match(text, pos)
        if length:
            start, pos = length.span(1)
            try:
                if text[pos : pos + 1].isdigit():
                    raise ValueError
                node.length = float(length[1])
            except ValueError:
                raise NewickParseError("expected a branch length after ':'", start) from None
            if not math.isfinite(node.length):
                raise NewickParseError("branch length is not finite", start)
    pos = _NEWICK_WHITESPACE.match(text, pos).end()
    if not text.startswith(";", pos):
        raise NewickParseError("expected ';'", pos)
    pos = _NEWICK_WHITESPACE.match(text, pos + 1).end()
    if pos < len(text):
        raise NewickParseError("unexpected text after ';'", pos)
    return PhyloTree(node)


# -- tree graph helpers --------------------------------------------------------

def _graph(tree: PhyloTree):
    """Adjacency over node ids, plus the leaf name -> id map.

    The rooted shape is kept as-is (no vertex is removed): a path must
    enter and leave a degree-2 vertex through both of its edges, so
    which pairings share an edge is the same question on either form.
    """
    adj: dict[int, list[int]] = {}
    leaf_id: dict[str, int] = {}
    for node in tree.walk():
        adj.setdefault(id(node), [])
        if node.is_leaf:
            leaf_id[node.name] = id(node)
        for child in node.children:
            adj[id(node)].append(id(child))
            adj.setdefault(id(child), []).append(id(node))
    return adj, leaf_id


def _path_edges(adj, start: int, goal: int) -> frozenset[frozenset[int]]:
    """Edge set of the unique path between two vertices, found by BFS."""
    parent = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        if u == goal:
            break
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                queue.append(v)
    edges = set()
    v = goal
    while parent[v] is not None:
        edges.add(frozenset((v, parent[v])))
        v = parent[v]
    return frozenset(edges)


def splits_by_edge_cut(tree: PhyloTree) -> set[frozenset[str]]:
    """Nontrivial splits, one per edge, each recomputed from scratch.

    Cutting the edge above a node strands exactly the leaves below it;
    the split is canonicalized to the side without the smallest label.
    """
    leaves = frozenset(tree.leaf_names())
    ref = min(leaves)

    def below(node) -> frozenset[str]:
        found = set()
        stack = [node]
        while stack:
            cur = stack.pop()
            if cur.is_leaf:
                found.add(cur.name)
            stack.extend(cur.children)
        return frozenset(found)

    splits = set()
    for node in tree.walk():
        if node is tree.root:
            continue
        side = below(node)
        if ref in side:
            side = leaves - side
        if 2 <= len(side) <= len(leaves) - 2:
            splits.add(side)
    return splits


def quartet_category_by_disjointness(tree_paths, a, b, c, d) -> int:
    """0, 1, or 2 for the pairing whose two paths share no edge; -1 when
    all three pairings are edge-disjoint (the quartet meets at a point).

    ``tree_paths`` maps a leaf-name pair (sorted tuple) to its path's
    edge set, as produced by :func:`all_path_edges`.
    """

    def edges(x, y):
        return tree_paths[(x, y) if x < y else (y, x)]

    pairings = (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))
    disjoint = [
        idx
        for idx, (p, q) in enumerate(pairings)
        if not (edges(*p) & edges(*q))
    ]
    if len(disjoint) == 1:
        return disjoint[0]
    return -1


def all_path_edges(tree: PhyloTree) -> dict[tuple[str, str], frozenset]:
    adj, leaf_id = _graph(tree)
    out = {}
    for x, y in combinations(sorted(leaf_id), 2):
        out[(x, y)] = _path_edges(adj, leaf_id[x], leaf_id[y])
    return out


def oracle_nqd(t1: PhyloTree, t2: PhyloTree) -> float:
    """Fraction of all C(k, 4) leaf quartets whose disjointness category
    differs between the two trees, each quartet checked on its own."""
    p1, p2 = all_path_edges(t1), all_path_edges(t2)
    labels = sorted(t1.leaf_names())
    differ = sum(
        quartet_category_by_disjointness(p1, *quad)
        != quartet_category_by_disjointness(p2, *quad)
        for quad in combinations(labels, 4)
    )
    return differ / math.comb(len(labels), 4)


def weighted_leaf_distances(tree: PhyloTree) -> dict[tuple[str, str], float]:
    """Branch-length path distances between all leaf pairs, via per-leaf
    traversal with accumulated edge weights."""
    adj, leaf_id = _graph(tree)
    weight = {}
    for node in tree.walk():
        for child in node.children:
            weight[frozenset((id(node), id(child)))] = child.length or 0.0
    names = sorted(leaf_id)
    out = {}
    for x in names:
        dist = {leaf_id[x]: 0.0}
        queue = deque([leaf_id[x]])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + weight[frozenset((u, v))]
                    queue.append(v)
        for y in names:
            if x < y:
                out[(x, y)] = dist[leaf_id[y]]
    return out
