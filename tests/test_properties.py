"""Property-based tests for the window histogram, the FASTA, Newick and
PHYLIP readers, and the two tree distances."""

import io
import warnings
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ppn import (
    MAX_RADIUS,
    DistanceMatrix,
    EmptySequenceError,
    PhyloTree,
    PpnError,
    PpnParams,
    TreeNode,
    count_histogram,
    encode,
    from_newick,
    nqd,
    nrf,
    read_fasta,
    read_phylip,
    to_newick,
    window_centers,
    window_counts_at,
    write_phylip,
)
from ppn.core import _CHUNK
from oracles import line_fasta_records, oracle_nqd, splits_by_edge_cut


# -- count_histogram -------------------------------------------------------------

@st.composite
def histogram_cases(draw):
    """A sequence and window geometry, with lengths from 1 nt up to just
    past the first few chunk boundaries."""
    radius = draw(st.integers(1, MAX_RADIUS))
    stride = draw(st.integers(1, radius + 3))
    step = stride + 1
    chunk_nt = max(1, _CHUNK // step) * step
    near = draw(st.integers(-2 * (radius + step), 2 * (radius + step)))
    length = max(1, draw(st.integers(0, 3)) * chunk_nt + radius + near)
    alphabet = draw(st.sampled_from(["ACGT", "A", "T", "AT", "CG", "ACG"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = "".join(rng.choice(list(alphabet), size=length))
    return raw, radius, stride


@settings(max_examples=60, deadline=None)
@given(histogram_cases())
def test_histogram_equals_a_per_window_recount(case):
    raw, radius, stride = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = PpnParams(radius=radius, stride=stride, allow_gaps=True)
    seq = encode(raw)
    want = Counter(
        window_counts_at(seq, c, radius) for c in window_centers(seq.length, stride)
    )
    assert count_histogram(seq, params) == dict(want)


# -- read_fasta --------------------------------------------------------------------

_ENDINGS = st.sampled_from([b"\n", b"\r\n", b"\r"])
_BODY = st.binary(max_size=40).map(lambda b: b.replace(b"\r", b"").replace(b"\n", b""))
_BODY_LINE = st.one_of(
    st.text("ACGTacgtNn-*?  \t", max_size=70).map(str.encode), _BODY
).filter(lambda line: not line.startswith(b">"))
_ID = st.text("abcXYZ0189_.|:é", min_size=1, max_size=8)


@st.composite
def fasta_files(draw):
    """Well-formed FASTA with mixed line endings, blank lines, soft-masking
    and junk characters; ids are unique and never empty."""
    ids = draw(st.lists(_ID, min_size=1, max_size=5, unique=True))
    out = [draw(st.sampled_from([b"", b"\n", b" \r\n"]))]
    for seq_id in ids:
        desc = draw(st.sampled_from([b"", b" some description", b"\tx y"]))
        out += [b">", seq_id.encode("latin-1"), desc, draw(_ENDINGS)]
        for line in draw(st.lists(_BODY_LINE, max_size=6)):
            out += [line, draw(_ENDINGS)]
    if draw(st.booleans()):
        out.pop()
    return b"".join(out)


@settings(max_examples=300, deadline=None)
@given(fasta_files())
def test_read_fasta_matches_a_line_by_line_reader(data):
    want = line_fasta_records(data)
    if any(not bases for _, bases, _ in want):
        try:
            read_fasta(io.BytesIO(data))
        except EmptySequenceError:
            return
        raise AssertionError("a record without bases was accepted")
    for source in (io.BytesIO(data), io.StringIO(data.decode("latin-1"))):
        got = [(r.id, r.bases(), r.dropped) for r in read_fasta(source)]
        assert got == want


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200), st.sampled_from(["drop", "strict"]))
def test_read_fasta_raises_only_package_errors_on_bytes(data, policy):
    try:
        read_fasta(io.BytesIO(data), policy=policy)
    except PpnError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_read_fasta_raises_only_package_errors_on_text(text):
    try:
        read_fasta(io.StringIO(text))
    except PpnError:
        pass


# -- Newick and PHYLIP ---------------------------------------------------------------

# Any label the writers accept: no whitespace (categories Z and C hold every
# whitespace character), no reserved Newick character, no leading quote.
_LABEL = st.text(
    st.characters(exclude_categories=("Z", "C"), exclude_characters="():,;[]"),
    min_size=1,
    max_size=6,
).filter(lambda label: not label.startswith("'"))


@st.composite
def newick_trees(draw):
    """Binary or multifurcating trees with unique leaf labels, optional
    internal labels and, when present, optional finite branch lengths."""
    names = draw(st.lists(_LABEL, min_size=1, max_size=12, unique=True))
    arity = st.just(2) if draw(st.booleans()) else st.integers(2, 5)
    nodes = [TreeNode(name=name) for name in names]
    while len(nodes) > 1:
        size = min(draw(arity), len(nodes))
        i = draw(st.integers(0, len(nodes) - size))
        label = draw(st.none() | _LABEL)
        nodes[i : i + size] = [TreeNode(name=label, children=nodes[i : i + size])]
    tree = PhyloTree(nodes[0])
    if draw(st.booleans()):
        lengths = st.none() | st.floats(allow_nan=False, allow_infinity=False)
        for node in tree.walk():
            node.length = draw(lengths)
    return tree


@settings(max_examples=300, deadline=None)
@given(newick_trees())
def test_newick_round_trips_exactly(tree):
    assert from_newick(to_newick(tree)).root == tree.root


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=200), st.text("(),:;[]' AB1e.-\n", max_size=60)))
def test_from_newick_raises_only_package_errors(text):
    try:
        from_newick(text)
    except PpnError:
        pass


_FIELD = st.sampled_from(["0", "0.0", "1.5", "-1", "nan", "inf", "1e999", "x", "a", "b"])


@st.composite
def phylip_like_text(draw):
    """A count line and rows of plausible fields, so that most examples get
    past the count check."""
    count = draw(st.integers(-1, 4))
    rows = draw(st.lists(st.lists(_FIELD, max_size=6).map(" ".join), max_size=5))
    return "\n".join([str(count)] + rows)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=200), phylip_like_text()))
def test_read_phylip_raises_only_package_errors_on_text(text):
    try:
        read_phylip(io.StringIO(text))
    except PpnError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=200), phylip_like_text().map(str.encode)))
def test_read_phylip_raises_only_package_errors_on_bytes(data):
    try:
        read_phylip(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except PpnError:
        pass


@st.composite
def distance_matrices(draw):
    labels = draw(st.lists(_LABEL, min_size=2, max_size=6, unique=True))
    k = len(labels)
    upper = np.triu_indices(k, 1)
    entries = draw(
        st.lists(st.floats(min_value=0.0), min_size=len(upper[0]), max_size=len(upper[0]))
    )
    values = np.zeros((k, k))
    values[upper] = entries
    values[upper[::-1]] = entries
    return DistanceMatrix(labels, values)


@settings(max_examples=200, deadline=None)
@given(distance_matrices())
def test_phylip_round_trips_bit_for_bit(matrix):
    buf = io.StringIO()
    write_phylip(matrix, buf)
    back = read_phylip(io.StringIO(buf.getvalue()))
    assert back.labels == matrix.labels
    assert back.values.tobytes() == matrix.values.tobytes()


# -- nRF and nQD -----------------------------------------------------------------------

@st.composite
def shaped_trees(draw, names):
    """Rooted trees on ``names``: binary, with internal edges contracted
    into multifurcations (all of them gives a star), and with unary
    vertices such as ``(A)`` spliced in, the root included."""
    rng = draw(st.randoms(use_true_random=False))
    contract = rng.choice([0.0, 0.5, 1.0])
    unary = rng.choice([0.0, 0.2])

    def maybe_unary(node):
        return TreeNode(children=[node]) if rng.random() < unary else node

    nodes = [maybe_unary(TreeNode(name=name)) for name in names]
    while len(nodes) > 1:
        j, i = sorted(rng.sample(range(len(nodes)), 2), reverse=True)
        children = []
        for node in (nodes.pop(j), nodes.pop(i)):
            if node.children and rng.random() < contract:
                children += node.children
            else:
                children.append(node)
        nodes.append(maybe_unary(TreeNode(children=children)))
    return PhyloTree(nodes[0])


@st.composite
def tree_pairs(draw):
    names = [f"x{i}" for i in range(draw(st.integers(4, 12)))]
    return draw(shaped_trees(names)), draw(shaped_trees(names))


@settings(max_examples=200, deadline=None)
@given(tree_pairs())
def test_nqd_equals_the_per_quartet_oracle(pair):
    t1, t2 = pair
    want = oracle_nqd(t1, t2)
    assert nqd(t1, t2) == want
    assert nqd(t2, t1) == want
    mirrored = from_newick(to_newick(t1))
    for node in mirrored.walk():
        node.children.reverse()
    assert nqd(mirrored, t2) == want


@settings(max_examples=200, deadline=None)
@given(tree_pairs())
def test_nrf_equals_the_split_oracle(pair):
    t1, t2 = pair
    s1, s2 = splits_by_edge_cut(t1), splits_by_edge_cut(t2)
    want = len(s1 ^ s2) / (len(s1) + len(s2)) if s1 or s2 else 0.0
    assert nrf(t1, t2) == want
    assert nrf(t2, t1) == want
    mirrored = from_newick(to_newick(t1))
    for node in mirrored.walk():
        node.children.reverse()
    assert nrf(mirrored, t2) == want
