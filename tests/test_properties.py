"""Property-based tests for the window histogram, the batched vectors,
the FASTA, Newick and PHYLIP readers, the distance matrix, UPGMA and the
two tree distances."""

import argparse
import contextlib
import io
import math
import os
import re
import tempfile
import warnings
from collections import Counter
from decimal import Decimal
from bisect import bisect_right
from itertools import accumulate, combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppn import (
    MAX_RADIUS,
    PERMUTATIONS,
    DistanceMatrix,
    PhyloTree,
    PpnError,
    PpnParams,
    TreeNode,
    ValidationError,
    count_histogram,
    distance,
    encode,
    from_newick,
    nqd,
    nrf,
    pairwise_matrix,
    ppn_vector,
    prime_product,
    read_fasta,
    read_phylip,
    to_newick,
    upgma,
    window_centers,
    window_counts_at,
    write_fasta,
    write_phylip,
)
from ppn import cli, core, phylo, seqio
from ppn.core import _CHUNK, _WindowTally, _full_table, _product_table, _products
from ppn.phylo import _check_label
from oracles import (
    line_fasta_outcome,
    naive_vector,
    oracle_from_newick,
    oracle_nqd,
    oracle_upgma_newick,
    per_entry_phylip,
    plain_phylip,
    scalar_distance,
    splits_by_edge_cut,
)


# -- count_histogram -------------------------------------------------------------

@st.composite
def histogram_cases(draw):
    """A sequence and window geometry, with lengths from 1 nt up to just
    past the first few chunk boundaries, every ``_CHUNK`` codes."""
    radius = draw(st.integers(1, MAX_RADIUS))
    stride = draw(st.integers(1, radius + 3))
    step = stride + 1
    near = draw(st.integers(-2 * (radius + step), 2 * (radius + step)))
    length = max(1, draw(st.integers(0, 3)) * _CHUNK + radius + near)
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


def _recount(seq, radius, stride):
    return dict(
        Counter(window_counts_at(seq, c, radius) for c in window_centers(seq.length, stride))
    )


def _gapped_params(radius, stride):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return PpnParams(radius=radius, stride=stride, allow_gaps=True)


def _summed(rows):
    """The rows that ``_WindowTally.finish`` returns, with the
    multiplicities of equal count tuples added up."""
    hist = Counter()
    for counts, weight in zip(*rows):
        hist[tuple(counts.tolist())] += int(weight)
    return dict(hist)


def _feed_in_pieces(params, codes, sizes):
    """Feed ``codes`` to a new tally in pieces of the given sizes, cycled;
    after each piece the tally keeps at most ceil(l/(t+1)) keys of windows
    cut by the start and at most 2l+1 weights."""
    tally = _WindowTally(params)
    span = 2 * params.radius + 1
    cuts = math.ceil(params.radius / (params.stride + 1))
    lo, k = 0, 0
    while lo < len(codes):
        hi = lo + sizes[k % len(sizes)]
        tally.feed(codes[lo:hi])
        assert len(tally._cut) <= cuts and len(tally._tail) <= span
        lo, k = hi, k + 1
    return tally


@st.composite
def split_cases(draw):
    """A short sequence, a window geometry, block sizes from 0 nt up to a
    few window spans, so blocks end inside, at and between windows, and a
    chunk size from 1 nt."""
    radius = draw(st.integers(1, MAX_RADIUS))
    stride = draw(st.integers(1, 2 * radius + 3))
    alphabet = draw(st.sampled_from(["ACGT", "A", "T", "AT", "CG", "G", "C"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = "".join(rng.choice(list(alphabet), size=draw(st.integers(1, 300))))
    span = 2 * radius + 1
    sizes = draw(st.lists(st.integers(0, 3 * span), min_size=1, max_size=8).filter(any))
    chunk = draw(st.sampled_from([_CHUNK, 1, 2, 7, 40]))
    return raw, radius, stride, sizes, chunk


@settings(max_examples=300, deadline=None)
@given(split_cases())
@example(("ACGTTGCA", 4, 1, [1], _CHUNK))
@example(("ACGTTGCAGT", 2, 7, [1, 0, 2], _CHUNK))
@example(("ACGTTGCAGTACCATGGT" * 3, 9, 6, [16, 12, 17], 13))
@example(("ACGTTGCAGTACCATGGT" * 4, 10, 23, [5, 20, 1, 0], 7))
@example(("TTGCAGTACCATGGTACGTA" * 5, 10, 23, [3, 13], _CHUNK))
def test_tally_fed_in_random_blocks_equals_a_per_window_recount(case):
    raw, radius, stride, sizes, chunk = case
    seq = encode(raw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_CHUNK", chunk)
        tally = _feed_in_pieces(_gapped_params(radius, stride), seq.codes, sizes)
        assert tally.length == seq.length
        assert _summed(tally.finish()) == _recount(seq, radius, stride)


@settings(max_examples=20, deadline=None)
@given(histogram_cases(), st.lists(st.integers(1, 3 * _CHUNK), min_size=1, max_size=4))
def test_tally_blocks_across_chunk_boundaries_equal_a_recount(case, sizes):
    raw, radius, stride = case
    seq = encode(raw)
    tally = _feed_in_pieces(_gapped_params(radius, stride), seq.codes, sizes)
    assert _summed(tally.finish()) == _recount(seq, radius, stride)


@settings(max_examples=150, deadline=None)
@given(split_cases())
@example(("ACGTTGCAGTACCATGGT" * 3, 10, 23, [5, 0, 11], 1))
@example(("T" * 199, 10, 1, [64, 3], 7))
def test_tally_vector_fed_in_random_blocks_equals_a_naive_vector(case):
    raw, radius, stride, sizes, chunk = case
    seq = encode(raw)
    params = _gapped_params(radius, stride)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_CHUNK", chunk)
        vec = _feed_in_pieces(params, seq.codes, sizes).vector()
    assert list(vec.components) == naive_vector(seq.bases(), radius, stride, PERMUTATIONS)
    assert vec.sequence_length == seq.length
    assert vec.windows == len(window_centers(seq.length, stride))


@pytest.mark.parametrize("radius", range(1, MAX_RADIUS + 1))
def test_product_table_gives_prime_product_of_every_count_tuple(radius):
    span = 2 * radius + 1
    assert _product_table(radius).shape == (4, span + 1, len(PERMUTATIONS))
    tuples = [t for t in product(range(span + 1), repeat=4) if sum(t) <= span]
    rows = _products(radius, *np.array(tuples).T).tolist()
    for counts, row in zip(tuples, rows):
        assert row == [prime_product(counts, j) for j in range(len(PERMUTATIONS))]


@pytest.mark.parametrize("radius", range(1, MAX_RADIUS + 1))
def test_full_table_rows_are_the_prime_products_of_their_tuples(radius):
    # row v holds the full window of key keys[v]: its A, C, G from the key,
    # and the T that 2l+1 leaves
    span = 2 * radius + 1
    base = span + 1
    keys, _, products = _full_table(radius)
    assert products.shape == (math.comb(span + 3, 3), len(PERMUTATIONS))
    assert not keys.flags.writeable and not products.flags.writeable
    for key, row in zip(keys.tolist(), products.tolist()):
        a, c, g = key % base, key // base % base, key // base**2
        counts = (a, c, g, span - a - c - g)
        assert row == [prime_product(counts, j) for j in range(len(PERMUTATIONS))]


@pytest.mark.parametrize("radius", range(1, MAX_RADIUS + 1))
def test_full_table_looks_up_exactly_the_keys_of_full_windows(radius):
    # a key A + C*B + G*B**2 below B**3 is a full window's exactly when
    # A + C + G <= 2l+1; the lookup sends each such key to its row
    span = 2 * radius + 1
    base = span + 1
    keys, lookup, _ = _full_table(radius)
    full = [
        a + c * base + g * base**2
        for g, c, a in product(range(base), repeat=3)
        if a + c + g <= span
    ]
    assert keys.tolist() == full
    assert lookup.dtype == np.int16 and len(lookup) == base**3
    assert not lookup.flags.writeable
    assert lookup[keys].tolist() == list(range(len(full)))
    assert not lookup[np.setdiff1d(np.arange(base**3), keys)].any()


@st.composite
def oracle_records(draw):
    """1-6 records of 1-600 nt, some shorter than l, some a run of one
    base, and a geometry with a stride of 1 to 2l+2."""
    radius = draw(st.integers(1, MAX_RADIUS))
    stride = draw(st.integers(1, 2 * radius + 2))
    lengths = st.one_of(st.integers(1, radius), st.integers(1, 600))
    alphabets = st.sampled_from(["ACGT", "A", "G", "T", "AT", "CG"])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raws = [
        "".join(rng.choice(list(draw(alphabets)), size=draw(lengths)))
        for _ in range(draw(st.integers(1, 6)))
    ]
    return raws, radius, stride


@settings(max_examples=150, deadline=None)
@given(oracle_records())
@example((["G" * 600, "T" * 600, "A" * 3, "ACGT"], 10, 1))
@example((["T", "G" * 599, "C" * 21], 10, 22))
def test_batch_and_tally_vectors_equal_the_naive_oracle(case):
    raws, radius, stride = case
    params = _gapped_params(radius, stride)
    seqs = [encode(raw) for raw in raws]
    batch = core._batch_vectors([seq.codes for seq in seqs], params)
    for raw, seq, vec in zip(raws, seqs, batch):
        tally = _WindowTally(params)
        tally.feed(seq.codes)
        want = naive_vector(raw, radius, stride, PERMUTATIONS)
        assert list(vec.components) == want
        assert list(tally.vector().components) == want


@st.composite
def mixed_records(draw):
    """FASTA of up to 12 records of 1-300 nt in one line ending, wrapped
    at one width; a geometry; the most windows of a batched record; and
    the codes of a batch, from 1 up."""
    radius = draw(st.integers(1, MAX_RADIUS))
    stride = draw(st.integers(1, 2 * radius + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ending = draw(_ENDINGS)
    width = draw(st.sampled_from([1, 7, 60, 1000]))
    out = []
    for i, n in enumerate(draw(st.lists(st.integers(1, 300), min_size=1, max_size=12))):
        body = b"A" + bytes(rng.choice(list(b"ACGTacgtN"), size=n - 1))
        lines = [body[j : j + width] for j in range(0, n, width)]
        out += [b">r%d" % i, ending, ending.join(lines), ending]
    short = draw(st.sampled_from([1, 3, 40, core._SHORT_WINDOWS]))
    chunk = draw(st.sampled_from([1, 7, 300, _CHUNK]))
    return b"".join(out), radius, stride, short, chunk


@settings(max_examples=150, deadline=None)
@given(mixed_records(), st.sampled_from([1, 2, 5, 64, seqio._BLOCK]),
       st.sampled_from([1, 3, 64, core._BATCH_WINDOWS]))
# poly-T windows at l = 10: a batch sum past 2**63 needs Python ints
@example((b">a\nACG\n>t\n" + b"T" * 300 + b"\n>g\nG\n", 10, 1, 256, _CHUNK), seqio._BLOCK, 3)
def test_cli_vectors_of_batched_and_long_records_equal_record_vectors(case, block, windows):
    data, radius, stride, short, chunk = case
    params = _gapped_params(radius, stride)
    expected = [(r.id, ppn_vector(r, params)) for r in read_fasta(io.BytesIO(data))]
    args = argparse.Namespace(input=io.BytesIO(data), policy="drop")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqio, "_BLOCK", block)
        mp.setattr(core, "_SHORT_WINDOWS", short)
        mp.setattr(core, "_CHUNK", chunk)
        mp.setattr(core, "_BATCH_WINDOWS", windows)
        assert list(cli._vectors(args, params)) == expected


# -- read_fasta --------------------------------------------------------------------

_ENDINGS = st.sampled_from([b"\n", b"\r\n", b"\r"])
_BODY = st.binary(max_size=40).map(lambda b: b.replace(b"\r", b"").replace(b"\n", b""))
_BODY_LINE = st.one_of(
    st.text("ACGTacgtNn-*?>  \t", max_size=70).map(str.encode), _BODY
).filter(lambda line: not line.startswith(b">"))
_ID = st.text("abcXYZ0189_.|:é", min_size=1, max_size=8)


@st.composite
def fasta_files(draw):
    """Well-formed FASTA with mixed line endings, blank lines, soft-masking
    and junk characters; ids are unique and never empty."""
    ids = draw(st.lists(_ID, min_size=1, max_size=5, unique=True))
    out = [draw(st.sampled_from([b"", b"\n", b" \r\n"]))]
    for seq_id in ids:
        desc = draw(st.sampled_from([b"", b" some description", b"\tx y", b" a>b >"]))
        out += [b">", seq_id.encode("utf-8"), desc, draw(_ENDINGS)]
        for line in draw(st.lists(_BODY_LINE, max_size=6)):
            out += [line, draw(_ENDINGS)]
    if draw(st.booleans()):
        out.pop()
    return b"".join(out)


def _sources(data: bytes):
    """A byte stream of ``data`` and, when ``data`` is the UTF-8 of some
    text (lone surrogates as ``"surrogatepass"`` writes them), a text
    stream of that text: both must read alike."""
    yield io.BytesIO(data)
    with contextlib.suppress(UnicodeDecodeError):
        yield io.StringIO(data.decode("utf-8", "surrogatepass"))


@settings(max_examples=300, deadline=None)
@given(fasta_files())
def test_read_fasta_matches_a_line_by_line_reader(data):
    want = line_fasta_outcome(data)
    for source in _sources(data):
        assert _read_outcome(source) == want


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


def _read_outcome(source, policy="drop"):
    """The records of ``read_fasta`` as (id, bases, dropped), or the class
    name and message of the package error it raised."""
    try:
        return [(r.id, r.bases(), r.dropped) for r in read_fasta(source, policy=policy)]
    except PpnError as exc:
        return (type(exc).__name__, str(exc))


_TOKEN = st.sampled_from(
    [">", ">", "\n", "\r", "\r\n", " ", "\t", "A", "c", "G", "t", "N", "-", "x", "id",
     "a b", "\x85", "\xa0", "\x0b", "\xe9"]
)
#: adds characters outside Latin-1, one of them whitespace (U+2003), and
#: two lone surrogates, which a text stream gives as three bytes each
_WIDE_TOKEN = st.one_of(
    _TOKEN, st.sampled_from(["\u540d", "\u2003", "\U0001f9ec", "\ud800", "\udfff"])
)


@settings(max_examples=400, deadline=None)
@given(
    # tokens in Latin-1 put undecodable bytes in headers, in UTF-8 two-byte
    # characters that a block edge may split
    st.one_of(fasta_files(), st.builds(
        str.encode, st.lists(_TOKEN, max_size=40).map("".join),
        st.sampled_from(["latin-1", "utf-8"]))),
    st.integers(1, 64),
    st.sampled_from(["drop", "strict"]),
)
# each error's line number counts the breaks of blocks the translate has
# deleted other whitespace from: a VT and an FF in a body, a space in a
# header only, an LF-only block after one that ends in CR, and a tab in a
# blank line before the first header
@example(b">a\nAC\x0bGT\nG\n>\nA\n", 8, "strict")
@example(b">a\nAC\x0cGT\nG\n>\nA\n", 8, "drop")
@example(b">a b\nAC\nGT\n>\nA\n", 64, "drop")
@example(b">a\nAC\r\nGT\n\n>\nA\n", 6, "drop")
@example(b"\n\t\n>a\nAC\n>\nG\n", 3, "drop")
def test_streamed_read_fasta_matches_the_line_oracle_at_any_block_size(data, block, policy):
    want = line_fasta_outcome(data, policy)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqio, "_BLOCK", block)
        for source in _sources(data):
            assert _read_outcome(source, policy) == want


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(_WIDE_TOKEN, max_size=40).map("".join), st.text(max_size=60)),
       st.integers(1, 64), st.sampled_from(["drop", "strict"]))
@example(">a\nACG\u00e9\n", 1, "drop")
@example(">a\nACG\u00e9\n", 6, "strict")
@example(">a\nAC\ud800G\n", 5, "drop")
@example(">a\ud800\nACG\n", 2, "drop")
def test_a_path_a_byte_stream_and_a_text_stream_of_one_text_read_alike(text, block, policy):
    """The same text read from a file of its UTF-8 bytes, from a byte
    stream of them and from a text stream gives the same records, with
    ``dropped`` in bytes, or the same error: the oracle's, of the bytes."""
    data = text.encode("utf-8", "surrogatepass")
    want = line_fasta_outcome(data, policy)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = os.path.join(tmp, "in.fa")
        with open(path, "wb") as fh:
            fh.write(data)
        mp.setattr(seqio, "_BLOCK", block)
        for source in (path, io.BytesIO(data), io.StringIO(text)):
            assert _read_outcome(source, policy) == want


@settings(max_examples=200, deadline=None)
@given(fasta_files(), st.integers(1, 64), st.integers(1, 5), st.integers(1, 3))
def test_streamed_vectors_equal_vectors_of_whole_records(data, block, radius, stride):
    if not isinstance(line_fasta_outcome(data), list):
        return
    params = _gapped_params(radius, stride)
    expected = [(r.id, ppn_vector(r, params)) for r in read_fasta(io.BytesIO(data))]
    got = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqio, "_BLOCK", block)
        for seq_id, _, codes, tally in seqio._scan(
            io.BytesIO(data), "drop", lambda: _WindowTally(params)
        ):
            if tally is None:
                tally = _WindowTally(params)
                tally.feed(codes)
            got.append((seq_id, tally.vector()))
    assert got == expected


def _base_blocks(data: bytes) -> list[set[int]]:
    """Per record of well-formed FASTA ``data``, the indices of the blocks
    that hold its bases, as :func:`seqio._blocks` cuts them: ``_BLOCK``
    bytes, and the rest of a UTF-8 character that a block ends inside."""
    ends = list(accumulate(len(buf) for buf in seqio._blocks(io.BytesIO(data))))
    records = []
    for line in re.finditer(rb"[^\r\n]*", data):
        if line[0].startswith(b">"):
            records.append(set())
            continue
        for at, byte in enumerate(line[0], start=line.start()):
            if byte in b"ACGTacgt":
                records[-1].add(bisect_right(ends, at))
    return records


class _ListSink(list):
    """A record sink that keeps every code array it is fed."""

    feed = list.append


def _no_sink():
    raise AssertionError("a record was handed to a sink")


@settings(max_examples=200, deadline=None)
@given(fasta_files(), st.integers(1, 64), st.sampled_from(["drop", "strict"]))
# records of one code more than a tally chunk, and of many, across block edges
@example(b">a\n" + b"ACGT" * (_CHUNK // 4) + b"G\n>b\nT\n", 1, "drop")
@example(b">a x\n" + (b"acgtN" * 20 + b"\r\n") * 700 + b">b\nG", 64, "drop")
@example(b">a\n" + b"C" * (_CHUNK + 5) + b"x\n", 7, "strict")
def test_scan_with_no_hold_gives_every_record_whole(data, block, policy):
    """With the default hold no sink is asked for, at any block size and
    however long a record is: each record comes as one read-only array,
    equal to what the line oracle reads, and so does each error."""
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(seqio, "_BLOCK", block)
            got = []
            for seq_id, dropped, codes, sink in seqio._scan(io.BytesIO(data), policy, _no_sink):
                assert sink is None and not codes.flags.writeable
                got.append((seq_id, core.EncodedSequence(seq_id, codes).bases(), dropped))
    except PpnError as exc:
        got = (type(exc).__name__, str(exc))
    assert got == line_fasta_outcome(data, policy)


@settings(max_examples=300, deadline=None)
@given(fasta_files(), st.integers(1, 64), st.sampled_from([1, 4, 16, 64, _CHUNK]))
# the body ends at a block edge, its '>' or its line break opening the next block
@example(b">a\nACGT\n>b\nGG\n", 8, 2)
@example(b">a\nACGT\n>b\nGG\n", 7, 4)
# a header ends one block, with or without its line break, and its body
# lies in the next
@example(b">ab\nAC\n>c\nT\n", 4, 1)
@example(b">ab\nAC\n>c\nT\n", 3, _CHUNK)
# a record of exactly one chunk of codes over three blocks comes whole
@example(b">a\nAC\nGT\n", 2, 4)
# a block that ends in a lead byte (C0) takes the byte it asks for, so the
# next block, and the bases in it, start one byte later
@example(b">0000\n\n?\n\x00\r\n\x00\xc0\nAA\n", 2, 1)
def test_scan_gives_codes_exactly_for_a_record_of_at_most_one_chunk(data, block, chunk):
    """A record comes whole, as one read-only array, when it has at most
    ``hold`` codes, however many blocks its bases span; a longer one
    comes as a sink fed one array per block that holds bases."""
    if not isinstance(line_fasta_outcome(data), list):
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqio, "_BLOCK", block)
        scanned = list(seqio._scan(io.BytesIO(data), "drop", _ListSink, chunk))
        records = read_fasta(io.BytesIO(data))
        base_blocks = _base_blocks(data)
    assert len(scanned) == len(records)
    for (seq_id, dropped, codes, pieces), blocks, record in zip(
        scanned, base_blocks, records
    ):
        whole = record.length <= chunk
        assert (codes is None, pieces is None) == (not whole, whole)
        assert codes is None or not codes.flags.writeable
        assert pieces is None or len(pieces) == len(blocks)
        got = codes if pieces is None else np.concatenate(pieces)
        assert (seq_id, dropped) == (record.id, record.dropped)
        assert np.array_equal(got, record.codes)


#: printable ids of characters that take two to four bytes in UTF-8
_WIDE_ID = st.text(
    st.characters(min_codepoint=0x80, exclude_categories=("Z", "C")), min_size=1, max_size=4
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_WIDE_ID, min_size=1, max_size=4, unique=True), st.integers(1, 7))
# the 'é' of '>é' is split between the first two blocks
@example(["\xe9"], 2)
def test_utf8_ids_round_trip_through_write_fasta_read_fasta_and_ppn_vector(ids, block):
    seqs = [encode("ACGTTGCA"[: 1 + k], seq_id=seq_id) for k, seq_id in enumerate(ids)]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = os.path.join(tmp, "ids.fa")
        write_fasta(seqs, path)
        mp.setattr(seqio, "_BLOCK", block)
        assert read_fasta(path) == seqs
        with contextlib.redirect_stdout(out):
            assert cli.main(["vector", "--input", path]) == 0
    assert [row.split("\t")[0] for row in out.getvalue().splitlines()] == ids


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


# Newick text in tokens: one punctuation mark, or a label or a number
_NEWICK_TOKEN = re.compile(r"[(),:;]|[^(),:;]+")


@settings(max_examples=200, deadline=None)
@given(newick_trees(), st.data())
def test_whitespace_between_newick_tokens_changes_no_tree(tree, data):
    """Runs of tab, CRLF, no-break space and em space at every boundary
    between tokens of ``to_newick(tree)``, and before and after it, but
    between a ')' and a fork label, where whitespace is an error."""
    tokens = _NEWICK_TOKEN.findall(to_newick(tree))
    runs = st.lists(st.sampled_from(["\t", "\r\n", "\u00a0", "\u2003"]), max_size=3)
    space = runs.map("".join)
    text = ""
    for before, token in zip([""] + tokens, tokens):
        if not (before == ")" and token not in "(),:;"):
            text += data.draw(space)
        text += token
    text += data.draw(space)
    assert from_newick(text).root == tree.root


@settings(max_examples=500, deadline=None)
@given(
    st.text(
        st.sampled_from(list("():,;[]'\"AB\u00e9\u4e2d\u00b2 \t\n\u00a0\u2003"))
        | st.characters(),
        max_size=6,
    ).filter(lambda s: s != "B")
)
def test_the_writers_accept_exactly_the_labels_the_reader_reads_back(label):
    try:
        read = label in from_newick(f"({label},B);").leaf_names()
    except PpnError:
        read = False
    try:
        written = _check_label(label) == label
    except ValidationError:
        written = False
    assert read == written


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=200), st.text("(),:;[]' AB1e.-\n", max_size=60)))
def test_from_newick_raises_only_package_errors(text):
    try:
        from_newick(text)
    except PpnError:
        pass


def _newick_outcome(read, text: str):
    """The root of the tree ``read`` gives for ``text``, or the class,
    message and offset (None where there is none) of the package error
    it raises."""
    try:
        return read(text).root
    except PpnError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


#: the characters of the texts the two properties above draw, and digits
#: that [0-9] leaves out: U+00B2 (not decimal), U+0663 and U+FF11 (decimal)
_NEWICK_EDIT = st.sampled_from(
    list("(),:;[]' AB1e.-+E\n\t\r\u00a0\u2003\u00b2\u0663\uff11")
)


@st.composite
def newick_texts(draw):
    """Text as the two properties above draw it: any text, text in
    Newick's own characters, or a tree's Newick with whitespace runs
    between its tokens; then up to three characters inserted, replaced
    or deleted."""
    kind = draw(st.sampled_from(["any", "newick", "tree"]))
    if kind == "any":
        text = draw(st.text(max_size=200))
    elif kind == "newick":
        text = draw(st.text("(),:;[]' AB1e.-\n", max_size=60))
    else:
        space = st.lists(st.sampled_from(["\t", "\r\n", "\u00a0", "\u2003"]), max_size=3)
        tokens = _NEWICK_TOKEN.findall(to_newick(draw(newick_trees())))
        text = "".join(draw(space.map("".join)) + token for token in tokens)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        kept = text[at + (edit != "insert") :]
        text = text[:at] + ("" if edit == "delete" else draw(_NEWICK_EDIT)) + kept
    return text


@settings(max_examples=500, deadline=None)
@given(newick_texts())
@example("(A:\u0663,B);")
@example("(A:1\uff11,B);")
@example("((A,B)x :1,(C ,D) ,\r\n E);")
@example("(A,A,B,B);")
@example("(A:1e999,B:1);")
def test_from_newick_equals_the_token_by_token_oracle(text):
    assert _newick_outcome(from_newick, text) == _newick_outcome(oracle_from_newick, text)


_FIELD = st.sampled_from(
    ["0", "0.0", "1.5", "-1", "nan", "inf", "1e999", "x", "a", "b",
     "1_5", "\u0662", "-0.0", "+1.5"]
)


@st.composite
def phylip_like_text(draw):
    """A count line and rows of plausible fields, so that most examples get
    past the count check."""
    count = draw(st.integers(-1, 4).map(str) | st.sampled_from(["\u0663", "1_0", "+3", "03"]))
    rows = draw(st.lists(st.lists(_FIELD, max_size=6).map(" ".join), max_size=5))
    return "\n".join([count] + rows)


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


_ODD_FLOATS = st.one_of(
    st.floats(min_value=0.0),
    st.just(float("nan")),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308),
)


@st.composite
def odd_matrices(draw):
    """Symmetric matrices with nan, inf and subnormal entries, or the
    matrix read back from PHYLIP text whose zeros carry either sign in
    either triangle."""
    labels = draw(st.lists(_LABEL, min_size=2, max_size=6, unique=True))
    k = len(labels)
    upper = np.triu_indices(k, 1)
    if draw(st.booleans()):
        entries = draw(st.lists(_ODD_FLOATS, min_size=len(upper[0]), max_size=len(upper[0])))
        values = np.zeros((k, k))
        values[upper] = entries
        values[upper[::-1]] = entries
        return DistanceMatrix(labels, values)
    zero = st.sampled_from(["0.0", "-0.0", "0", "-0"])
    cells = [[draw(zero) for _ in range(k)] for _ in range(k)]
    for i, j in zip(*upper):
        if draw(st.booleans()):
            cells[i][j] = cells[j][i] = draw(st.sampled_from(["1.5", "5e-324", "inf"]))
    text = "\n".join([str(k)] + [" ".join([labels[i], *cells[i]]) for i in range(k)])
    return read_phylip(io.StringIO(text))


@settings(max_examples=300, deadline=None)
@given(odd_matrices())
def test_write_phylip_equals_the_per_entry_writer(matrix):
    buf, want = io.StringIO(), io.StringIO()
    write_phylip(matrix, buf)
    per_entry_phylip(matrix, want)
    assert buf.getvalue() == want.getvalue()


_PIPELINE_FLOATS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308, math.inf, math.nan]),
    st.integers(1, 2**53).map(math.sqrt),
    st.floats(min_value=0.0),
)


@st.composite
def blocked_matrices(draw):
    """Matrices of 2 to past four blocks of PHYLIP rows, each entry drawn
    from a few edge values, square roots of integers and other floats."""
    k = draw(st.integers(2, 4 * phylo._PHYLIP_ROWS + 3))
    pool = draw(st.lists(_PIPELINE_FLOATS, min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu_indices(k, 1)
    values = np.zeros((k, k))
    values[upper] = values[upper[::-1]] = rng.choice(np.array(pool), len(upper[0]))
    return DistanceMatrix([f"t{i}" for i in range(k)], values)


def _respelled(text: str, rnd) -> str:
    """``text`` with every field left of the diagonal written another way
    that ``float`` reads as the same number, amid runs of spaces and tabs."""
    lines = text.splitlines()
    for r in range(1, len(lines)):
        label, *fields = lines[r].split("\t")
        for j, field in enumerate(fields[: r - 1]):
            how = rnd.randrange(4)
            if how == 0 and "." in field and "e" not in field:
                field += "0"
            elif how == 1:
                field = "+" + field
            elif how == 2 and field not in ("inf", "nan"):
                _, digits, exponent = Decimal(field).as_tuple()
                field = "".join(map(str, digits)) + f"E{exponent}"
            fields[j] = field
        gaps = [rnd.choice(["\t", " ", "  ", " \t "]) for _ in fields]
        lines[r] = label + "".join(gap + field for gap, field in zip(gaps, fields))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(blocked_matrices(), st.sampled_from([1, 2, 3, 8, 2**20]), st.randoms())
def test_phylip_block_size_changes_no_byte_and_no_float(matrix, rows, rnd):
    want = io.StringIO()
    per_entry_phylip(matrix, want)
    hexes = [v.hex() for v in matrix.values.ravel().tolist()]
    with mock.patch.object(phylo, "_PHYLIP_ROWS", rows):
        buf = io.StringIO()
        write_phylip(matrix, buf)
        assert buf.getvalue() == want.getvalue()
        for text in (buf.getvalue(), _respelled(buf.getvalue(), rnd)):
            back = read_phylip(io.StringIO(text))
            assert back.labels == matrix.labels
            assert [v.hex() for v in back.values.ravel().tolist()] == hexes


def _phylip_outcome(text: str):
    """The labels and ``float.hex`` values that ``phylo._read_phylip``
    reads from ``text``, or its error message."""
    try:
        labels, values = phylo._read_phylip(io.StringIO(text))
    except ValidationError as exc:
        return str(exc)
    return labels, [v.hex() for v in values.ravel().tolist()]


def _plain_phylip_outcome(text: str):
    """:func:`_phylip_outcome` of the reader that converts every field."""
    got = plain_phylip(text)
    if isinstance(got, str):
        return got
    labels, rows = got
    return labels, [v.hex() for row in rows for v in row]


@st.composite
def respelled_phylip(draw):
    """A written matrix with its lower triangle respelled, and at times
    one field of it swapped for one of :data:`_FIELD`."""
    text = io.StringIO()
    write_phylip(draw(blocked_matrices()), text)
    lines = _respelled(text.getvalue(), draw(st.randoms())).splitlines()
    if draw(st.booleans()):
        r = draw(st.integers(1, len(lines) - 1))
        fields = lines[r].split()
        fields[draw(st.integers(1, len(fields) - 1))] = draw(_FIELD)
        lines[r] = " ".join(fields)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.one_of(phylip_like_text(), respelled_phylip()))
def test_reader_gives_the_outcome_of_one_float_per_field(text):
    assert _phylip_outcome(text) == _plain_phylip_outcome(text)


# -- distance matrix and UPGMA ---------------------------------------------------------

@st.composite
def record_sets(draw):
    """2-6 records, homopolymers among them, and a window geometry; at
    radius 10 a poly-T record of 300 nt has components above 2**63."""
    radius = draw(st.integers(1, MAX_RADIUS))
    stride = draw(st.integers(1, radius))
    raws = []
    for _ in range(draw(st.integers(2, 6))):
        alphabet = draw(st.sampled_from(["ACGT", "T", "A", "AT", "CG"]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        raws.append("".join(rng.choice(list(alphabet), size=draw(st.integers(1, 400)))))
    return raws, radius, stride


_PAST_64_BITS = (["T" * 300, "T" * 290 + "A" * 10, "ACGT" * 50], 10, 1)
# one identical pair above 2**63: no spread, the int64 rows after the shift
_SAME_PAST_64_BITS = (["T" * 300, "T" * 300], 10, 1)


@settings(max_examples=200, deadline=None)
@given(
    record_sets(),
    st.sampled_from(["euclidean", "manhattan"]),
    st.booleans(),
)
@example(_PAST_64_BITS, "euclidean", False)
@example(_PAST_64_BITS, "manhattan", False)
@example(_PAST_64_BITS, "euclidean", True)
@example(_PAST_64_BITS, "manhattan", True)
@example(_SAME_PAST_64_BITS, "euclidean", False)
@example(_SAME_PAST_64_BITS, "manhattan", False)
def test_pairwise_matrix_equals_the_scalar_oracle(case, metric, normalized):
    raws, radius, stride = case
    params = PpnParams(radius=radius, stride=stride, metric=metric)
    seqs = [encode(raw, seq_id=f"r{i}") for i, raw in enumerate(raws)]
    vecs = [ppn_vector(seq, params) for seq in seqs]
    m = pairwise_matrix(seqs, params, normalized=normalized)
    if case in (_PAST_64_BITS, _SAME_PAST_64_BITS):
        assert max(vecs[0].components) > 2**63
    for i, j in combinations(range(len(seqs)), 2):
        want = scalar_distance(vecs[i], vecs[j], metric, normalized)
        assert m.values[i, j] == want
        assert m.values[j, i] == want
        assert distance(vecs[i], vecs[j], metric, normalized) == want


@st.composite
def rows_near_the_wrap(draw):
    """2-6 component lists whose columns spread by about s on m of the 24
    components, each s near 2**31.5 / sqrt(m), so that sum(s**2) lies near
    2**63 on either side; the rest are constant.  The first list is s or
    s - 1 in each such column, the second 0 or 1, and every later one is
    either of those or any value in 0..s, all above a common offset."""
    m = draw(st.integers(1, 24))
    top = math.isqrt(2**63 // m)
    spreads = [draw(st.integers(top - 2**8, top + 2**8)) for _ in range(m)]
    offset = draw(st.sampled_from([0, 2**40, 3 * 2**64]))
    kinds = ["top", "bottom"] + [
        draw(st.sampled_from(["top", "bottom", "any"])) for _ in range(draw(st.integers(0, 4)))
    ]
    values = {
        "top": lambda s: st.sampled_from([s, s - 1]),
        "bottom": lambda s: st.sampled_from([0, 1]),
        "any": lambda s: st.integers(0, s),
    }
    return [
        [offset + draw(values[kind](s)) for s in spreads] + [offset] * (24 - m)
        for kind in kinds
    ]


_AT_THE_WRAP = [[3037000499] + [0] * 23, [3037000498] + [0] * 23, [0] * 24]


@settings(max_examples=300, deadline=None)
@given(rows_near_the_wrap(), st.sampled_from(["euclidean", "manhattan"]))
@example(_AT_THE_WRAP, "euclidean")
def test_distance_rows_near_2_63_equal_the_scalar_oracle(components, metric):
    params = PpnParams(metric=metric)
    vecs = [
        core.PpnVector(components=tuple(c), sequence_length=100, windows=50, params=params)
        for c in components
    ]
    rows = list(core._distance_rows(vecs, core.Metric(metric), False))
    for i, j in combinations(range(len(vecs)), 2):
        want = scalar_distance(vecs[i], vecs[j], metric, False)
        assert rows[i][j - i - 1] == want
        assert distance(vecs[i], vecs[j]) == want


@st.composite
def row_blocks(draw):
    """k = 2, 15, 16, 17 or 33 component lists, one short of a block of
    Gram rows, a block, one past it or two: either small values, or
    each column near its own spread s with sum(s**2) near 2**63 on either
    side, as in :func:`rows_near_the_wrap`."""
    k = draw(st.sampled_from([2, 15, 16, 17, 33]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        top = draw(st.sampled_from([1, 2**20, 2**40]))
        return rng.integers(0, top, size=(k, 24), endpoint=True).tolist()
    m = draw(st.integers(1, 24))
    top = math.isqrt(2**63 // m)
    spreads = [draw(st.integers(top - 2**8, top + 2**8)) for _ in range(m)]
    rows = [[s * int(rng.integers(0, 2)) for s in spreads] + [0] * (24 - m) for _ in range(k)]
    rows[0], rows[1] = spreads + [0] * (24 - m), [0] * 24
    return rows


@settings(max_examples=150, deadline=None)
@given(row_blocks(), st.sampled_from(["euclidean", "manhattan"]))
def test_blocked_distance_rows_are_the_distances_of_each_pair(components, metric):
    params = PpnParams(metric=metric)
    vecs = [
        core.PpnVector(components=tuple(c), sequence_length=100, windows=50, params=params)
        for c in components
    ]
    rows = list(core._distance_rows(vecs, core.Metric(metric), False))
    assert len(rows) == len(vecs) - 1
    for i, row in enumerate(rows):
        assert len(row) == len(vecs) - 1 - i
        for j, got in enumerate(row.tolist(), start=i + 1):
            want = scalar_distance(vecs[i], vecs[j], metric, False)
            assert got.hex() == want.hex() == distance(vecs[i], vecs[j]).hex()


@st.composite
def upgma_matrices(draw):
    """k 2-40 under shuffled labels: small integers (many ties, zeros
    too) or random floats."""
    k = draw(st.integers(2, 40))
    labels = draw(st.permutations([f"t{i:02d}" for i in range(k)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu_indices(k, 1)
    if draw(st.booleans()):
        entries = rng.integers(0, draw(st.integers(1, 4)), size=len(upper[0]))
    else:
        entries = rng.random(len(upper[0])) * draw(st.sampled_from([1.0, 1e-3, 1e6]))
    values = np.zeros((k, k))
    values[upper] = entries
    values[upper[::-1]] = entries
    return DistanceMatrix(labels, values)


@settings(max_examples=200, deadline=None)
@given(upgma_matrices())
def test_upgma_equals_the_full_scan_oracle(matrix):
    assert to_newick(upgma(matrix)) == oracle_upgma_newick(matrix.labels, matrix.values)


@st.composite
def small_fasta(draw):
    """FASTA bytes of 2-6 records of 1-300 nt, soft-masked, with N runs,
    wrapped at one width in one line ending, half of them drawn from
    1-30 nt; and a geometry, t <= l <= 5."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ending = draw(_ENDINGS)
    width = draw(st.sampled_from([1, 7, 60, 1000]))
    out = []
    lengths = st.one_of(st.integers(1, 30), st.integers(1, 300))
    for i, n in enumerate(draw(st.lists(lengths, min_size=2, max_size=6))):
        body = b"A" + bytes(rng.choice(list(b"ACGTacgtN"), size=n - 1))
        lines = [body[j : j + width] for j in range(0, n, width)]
        out += [b">r%d desc" % i, ending, ending.join(lines), ending]
    radius = draw(st.integers(1, 5))
    return b"".join(out), radius, draw(st.integers(1, radius))


@settings(max_examples=100, deadline=None)
@given(small_fasta(), st.integers(0, 4), st.integers(1, 64), st.integers(1, 64))
def test_ppn_tree_equals_the_oracles_end_to_end(case, short_windows, chunk, block):
    """FASTA to Newick bytes through the whole ``ppn tree`` run, against
    the line reader, per-window vectors, one-pair distances and a UPGMA
    that rescans every pair at each merge.  The batch cut-off, the tally
    chunk (also the scan's hold) and the read block are drawn small, so
    the same records take the batch, the tally of whole codes and the
    streamed sink."""
    data, radius, stride = case
    records = line_fasta_outcome(data)
    vectors = [
        argparse.Namespace(components=naive_vector(bases, radius, stride, PERMUTATIONS))
        for _, bases, _ in records
    ]
    values = [[scalar_distance(a, b, "euclidean", False) for b in vectors] for a in vectors]
    want = oracle_upgma_newick([seq_id for seq_id, _, _ in records], values) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        fasta, newick = os.path.join(tmp, "in.fa"), os.path.join(tmp, "out.nwk")
        with open(fasta, "wb") as fh:
            fh.write(data)
        argv = ["tree", "--input", fasta, "--l", str(radius), "--t", str(stride),
                "--output", newick]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_SHORT_WINDOWS", short_windows)
            mp.setattr(core, "_CHUNK", chunk)
            mp.setattr(seqio, "_BLOCK", block)
            assert cli.main(argv) == 0
        with open(newick, "rb") as fh:
            assert fh.read() == want.encode()


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
def test_nqd_chunk_size_changes_no_bit(pair):
    # one node per chunk (and a node's branch pairs a slice at a time), or
    # each branch count's nodes in one chunk
    t1, t2 = pair
    want = [oracle_nqd(t1, t2).hex()] * 2
    assert [nqd(t1, t2).hex(), nqd(t2, t1).hex()] == want
    for cells in (1, 2**62):
        # _NQD_SHARE patched too, so the budget stays at cells
        with mock.patch.object(phylo, "_NQD_CELLS", cells), mock.patch.object(
            phylo, "_NQD_SHARE", 2**62
        ):
            assert [nqd(t1, t2).hex(), nqd(t2, t1).hex()] == want


@settings(max_examples=200, deadline=None)
@given(st.integers(4, 60).flatmap(
    lambda k: st.tuples(*[shaped_trees([f"x{i}" for i in range(k)])] * 2)
))
def test_treedist_core_equals_nrf_and_nqd(pair):
    # the core of ppn treedist, which drops the trees it is given once
    # reduced, and the public functions, which keep them
    t1, t2 = pair
    want = [nrf(t1, t2).hex(), nqd(t1, t2).hex()]
    copies = (from_newick(to_newick(t)) for t in pair)
    assert [d.hex() for d in phylo._compare(copies)] == want
    assert [d.hex() for d in phylo._compare(iter((t2, t1)))] == [
        nrf(t2, t1).hex(), nqd(t2, t1).hex()
    ]


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
