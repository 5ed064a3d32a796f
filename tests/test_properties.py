"""Property-based tests for the window histogram and the FASTA reader."""

import io
import warnings
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ppn import (
    MAX_RADIUS,
    EmptySequenceError,
    PpnError,
    PpnParams,
    count_histogram,
    encode,
    read_fasta,
    window_centers,
    window_counts_at,
)
from ppn.core import _CHUNK
from oracles import line_fasta_records


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
