"""Unit tests for FASTA IO and the sequence simulator."""

import io
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ppn import (
    DuplicateIdError,
    EmptySequenceError,
    InvalidCharacterError,
    MalformedFastaError,
    PpnError,
    SimulationSpec,
    ValidationError,
    encode,
    read_fasta,
    simulate,
    write_fasta,
)
from ppn import seqio
from oracles import PATH_FORMS, line_fasta_outcome

SAMPLE = """\
>seq1 first record
ACGTACGT
ACGT
>seq2
TTTT
"""


class TestReadFasta:
    def test_parses_records_in_order(self):
        records = read_fasta(io.StringIO(SAMPLE))
        assert [r.id for r in records] == ["seq1", "seq2"]
        assert records[0].bases() == "ACGTACGTACGT"
        assert records[1].bases() == "TTTT"

    def test_id_is_first_header_token(self):
        records = read_fasta(io.StringIO(">a|b desc words\nACGT\n"))
        assert records[0].id == "a|b"

    def test_reads_from_a_path(self, tmp_path):
        path = tmp_path / "in.fa"
        path.write_text(SAMPLE)
        records = read_fasta(str(path))
        assert [r.id for r in records] == ["seq1", "seq2"]

    def test_reads_byte_streams_and_crlf(self):
        data = b">x\r\nAC\r\nGT\r\n"
        records = read_fasta(io.BytesIO(data))
        assert records[0].bases() == "ACGT"

    def test_cr_only_line_endings_match_lf(self):
        lf = b">seq1 first record\nACGTacgt\nNNAC\n\n>seq2\nTTTT\n"
        cr = lf.replace(b"\n", b"\r")
        records = read_fasta(io.BytesIO(cr))
        assert records == read_fasta(io.BytesIO(lf))
        assert [(r.id, r.bases(), r.dropped) for r in records] == [
            ("seq1", "ACGTACGTAC", 2),
            ("seq2", "TTTT", 0),
        ]

    def test_text_stream_ids_keep_characters_outside_latin1(self):
        # U+2003 is not ASCII whitespace: its three UTF-8 bytes are dropped
        records = read_fasta(io.StringIO(">\u540d\u524d|x desc\nAC\u2003GT\n"))
        assert records[0].id == "\u540d\u524d|x"
        assert (records[0].bases(), records[0].dropped) == ("ACGT", 3)

    def test_blank_lines_are_ignored(self):
        records = read_fasta(io.StringIO(">x\n\nAC\n\nGT\n\n"))
        assert records[0].bases() == "ACGT"

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"])
    def test_gt_inside_a_line_is_not_a_header(self, eol):
        data = eol.join([b">a x>y", b"AC>GT", b" >TT", b">b", b"G>G", b""])
        records = read_fasta(io.BytesIO(data))
        assert [(r.id, r.bases(), r.dropped) for r in records] == [
            ("a", "ACGTTT", 2),
            ("b", "GG", 1),
        ]

    def test_errors_come_in_file_order(self):
        # the first record has no bases; that error comes before the
        # second record's empty or repeated header is looked at
        for data in (">a\nNNNN\n>\nACGT\n", ">a\nNNNN\n>a\nACGT\n"):
            with pytest.raises(EmptySequenceError, match="'a'"):
                read_fasta(io.StringIO(data))

    def test_duplicate_id_rejected(self):
        with pytest.raises(DuplicateIdError, match="seq1"):
            read_fasta(io.StringIO(">seq1\nAC\n>seq1\nGT\n"))

    def test_empty_header_rejected(self):
        with pytest.raises(MalformedFastaError, match="line 1"):
            read_fasta(io.StringIO(">\nACGT\n"))
        # CRLF is one line ending, not two
        with pytest.raises(MalformedFastaError, match="line 4: empty FASTA header"):
            read_fasta(io.BytesIO(b">a\r\nAC\r\n\r\n>\r\nGT\r\n"))

    def test_data_before_first_header_rejected(self):
        with pytest.raises(MalformedFastaError, match="before the first"):
            read_fasta(io.StringIO("ACGT\n>x\nACGT\n"))
        # CRLF, LF and a lone CR each end one line
        with pytest.raises(MalformedFastaError, match="line 4: sequence data"):
            read_fasta(io.BytesIO(b"\r\n\n\rACGT\n>x\nA\n"))

    def test_no_records_rejected(self):
        with pytest.raises(MalformedFastaError, match="no FASTA records"):
            read_fasta(io.StringIO(""))
        with pytest.raises(MalformedFastaError):
            read_fasta(io.StringIO("\n   \n"))

    def test_record_with_no_usable_bases_rejected(self):
        with pytest.raises(EmptySequenceError):
            read_fasta(io.StringIO(">x\nNNN\n"))

    def test_policy_reaches_the_encoder(self):
        records = read_fasta(io.StringIO(">x\nACNGT\n"), policy="drop")
        assert records[0].dropped == 1
        with pytest.raises(InvalidCharacterError):
            read_fasta(io.StringIO(">x\nACNGT\n"), policy="strict")

    @pytest.mark.parametrize("text", ["", "ACGT\n>x\nA\n"])
    def test_unknown_policy_is_refused_before_any_input(self, text):
        # each input fails on its own before a record opens, so only a
        # check made before reading names the policy
        with pytest.raises(ValidationError, match="unknown sanitize policy 'bogus'"):
            read_fasta(io.StringIO(text), policy="bogus")

    @staticmethod
    def _breaks_spied(monkeypatch, path, eol: bytes, note: bytes = b"") -> list[int]:
        """Read 5 000 records, each header ending in ``note``, and an empty
        header with ``eol`` line ends from ``path``: the span each
        ``_breaks`` call scans."""
        records = (b">r%d%s%s%s%s" % (i, note, eol, b"ACGT" * 13, eol) for i in range(5000))
        path.write_bytes(b"".join(records) + b">" + eol)
        scanned = []
        breaks = seqio._breaks

        def spy(buf, start, stop):
            scanned.append(stop - start)
            return breaks(buf, start, stop)

        monkeypatch.setattr(seqio, "_breaks", spy)
        with pytest.raises(MalformedFastaError, match="line 10001: empty FASTA header"):
            read_fasta(path)
        assert path.stat().st_size > 8 * seqio._BLOCK
        return scanned

    def test_lf_line_count_comes_from_the_deleted_whitespace(self, tmp_path, monkeypatch):
        # with LF the only whitespace, a block's line breaks are the bytes
        # its translates deleted: only the error's own block is scanned,
        # up to where the error is, and the last line is still numbered right
        scanned = self._breaks_spied(monkeypatch, tmp_path / "many.fa", b"\n")
        assert len(scanned) == 1 and scanned[0] <= seqio._BLOCK

    @pytest.mark.parametrize("note", [b" synthetic", b"\tsample 7 of 9", b" "])
    def test_spaced_header_line_count_comes_from_the_deleted_whitespace(
        self, tmp_path, monkeypatch, note
    ):
        # spaces and tabs in every header, and LF the only whitespace in
        # the bodies: still only the error's own block is scanned
        scanned = self._breaks_spied(monkeypatch, tmp_path / "many.fa", b"\n", note)
        assert len(scanned) == 1 and scanned[0] <= seqio._BLOCK

    def test_a_space_in_a_body_sends_its_block_to_the_scan(self, tmp_path, monkeypatch):
        # one space in the body of the first record, whose header is spaced
        # too: only its block, and the error's, are scanned
        path = tmp_path / "many.fa"
        records = (b">r%d x\n%s\n" % (i, b"AC GT" if i == 0 else b"ACGT" * 13) for i in range(5000))
        path.write_bytes(b"".join(records) + b">\n")
        scanned = []
        breaks = seqio._breaks

        def spy(buf, start, stop):
            scanned.append((start, stop))
            return breaks(buf, start, stop)

        monkeypatch.setattr(seqio, "_breaks", spy)
        with pytest.raises(MalformedFastaError, match="line 10001: empty FASTA header"):
            read_fasta(path)
        assert len(scanned) == 2 and scanned[0] == (0, seqio._BLOCK)

    def test_crlf_line_count_reads_each_byte_once(self, tmp_path, monkeypatch):
        # 5 000 CRLF headers over many blocks: line breaks are counted once
        # per block, not at every header, plus once for the line the error
        # names
        path = tmp_path / "many.fa"
        scanned = self._breaks_spied(monkeypatch, path, b"\r\n")
        assert 0 < sum(scanned) <= path.stat().st_size
        blocks = -(-path.stat().st_size // seqio._BLOCK)
        assert len(scanned) <= blocks + 1


def _outcome(source, policy):
    try:
        return [(r.id, r.bases(), r.dropped) for r in read_fasta(source, policy=policy)]
    except PpnError as exc:
        return (type(exc).__name__, str(exc))


class TestBlockEdges:
    """Every block size from 1 byte up to the whole input, so each case
    puts the named boundary on a block edge at least once."""

    CASES = {
        # a '>' opens the second and third blocks at block size 6
        "gt_opens_a_block": (b">a\nAC\n>b\nGT\n>c\nA\n", "drop", [
            ("a", "AC", 0), ("b", "GT", 0), ("c", "A", 0)]),
        "header_split": (b">a_long|id some description\r\nACGT\n>b\tx\nG\n", "drop", [
            ("a_long|id", "ACGT", 0), ("b", "G", 0)]),
        # CRLF is one line break, also when CR and LF land in two blocks
        "crlf_split": (b">a\r\nAC\r\n\r\n>b\r\nGT\r\n\r\n>\r\nGT\r\n", "drop",
                       ("MalformedFastaError", "line 7: empty FASTA header")),
        "empty_record": (b">a\n>b\nACGT\n", "drop",
                         ("EmptySequenceError", "sequence 'a': no A/C/G/T content")),
        "strict_at_edge": (b">a\nACGTA\nCGNAC\n", "strict", (
            "InvalidCharacterError", "sequence 'a': invalid character 'N' under strict policy")),
        "data_before_header": (b"\r\n\r\n \rAC\n>a\nG\n", "drop",
                               ("MalformedFastaError",
                                "line 4: sequence data before the first '>' header")),
        # an empty header is numbered by the line it ends on, or by the
        # last line when the input ends inside it
        "empty_last_header_unended": (b">a\nAC\n>  \t", "drop",
                                      ("MalformedFastaError", "line 3: empty FASTA header")),
        "empty_header_blanks_split": (b">a\r\nAC\r\n>  \t \r\n>b\r\nA", "drop",
                                      ("MalformedFastaError", "line 3: empty FASTA header")),
        # a header is UTF-8, decoded whole when a block edge splits a
        # character; a Latin-1 byte fails on the header's own line
        "utf8_header": ("> s\u00e9q\U0001f9ec x\r\nAC\n>\u540d\nG\n".encode(), "drop", [
            ("s\u00e9q\U0001f9ec", "AC", 0), ("\u540d", "G", 0)]),
        "latin1_header": (b">a\nAC\r\n>s\xe9q\nG\n", "drop",
                          ("MalformedFastaError", "line 3: FASTA header is not valid UTF-8")),
        # a body is counted in UTF-8 bytes, and a strict error names the
        # character the first bad byte starts, whole at any block edge
        "utf8_body": ("> a\nAC\nG\u00e9T\U0001f9ec\n".encode(), "drop", [("a", "ACGT", 6)]),
        "four_byte_strict": ("> a\nAC\nG\U0001f9ecT\n".encode(), "strict", (
            "InvalidCharacterError",
            "sequence 'a': invalid character '\U0001f9ec' under strict policy")),
        # a byte that starts no UTF-8 character is named by its Latin-1 reading
        "latin1_body_strict": (b"> a\nAC\nG\xe9T\n", "strict", (
            "InvalidCharacterError", "sequence 'a': invalid character 'é' under strict policy")),
        "lead_then_ascii_strict": (b"> a\nAC\nG\xe2\x82T\n", "strict", (
            "InvalidCharacterError", "sequence 'a': invalid character 'â' under strict policy")),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bytes_at_every_block_size(self, name, monkeypatch):
        data, policy, want = self.CASES[name]
        assert line_fasta_outcome(data, policy) == want
        for block in range(1, len(data) + 2):
            monkeypatch.setattr(seqio, "_BLOCK", block)
            assert _outcome(io.BytesIO(data), policy) == want, block

    def test_text_ids_outside_latin1_at_every_block_size(self, monkeypatch):
        text = ">\u540d\u524d|x desc\r\nAC\u2003GT\r\n>\xe9\U0001f9ec\u2003y\nA\n"
        want = [("\u540d\u524d|x", "ACGT", 3), ("\xe9\U0001f9ec", "A", 0)]
        for block in range(1, len(text) + 2):
            monkeypatch.setattr(seqio, "_BLOCK", block)
            assert _outcome(io.StringIO(text), "drop") == want, block


class TestOneByteRoute:
    """A path, a byte stream and a text stream of the same text are read
    as the same UTF-8 bytes: ``dropped`` counts bytes on every route, and
    a strict error names the character its first bad byte starts."""

    @staticmethod
    def outcomes(tmp_path, text, policy):
        data = text.encode("utf-8", "surrogatepass")
        path = tmp_path / "in.fa"
        path.write_bytes(data)
        return [_outcome(source, policy)
                for source in (path, io.BytesIO(data), io.StringIO(text))]

    def test_a_two_byte_character_drops_two_on_every_route(self, tmp_path):
        assert self.outcomes(tmp_path, ">s\nACG\u00e9\n", "drop") == [[("s", "ACG", 2)]] * 3
        assert encode("ACG\u00e9").dropped == encode("ACG\u00e9".encode()).dropped == 2

    def test_strict_names_the_character_at_every_block_size(self, tmp_path, monkeypatch):
        text = ">s\nACG\u00e9T\n"
        want = ("InvalidCharacterError", "sequence 's': invalid character 'é' under strict policy")
        for block in range(1, len(text.encode()) + 2):
            monkeypatch.setattr(seqio, "_BLOCK", block)
            assert self.outcomes(tmp_path, text, "strict") == [want] * 3, block
        with pytest.raises(InvalidCharacterError, match="'é'"):
            encode("ACG\u00e9T", policy="strict")

    def test_a_lone_surrogate_is_three_dropped_bytes_or_a_package_error(self, tmp_path):
        body = ">s\nAC\ud800GT\n"
        assert self.outcomes(tmp_path, body, "drop") == [[("s", "ACGT", 3)]] * 3
        # ED A0 80 is not UTF-8, so its first byte is named as Latin-1
        assert self.outcomes(tmp_path, body, "strict") == [(
            "InvalidCharacterError", "sequence 's': invalid character 'í' under strict policy",
        )] * 3
        assert self.outcomes(tmp_path, ">s\ud800\nACGT\n", "drop") == [
            ("MalformedFastaError", "line 1: FASTA header is not valid UTF-8")] * 3
        assert encode("AC\ud800GT").dropped == 3


class TestCodesOwnership:
    """read_fasta and simulate hand EncodedSequence read-only arrays of
    their own, which it keeps without a copy."""

    def test_a_record_of_several_blocks_is_joined_once(self, tmp_path):
        # 1 Mnt in 31 blocks of 32 KiB: the blocks' codes and their join,
        # about 2.0 MB traced; a copy of the join would add 1 MB
        path = tmp_path / "big.fa"
        path.write_text(">big\n" + "ACGT" * 250_000 + "\n")
        tracemalloc.start()
        try:
            (seq,) = read_fasta(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seq.length == 1_000_000 and not seq.codes.flags.writeable
        assert peak < 2.5e6, peak

    def test_simulate_makes_no_copy(self):
        # one 1 MB array per record; a copy would hold two at once
        tracemalloc.start()
        try:
            (seq,) = simulate(SimulationSpec(species_count=1, length=1_000_000, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not seq.codes.flags.writeable
        assert peak < 1.5e6, peak


class TestWriteFasta:
    def test_wraps_at_sixty_columns(self):
        seqs = simulate(SimulationSpec(species_count=1, length=130, seed=1))
        buf = io.StringIO()
        write_fasta(seqs, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ">sim_001"
        assert [len(x) for x in lines[1:]] == [60, 60, 10]

    def test_custom_width(self):
        seqs = simulate(SimulationSpec(species_count=1, length=10, seed=1))
        buf = io.StringIO()
        write_fasta(seqs, buf, width=4)
        assert [len(x) for x in buf.getvalue().splitlines()[1:]] == [4, 4, 2]

    def test_round_trip_preserves_everything(self, tmp_path):
        seqs = simulate(SimulationSpec(species_count=4, length=257, seed=9))
        path = tmp_path / "out.fa"
        write_fasta(seqs, str(path))
        back = read_fasta(str(path))
        assert back == seqs

    @pytest.mark.parametrize("width", [-1, 0, 2.5, True, "60", None])
    def test_width_below_one_or_not_an_int_is_refused_before_writing(self, tmp_path, width):
        seqs = simulate(SimulationSpec(species_count=2, length=10, seed=1))
        path = tmp_path / "out.fa"
        path.write_text("keep me\n")
        with pytest.raises(ValidationError, match="width"):
            write_fasta(seqs, str(path), width=width)
        assert path.read_text() == "keep me\n"
        buf = io.StringIO()
        with pytest.raises(ValidationError, match="width"):
            write_fasta(seqs, buf, width=width)
        assert buf.getvalue() == ""


class TestPathForms:
    """``read_fasta`` and ``write_fasta`` open every form of a path, and
    use an open stream as it is, leaving it open."""

    SEQS = simulate(SimulationSpec(species_count=3, length=130, seed=4))

    @pytest.mark.parametrize("form", PATH_FORMS)
    def test_read_fasta_gives_the_same_records(self, tmp_path, form):
        path = tmp_path / "in.fa"
        path.write_text(SAMPLE)
        assert read_fasta(PATH_FORMS[form](path)) == read_fasta(io.StringIO(SAMPLE))

    @pytest.mark.parametrize("form", PATH_FORMS)
    def test_write_fasta_gives_the_same_bytes(self, tmp_path, form):
        path = tmp_path / "out.fa"
        write_fasta(self.SEQS, PATH_FORMS[form](path))
        text = io.StringIO()
        write_fasta(self.SEQS, text)
        assert path.read_bytes() == text.getvalue().encode()

    def test_streams_are_used_as_they_are_and_left_open(self):
        text, data = io.StringIO(SAMPLE), io.BytesIO(SAMPLE.encode())
        assert read_fasta(text) == read_fasta(data)
        assert not text.closed and not data.closed
        out = io.StringIO()
        write_fasta(self.SEQS, out)
        assert not out.closed
        assert read_fasta(io.StringIO(out.getvalue())) == self.SEQS


class TestSimulate:
    def test_is_deterministic_per_seed(self):
        a = simulate(SimulationSpec(species_count=3, length=100, seed=5))
        b = simulate(SimulationSpec(species_count=3, length=100, seed=5))
        assert a == b

    def test_different_seeds_differ(self):
        a = simulate(SimulationSpec(species_count=1, length=100, seed=5))
        b = simulate(SimulationSpec(species_count=1, length=100, seed=6))
        assert a != b

    def test_ids_are_zero_padded(self):
        seqs = simulate(SimulationSpec(species_count=12, length=5, seed=0))
        assert seqs[0].id == "sim_001"
        assert seqs[-1].id == "sim_012"

    def test_id_padding_grows_with_count(self):
        seqs = simulate(SimulationSpec(species_count=1000, length=1, seed=0))
        assert seqs[0].id == "sim_0001"
        assert seqs[-1].id == "sim_1000"

    def test_lengths_match_and_bases_spread(self):
        seqs = simulate(SimulationSpec(species_count=2, length=4000, seed=2))
        assert all(s.length == 4000 for s in seqs)
        counts = Counter(seqs[0].bases())
        assert set(counts) == set("ACGT")
        # uniform draw: each base lands near a quarter of the total
        assert all(800 < counts[b] < 1200 for b in "ACGT")

    def test_single_species_is_allowed(self):
        seqs = simulate(SimulationSpec(species_count=1, length=10, seed=0))
        assert len(seqs) == 1

    def test_large_run_shape_and_base_frequencies(self):
        seqs = simulate(SimulationSpec(species_count=5, length=100_000, seed=7))
        assert [s.length for s in seqs] == [100_000] * 5
        for seq in seqs:
            counts = Counter(seq.bases())
            for base in "ACGT":
                assert 0.24 < counts[base] / 100_000 < 0.26

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            SimulationSpec(species_count=0, length=10, seed=0)
        with pytest.raises(ValidationError):
            SimulationSpec(species_count=1, length=0, seed=0)
        with pytest.raises(ValidationError):
            SimulationSpec(species_count=1, length=10, seed=-1)
        with pytest.raises(ValidationError):
            SimulationSpec(species_count=1, length=10, seed=2**64)

    @pytest.mark.parametrize("field", ["species_count", "length", "seed"])
    @pytest.mark.parametrize("value", [2.5, "3", True, None])
    def test_spec_fields_must_be_ints(self, field, value):
        fields = dict(species_count=1, length=10, seed=0)
        fields[field] = value
        with pytest.raises(ValidationError, match=field):
            SimulationSpec(**fields)
