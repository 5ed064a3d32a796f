"""Unit tests for FASTA IO and the sequence simulator."""

import io
from collections import Counter

import pytest

from ppn import (
    DuplicateIdError,
    EmptySequenceError,
    InvalidCharacterError,
    MalformedFastaError,
    SimulationSpec,
    ValidationError,
    read_fasta,
    simulate,
    write_fasta,
)

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
        records = read_fasta(io.StringIO(">\u540d\u524d|x desc\nAC\u2003GT\n"))
        assert records[0].id == "\u540d\u524d|x"
        assert (records[0].bases(), records[0].dropped) == ("ACGT", 1)

    def test_blank_lines_are_ignored(self):
        records = read_fasta(io.StringIO(">x\n\nAC\n\nGT\n\n"))
        assert records[0].bases() == "ACGT"

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
