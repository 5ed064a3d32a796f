"""End-to-end tests for the command-line interface, run in-process."""

import io
import os

import numpy as np
import pytest

from ppn import (
    PpnParams,
    SimulationSpec,
    pairwise_matrix,
    ppn_vector,
    read_fasta,
    simulate,
    window_count,
)
from ppn.cli import main
from ppn.phylo import _NQD_MAX_LEAVES

FASTA = """\
>alpha
ACGTACGTACGTACGTACGT
>beta
TTGCAAGCTTGCAAGCTTGC
>gamma
ACGTACGTACGTTCGTACGT
>delta
GGGCCCAAATTTGGGCCCAA
"""


@pytest.fixture
def fasta_path(tmp_path):
    path = tmp_path / "in.fa"
    path.write_text(FASTA)
    return str(path)


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestVector:
    def test_tsv_layout(self, fasta_path, capsys):
        code, out, err = run(["vector", "--input", fasta_path], capsys)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 4  # no header line
        fields = lines[0].split("\t")
        assert fields[:5] == ["alpha", "20", str(window_count(20, 1)), "4", "1"]
        assert len(fields) == 5 + 24
        expected = ppn_vector(read_fasta(io.StringIO(FASTA))[0], PpnParams())
        assert [int(x) for x in fields[5:]] == list(expected.components)

    def test_params_are_respected(self, fasta_path, capsys):
        code, out, _ = run(
            ["vector", "--input", fasta_path, "--l", "2", "--t", "2"], capsys
        )
        assert code == 0
        fields = out.splitlines()[0].split("\t")
        assert fields[2:5] == [str(window_count(20, 2)), "2", "2"]

    def test_normalized_components_are_floats(self, fasta_path, capsys):
        code, out, _ = run(
            ["vector", "--input", fasta_path, "--normalize"], capsys
        )
        assert code == 0
        value = out.splitlines()[0].split("\t")[5]
        assert "." in value or "e" in value

    def test_writes_to_file_atomically(self, fasta_path, tmp_path, capsys):
        dest = tmp_path / "out.tsv"
        code, out, _ = run(
            ["vector", "--input", fasta_path, "--output", str(dest)], capsys
        )
        assert code == 0 and out == ""
        assert dest.exists()
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".ppn-")]
        assert leftovers == []

    def test_metric_is_refused(self, fasta_path, capsys):
        code, out, err = run(
            ["vector", "--input", fasta_path, "--metric", "manhattan"], capsys
        )
        assert (code, out) == (2, "")
        assert "--metric" in err


class TestMatrix:
    def test_output_is_readable_phylip(self, fasta_path, tmp_path, capsys):
        dest = tmp_path / "m.phy"
        code, _, _ = run(
            ["matrix", "--input", fasta_path, "--output", str(dest)], capsys
        )
        assert code == 0
        lines = dest.read_text().splitlines()
        assert lines[0] == "4"
        assert lines[1].split("\t")[0] == "alpha"

    def test_matches_library_results(self, fasta_path, capsys):
        code, out, _ = run(["matrix", "--input", fasta_path], capsys)
        assert code == 0
        seqs = read_fasta(io.StringIO(FASTA))
        want = pairwise_matrix(seqs, PpnParams())
        row = out.splitlines()[1].split("\t")
        assert float(row[2]) == want["alpha", "beta"]

    def test_metric_flag(self, fasta_path, capsys):
        code_e, out_e, _ = run(["matrix", "--input", fasta_path], capsys)
        code_m, out_m, _ = run(
            ["matrix", "--input", fasta_path, "--metric", "manhattan"], capsys
        )
        assert code_e == code_m == 0
        assert out_e != out_m


class TestTree:
    def test_fasta_and_matrix_routes_agree_byte_for_byte(
        self, fasta_path, tmp_path, capsys
    ):
        mat = tmp_path / "m.phy"
        t1 = tmp_path / "t1.nwk"
        t2 = tmp_path / "t2.nwk"
        assert main(["matrix", "--input", fasta_path, "--output", str(mat)]) == 0
        assert main(["tree", "--input", fasta_path, "--output", str(t1)]) == 0
        assert main(["tree", "--input", str(mat), "--output", str(t2)]) == 0
        capsys.readouterr()
        assert t1.read_bytes() == t2.read_bytes()

    def test_newick_ends_with_semicolon_newline(self, fasta_path, capsys):
        code, out, _ = run(["tree", "--input", fasta_path], capsys)
        assert code == 0
        assert out.endswith(";\n")
        assert out.count("alpha") == 1

    @pytest.mark.parametrize(
        "flag, value, named",
        [("--l", "0", "radius"), ("--l", "11", "radius"), ("--t", "0", "stride"),
         ("--t", "5", "stride")],
    )
    def test_bad_params_exit_2_on_both_routes(
        self, fasta_path, tmp_path, capsys, flag, value, named
    ):
        mat = tmp_path / "m.phy"
        assert main(["matrix", "--input", fasta_path, "--output", str(mat)]) == 0
        for source in (fasta_path, str(mat)):
            code, out, err = run(["tree", "--input", source, flag, value], capsys)
            assert (code, out) == (2, "")
            assert named in err

    @pytest.mark.parametrize(
        "flags",
        [["--l", "7"], ["--t", "3"], ["--metric", "manhattan"], ["--allow-gaps"],
         ["--normalize"], ["--policy", "strict"]],
    )
    def test_fasta_only_flags_are_refused_on_a_matrix(
        self, fasta_path, tmp_path, capsys, flags
    ):
        mat = tmp_path / "m.phy"
        assert main(["matrix", "--input", fasta_path, "--output", str(mat)]) == 0
        code, out, err = run(["tree", "--input", str(mat)] + flags, capsys)
        assert (code, out) == (2, "")
        assert "only to FASTA input" in err and flags[0] in err

    def test_fasta_route_accepts_every_flag(self, fasta_path, capsys):
        flags = ["--l", "7", "--t", "3", "--metric", "manhattan", "--allow-gaps",
                 "--normalize", "--policy", "strict"]
        code, out, _ = run(["tree", "--input", fasta_path] + flags, capsys)
        assert code == 0
        assert out.endswith(";\n")

    def test_leading_blank_lines_keep_the_fasta_route(self, tmp_path, capsys):
        padded = tmp_path / "padded.fa"
        padded.write_text("\n" * 300 + FASTA)
        plain = tmp_path / "plain.fa"
        plain.write_text(FASTA)
        code, out, _ = run(["tree", "--input", str(padded)], capsys)
        assert code == 0
        assert out == run(["tree", "--input", str(plain)], capsys)[1]

    def test_undecodable_matrix_exits_2(self, tmp_path, capsys):
        mat = tmp_path / "m.phy"
        mat.write_bytes(b"\xff\xfe2")
        code, _, err = run(["tree", "--input", str(mat)], capsys)
        assert code == 2
        assert "not valid" in err


class TestTreedist:
    def test_reports_both_distances(self, tmp_path, capsys):
        a = tmp_path / "a.nwk"
        b = tmp_path / "b.nwk"
        a.write_text("((A,B),(C,D));\n")
        b.write_text("((A,C),(B,D));\n")
        code, out, _ = run(
            ["treedist", "--input", str(a), "--input", str(b)], capsys
        )
        assert code == 0
        assert out == "nRF\t1.0000\nnQD\t1.0000\n"

    def test_identical_trees_score_zero(self, tmp_path, capsys):
        a = tmp_path / "a.nwk"
        a.write_text("((A,B),(C,D));\n")
        code, out, _ = run(
            ["treedist", "--input", str(a), "--input", str(a)], capsys
        )
        assert code == 0
        assert out == "nRF\t0.0000\nnQD\t0.0000\n"

    def test_single_input_is_a_usage_error(self, tmp_path, capsys):
        a = tmp_path / "a.nwk"
        a.write_text("((A,B),(C,D));\n")
        code, _, err = run(["treedist", "--input", str(a)], capsys)
        assert code == 2
        assert "two" in err

    def test_malformed_newick_exits_3(self, tmp_path, capsys):
        a = tmp_path / "a.nwk"
        a.write_text("((A,B),(C,D)")
        code, _, err = run(
            ["treedist", "--input", str(a), "--input", str(a)], capsys
        )
        assert code == 3
        assert "offset" in err

    def test_too_many_leaves_for_exact_nqd_exits_2(self, tmp_path, capsys):
        a = tmp_path / "star.nwk"
        k = _NQD_MAX_LEAVES + 1
        a.write_text("(" + ",".join(f"s{i}" for i in range(k)) + ");\n")
        code, _, err = run(
            ["treedist", "--input", str(a), "--input", str(a)], capsys
        )
        assert code == 2
        assert f"at most {_NQD_MAX_LEAVES} leaves, got {k}" in err

    def test_undecodable_newick_exits_3_at_the_bad_byte(self, tmp_path, capsys):
        a = tmp_path / "a.nwk"
        a.write_bytes(b"((A,B),(C\xff,D));")
        code, _, err = run(
            ["treedist", "--input", str(a), "--input", str(a)], capsys
        )
        assert code == 3
        assert "UTF-8 (at offset 9)" in err


class TestSimulate:
    def test_deterministic_fasta(self, tmp_path, capsys):
        a = tmp_path / "a.fa"
        b = tmp_path / "b.fa"
        args = ["simulate", "--species", "3", "--length", "120", "--seed", "9"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith(">sim_001\n")

    def test_bad_species_count_exits_2(self, capsys):
        code, _, err = run(
            ["simulate", "--species", "0", "--length", "10"], capsys
        )
        assert code == 2
        assert "species" in err


class TestBench:
    def test_table_shape(self, capsys):
        code, out, _ = run(
            ["bench", "--species", "1,2", "--length", "400", "--reps", "1"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split("\t") == [
            "species", "length", "reps", "mean_wall_s", "mean_vector_s",
            "peak_rss_kb",
        ]
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split("\t")
            assert float(fields[3]) > 0.0
            assert float(fields[4]) > 0.0
            assert int(fields[5]) > 0

    def test_bad_reps_exits_2(self, capsys):
        code, _, err = run(
            ["bench", "--species", "1", "--length", "10", "--reps", "0"], capsys
        )
        assert code == 2
        assert "reps" in err

    def test_bad_size_list_exits_2(self, capsys):
        code, _, err = run(
            ["bench", "--species", "1;2", "--length", "10"], capsys
        )
        assert code == 2
        assert "--species" in err


class TestExitCodes:
    def test_missing_input_file_exits_1(self, capsys):
        code, _, err = run(["vector", "--input", "/no/such/file.fa"], capsys)
        assert code == 1
        assert "file" in err.lower()

    def test_unwritable_output_exits_1(self, fasta_path, capsys):
        code, _, err = run(
            ["vector", "--input", fasta_path, "--output", "/no/such/dir/out.tsv"],
            capsys,
        )
        assert code == 1

    def test_invalid_radius_exits_2(self, fasta_path, capsys):
        for bad in ("0", "11"):
            code, _, err = run(
                ["vector", "--input", fasta_path, "--l", bad], capsys
            )
            assert code == 2
            assert "radius" in err

    def test_stride_beyond_radius_needs_allow_gaps(self, fasta_path, capsys):
        code, _, err = run(
            ["vector", "--input", fasta_path, "--l", "2", "--t", "3"], capsys
        )
        assert code == 2
        with pytest.warns(UserWarning, match="stride"):
            code, out, _ = run(
                ["vector", "--input", fasta_path, "--l", "2", "--t", "3",
                 "--allow-gaps"],
                capsys,
            )
        assert code == 0
        assert out.splitlines()[0].split("\t")[4] == "3"

    def test_malformed_fasta_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.fa"
        bad.write_text("ACGT\n>late\nACGT\n")
        code, _, err = run(["vector", "--input", str(bad)], capsys)
        assert code == 3

    def test_duplicate_ids_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "dup.fa"
        bad.write_text(">x\nACGT\n>x\nACGT\n")
        code, _, err = run(["matrix", "--input", str(bad)], capsys)
        assert code == 3
        assert "duplicate" in err

    def test_strict_policy_rejects_ambiguity_codes_with_3(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "n.fa"
        bad.write_text(">x\nACGNT\n>y\nACGT\n")
        code, _, err = run(
            ["vector", "--input", str(bad), "--policy", "strict"], capsys
        )
        assert code == 3

    def test_unknown_flag_is_a_usage_error(self, fasta_path):
        # argparse handles usage failures itself and also exits 2
        with pytest.raises(SystemExit) as exc:
            main(["vector", "--input", fasta_path, "--bogus"])
        assert exc.value.code == 2


class TestStdout:
    def test_dash_streams_to_stdout(self, fasta_path, capsys):
        code, out, _ = run(
            ["vector", "--input", fasta_path, "--output", "-"], capsys
        )
        assert code == 0
        assert out.count("\n") == 4
