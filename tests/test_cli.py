"""End-to-end tests for the command-line interface, run in-process."""

import argparse
import contextlib
import errno
import gc
import io
import os
import random
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ppn

from ppn import (
    PhyloTree,
    PpnParams,
    SimulationSpec,
    TreeNode,
    from_newick,
    nqd,
    nrf,
    pairwise_matrix,
    ppn_vector,
    read_fasta,
    simulate,
    to_newick,
    window_count,
    write_fasta,
)
from ppn import cli, core, phylo, seqio
from ppn.cli import main, run_bench
from ppn.core import Metric, _shifted_rows
from ppn.phylo import _NQD_MAX_LEAVES, write_phylip
from oracles import random_binary_tree

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

GAP_NOTICE = (
    "ppn vector: stride 3 > radius 2: successive windows no longer overlap and some "
    "nucleotides are never counted"
)


@pytest.fixture
def fasta_path(tmp_path):
    path = tmp_path / "in.fa"
    path.write_text(FASTA)
    return str(path)


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _no_temp_files(tmp_path):
    return list(tmp_path.rglob(".ppn-*")) == []


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

    def test_batches_count_their_pads(self, tmp_path, capsys, monkeypatch):
        """5 000 records of 1 nt at l = 10 take batches whose codes plus
        the ``l`` T codes joined before each record, and the ``l`` after
        the last, stay within ``_CHUNK + l``: counting the codes alone
        would make one batch of 55 010 codes."""
        path = tmp_path / "ones.fa"
        path.write_text("".join(f">r{i}\n{'ACGT'[i % 4]}\n" for i in range(5000)))
        calls = []
        batch = core._batch_vectors

        def counting(pieces, params):
            calls.append((len(pieces), sum(len(codes) + params.radius for codes in pieces)))
            return batch(pieces, params)

        monkeypatch.setattr(core, "_batch_vectors", counting)
        code, out, _ = run(["vector", "--input", str(path), "--l", "10"], capsys)
        assert code == 0 and len(out.splitlines()) == 5000
        assert sum(records for records, _ in calls) == 5000
        assert max(padded for _, padded in calls) <= core._CHUNK
        assert len(calls) == -(-5000 * 11 // core._CHUNK)


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

    @pytest.mark.parametrize("k", [2, 7, 8, 9, 17])
    @pytest.mark.parametrize("radius, dtype", [(4, np.int64), (10, object)])
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_streamed_rows_give_the_bytes_of_write_phylip(
        self, tmp_path, k, radius, dtype, metric, normalize
    ):
        """``ppn matrix`` hands the distance rows to the PHYLIP writer as
        they are made, and ``write_phylip`` hands it a matrix's rows; the
        two give the same bytes.  The writer gets k - 1 rows, and at k = 8
        and 9 they end one block of ``_PHYLIP_ROWS`` or spill one row into
        the next.  At l = 10 a poly-T and a poly-A record take the exact
        sums past int64, into Python ints."""
        rng = np.random.default_rng(k)
        bases = ["".join(rng.choice(list("ACGT"), 150)) for _ in range(k)]
        if radius == 10:
            bases[:2] = ["T" * 300, "A" * 300]
        path, dest = tmp_path / "in.fa", tmp_path / "m.phy"
        path.write_text("".join(f">r{i}\n{b}\n" for i, b in enumerate(bases)))
        params = PpnParams(radius=radius, metric=metric)
        seqs = read_fasta(path)
        vectors = [ppn_vector(s, params) for s in seqs]
        assert _shifted_rows(vectors, Metric(metric)).dtype == dtype
        want = io.StringIO()
        write_phylip(pairwise_matrix(seqs, params, normalized=normalize), want)
        argv = ["matrix", "--input", str(path), "--l", str(radius), "--metric", metric]
        assert main([*argv, *["--normalize"] * normalize, "--output", str(dest)]) == 0
        assert dest.read_bytes() == want.getvalue().encode()

    @pytest.mark.parametrize("block", [64, 4096, seqio._BLOCK])
    def test_short_records_are_batched_not_vectored_one_by_one(
        self, tmp_path, capsys, monkeypatch, block
    ):
        """300 records of 200 nt take a few batch calls, each of at most
        ``_CHUNK`` codes, not one call per record, at any read block: a
        record that a block edge cuts still comes whole to the batch."""
        path = tmp_path / "short.fa"
        write_fasta(simulate(SimulationSpec(300, 200, 3)), str(path))
        calls = []
        batch = core._batch_vectors

        def counting(pieces, params):
            calls.append(sum(len(codes) for codes in pieces))
            return batch(pieces, params)

        monkeypatch.setattr(core, "_batch_vectors", counting)
        monkeypatch.setattr(seqio, "_BLOCK", block)
        assert run(["matrix", "--input", str(path)], capsys)[0] == 0
        assert sum(calls) == 300 * 200
        assert len(calls) <= -(-300 * 200 // core._CHUNK) + 1
        assert max(calls) <= core._CHUNK


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

    def test_negative_zeros_in_a_matrix_print_as_zero(self, tmp_path, capsys):
        mat = tmp_path / "m.phy"
        mat.write_text("3\na 0.0 -0.0 2.0\nb -0.0 0.0 2.0\nc 2.0 2.0 0.0\n")
        code, out, _ = run(["tree", "--input", str(mat)], capsys)
        assert (code, out) == (0, "((a:0.0,b:0.0):1.0,c:1.0);\n")

    @pytest.mark.parametrize("field", ["1_5", "\u0661"])
    def test_misreadable_number_exits_2(self, tmp_path, capsys, field):
        mat = tmp_path / "m.phy"
        mat.write_text(f"2\na 0 1\nb {field} 0\n", encoding="utf-8")
        code, out, err = run(["tree", "--input", str(mat)], capsys)
        assert (code, out) == (2, "")
        assert "row 2" in err and repr(field) in err

    @pytest.mark.parametrize("text", ["", "\n \t\r\n\n"], ids=["empty", "blank"])
    def test_empty_matrix_file_exits_2(self, tmp_path, capsys, text):
        mat = tmp_path / "m.phy"
        mat.write_text(text)
        code, out, err = run(["tree", "--input", str(mat)], capsys)
        assert (code, out, err) == (2, "", "ppn tree: empty distance matrix file\n")

    def test_undecodable_matrix_exits_2(self, tmp_path, capsys):
        mat = tmp_path / "m.phy"
        mat.write_bytes(b"\xff\xfe2")
        code, _, err = run(["tree", "--input", str(mat)], capsys)
        assert code == 2
        assert "not valid" in err

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    @pytest.mark.parametrize("form", ["fasta", "phylip"])
    def test_stdin_as_a_pipe_gives_the_bytes_of_the_file(self, fasta_path, tmp_path, form):
        # the format is sniffed before the route reads the input, and a
        # pipe reads once: both read a copy, which is gone afterwards
        path = fasta_path
        if form == "phylip":
            path = str(tmp_path / "m.phy")
            assert main(["matrix", "--input", fasta_path, "--output", path]) == 0
        (tmp_path / "sys-tmp").mkdir()
        env = dict(os.environ, TMPDIR=str(tmp_path / "sys-tmp"),
                   PYTHONPATH=str(Path(ppn.__file__).resolve().parents[1]))

        def tree(source, stdin):
            return subprocess.run([sys.executable, "-m", "ppn.cli", "tree", "-i", source],
                                  env=env, input=stdin, capture_output=True)

        want = tree(path, b"")
        assert (want.returncode, want.stderr) == (0, b"")
        got = tree("/dev/stdin", Path(path).read_bytes())
        assert (got.returncode, got.stdout, got.stderr) == (0, want.stdout, b"")
        assert not os.listdir(tmp_path / "sys-tmp")

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    def test_bad_window_flags_exit_2_before_a_pipe_is_read(self):
        # the pipe stays open: a run that read it first would wait for its end
        env = dict(os.environ, PYTHONPATH=str(Path(ppn.__file__).resolve().parents[1]))
        argv = [sys.executable, "-m", "ppn.cli", "tree", "--input", "/dev/stdin", "--l", "99"]
        with subprocess.Popen(argv, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            try:
                with contextlib.suppress(BrokenPipeError):
                    proc.stdin.write(FASTA.encode())
                    proc.stdin.flush()
                code = proc.wait(timeout=30)
            finally:
                proc.kill()
            proc.stdin.close()
            assert (code, proc.stdout.read()) == (2, b"")
            assert b"radius must be <=" in proc.stderr.read()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    @pytest.mark.parametrize("text, code", [
        (FASTA, 0), ("3\na 0 1 2\nb 1 0 3\nc 2 3 0\n", 0), ("3\na 0 1 2\n", 2),
    ], ids=["fasta", "phylip", "too-few-rows"])
    def test_a_pipe_is_read_once_into_a_copy_that_is_removed(
        self, tmp_path, monkeypatch, capsys, text, code
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "sys-tmp"))
        (tmp_path / "sys-tmp").mkdir()
        plain = tmp_path / "plain"
        plain.write_text(text)
        want = run(["tree", "--input", str(plain)], capsys)
        read, write = os.pipe()
        with os.fdopen(write, "w") as fh:  # fits in the pipe's buffer
            fh.write(text)
        try:
            got = run(["tree", "--input", f"/dev/fd/{read}"], capsys)
        finally:
            os.close(read)
        assert got == want and got[0] == code
        assert not os.listdir(tmp_path / "sys-tmp")

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 2.98 GiB", "ppn tree: out of memory: Unable to allocate 2.98 GiB"),
        ("", "ppn tree: out of memory"),
    ])
    def test_out_of_memory_is_one_line_and_writes_nothing(
        self, fasta_path, tmp_path, monkeypatch, capsys, message, line
    ):
        def fail(rows, k):
            raise MemoryError(message) if message else MemoryError

        monkeypatch.setattr(phylo, "_mirrored", fail)
        dest = tmp_path / "t.nwk"
        for output in ("-", str(dest)):
            code, out, err = run(["tree", "--input", fasta_path, "--output", output], capsys)
            assert (code, out, err) == (1, "", line + "\n")
        assert os.listdir(tmp_path) == ["in.fa"]


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

    # Newick texts for the error corpus; "big" trees hold one leaf over the
    # nQD cap, s0 to s7131
    BIG = [f"s{i}" for i in range(_NQD_MAX_LEAVES + 1)]
    TEXTS = {
        "open": b"((A,B),(C,D)",
        "comment": b"((A,B)[x],(C,D));",
        "empty": b"",
        "latin1": b"((A,B),(C\xff,D));",
        "dup": b"((A,A),(C,D));",
        "dup-late": b"((B,A),(A,B),C);",
        "abcd": b"((A,B),(C,D));",
        "abce": b"((A,B),(C,E));",
        "abcde": b"((A,B),(C,(D,E)));",
        "abc": b"(A,B,C);",
        "abd": b"(A,B,D);",
        "big": ("(" + ",".join(BIG) + ");").encode(),
        "big-other": ("(" + ",".join(BIG[:-1] + ["zz"]) + ");").encode(),
        "big-dup": ("(" + ",".join(BIG[:-1] + ["s0"]) + ");").encode(),
    }

    # each check in its order: parse errors, the first file's first, then
    # leaf-set mismatch, too few leaves, and last the nQD cap
    @pytest.mark.parametrize("first, second, code, message", [
        ("open", "comment", 3, "expected ',' or ')' (at offset 12)"),
        ("comment", "open", 3, "Newick comments ('[...]') are not supported (at offset 6)"),
        ("abcd", "empty", 3, "expected a leaf label, found 'end of input' (at offset 0)"),
        ("latin1", "open", 3, "{latin1} is not valid UTF-8 (at offset 9)"),
        ("abcd", "latin1", 3, "{latin1} is not valid UTF-8 (at offset 9)"),
        ("dup", "open", 3, "duplicate leaf label 'A'"),
        ("abcd", "dup-late", 3, "duplicate leaf label 'B'"),
        ("big", "big-dup", 3, "duplicate leaf label 's0'"),
        ("big", "open", 3, "expected ',' or ')' (at offset 12)"),
        ("abcd", "abce", 2,
         "leaf sets differ (e.g. only in first: ['D'], only in second: ['E'])"),
        ("abcde", "abcd", 2, "leaf sets differ (e.g. only in first: ['E'], only in second: [])"),
        ("abc", "abd", 2, "leaf sets differ (e.g. only in first: ['C'], only in second: ['D'])"),
        ("abc", "big", 2, "leaf sets differ (e.g. only in first: ['A', 'B', 'C'], "
         "only in second: ['s0', 's1', 's10'])"),
        ("big", "big-other", 2,
         "leaf sets differ (e.g. only in first: ['s7131'], only in second: ['zz'])"),
        ("abc", "abc", 2, "tree comparison needs >= 4 leaves, got 3"),
        ("big", "big", 2, "nQD is computed for at most 7131 leaves, got 7132"),
    ])
    def test_errors_come_in_order(self, tmp_path, capsys, first, second, code, message):
        paths = []
        for name in (first, second):
            paths.append(tmp_path / f"{name}.nwk")
            paths[-1].write_bytes(self.TEXTS[name])
        argv = ["treedist", "--input", str(paths[0]), "--input", str(paths[1])]
        message = message.format(latin1=tmp_path / "latin1.nwk")
        assert run(argv, capsys) == (code, "", f"ppn treedist: {message}\n")

    def test_holds_no_tree_or_output_buffer_while_nqd_counts(
        self, tmp_path, capsys, monkeypatch
    ):
        """When nQD's first chunk is scored, no tree or node parsed by the
        run is left: the trees were dropped once reduced to tables; and the
        output writer holds only its temp file's descriptor, with no file
        object or buffer over it, as nothing was written."""
        rng = random.Random(7)
        labels = [f"leaf{i}" for i in range(48)]
        paths = []
        for name in "ab":
            paths.append(tmp_path / f"{name}.nwk")
            paths[-1].write_text(to_newick(random_binary_tree(rng, labels)))
        kinds = (PhyloTree, TreeNode, io.FileIO, io.BufferedWriter, io.TextIOWrapper)
        before = [o for o in gc.get_objects() if isinstance(o, kinds)]
        known = {id(o) for o in before}  # held in ``before``, so no id is reused
        left = []
        separated = phylo._separated

        def spy(*args):
            if not left:
                gc.collect()
                left.append([
                    o for o in gc.get_objects()
                    if isinstance(o, kinds) and id(o) not in known
                ])
            return separated(*args)

        monkeypatch.setattr(phylo, "_separated", spy)
        argv = ["treedist", "--input", str(paths[0]), "--input", str(paths[1])]
        code, out, _ = run(argv, capsys)
        trees = [from_newick(p.read_text()) for p in paths]
        assert (code, out) == (0, f"nRF\t{nrf(*trees):.4f}\nnQD\t{nqd(*trees):.4f}\n")
        assert left == [[]]


class TestRepeatedMain:
    """``main`` builds its parser once per process; no call sees the
    arguments of an earlier one."""

    def test_treedist_inputs_are_not_carried_over(self, tmp_path, capsys):
        a = tmp_path / "a.nwk"
        a.write_text("((A,B),(C,D));\n")
        code, out, _ = run(["treedist", "--input", str(a), "--input", str(a)], capsys)
        assert (code, out) == (0, "nRF\t0.0000\nnQD\t0.0000\n")
        code, out, err = run(["treedist", "--input", str(a)], capsys)
        assert (code, out) == (2, "")
        assert "got 1" in err

    def test_vector_flags_are_not_carried_over(self, fasta_path, capsys):
        code, out, _ = run(["vector", "--input", fasta_path, "--l", "3"], capsys)
        assert code == 0 and out.splitlines()[0].split("\t")[3] == "3"
        code, out, _ = run(["vector", "--input", fasta_path], capsys)
        assert code == 0 and out.splitlines()[0].split("\t")[3] == "4"


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

    @pytest.mark.parametrize("caller", ["pairwise_matrix", "run_bench"])
    def test_vectors_are_computed_once_per_run(self, caller, monkeypatch):
        """300 sequences of 200 nt take a few batch calls per run, each of
        at most ``_CHUNK`` codes, in the library as in the CLI."""
        calls = []
        batch = core._batch_vectors

        def counting(pieces, params):
            calls.append(sum(len(codes) for codes in pieces))
            return batch(pieces, params)

        monkeypatch.setattr(core, "_batch_vectors", counting)
        if caller == "pairwise_matrix":
            pairwise_matrix(simulate(SimulationSpec(300, 200, 1)), PpnParams())
            runs = 1
        else:
            run_bench([(300, 200)], reps=2, seed=1, params=PpnParams())
            runs = 3  # one untimed warm-up run and two timed runs
        assert sum(calls) == runs * 300 * 200
        assert len(calls) <= runs * (-(-300 * 200 // core._CHUNK) + 1)
        assert max(calls) <= core._CHUNK

    def test_bad_reps_exits_2(self, capsys):
        code, _, err = run(
            ["bench", "--species", "1", "--length", "10", "--reps", "0"], capsys
        )
        assert code == 2
        assert "reps" in err

    def test_size_list_with_no_value_exits_2(self, capsys):
        code, out, err = run(["bench", "--species", ",", "--length", "10"], capsys)
        assert (code, out, err) == (2, "", "ppn bench: --species needs at least one value\n")

    def test_bad_size_list_exits_2(self, capsys):
        code, _, err = run(
            ["bench", "--species", "1;2", "--length", "10"], capsys
        )
        assert code == 2
        assert "--species" in err


class TestIntegerFlags:
    """Every integer flag reads ASCII decimals only, as the PHYLIP count
    line does: ``int()`` alone would also read these spellings."""

    SPELLINGS = ["\u0662", "1_0", "\uff11", "\u0661\u0660"]
    # each command with its other required flags, and its integer flags
    FLAGS = {
        "vector": (["--input", "x"], ["--l", "--t"]),
        "matrix": (["--input", "x"], ["--l", "--t"]),
        "tree": (["--input", "x"], ["--l", "--t"]),
        "simulate": (["--species", "1", "--length", "1"], ["--species", "--length", "--seed"]),
        "bench": ([], ["--reps", "--seed", "--l", "--t"]),
    }
    CASES = [
        (command, flag) for command, (_, flags) in FLAGS.items() for flag in flags
    ]

    @pytest.mark.parametrize("spelling", SPELLINGS)
    @pytest.mark.parametrize("command, flag", CASES)
    def test_flag_refuses_other_spellings(self, command, flag, spelling, capsys):
        required, _ = self.FLAGS[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *required, flag, spelling])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.endswith(
            f"ppn {command}: error: argument {flag}: "
            f"expected an ASCII decimal integer, got {spelling!r}\n"
        )

    @pytest.mark.parametrize("flag", ["--species", "--length"])
    @pytest.mark.parametrize("text", ["\u0661,2", "1_00", "1,\uff12", "2, \u0663"])
    def test_bench_size_lists_refuse_other_spellings(self, flag, text, capsys):
        sizes = {"--species": "1", "--length": "10", flag: text}
        code, out, err = run(["bench", "--reps", "1", *sum(sizes.items(), ())], capsys)
        assert (code, out) == (2, "")
        assert err == f"ppn bench: {flag} expects comma-separated integers, got {text!r}\n"

    def test_ascii_spellings_read_as_int_does(self, capsys):
        plain = run(["simulate", "--species", "2", "--length", "30", "--seed", "7"], capsys)
        spelled = run(["simulate", "--species", "02", "--length", "+30", "--seed", " 7 "], capsys)
        assert plain == spelled and plain[0] == 0 and plain[1].startswith(">sim_001\n")


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

    @pytest.mark.parametrize("records", [4, 60], ids=["at-the-end", "as-it-runs"])
    def test_full_disk_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch, records):
        """A temp file that takes no byte fails the run when its text is
        flushed: at the end for 4 rows, before the end for 60."""
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        fasta = tmp_path / "in.fa"
        fasta.write_text("".join(f">r{i}\n{'ACGT' * 150}\n" for i in range(records)))
        made = tempfile.mkstemp

        def full(**kwargs):
            fd, name = made(**kwargs)
            os.close(fd)
            return os.open("/dev/full", os.O_RDWR), name

        monkeypatch.setattr(tempfile, "mkstemp", full)
        code, out, err = run(["vector", "--input", str(fasta)], capsys)
        gc.collect()
        assert (code, out) == (1, "")
        assert err + capsys.readouterr().err == (
            f"ppn vector: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        )

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
        assert "--allow-gaps" in err
        code, out, err = run(
            ["vector", "--input", fasta_path, "--l", "2", "--t", "3", "--allow-gaps"],
            capsys,
        )
        assert code == 0
        assert err == GAP_NOTICE + "\n"
        assert "Warning" not in err and ".py" not in err
        assert out.splitlines()[0].split("\t")[4] == "3"

    def test_notice_is_one_line_when_warnings_are_errors(self, fasta_path, capsys):
        argv = ["vector", "--input", fasta_path, "--l", "2", "--t", "3", "--allow-gaps"]
        want = run(argv, capsys)[1]
        env = dict(os.environ, PYTHONWARNINGS="error",
                   PYTHONPATH=str(Path(ppn.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-m", "ppn.cli", *argv], env=env,
                              capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, GAP_NOTICE + "\n")
        assert done.stdout == want

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

    def test_repeated_phylip_label_exits_3_and_is_named(self, tmp_path, capsys):
        bad = tmp_path / "dup.phy"
        bad.write_text("3\nx 0 1 2\nsame 1 0 3\nsame 2 3 0\n")
        code, _, err = run(["tree", "--input", str(bad)], capsys)
        assert code == 3
        assert "'same'" in err

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


class TestFailedRunWritesNothing:
    """A run that fails late writes no byte of what it had already
    streamed, and leaves no temp file behind."""

    BAD_FASTA = ">alpha\nACGTACGTACGTACGTACGT\n>\nTTGCAAGCTTGCAAGCTTGC\n"
    # 60 records of 600 nt, each too long to be batched, so each record's
    # row is written as it ends: more than a buffer's worth before the fault
    LONG_BAD_FASTA = "".join(f">r{i}\n{'ACGT' * 150}\n" for i in range(60)) + ">\nACGT\n"
    # command: (input files, exit code, message, output written before the
    # fault); ppn matrix reads every vector before its first row
    CASES = {
        "vector": ((("bad.fa", LONG_BAD_FASTA),), 3, "line 121: empty FASTA header", True),
        "matrix": ((("bad.fa", BAD_FASTA),), 3, "line 3: empty FASTA header", False),
        "tree": (
            (("bad.phy", "3\na\t0.0\t1.0\t2.0\nb\t1.0\t0.0\t3.0\nc\t2.0\t3.0\n"),),
            2,
            "matrix row 3: expected a label and 3 values, found 3 fields",
            False,
        ),
        "treedist": (
            (("good.nwk", "((A,B),(C,D));\n"), ("bad.nwk", "((A,B),(C,D);\n")),
            3,
            "expected ',' or ')', found ';' (at offset 12)",
            False,
        ),
    }

    @pytest.fixture
    def argv(self, tmp_path, monkeypatch, request):
        """The failing command line; the system temp directory is moved
        under ``tmp_path`` so that every temp file lands where it is looked for."""
        command = request.param
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "sys-tmp"))
        (tmp_path / "sys-tmp").mkdir()
        argv = [command]
        for name, text in self.CASES[command][0]:
            (tmp_path / name).write_text(text)
            argv += ["--input", str(tmp_path / name)]
        return argv

    @pytest.fixture
    def written(self, monkeypatch):
        """The characters the command hands its writer, counted as it runs."""
        count = [0]
        write = cli._Output.write

        def counted(out, text):
            count[0] += len(text)
            write(out, text)

        monkeypatch.setattr(cli._Output, "write", counted)
        return count

    def _check_written(self, command, written):
        if self.CASES[command][3]:
            assert written[0] > io.DEFAULT_BUFFER_SIZE

    @pytest.mark.parametrize("argv", CASES, indirect=True)
    def test_stdout_stays_empty(self, argv, tmp_path, capsys, written):
        code, out, err = run([*argv, "--output", "-"], capsys)
        _, want, message, _ = self.CASES[argv[0]]
        assert (code, out, err) == (want, "", f"ppn {argv[0]}: {message}\n")
        self._check_written(argv[0], written)
        assert _no_temp_files(tmp_path)
        assert list((tmp_path / "sys-tmp").iterdir()) == []

    @pytest.mark.parametrize("argv", CASES, indirect=True)
    def test_existing_file_keeps_its_bytes_and_mode(self, argv, tmp_path, capsys, written):
        dest = tmp_path / "out.txt"
        dest.write_bytes(b"old\n")
        dest.chmod(0o640)
        code, out, err = run([*argv, "--output", str(dest)], capsys)
        _, want, message, _ = self.CASES[argv[0]]
        assert (code, out, err) == (want, "", f"ppn {argv[0]}: {message}\n")
        self._check_written(argv[0], written)
        assert dest.read_bytes() == b"old\n"
        assert stat.S_IMODE(dest.stat().st_mode) == 0o640
        assert _no_temp_files(tmp_path)


class TestStdout:
    def test_dash_streams_to_stdout(self, fasta_path, capsys):
        code, out, _ = run(
            ["vector", "--input", fasta_path, "--output", "-"], capsys
        )
        assert code == 0
        assert out.count("\n") == 4


def _write_calls():
    """The write system calls this process has made, or None where the
    kernel does not report them."""
    try:
        with open("/proc/self/io") as fh:
            fields = dict(line.split(":") for line in fh.read().splitlines())
    except OSError:
        return None
    return int(fields["syscw"])


class TestBufferedWrites:
    """5 000 short rows reach stdout and a file as the same bytes, those of
    ``read_fasta`` + ``ppn_vector``, in few write system calls."""

    def test_5000_records_give_the_library_rows_in_few_writes(self, tmp_path, capsys):
        if _write_calls() is None:
            pytest.skip("the kernel reports no write system call count")
        letters = np.frombuffer(b"ACGT", dtype=np.uint8)
        rows = letters[np.random.default_rng(5).integers(0, 4, (5000, 50))]
        fasta = tmp_path / "many.fa"
        fasta.write_bytes(b"".join(b">r%d\n%s\n" % (i, r.tobytes()) for i, r in enumerate(rows)))
        params = PpnParams()
        want = "".join(
            "\t".join(map(str, [r.id, r.length, v.windows, 4, 1, *v.components])) + "\n"
            for r in read_fasta(fasta)
            for v in [ppn_vector(r, params)]
        )
        dest = tmp_path / "out.tsv"
        for target in ("-", str(dest)):
            before = _write_calls()
            assert main(["vector", "--input", str(fasta), "--output", target]) == 0
            writes = _write_calls() - before
            # about two calls per buffer of output, whichever the destination
            assert writes <= 2 * len(want) // io.DEFAULT_BUFFER_SIZE + 4, writes
        assert capsys.readouterr().out == dest.read_text(encoding="utf-8") == want


class TestOutputFiles:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_new_file_gets_the_mode_open_gives(self, fasta_path, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "by_open", "w"):
                pass
            for name in ("m.phy", "t.nwk"):
                command = "matrix" if name == "m.phy" else "tree"
                assert main([command, "--input", fasta_path, "--output",
                             str(tmp_path / name)]) == 0
        finally:
            os.umask(old)
        want = stat.S_IMODE((tmp_path / "by_open").stat().st_mode)
        assert want == 0o666 & ~umask
        for name in ("m.phy", "t.nwk"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == want

    def test_replaced_file_keeps_its_mode(self, fasta_path, tmp_path):
        dest = tmp_path / "t.nwk"
        dest.write_text("old\n")
        dest.chmod(0o640)
        assert main(["tree", "--input", fasta_path, "--output", str(dest)]) == 0
        assert stat.S_IMODE(dest.stat().st_mode) == 0o640
        assert dest.read_text().endswith(";\n")

    # about 190 KB of vector rows: more than a pipe holds, so a FIFO's
    # reader must drain it while the copy runs
    @pytest.fixture
    def many_path(self, tmp_path):
        path = tmp_path / "many.fa"
        write_fasta(simulate(SimulationSpec(species_count=1000, length=50, seed=2)), path)
        return str(path)

    @pytest.fixture
    def bad_path(self, tmp_path):
        path = tmp_path / "bad.fa"
        path.write_text(">a\nACGT\n>\nACGT\n")
        return str(path)

    @staticmethod
    def _file_route(argv, tmp_path):
        """The bytes the command writes to a new regular file."""
        assert main([*argv, "--output", str(tmp_path / "file-route.out")]) == 0
        return (tmp_path / "file-route.out").read_bytes()

    def test_symlink_is_written_through_and_stays_a_link(self, many_path, tmp_path):
        argv = ["vector", "--input", many_path]
        (tmp_path / "sub").mkdir()
        target = tmp_path / "sub" / "target.tsv"
        target.write_text("old\n")
        target.chmod(0o640)
        link = tmp_path / "link.tsv"
        link.symlink_to(os.path.join("sub", "target.tsv"))
        assert main([*argv, "--output", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == os.path.join("sub", "target.tsv")
        assert target.read_bytes() == self._file_route(argv, tmp_path)
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert _no_temp_files(tmp_path)

    def test_failed_run_through_a_symlink_writes_nothing(self, bad_path, tmp_path, capsys):
        target = tmp_path / "target.tsv"
        target.write_text("old\n")
        target.chmod(0o640)
        link = tmp_path / "link.tsv"
        link.symlink_to(target)
        code, out, err = run(["vector", "--input", bad_path, "--output", str(link)], capsys)
        assert (code, out, err) == (3, "", "ppn vector: line 3: empty FASTA header\n")
        assert link.is_symlink() and target.read_text() == "old\n"
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert _no_temp_files(tmp_path)

    def test_fifo_is_copied_to_and_stays_a_fifo(self, many_path, tmp_path):
        if not hasattr(os, "mkfifo"):
            pytest.skip("os.mkfifo is not available")
        argv = ["vector", "--input", many_path]
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        got = []
        # a daemon, so that a run which never opens the FIFO leaves no
        # thread that the interpreter waits for at exit
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main([*argv, "--output", str(fifo)]) == 0
        reader.join(30)
        assert not reader.is_alive()
        assert got == [self._file_route(argv, tmp_path)]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert _no_temp_files(tmp_path)

    def test_failed_run_never_opens_a_fifo(self, bad_path, tmp_path, capsys):
        if not hasattr(os, "mkfifo"):
            pytest.skip("os.mkfifo is not available")
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        codes = []
        argv = ["vector", "--input", bad_path, "--output", str(fifo)]
        # with no reader, opening the FIFO to write would wait for one
        worker = threading.Thread(target=lambda: codes.append(main(argv)))
        worker.start()
        worker.join(30)
        opened = worker.is_alive()
        if opened:  # let the waiting open go
            fifo.read_bytes()
            worker.join()
        assert not opened and codes == [3]
        assert capsys.readouterr().err == "ppn vector: line 3: empty FASTA header\n"
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert _no_temp_files(tmp_path)

    def test_a_closed_stdout_or_stderr_holds_no_file(self, tmp_path, monkeypatch):
        dest = tmp_path / "out.tsv"
        dest.write_text("old\n")
        dest.chmod(0o640)

        def closed(fd):
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))

        monkeypatch.setattr(os, "fstat", closed)
        assert cli._replaced_mode(str(dest)) == 0o640

    def test_failed_fchmod_closes_and_removes_the_temp_file(
        self, fasta_path, tmp_path, capsys, monkeypatch
    ):
        made = []
        mkstemp = tempfile.mkstemp

        def spy(*args, **kwargs):
            made.append(mkstemp(*args, **kwargs))
            return made[-1]

        def refuse(fd, mode):
            raise PermissionError(errno.EPERM, "Operation not permitted")

        monkeypatch.setattr(tempfile, "mkstemp", spy)
        monkeypatch.setattr(os, "fchmod", refuse)
        dest = tmp_path / "out.tsv"
        code, out, err = run(["vector", "--input", fasta_path, "--output", str(dest)], capsys)
        assert (code, out, err) == (1, "", "ppn vector: [Errno 1] Operation not permitted\n")
        [(fd, tmp)] = made
        with pytest.raises(OSError) as exc:
            os.fstat(fd)
        assert exc.value.errno == errno.EBADF
        assert not os.path.exists(tmp) and not dest.exists()
        assert _no_temp_files(tmp_path)


@pytest.mark.skipif(
    not os.path.exists("/dev/stdout") or not os.path.exists("/dev/stderr"),
    reason="no /dev/stdout or /dev/stderr",
)
class TestOutputOnStdio:
    """An ``--output`` that names the file stdout or stderr has open is
    appended to, as the shell's ``>>`` would; ``ppn`` runs in a child
    process whose stdout and stderr are files opened as ``>>`` opens
    them (``"ab"``) or as ``>`` does (``"wb"``)."""

    @staticmethod
    def _ppn(argv, stdout, stderr, mode="ab"):
        env = dict(os.environ, PYTHONPATH=str(Path(ppn.__file__).resolve().parents[1]))
        with open(stdout, mode) as out, open(stderr, mode) as err:
            return subprocess.run(
                [sys.executable, "-m", "ppn.cli", *argv], env=env, stdout=out, stderr=err
            ).returncode

    def test_dev_stdout_appends_to_the_file_stdout_appends_to(self, fasta_path, tmp_path):
        argv = ["vector", "--input", fasta_path]
        log, err = tmp_path / "log.tsv", tmp_path / "err.txt"
        log.write_bytes(b"first line\n")
        assert self._ppn([*argv, "--output", "/dev/stdout"], log, err) == 0
        route = TestOutputFiles._file_route(argv, tmp_path)
        assert log.read_bytes() == b"first line\n" + route
        assert err.read_bytes() == b""
        assert _no_temp_files(tmp_path)

    def test_dev_stderr_keeps_the_old_line_and_the_notice(self, fasta_path, tmp_path):
        argv = ["vector", "--input", fasta_path, "--l", "2", "--t", "3", "--allow-gaps"]
        out, log = tmp_path / "out.txt", tmp_path / "err.log"
        log.write_bytes(b"old line\n")
        assert self._ppn([*argv, "--output", "/dev/stderr"], out, log) == 0
        route = TestOutputFiles._file_route(argv, tmp_path)
        assert log.read_bytes() == b"old line\n" + GAP_NOTICE.encode() + b"\n" + route
        assert out.read_bytes() == b""

    def test_the_file_stdout_appends_to_is_appended_to_by_its_own_name(
        self, fasta_path, tmp_path
    ):
        argv = ["vector", "--input", fasta_path]
        log, err = tmp_path / "log.tsv", tmp_path / "err.txt"
        log.write_bytes(b"first line\n")
        assert self._ppn([*argv, "--output", str(log)], log, err) == 0
        route = TestOutputFiles._file_route(argv, tmp_path)
        assert log.read_bytes() == b"first line\n" + route
        assert _no_temp_files(tmp_path)

    def test_failed_run_leaves_the_file_as_it_was(self, tmp_path):
        bad = tmp_path / "bad.fa"
        bad.write_text(">a\nACGT\n>\nACGT\n")
        log, err = tmp_path / "log.tsv", tmp_path / "err.txt"
        log.write_bytes(b"first line\n")
        argv = ["vector", "--input", str(bad), "--output", "/dev/stdout"]
        assert self._ppn(argv, log, err) == 3
        assert log.read_bytes() == b"first line\n"
        assert err.read_bytes() == b"ppn vector: line 3: empty FASTA header\n"
        assert _no_temp_files(tmp_path)

    def test_dev_stdout_after_truncation_gives_the_file_route(self, fasta_path, tmp_path):
        argv = ["matrix", "--input", fasta_path]
        dest, err = tmp_path / "out.phy", tmp_path / "err.txt"
        dest.write_bytes(b"old\n")
        assert self._ppn([*argv, "--output", "/dev/stdout"], dest, err, mode="wb") == 0
        assert dest.read_bytes() == TestOutputFiles._file_route(argv, tmp_path)
        assert err.read_bytes() == b""


class TestBadOutput:
    """An ``--output`` that cannot be written is refused before the
    subcommand runs, with one line that names the path as given."""

    @pytest.fixture(autouse=True)
    def not_run(self, monkeypatch):
        def fail(args, out):
            raise AssertionError("the subcommand ran")

        monkeypatch.setattr(cli, "cmd_vector", fail)
        # a parser built afresh on each call, so that it holds the stub
        monkeypatch.setattr(cli, "_parser", cli.build_parser)

    def _refused(self, fasta_path, output, capsys):
        code, out, err = run(["vector", "--input", fasta_path, "--output", output], capsys)
        assert (code, out) == (1, "")
        return err

    def test_directory(self, fasta_path, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "somedir").mkdir()
        err = self._refused(fasta_path, "somedir", capsys)
        assert err == "ppn vector: [Errno 21] Is a directory: 'somedir'\n"
        assert _no_temp_files(tmp_path) and list((tmp_path / "somedir").iterdir()) == []

    def test_empty_path(self, fasta_path, tmp_path, capsys, monkeypatch):
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        err = self._refused(fasta_path, "", capsys)
        assert err == "ppn vector: [Errno 2] No such file or directory: ''\n"
        assert _no_temp_files(tmp_path)

    def test_path_in_a_missing_directory(self, fasta_path, tmp_path, capsys):
        output = str(tmp_path / "missing" / "x.tsv")
        err = self._refused(fasta_path, output, capsys)
        assert err == f"ppn vector: [Errno 2] No such file or directory: {output!r}\n"
        assert _no_temp_files(tmp_path)


class TestDispatch:
    # the arguments each subcommand requires; the handler is a stub
    REQUIRED = {
        "vector": ["--input", "x"],
        "matrix": ["--input", "x"],
        "tree": ["--input", "x"],
        "treedist": ["--input", "x"],
        "simulate": ["--species", "1", "--length", "1"],
        "bench": [],
    }

    def test_each_subcommand_runs_its_own_handler(self, monkeypatch, capsys):
        [sub] = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        assert sorted(sub.choices) == sorted(self.REQUIRED)
        for name in sub.choices:
            monkeypatch.setattr(cli, f"cmd_{name}", lambda args, out, name=name: out.write(name))
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        for name, required in self.REQUIRED.items():
            code, out, _ = run([name, *required], capsys)
            assert (code, out) == (0, name)


class TestEncoding:
    """Every text ``ppn`` writes or reads is UTF-8, whatever the locale."""

    def test_c_locale_writes_and_reads_utf8(self, tmp_path):
        (tmp_path / "in.fa").write_bytes(
            b">s\xc3\xa9q1 x\nACGTACGTACGTACGT\n>b\nTTGCAAGCTTGCAAGC\n>c\nACGTTCGTACGTTCGT\n"
            b">d\nGGGCCCAAATTTGGGC\n"
        )
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("LC_", "LANG", "PYTHON"))}
        env.update(LC_ALL="C", PYTHONUTF8="0",
                   PYTHONPATH=str(Path(ppn.__file__).resolve().parents[1]))

        def ppn_run(*args):
            done = subprocess.run([sys.executable, "-m", "ppn.cli", *args], env=env,
                                  cwd=tmp_path, capture_output=True)
            assert (done.returncode, done.stderr) == (0, b"")
            return done.stdout

        utf8_id = "s\xe9q1".encode("utf-8")
        assert ppn_run("vector", "-i", "in.fa").startswith(utf8_id + b"\t")
        assert utf8_id + b"\t" in ppn_run("matrix", "-i", "in.fa")
        ppn_run("matrix", "-i", "in.fa", "-o", "m.phy")
        assert utf8_id + b"\t" in (tmp_path / "m.phy").read_bytes()
        ppn_run("tree", "-i", "in.fa", "-o", "direct.nwk")
        ppn_run("tree", "-i", "m.phy", "-o", "staged.nwk")
        newick = (tmp_path / "direct.nwk").read_bytes()
        assert utf8_id in newick and newick == (tmp_path / "staged.nwk").read_bytes()
        assert ppn_run("treedist", "-i", "direct.nwk", "-i", "staged.nwk") == (
            b"nRF\t0.0000\nnQD\t0.0000\n"
        )


    def test_header_that_is_not_utf8_exits_3_naming_its_line(self, tmp_path, capsys):
        # a Latin-1 'é'
        path = tmp_path / "latin1.fa"
        path.write_bytes(b">a\nAC\n>s\xe9q\nACGT\n")
        code, out, err = run(["vector", "--input", str(path)], capsys)
        assert (code, out) == (3, "")
        assert err == "ppn vector: line 3: FASTA header is not valid UTF-8\n"


class TestMemory:
    @staticmethod
    def _fasta(path, records, n, rng):
        """Write ``records`` random records of ``n`` nt in 60-column lines."""
        with open(path, "wb") as fh:
            for r in range(records):
                bases = np.frombuffer(b"ACGT", dtype=np.uint8)[rng.integers(0, 4, n)].tobytes()
                lines = [bases[i : i + 60] for i in range(0, n, 60)]
                fh.write(b">r%d\n" % r + b"\n".join(lines) + b"\n")

    @staticmethod
    def _peak(argv):
        """The traced peak of ``ppn argv``, in bytes."""
        assert main(argv) == 0  # imports and first-call set-up happen untraced
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @classmethod
    def _vector_peak(cls, path, tmp_path):
        """The traced peak of ``ppn vector`` on ``path``, in bytes."""
        return cls._peak(["vector", "--input", str(path), "--output", str(tmp_path / "v.tsv")])

    def test_vector_peak_does_not_grow_with_the_record(self, tmp_path):
        """The traced peak of ``ppn vector`` on a 4 Mnt record is within
        1.5x of the peak on a 1 Mnt record: memory is bounded by the
        block, not by the input."""
        rng = np.random.default_rng(4)
        peaks = []
        for n in (1_000_000, 4_000_000):
            path = tmp_path / f"{n}.fa"
            self._fasta(path, 1, n, rng)
            peaks.append(self._vector_peak(path, tmp_path))
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_vector_peak_does_not_grow_with_the_record_count(self, tmp_path):
        """The traced peak of ``ppn vector`` on four 1 Mnt records is
        within 1.05x of the peak on one: a finished record's tally holds
        no buffers while the next record is read."""
        rng = np.random.default_rng(5)
        peaks = []
        for records in (1, 4):
            path = tmp_path / f"{records}.fa"
            self._fasta(path, records, 1_000_000, rng)
            peaks.append(self._vector_peak(path, tmp_path))
        assert peaks[1] <= 1.05 * peaks[0], peaks

    def test_vector_peak_is_one_read_block_and_one_chunk(self, tmp_path):
        """The traced peak of ``ppn vector`` on a 4 Mnt record is below
        0.6 MB: a 32 KiB read block, its codes and the tally's one-chunk
        buffers.  Measured with ``tracemalloc``: 0.38 MB; with 256 KiB
        read blocks it was 1.07 MB."""
        path = tmp_path / "4M.fa"
        self._fasta(path, 1, 4_000_000, np.random.default_rng(4))
        peak = self._vector_peak(path, tmp_path)
        assert peak < 0.6e6, peak

    K = 300

    @pytest.fixture
    def short_fasta(self, tmp_path):
        """``K`` simulated records of 200 nt."""
        path = tmp_path / "short.fa"
        write_fasta(simulate(SimulationSpec(species_count=self.K, length=200, seed=1)), path)
        return path

    def test_matrix_peak_is_the_text_and_one_matrix(self, short_fasta, tmp_path):
        """``ppn matrix --output f`` peaks below the PHYLIP text plus one
        k x k float64 matrix plus 0.5 MB, at k = 300: the text is
        streamed, never held whole.  When the output was held whole the
        peak was 1.04 MB above the text's size (1.65 MB) plus the matrix
        (0.72 MB); the next test bounds what is held with no room for the
        text at all."""
        dest = tmp_path / "m.phy"
        peak = self._peak(["matrix", "--input", str(short_fasta), "--output", str(dest)])
        assert peak < dest.stat().st_size + self.K**2 * 8 + 0.5e6, peak

    def test_matrix_peak_is_one_matrix_and_the_held_text(self, short_fasta, tmp_path):
        """``ppn matrix --output f`` peaks below one k x k float64 matrix
        plus 1 MB, at k = 300.  Measured with ``tracemalloc`` around a
        second ``main`` call on simulated records of 200 nt (seeds 1 to
        3): the peak was 0.84 MB above the matrix (0.72 MB), most of it
        ``write_phylip``'s tab-joined column texts; when it held one
        string per pair until the pair's lower row was written the peak
        was 1.78 MB above."""
        dest = tmp_path / "m.phy"
        peak = self._peak(["matrix", "--input", str(short_fasta), "--output", str(dest)])
        assert peak < self.K**2 * 8 + 1e6, peak

    @pytest.fixture
    def fasta_1000(self, tmp_path):
        """1000 records of 200 nt from ``ppn simulate --seed 3``."""
        path = tmp_path / "k1000.fa"
        write_fasta(simulate(SimulationSpec(species_count=1000, length=200, seed=3)), path)
        return path

    def test_matrix_peak_at_1000_taxa_is_below_half_the_text(self, fasta_1000, tmp_path):
        """``ppn matrix --output f`` peaks below one k x k float64 matrix
        plus half the PHYLIP text, at k = 1000.  Measured as above on
        ``ppn simulate --seed 3`` records of 200 nt (seed 1 alike): the
        peak was 15.2 MB, 7.2 MB above the matrix (8 MB), and the text is
        18.4 MB; with one string held per pair it was 27.0 MB, 0.65 MB
        above the matrix plus the whole text."""
        k = 1000
        dest = tmp_path / "m.phy"
        peak = self._peak(["matrix", "--input", str(fasta_1000), "--output", str(dest)])
        assert peak < k**2 * 8 + dest.stat().st_size / 2, peak

    def test_matrix_peak_at_1000_taxa_holds_no_matrix(self, fasta_1000, tmp_path):
        """``ppn matrix --output f`` peaks below half the PHYLIP text, with
        no k x k term, at k = 1000: the distance rows go to the writer as
        they are made.  Measured as above (seeds 1 to 3): the peak was
        8.77 to 8.82 MB, most of it the writer's column texts, and the
        text is 18.4 MB, so the margin is 0.36 MB or more; when a matrix
        was filled first the peak was 15.1 MB."""
        dest = tmp_path / "m.phy"
        peak = self._peak(["matrix", "--input", str(fasta_1000), "--output", str(dest)])
        assert peak < dest.stat().st_size / 2, peak

    def test_tree_peak_at_1000_taxa_is_one_matrix(self, fasta_1000, tmp_path):
        """``ppn tree`` on a FASTA peaks below one k x k float64 matrix plus
        3 MB, at k = 1000: it merges in the array it built, with no
        working copy.  Measured as above (seeds 1 to 3): the peak was
        10.34 MB, 2.34 MB above the matrix (8 MB), reached while the
        array is filled and the vectors' shifted rows are made; with
        ``upgma``'s copy it was 16.49 MB."""
        k = 1000
        out = tmp_path / "t.nwk"
        peak = self._peak(["tree", "--input", str(fasta_1000), "--output", str(out)])
        assert peak < k**2 * 8 + 3e6, peak

    def test_tree_peak_at_1000_taxa_holds_no_vectors_beside_the_matrix(
        self, fasta_1000, tmp_path
    ):
        """``ppn tree`` on a FASTA peaks below one k x k float64 matrix plus
        1.5 MB, at k = 1000: the array is made after the first distance
        row, when the vectors (1.18 MB as Python ints) and the shifted
        rows' object array are gone.  Measured as above (seeds 1 to 3):
        the peak was 8.92 MB, most of the rest the int64 shifted rows and
        the first row's differences; when the array was made before the
        rows' source ran it was 10.34 MB."""
        k = 1000
        out = tmp_path / "t.nwk"
        peak = self._peak(["tree", "--input", str(fasta_1000), "--output", str(out)])
        assert peak < k**2 * 8 + 1.5e6, peak

    def test_tree_peak_on_a_matrix_file_is_two_matrices(self, short_fasta, tmp_path):
        """``ppn tree --input dist.phy`` peaks below two k x k float64
        matrices plus 0.5 MB, at k = 300: never the file's text.  The tree
        is merged in the array ``read_phylip``'s parse fills, with no
        working copy, and the next test bounds the peak with room for one
        matrix only.  Measured as in the matrix tests: the peak was
        1.47 MB, 0.03 MB above the two matrices (1.44 MB); with
        ``upgma``'s copy it was 0.15 MB above, and when all lines were
        kept 2.71 MB above."""
        phy = tmp_path / "m.phy"
        assert main(["matrix", "--input", str(short_fasta), "--output", str(phy)]) == 0
        peak = self._peak(["tree", "--input", str(phy), "--output", str(tmp_path / "t.nwk")])
        assert peak < 2 * self.K**2 * 8 + 0.5e6, peak

    def test_tree_peak_on_a_matrix_file_is_one_matrix_and_the_held_text(
        self, short_fasta, tmp_path
    ):
        """``ppn tree --input dist.phy`` peaks below one k x k float64
        matrix plus half the file's text, at k = 300: the array read and
        the tab-joined column texts the reader holds to compare each
        lower row with its mirror.  Measured as in the matrix tests
        (seeds 1 to 3): the peak was 1.47 MB, 0.75 MB above the matrix
        (0.72 MB), and the text is 1.65 MB, so the margin is 0.07 MB;
        with ``upgma``'s copy the peak was 1.60 MB, above the bound.
        Since the array waits for the last row, the peak is 1.19 MB."""
        phy = tmp_path / "m.phy"
        assert main(["matrix", "--input", str(short_fasta), "--output", str(phy)]) == 0
        peak = self._peak(["tree", "--input", str(phy), "--output", str(tmp_path / "t.nwk")])
        assert peak < self.K**2 * 8 + phy.stat().st_size / 2, peak

    def test_tree_peak_on_a_matrix_file_is_one_matrix_and_its_upper_rows(
        self, short_fasta, tmp_path
    ):
        """``ppn tree --input dist.phy`` peaks below 1.5 k x k float64
        matrices plus 0.2 MB, at k = 300: the reader keeps each row's
        floats right of the diagonal and makes the array only once the
        column texts are gone.  Measured as in the matrix tests: the peak
        was 1.19 MB; when the array was made at the first row, beside the
        column texts, it was 1.47 MB."""
        phy = tmp_path / "m.phy"
        assert main(["matrix", "--input", str(short_fasta), "--output", str(phy)]) == 0
        peak = self._peak(["tree", "--input", str(phy), "--output", str(tmp_path / "t.nwk")])
        assert peak < 1.5 * self.K**2 * 8 + 0.2e6, peak

    def test_feed_peak_does_not_grow_with_the_chunks_in_a_block(self):
        """The traced peak of one ``feed`` of eight chunks is within 1.1x of
        the peak of one chunk: a call reuses one buffer for all its chunks."""
        rng = np.random.default_rng(6)
        peaks = []
        for chunks in (1, 8):
            codes = rng.integers(0, 4, chunks * core._CHUNK).astype(np.int8)
            tally = core._WindowTally(PpnParams())
            tracemalloc.start()
            try:
                tally.feed(codes)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    def test_feed_peak_is_the_buffer_and_a_pair_index_per_chunk(self):
        """One ``feed`` of 262 144 codes at l = 4 traces below 300 KB: the
        int16 buffer of one chunk (64 KB), the intp index ``np.take`` makes
        of one chunk's 16 384 code pairs (128 KB) and the window sums.
        Measured with ``tracemalloc``: 272 KB; when the weights were taken
        one int8 code at a time, whose intp index is 256 KB a chunk, it
        was 329 KB."""
        codes = np.random.default_rng(7).integers(0, 4, 8 * core._CHUNK).astype(np.int8)
        params = PpnParams(radius=4, stride=1)
        core._WindowTally(params).feed(codes[:100])  # the cached weight tables
        tally = core._WindowTally(params)
        tracemalloc.start()
        try:
            tally.feed(codes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 300_000, peak

    def test_batch_peak_is_the_int16_keys_and_the_product_chunks(self):
        """One ``_batch_vectors`` call over a full batch, 160 records of
        200 nt at l = 4 (32 644 codes with their pads), traces below
        849 KB: the codes, their int16 weights and window sums (about
        170 KB together), one 1 024-window product buffer of 192 KiB that
        every chunk reuses, and a chunk's index arrays.  Measured with
        ``tracemalloc``: 644 KB; when each chunk made its own product
        array, two of them alive at once with a ``take`` temporary, it
        was 849 KB, and when the batch keyed its windows by int64 prefix
        sums, with an intp copy of the codes for their ``take``, 969 KB."""
        rng = np.random.default_rng(8)
        pieces = [rng.integers(0, 4, 200).astype(np.int8) for _ in range(160)]
        params = PpnParams(radius=4, stride=1)
        core._batch_vectors(pieces[:2], params)  # the cached weight and product tables
        tracemalloc.start()
        try:
            core._batch_vectors(pieces, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 849_000, peak
