"""Command-line interface: vectors, matrices, trees, tree comparison,
simulation, and scaling benchmarks.

Exit codes: 0 success, 1 I/O failure, 2 invalid parameters or
inconsistent inputs, 3 malformed input data.  Primary output goes to
the ``--output`` path ('-' for stdout, the default); diagnostics go to
stderr.  Files are written to a temp path and renamed into place, so a
failed run never leaves a partial output file.
"""

from __future__ import annotations

import argparse
import io
import os
import resource
import sys
import tempfile
import time
from dataclasses import dataclass

from . import phylo, seqio
from .core import Metric, PpnParams, ppn_vector, window_count
from .errors import InputError, NewickParseError, ValidationError

EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_MALFORMED = 3


def _write_output(path: str, text: str) -> None:
    """Atomically write ``text`` to ``path``; '-' streams to stdout."""
    if path == "-":
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ppn-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _params(args) -> PpnParams:
    return PpnParams(
        radius=args.l,
        stride=args.t,
        metric=Metric(args.metric),
        allow_gaps=args.allow_gaps,
    )


def _add_common(parser):
    parser.add_argument("--input", "-i", required=True, help="input file path")
    parser.add_argument("--output", "-o", default="-", help="output path ('-' = stdout)")
    parser.add_argument("--l", type=int, default=4, help="neighborhood radius")
    parser.add_argument("--t", type=int, default=1, help="stride between windows")
    parser.add_argument(
        "--metric",
        choices=[m.value for m in Metric],
        default=Metric.EUCLIDEAN.value,
        help="distance metric between vectors",
    )
    parser.add_argument(
        "--policy",
        choices=["drop", "strict"],
        default="drop",
        help="how to treat non-ACGT characters",
    )
    parser.add_argument(
        "--allow-gaps",
        action="store_true",
        help="permit stride > radius (windows stop overlapping)",
    )
    parser.add_argument(
        "--normalize",
        action="store_true",
        help="divide vector components by the window count (off by default)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppn",
        description=(
            "Alignment-free DNA comparison via prime-product neighborhood vectors"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vector", help="compute 24-component vectors from FASTA")
    _add_common(p)

    p = sub.add_parser("matrix", help="compute a pairwise distance matrix from FASTA")
    _add_common(p)

    p = sub.add_parser("tree", help="build a UPGMA tree from FASTA or a matrix file")
    _add_common(p)

    p = sub.add_parser("treedist", help="compare two Newick trees (nRF and nQD)")
    p.add_argument(
        "--input",
        "-i",
        action="append",
        required=True,
        help="Newick file; pass twice, once per tree",
    )
    p.add_argument("--output", "-o", default="-", help="output path ('-' = stdout)")

    p = sub.add_parser("simulate", help="generate uniform random FASTA records")
    p.add_argument("--output", "-o", default="-", help="output path ('-' = stdout)")
    p.add_argument("--species", type=int, required=True, help="number of sequences")
    p.add_argument("--length", type=int, required=True, help="nucleotides per sequence")
    p.add_argument("--seed", type=int, default=0, help="generator seed")

    p = sub.add_parser("bench", help="time the pipeline over simulated datasets")
    p.add_argument("--output", "-o", default="-", help="output path ('-' = stdout)")
    p.add_argument(
        "--species",
        default="10",
        help="comma-separated list of species counts (1 = vector stage only)",
    )
    p.add_argument(
        "--length", default="50000", help="comma-separated list of sequence lengths"
    )
    p.add_argument("--reps", type=int, default=10, help="repetitions per size")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--l", type=int, default=4, help="neighborhood radius")
    p.add_argument("--t", type=int, default=1, help="stride between windows")
    p.add_argument(
        "--metric",
        choices=[m.value for m in Metric],
        default=Metric.EUCLIDEAN.value,
    )
    p.add_argument("--allow-gaps", action="store_true")

    return parser


# -- subcommands ---------------------------------------------------------------

def cmd_vector(args) -> int:
    params = _params(args)
    seqs = seqio.read_fasta(args.input, policy=args.policy)
    rows = []
    for seq in seqs:
        vec = ppn_vector(seq, params)
        if args.normalize:
            comps = [repr(c / vec.windows) for c in vec.components]
        else:
            comps = [str(c) for c in vec.components]
        rows.append(
            "\t".join(
                [seq.id, str(seq.length), str(vec.windows), str(params.radius),
                 str(params.stride)] + comps
            )
        )
    _write_output(args.output, "".join(r + "\n" for r in rows))
    return 0


def cmd_matrix(args) -> int:
    params = _params(args)
    seqs = seqio.read_fasta(args.input, policy=args.policy)
    matrix = phylo.pairwise_matrix(seqs, params, normalized=args.normalize)
    buf = io.StringIO()
    phylo.write_phylip(matrix, buf)
    _write_output(args.output, buf.getvalue())
    return 0


def _sniff_matrix(path: str) -> bool:
    with open(path, "rb") as fh:
        head = fh.read(256).lstrip()
    return not head.startswith(b">")


def cmd_tree(args) -> int:
    if _sniff_matrix(args.input):
        matrix = phylo.read_phylip(args.input)
    else:
        params = _params(args)
        seqs = seqio.read_fasta(args.input, policy=args.policy)
        matrix = phylo.pairwise_matrix(seqs, params, normalized=args.normalize)
    tree = phylo.upgma(matrix)
    _write_output(args.output, phylo.to_newick(tree) + "\n")
    return 0


def cmd_treedist(args) -> int:
    if len(args.input) != 2:
        raise ValidationError(
            f"treedist needs exactly two --input trees, got {len(args.input)}"
        )
    trees = []
    for path in args.input:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            trees.append(phylo.from_newick(data.decode("utf-8")))
        except UnicodeDecodeError as exc:
            raise NewickParseError(f"{path} is not valid UTF-8", exc.start) from None
    qd = phylo.nqd(trees[0], trees[1])
    rf = phylo.nrf(trees[0], trees[1])
    _write_output(args.output, f"nRF\t{rf:.4f}\nnQD\t{qd:.4f}\n")
    return 0


def cmd_simulate(args) -> int:
    spec = seqio.SimulationSpec(
        species_count=args.species, length=args.length, seed=args.seed
    )
    buf = io.StringIO()
    seqio.write_fasta(seqio.simulate(spec), buf)
    _write_output(args.output, buf.getvalue())
    return 0


# -- benchmark -----------------------------------------------------------------

@dataclass(frozen=True)
class BenchRow:
    """One benchmark size: timing means over reps and peak memory."""

    species: int
    length: int
    reps: int
    mean_wall_s: float
    mean_vector_s: float
    peak_rss_kb: int


def _peak_rss_kb() -> int:
    # ru_maxrss is KiB on Linux; approximate and monotonic for the process.
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run_bench(
    sizes: list[tuple[int, int]],
    reps: int,
    seed: int,
    params: PpnParams,
) -> list[BenchRow]:
    """Time vector computation (and the full matrix stage when there are
    at least two sequences) for each (species, length) size.

    Wall times are means over ``reps`` runs after one untimed warm-up;
    peak memory is the maximum resident set reported by the OS across
    the runs.  Generation is excluded from the timings.
    """
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    rows = []
    for species, length in sorted(sizes):
        seqs = seqio.simulate(
            seqio.SimulationSpec(species_count=species, length=length, seed=seed)
        )
        wall_times = []
        vector_times = []
        peak = 0

        def one_run():
            t0 = time.perf_counter()
            if species >= 2:
                phylo.pairwise_matrix(seqs, params)
                t_vec = None
            else:
                ppn_vector(seqs[0], params)
                t_vec = time.perf_counter() - t0
            t_total = time.perf_counter() - t0
            if t_vec is None:
                # vector stage timed separately so scaling of the linear
                # part is visible even when pair counts grow quadratically
                tv0 = time.perf_counter()
                for s in seqs:
                    ppn_vector(s, params)
                t_vec = time.perf_counter() - tv0
            return t_total, t_vec

        one_run()
        for _ in range(reps):
            t_total, t_vec = one_run()
            wall_times.append(t_total)
            vector_times.append(t_vec)
            peak = max(peak, _peak_rss_kb())
        rows.append(
            BenchRow(
                species=species,
                length=length,
                reps=reps,
                mean_wall_s=sum(wall_times) / reps,
                mean_vector_s=sum(vector_times) / reps,
                peak_rss_kb=peak,
            )
        )
    return rows


def format_bench(rows: list[BenchRow]) -> str:
    out = ["species\tlength\treps\tmean_wall_s\tmean_vector_s\tpeak_rss_kb"]
    for r in rows:
        out.append(
            f"{r.species}\t{r.length}\t{r.reps}\t{r.mean_wall_s:.6f}\t"
            f"{r.mean_vector_s:.6f}\t{r.peak_rss_kb}"
        )
    return "".join(line + "\n" for line in out)


def _int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"{flag} expects comma-separated integers, got {text!r}")
    if not values:
        raise ValidationError(f"{flag} needs at least one value")
    return values


def cmd_bench(args) -> int:
    params = _params(args)
    species = _int_list(args.species, "--species")
    lengths = _int_list(args.length, "--length")
    sizes = [(s, n) for s in species for n in lengths]
    rows = run_bench(sizes, reps=args.reps, seed=args.seed, params=params)
    _write_output(args.output, format_bench(rows))
    return 0


_COMMANDS = {
    "vector": cmd_vector,
    "matrix": cmd_matrix,
    "tree": cmd_tree,
    "treedist": cmd_treedist,
    "simulate": cmd_simulate,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"ppn {args.command}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InputError as exc:
        print(f"ppn {args.command}: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except OSError as exc:
        print(f"ppn {args.command}: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
