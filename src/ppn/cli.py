"""Command-line interface: vectors, matrices, trees, tree comparison,
simulation, and scaling benchmarks.

Each subcommand writes its text into the writer :func:`main` hands it;
only :func:`main` touches stdout, stderr, the output file and the exit
code.  Exit codes: 0 success, 1 I/O or out-of-memory failure, 2
invalid parameters or inconsistent inputs, 3 malformed input data.  The
writer streams UTF-8 text through Python's buffered I/O into a temp
file as the subcommand runs, so no output is held whole.  The temp file
reaches the ``--output`` path only when the run succeeds, so a failed
run writes nothing: it is renamed over a file, and a symlink is written
through; a FIFO, a device, '-' (stdout, the default) and a file that
stdout or stderr has open are copied to, and that file is appended to
as the shell's ``>>`` would; a directory is refused before the
subcommand runs.  Errors and notices (a library ``UserWarning``) go to
stderr as one ``ppn <command>: <message>`` line each.

No command holds two k x k arrays.  ``ppn matrix`` writes the distance
rows as they are made and holds no matrix; ``ppn tree`` builds one
array, from the FASTA's rows or the PHYLIP file, runs on it the checks
of :class:`ppn.phylo.DistanceMatrix` and merges in it, with no copy.
``ppn treedist`` holds its two trees only until each is walked once and
reduced to what nRF and nQD read.  ``ppn tree`` reads a pipe or FIFO
once, into a temp file that it removes.
"""

from __future__ import annotations

import argparse
import errno
import functools
import io
import os
import re
import resource
import shutil
import stat
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass

from . import core, phylo, seqio
from .core import Metric, PpnParams, _WindowTally, _record_vectors
from .errors import InputError, NewickParseError, ValidationError

EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_MALFORMED = 3

#: An integer flag's text: ASCII digits, an optional sign and ASCII space
#: around them; ``int()`` alone also reads "1_0" and other scripts' digits
#: ("\u0662"), which the PHYLIP count line and Newick lengths refuse
_DECIMAL = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def _decimal(text: str) -> int:
    """The value of an integer flag, or of one field of a list of them."""
    if not _DECIMAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an ASCII decimal integer, got {text!r}")
    return int(text)


class _Output:
    """The writer :func:`main` hands a subcommand, as a context manager.

    ``write(text)`` goes through Python's text and buffered layers,
    ``io.TextIOWrapper`` (UTF-8, no newline translation) over
    ``io.BufferedWriter`` with its default buffer, into a temp file.
    Until the first ``write`` the temp file is a bare descriptor; the
    layers, and the file object under them, are made then, so a command
    that writes only at its end holds none of them while it computes.
    The text reaches ``path`` ('-' for stdout) only if the ``with``
    block ends without an exception.

    Where the text goes depends on what ``path`` names, looked up here
    before the subcommand runs.  A regular file, or a path that does not
    exist, is replaced: the temp file is ``.ppn-*.tmp`` beside the file
    that :func:`os.path.realpath` resolves ``path`` to, renamed over it on
    success and removed on failure, so a symlink is written through and
    stays a link.  A new file gets the mode a plain ``open(path, "w")``
    would give it (0666 less the umask); a replaced file keeps its mode.
    '-', a FIFO, a device and a regular file that stdout or stderr has
    open (:func:`os.path.samestat`) are copied to on success, from a temp
    file in the system temp directory that is unlinked as soon as it is
    made; a failed run never opens them.  The copy appends, so
    ``--output log.tsv >> log.tsv`` and ``--output /dev/stdout >>
    log.tsv`` keep what ``log.tsv`` held.  A directory, an empty path
    and a path in a missing directory are refused here, with an error
    that names ``path``.  The temp file is closed last, after the text layer is
    flushed on success, so after a failure the upper layers are closed
    with nothing to flush.
    """

    __slots__ = ("path", "tmp", "fd", "raw", "text")

    def __init__(self, path: str):
        self.path, self.tmp, self.raw, self.text = path, None, None, None
        mode = None if path == "-" else _replaced_mode(path)
        if mode is None:
            self.fd, tmp = tempfile.mkstemp(prefix=".ppn-", suffix=".tmp")
            os.unlink(tmp)
            return
        self.path = os.path.realpath(path)
        try:
            self.fd, self.tmp = tempfile.mkstemp(
                dir=os.path.dirname(self.path), prefix=".ppn-", suffix=".tmp"
            )
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
        try:
            os.fchmod(self.fd, mode)
        except BaseException:
            os.close(self.fd)
            os.unlink(self.tmp)
            raise

    def write(self, text: str) -> None:
        if self.text is None:
            self.raw = io.FileIO(self.fd, "r+")
            self.text = io.TextIOWrapper(
                io.BufferedWriter(self.raw), encoding="utf-8", newline=""
            )
        self.text.write(text)

    def __enter__(self):
        return self

    def __exit__(self, failure, *_) -> None:
        try:
            with self.raw or io.FileIO(self.fd, "r+") as raw:
                if failure is None and self.text is not None:
                    self.text.flush()
                if failure is None and self.tmp is None:
                    raw.seek(0)
                    _copy(raw, self.path)
            if failure is None and self.tmp is not None:
                os.replace(self.tmp, self.path)
        finally:
            if self.tmp is not None and os.path.exists(self.tmp):
                os.unlink(self.tmp)


def _replaced_mode(path: str) -> int | None:
    """The mode of the file that replaces ``path``: a regular file's own,
    or what ``open(path, "w")`` gives a new one; None for a destination
    that is copied to instead: a FIFO, a device, or a regular file that
    is open on stdout or stderr."""
    try:
        info = os.stat(path)
    except FileNotFoundError:
        if not os.path.basename(path):  # '' or 'name/' names no file to make
            raise
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask
    if stat.S_ISDIR(info.st_mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if stat.S_ISREG(info.st_mode) and not _on_stdio(info):
        return stat.S_IMODE(info.st_mode)
    return None


def _on_stdio(info) -> bool:
    """Whether the file that ``info`` describes is open on stdout or
    stderr, where the shell's ``>>`` may have opened it to append."""
    for fd in (1, 2):
        try:
            if os.path.samestat(info, os.fstat(fd)):
                return True
        except OSError:  # a closed descriptor holds no file
            pass
    return False


def _copy(tmp, path: str) -> None:
    """Copy the temp file ``tmp`` to ``path``, or to stdout for '-'.

    ``path`` is opened to append, so a file that stdout or stderr has
    open (``/dev/stdout`` after the shell's ``>>``) gets the text after
    what is in it, as the shell's own append would; a FIFO, a device
    and a file the shell's ``>`` emptied get the same bytes either way.
    """
    if path != "-":
        with open(path, "ab") as dest:
            shutil.copyfileobj(tmp, dest)
        return
    out = getattr(sys.stdout, "buffer", None)
    if out is None:  # a text-only stream, such as io.StringIO
        with io.TextIOWrapper(tmp, encoding="utf-8", newline="") as text:
            shutil.copyfileobj(text, sys.stdout)
    else:
        sys.stdout.flush()
        shutil.copyfileobj(tmp, out)
        out.flush()


def _params(args) -> PpnParams:
    return PpnParams(
        radius=args.l, stride=args.t, metric=args.metric, allow_gaps=args.allow_gaps
    )


def _add_window(parser):
    """The flags that :func:`_params` reads."""
    parser.add_argument("--l", type=_decimal, default=4, help="neighborhood radius")
    parser.add_argument("--t", type=_decimal, default=1, help="stride between windows")
    parser.add_argument(
        "--metric",
        choices=[m.value for m in Metric],
        default=Metric.EUCLIDEAN.value,
        help="distance metric between vectors",
    )
    parser.add_argument(
        "--allow-gaps",
        action="store_true",
        help="permit stride > radius (windows stop overlapping)",
    )


def _add_common(parser):
    parser.add_argument("--input", "-i", required=True, help="input file path")
    _add_window(parser)
    parser.add_argument(
        "--policy",
        choices=["drop", "strict"],
        default="drop",
        help="how to treat non-ACGT characters",
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

    def command(name, summary, run):
        """A subcommand's parser, with the ``--output`` every subcommand
        takes; :func:`main` calls ``run(args, out)`` for it."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--output", "-o", default="-", help="output path ('-' = stdout)")
        p.set_defaults(run=run)
        return p

    _add_common(command("vector", "compute 24-component vectors from FASTA", cmd_vector))
    _add_common(command("matrix", "compute a pairwise distance matrix from FASTA", cmd_matrix))
    _add_common(command("tree", "build a UPGMA tree from FASTA or a matrix file", cmd_tree))

    p = command("treedist", "compare two Newick trees (nRF and nQD)", cmd_treedist)
    p.add_argument(
        "--input",
        "-i",
        action="append",
        required=True,
        help="Newick file; pass twice, once per tree",
    )

    p = command("simulate", "generate uniform random FASTA records", cmd_simulate)
    p.add_argument("--species", type=_decimal, required=True, help="number of sequences")
    p.add_argument("--length", type=_decimal, required=True, help="nucleotides per sequence")
    p.add_argument("--seed", type=_decimal, default=0, help="generator seed")

    p = command("bench", "time the pipeline over simulated datasets", cmd_bench)
    p.add_argument(
        "--species",
        default="10",
        help="comma-separated list of species counts (1 = vector stage only)",
    )
    p.add_argument(
        "--length", default="50000", help="comma-separated list of sequence lengths"
    )
    p.add_argument("--reps", type=_decimal, default=10, help="repetitions per size")
    p.add_argument("--seed", type=_decimal, default=0, help="generator seed")
    _add_window(p)

    return parser


# -- subcommands ---------------------------------------------------------------

def _vectors(args, params: PpnParams):
    """Yield ``(id, vector)`` per FASTA record in file order; a record
    longer than one tally chunk is never held whole.  The hold is one
    chunk, not the batch's cut-off: a record between the two is joined
    once and tallied in one feed, which measured faster than a feed per
    block it spans."""
    sink = functools.partial(_WindowTally, params)
    records = seqio._scan(args.input, args.policy, sink, core._CHUNK)
    return _record_vectors(((i, codes, tally) for i, _, codes, tally in records), params)


def _fasta_rows(args, params: PpnParams):
    """The checked ids and the distance rows of :func:`ppn.phylo._vector_rows`
    over the FASTA's vectors: the records' codes are never held whole."""
    ids, vectors = zip(*_vectors(args, params))
    return phylo._vector_rows(ids, vectors, params.metric, args.normalize)


def cmd_vector(args, out) -> None:
    params = _params(args)
    if params.metric != Metric.EUCLIDEAN:
        raise ValidationError("--metric applies to matrix and tree, not to vector")
    for seq_id, vec in _vectors(args, params):
        comps = vec.components
        if args.normalize:
            comps = [c / vec.windows for c in comps]
        row = [seq_id, vec.sequence_length, vec.windows, params.radius, params.stride]
        out.write("\t".join(map(str, [*row, *comps])) + "\n")


def cmd_matrix(args, out) -> None:
    phylo._write_rows(*_fasta_rows(args, _params(args)), out)


def _sniff_matrix(path: str) -> bool:
    """False when the first non-blank line opens with '>' (FASTA), else True."""
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            head = chunk.lstrip()
            if head:
                return not head.startswith(b">")
    return True


def cmd_tree(args, out, params=None) -> None:
    if params is None:  # checked once, before a pipe is read
        params = _params(args)
    if not stat.S_ISREG(os.stat(args.input).st_mode):
        # a pipe or FIFO reads once, and the format is sniffed before the
        # route reads it: both read a copy, whose size the PHYLIP reader knows
        with tempfile.NamedTemporaryFile(prefix=".ppn-", suffix=".tmp") as copy:
            with open(args.input, "rb") as source:
                shutil.copyfileobj(source, copy)
            copy.flush()
            return cmd_tree(
                argparse.Namespace(**{**vars(args), "input": copy.name}), out, params
            )
    if _sniff_matrix(args.input):
        if params != PpnParams() or args.normalize or args.policy != "drop":
            raise ValidationError(
                "--l, --t, --metric, --allow-gaps, --normalize and --policy apply "
                "only to FASTA input, not to a distance matrix"
            )
        labels, values = phylo._read_phylip(args.input)
    else:
        labels, rows = _fasta_rows(args, params)
        values = phylo._mirrored(rows, len(labels))
    labels = phylo.DistanceMatrix._check(labels, values)
    out.write(phylo.to_newick(phylo._upgma(labels, values)) + "\n")


def _newick(path: str) -> phylo.PhyloTree:
    """The tree in the Newick file ``path``, read as UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return phylo.from_newick(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise NewickParseError(f"{path} is not valid UTF-8", exc.start) from None


def cmd_treedist(args, out) -> None:
    if len(args.input) != 2:
        raise ValidationError(
            f"treedist needs exactly two --input trees, got {len(args.input)}"
        )
    # each tree is parsed when _compare asks for it and held only there
    rf, qd = phylo._compare(map(_newick, args.input))
    out.write(f"nRF\t{rf:.4f}\nnQD\t{qd:.4f}\n")


def cmd_simulate(args, out) -> None:
    spec = seqio.SimulationSpec(
        species_count=args.species, length=args.length, seed=args.seed
    )
    seqio.write_fasta(seqio.simulate(spec), out)


# -- benchmark -----------------------------------------------------------------

@dataclass(frozen=True)
class BenchRow:
    """One benchmark size: timing means over reps, the best vector
    time (not printed; steadier than the mean on a loaded host) and
    peak memory."""

    species: int
    length: int
    reps: int
    mean_wall_s: float
    mean_vector_s: float
    peak_rss_kb: int
    best_vector_s: float


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

    Each run computes every vector once, as the CLI does, timed as the
    vector stage, and builds the matrix from those vectors.  Wall times
    are means over ``reps`` runs after one untimed warm-up, and the vector
    stage's best run is kept too; peak memory is the process's maximum
    resident set as the OS reports it once after the runs, a high-water
    mark that covers them all.
    Generation is excluded from the timings.
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

        def one_run():
            t0 = time.perf_counter()
            records = ((s.id, s.codes, None) for s in seqs)
            vectors = [vec for _, vec in _record_vectors(records, params)]
            t_vec = time.perf_counter() - t0
            if species >= 2:
                phylo._vector_matrix(
                    [s.id for s in seqs], vectors, params.metric, normalized=False
                )
            return time.perf_counter() - t0, t_vec

        one_run()
        for _ in range(reps):
            t_total, t_vec = one_run()
            wall_times.append(t_total)
            vector_times.append(t_vec)
        rows.append(
            BenchRow(
                species=species,
                length=length,
                reps=reps,
                mean_wall_s=sum(wall_times) / reps,
                mean_vector_s=sum(vector_times) / reps,
                peak_rss_kb=_peak_rss_kb(),
                best_vector_s=min(vector_times),
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
        values = [_decimal(part) for part in text.split(",") if part.strip()]
    except argparse.ArgumentTypeError:
        raise ValidationError(f"{flag} expects comma-separated integers, got {text!r}")
    if not values:
        raise ValidationError(f"{flag} needs at least one value")
    return values


def cmd_bench(args, out) -> None:
    params = _params(args)
    species = _int_list(args.species, "--species")
    lengths = _int_list(args.length, "--length")
    sizes = [(s, n) for s in species for n in lengths]
    rows = run_bench(sizes, reps=args.reps, seed=args.seed, params=params)
    out.write(format_bench(rows))


def _diagnostic(command: str, message) -> None:
    print(f"ppn {command}: {message}", file=sys.stderr)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`build_parser`, built once per process; each
    ``parse_args`` makes a fresh namespace with fresh defaults."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with _Output(args.output) as out, warnings.catch_warnings():
            # a notice is one diagnostic line, whatever the interpreter's filters
            warnings.simplefilter("always", UserWarning)
            warnings.showwarning = lambda message, *where: _diagnostic(
                args.command, message
            )
            args.run(args, out)
        return 0
    except ValidationError as exc:
        _diagnostic(args.command, exc)
        return EXIT_VALIDATION
    except InputError as exc:
        _diagnostic(args.command, exc)
        return EXIT_MALFORMED
    except OSError as exc:
        _diagnostic(args.command, exc)
        return EXIT_IO
    except MemoryError as exc:
        _diagnostic(args.command, f"out of memory: {exc}" if str(exc) else "out of memory")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
