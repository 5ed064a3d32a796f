"""FASTA reading/writing and deterministic sequence simulation."""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import (
    _SPACE,
    EncodedSequence,
    _is_int,
    _is_strict,
    _no_bases,
    _read_only,
    _sanitize,
)
from .errors import DuplicateIdError, MalformedFastaError, ValidationError

__all__ = ["SimulationSpec", "read_fasta", "write_fasta", "simulate"]

FASTA_LINE_WIDTH = 60


@dataclass(frozen=True)
class SimulationSpec:
    """Shape and seed of a simulated dataset.

    Sequences are i.i.d. uniform over A/C/G/T; there is no evolutionary
    model.  Output is byte-identical for a given spec.
    """

    species_count: int
    length: int
    seed: int

    def __post_init__(self):
        if not _is_int(self.species_count) or self.species_count < 1:
            raise ValidationError(
                f"species_count must be an integer >= 1, got {self.species_count!r}"
            )
        if not _is_int(self.length) or self.length < 1:
            raise ValidationError(f"length must be an integer >= 1, got {self.length!r}")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must be an int in [0, 2**64), got {self.seed!r}")


def _opened(target, mode: str):
    """``target`` as an open file, for a ``with`` statement.

    A path (``str``, ``bytes`` or any ``os.PathLike``) is opened in
    ``mode``, as UTF-8 in text mode, and closed on exit; anything else
    is an open stream, used as it is and left open.  This is the one
    rule by which the library's readers and writers tell a path from a
    stream.
    """
    if isinstance(target, (str, bytes, os.PathLike)):
        return open(target, mode, encoding=None if "b" in mode else "utf-8")
    return contextlib.nullcontext(target)


#: Bytes (characters, for a text stream) that :func:`read_fasta` reads at
#: a time: the tally's 32 KiB chunk, so a block, its codes and the tally's
#: buffers stay in cache together.  Measured on a 2-vCPU host with numpy
#: 2.4, 1 << 13 ... 1 << 18 gave ``ppn vector`` on 7.5 Mnt in three
#: records 41 / 33 / 26 / 27 / 28 / 27 ms and 0.17 / 0.25 / 0.41 / 0.49 /
#: 0.68 / 1.07 MB traced, and on 300 x 16.5 knt 0.26 / 0.27 / 0.29 / 0.31
#: / 0.38 / 0.63 MB: a smaller block pays the tally's fixed cost per feed
#: more often, and a larger one traces more, is no faster on the long
#: records and about 3 % faster on the 16.5 knt ones, half of which
#: straddle a 32 KiB edge.
_BLOCK = 1 << 15


def _blocks(source):
    """Yield the input as bytes, about ``_BLOCK`` at a time.

    Every source is scanned as the bytes of its UTF-8 text: a text
    stream's characters are encoded to UTF-8 (a lone surrogate as the
    three bytes ``"surrogatepass"`` gives it), so it reads exactly as a
    file of those bytes.  A block that ends inside a UTF-8 character is
    completed by the at most three bytes its lead byte asks for, so a
    block holds whole characters and a strict error names one whole.
    """
    with _opened(source, "rb") as fh:
        while data := fh.read(_BLOCK):
            if isinstance(data, str):
                data = data.encode("utf-8", "surrogatepass")
            elif data[-1] >= 0x80:
                data = bytes(data) + fh.read(_lacking(data))
            yield bytes(data)


def _lacking(data: bytes) -> int:
    """How many bytes the UTF-8 character that opens in the last three of
    ``data`` lacks: what its lead byte asks for beyond what is there."""
    for back, byte in enumerate(reversed(data[-3:]), 1):
        if not 0x80 <= byte < 0xC0:  # not a continuation byte
            return max(0, 1 + (byte >= 0xC0) + (byte >= 0xE0) + (byte >= 0xF0) - back)
    return 0


def _breaks(buf: bytes, start: int, stop: int) -> int:
    """Line breaks in ``buf[start:stop]``, read without a copy; a CRLF
    pair counts once."""
    octets = np.frombuffer(buf, np.uint8, stop - start, start)
    count = np.count_nonzero(octets == 0x0A)
    if buf.find(b"\r", start, stop) >= 0:
        cr = octets == 0x0D
        count += np.count_nonzero(cr) - np.count_nonzero(cr[:-1] & (octets[1:] == 0x0A))
    return int(count)


def _only_lf(buf: bytes) -> bool:
    """Whether LF is the only whitespace byte in ``buf``: five memchrs for
    CR, space, tab, VT and FF, in that order, since a file that has CR or
    space has them early.  An int operand goes to memchr straight, at
    about two thirds of the cost of a one-byte bytes operand."""
    return not (0x0D in buf or 0x20 in buf or 0x09 in buf or 0x0B in buf or 0x0C in buf)


def _line_end(buf: bytes, start: int) -> int:
    """Offset of the first CR or LF at or after ``start``, else ``len(buf)``."""
    end = buf.find(b"\n", start)
    if end < 0:
        end = len(buf)
    cr = buf.find(b"\r", start, end)
    return end if cr < 0 else cr


class _Record:
    """The open record of a scan: its id, its dropped count, and its codes
    so far, one array per block that brought bases, until they pass
    ``hold`` codes; from then on the sink that took them and takes every
    later block's codes."""

    __slots__ = ("id", "strict", "new_sink", "hold", "dropped", "held", "pieces", "sink")

    def __init__(self, seq_id: str, strict: bool, new_sink, hold):
        self.id, self.strict, self.new_sink, self.hold = seq_id, strict, new_sink, hold
        self.dropped, self.held, self.pieces, self.sink = 0, 0, [], None

    def feed(self, body: bytes) -> int:
        """Take one block's share of the body; return how many whitespace
        bytes its translate deleted, which are its line breaks when LF is
        the only whitespace in it."""
        kept, dropped = _sanitize(body, self.strict, self.id)
        self.dropped += dropped
        if kept:
            self._take(np.frombuffer(kept, dtype=np.int8))
        return len(body) - len(kept) - dropped

    def _take(self, codes: np.ndarray) -> None:
        if self.sink is not None:
            self.sink.feed(codes)
            return
        self.pieces.append(codes)
        self.held += len(codes)
        if self.held > self.hold:
            self.sink = self.new_sink()
            for piece in self.pieces:
                self.sink.feed(piece)
            self.pieces = None

    def end(self):
        if self.sink is not None:
            return self.id, self.dropped, None, self.sink
        if not self.pieces:
            raise _no_bases(self.id)
        pieces = self.pieces
        codes = pieces[0] if len(pieces) == 1 else _read_only(np.concatenate(pieces))
        return self.id, self.dropped, codes, None


def _scan(source, policy: str, new_sink=None, hold=math.inf):
    """Read FASTA block by block; yield ``(id, dropped, codes, sink)`` as
    each record ends.

    The record's length, not the block edges, picks its form, and the
    caller picks the length: ``hold`` codes, with no limit by default,
    so that every record comes whole.  A record of at most ``hold`` codes comes
    whole, as one read-only int8 array ``codes``, with ``sink`` None,
    however many blocks its bases span.  Once a record's codes pass that
    many, ``new_sink()`` makes its sink, which is fed the codes held so
    far and then every later block's, one array per block that brought
    bases, with ``codes`` None; so one block of the input and at most
    ``hold`` codes and one block more are held at a time.  Every source
    is scanned as the UTF-8 bytes :func:`_blocks` gives, so ``dropped``
    counts bytes on every route, and a header line is decoded as UTF-8
    once it is whole.  Checks and errors are those of
    :func:`read_fasta`, raised in file order; ``policy`` is checked
    before any input is read.  Line breaks are counted once per block, a
    CRLF split across two blocks as one.  In a block with no whitespace
    but LF, which :func:`_only_lf` tells, they are the whitespace bytes
    that :meth:`_Record.feed`'s translates deleted plus the blank bytes
    before the first header, with no further pass; in any other block
    :func:`_breaks` counts them.  An error that names a line adds the
    breaks of its own block up to where it occurs.
    """
    strict = _is_strict(policy)
    seen: set[str] = set()
    lines = 0  # line breaks before buf
    last = 0x0A  # the byte that ended the last block; LF before the first
    title = None  # byte pieces of a header line not yet ended
    record = None

    def open_record(end=None) -> _Record:
        """The record headed by ``title``, whose line ends at ``buf[end]``,
        or at the end of the input when ``end`` is None."""
        nonlocal title

        def fault(message: str) -> MalformedFastaError:
            line = 1 + lines + (0 if end is None else _breaks(buf, 0, end))
            return MalformedFastaError(f"line {line}: {message}")

        try:
            header = b"".join(title).decode()
        except UnicodeDecodeError:
            raise fault("FASTA header is not valid UTF-8") from None
        header, title = header.strip(), None
        if not header:
            raise fault("empty FASTA header")
        seq_id = header.split()[0]
        if seq_id in seen:
            raise DuplicateIdError(f"duplicate record id {seq_id!r}")
        seen.add(seq_id)
        return _Record(seq_id, strict, new_sink, hold)

    for buf in _blocks(source):
        if last == 0x0D and buf[0] == 0x0A:
            lines -= 1  # the LF of a CRLF whose CR ended the last block
        n = len(buf)
        i = 0
        deleted = 0  # whitespace bytes of the block's bodies and leading blank lines
        while i < n:
            if title is not None:  # a header line, from the last block or this one
                end = _line_end(buf, i)
                title.append(buf[i:end])
                if end == n:
                    break
                record = open_record(end)
                i = end
            h = buf.find(b">", i)
            while h >= 0 and (buf[h - 1] if h else last) not in b"\r\n":
                h = buf.find(b">", h + 1)
            body = buf[i:] if h < 0 else buf[i:h]
            if record is not None:
                deleted += record.feed(body)
            else:
                data_at = len(body) - len(body.lstrip(_SPACE))
                if data_at < len(body):
                    line = 1 + lines + _breaks(buf, 0, i + data_at)
                    raise MalformedFastaError(
                        f"line {line}: sequence data before the first '>' header"
                    )
                deleted += len(body)
            if h < 0:
                break
            if record is not None:
                yield record.end()
                record = None
            title = []
            i = h + 1
        lines += deleted if _only_lf(buf) else _breaks(buf, 0, n)
        last = buf[-1]

    if title is not None:
        record = open_record()
    if record is None:
        raise MalformedFastaError("input contains no FASTA records")
    yield record.end()


def read_fasta(source, policy: str = "drop") -> list[EncodedSequence]:
    """Parse FASTA into encoded sequences, preserving record order.

    ``source`` may be a path (``str``, ``bytes`` or ``os.PathLike``) or
    an open text/byte stream, which is left open; it is read once, in
    blocks of :data:`_BLOCK` bytes, so apart from the returned codes
    memory stays within one block and the open record's codes.  Every
    source is read as UTF-8 bytes: a text stream as its text encoded to
    UTF-8, so it gives what a file of those bytes gives, and each
    record's ``dropped`` counts bytes of that UTF-8 input.  LF, CRLF and
    CR-only line endings are all accepted.  A header is a line that
    opens with '>'; record ids are its first whitespace-delimited token,
    the header read as UTF-8.  Each block's share of a record body, line
    breaks included, is encoded as in :func:`encode`, so errors come in
    file order.  Every record is held whole, as :func:`_scan` hands it
    over with no limit on ``hold``: the codes its one block gave,
    uncopied, or one join of those of the blocks its bases span.  Blank lines (only
    spaces, tabs, CR, LF, VT, FF) are ignored.

    Raises :class:`ValidationError`, before any input is read, for a
    ``policy`` other than ``"drop"`` or ``"strict"``;
    :class:`MalformedFastaError` for data before the first header, an
    empty header, a header that is not valid UTF-8, or an input with no
    records at all; :class:`DuplicateIdError` for repeated ids; and
    :class:`EmptySequenceError` for records with no usable nucleotides.
    """
    return [
        EncodedSequence(seq_id, codes, dropped)
        for seq_id, dropped, codes, _ in _scan(source, policy)
    ]


def write_fasta(seqs: list[EncodedSequence], dest, width: int = FASTA_LINE_WIDTH) -> None:
    """Write sequences as FASTA with ``width``-column wrapped lines.

    ``dest`` may be a path (``str``, ``bytes`` or ``os.PathLike``), which
    is written as UTF-8, or an open text stream, which is left open.
    Raises :class:`ValidationError`, before anything is opened or
    written, unless ``width`` is an integer >= 1.
    """
    if not _is_int(width) or width < 1:
        raise ValidationError(f"width must be an integer >= 1, got {width!r}")
    with _opened(dest, "w") as fh:
        for seq in seqs:  # one write per record
            text = seq.bases()
            lines = [text[i : i + width] for i in range(0, len(text), width)]
            fh.write("\n".join([f">{seq.id}", *lines, ""]))


def simulate(spec: SimulationSpec) -> list[EncodedSequence]:
    """Generate ``species_count`` uniform random sequences of ``length``.

    Randomness comes from numpy's PCG64 generator seeded with
    ``spec.seed``, so the output is reproducible across platforms and
    runs.  Record ids are ``sim_001``-style, zero-padded to the count
    width.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    pad = max(3, len(str(spec.species_count)))
    return [
        EncodedSequence(
            f"sim_{i + 1:0{pad}d}",
            _read_only(rng.integers(0, 4, size=spec.length, dtype=np.int8)),
        )
        for i in range(spec.species_count)
    ]
