"""FASTA reading/writing and deterministic sequence simulation."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import _SPACE, EncodedSequence, _from_codes, _is_int, encode
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


def _read_all(source) -> tuple[bytes, str | None]:
    """The whole input as bytes, plus the text itself for a text stream.

    Text is encoded one Latin-1 byte per character (``'?'`` for a
    character outside Latin-1), so offsets into the bytes are offsets
    into the text.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return fh.read(), None
    data = source.read()
    if isinstance(data, str):
        return data.encode("latin-1", errors="replace"), data
    return bytes(data), None


def _header_starts(buf: bytes) -> list[int]:
    """Offsets of every '>' at offset 0 or right after a CR or LF, in one scan."""
    starts = []
    i = buf.find(b">")
    while i >= 0:
        if i == 0 or buf[i - 1] in b"\r\n":
            starts.append(i)
        i = buf.find(b">", i + 1)
    return starts


def _line_number(buf: bytes, pos: int) -> int:
    """1-based number of the line holding offset ``pos``."""
    crlf = buf.count(b"\r\n", 0, pos)
    return 1 + buf.count(b"\n", 0, pos) + buf.count(b"\r", 0, pos) - crlf


def read_fasta(source, policy: str = "drop") -> list[EncodedSequence]:
    """Parse FASTA into encoded sequences, preserving record order.

    ``source`` may be a path or an open text/byte stream; it is read
    whole, once.  LF, CRLF and CR-only line endings are all accepted.
    Record ids are the first whitespace-delimited token of the header.
    Headers come from one scan for '>'; each record's body, line breaks
    included, goes to :func:`encode` in one piece right after its header
    is checked, so errors come in file order and memory is linear in the
    input.  Blank lines (only spaces, tabs, CR, LF, VT, FF) are ignored.

    Raises :class:`MalformedFastaError` for data before the first
    header, an empty header, or an input with no records at all;
    :class:`DuplicateIdError` for repeated ids; and propagates
    :class:`EmptySequenceError` for records with no usable nucleotides.
    """
    buf, text = _read_all(source)
    starts = _header_starts(buf)
    head = buf[: starts[0]] if starts else buf
    data_at = len(head) - len(head.lstrip(_SPACE))
    if data_at < len(head):
        raise MalformedFastaError(
            f"line {_line_number(buf, data_at)}: sequence data before the first '>' header"
        )
    if not starts:
        raise MalformedFastaError("input contains no FASTA records")

    records: list[EncodedSequence] = []
    seen: set[str] = set()
    for start, stop in zip(starts, starts[1:] + [len(buf)]):
        end = buf.find(b"\n", start, stop)
        if end < 0:
            end = stop
        cr = buf.find(b"\r", start, end)
        if cr >= 0:
            end = cr
        if text is None:
            header = buf[start + 1 : end].decode("latin-1").strip()
        else:
            header = text[start + 1 : end].strip()
        if not header:
            raise MalformedFastaError(f"line {_line_number(buf, start)}: empty FASTA header")
        seq_id = header.split()[0]
        if seq_id in seen:
            raise DuplicateIdError(f"duplicate record id {seq_id!r}")
        seen.add(seq_id)
        records.append(encode(buf[end:stop], policy=policy, seq_id=seq_id))
    return records


def write_fasta(seqs: list[EncodedSequence], dest, width: int = FASTA_LINE_WIDTH) -> None:
    """Write sequences as FASTA with ``width``-column wrapped lines."""
    own = isinstance(dest, (str, Path))
    fh = open(dest, "w") if own else dest
    try:
        for seq in seqs:
            fh.write(f">{seq.id}\n")
            text = seq.bases()
            for i in range(0, len(text), width):
                fh.write(text[i : i + width])
                fh.write("\n")
    finally:
        if own:
            fh.close()


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
        _from_codes(
            f"sim_{i + 1:0{pad}d}",
            rng.integers(0, 4, size=spec.length, dtype=np.int8),
        )
        for i in range(spec.species_count)
    ]
