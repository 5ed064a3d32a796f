"""Prime-product neighborhood (PPN) vectors for DNA sequences.

A sequence is scanned with windows of radius ``l`` centered every
``t + 1`` positions (windows truncate at the ends, they never wrap or
pad).  Each window is reduced to its nucleotide counts, the counts
become exponents of the four primes 2, 3, 5, 7 under one of the 24
possible prime-to-base assignments, and the resulting products are
summed into one integer per assignment.  The 24 sums form a vector in
R^24; two sequences are compared by the Euclidean or Manhattan distance
between their vectors.

Unique factorization makes the per-window product an injective encoding
of the count tuple, so all arithmetic here is exact: products stay below
2**63 (enforced via the radius cap), sums that could pass 2**63 are
summed as limbs of their products, each limb's sum an integer below
2**63 in int64 or below 2**53 in float64, and joined as Python ints, and
floating point rounds only in the final metric reduction.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from itertools import permutations

import numpy as np

from .errors import (
    EmptySequenceError,
    InvalidCharacterError,
    NotSmoothError,
    OutOfRangeError,
    ParamsMismatchError,
    ValidationError,
)

__all__ = [
    "BASES",
    "PRIMES",
    "PERMUTATIONS",
    "MAX_RADIUS",
    "Metric",
    "PpnParams",
    "EncodedSequence",
    "PpnVector",
    "encode",
    "window_count",
    "window_centers",
    "window_counts_at",
    "prime_product",
    "factor_prime_product",
    "window_products",
    "window_product_sum",
    "count_histogram",
    "ppn_vector",
    "distance",
]

BASES = "ACGT"
PRIMES = (2, 3, 5, 7)

#: All 24 assignments of the primes {2,3,5,7} to (A, C, G, T), in
#: lexicographic order of the 4-tuple.  Row 0 is the identity assignment
#: A=2, C=3, G=5, T=7.  The order is a stable part of the interface:
#: vector component j is defined by row j.
PERMUTATIONS: tuple[tuple[int, int, int, int], ...] = tuple(permutations(PRIMES))

#: Radius cap.  The largest per-window product is 7**(2l+1), and
#: 7**21 < 2**63, so any radius up to 10 keeps products 64-bit safe.
MAX_RADIUS = 10

_MAX_EXPONENT = 2 * MAX_RADIUS + 1
_POW = {p: tuple(p**e for e in range(_MAX_EXPONENT + 1)) for p in PRIMES}
_PRODUCT_LIMIT = 2**63

#: Codes per chunk of the window tally: a feed walks its codes this many
#: at a time through one buffer of int16 weights made for the call.  A
#: batch of short records holds at most this many codes, each record's
#: ``l`` T pad codes counted, plus the ``l`` after the last record; a
#: record that passes it alone (possible from a stride of 127) is a batch
#: of its own.
_CHUNK = 1 << 15
#: Most windows of a record that :func:`_record_vectors` batches.  A batch
#: gathers one row of 24 products per window, a tally folds one table per
#: record with a fixed set of numpy calls: on a 2-vCPU host with numpy 2.4
#: the tally was the faster past about 420 windows at l = 1, 500 at l = 4
#: and 1 000 at l = 10, and the batch the faster up to 384 at every l.
_SHORT_WINDOWS = 384
#: Windows per chunk of a batch: the one product buffer of a batch holds
#: this many rows of 24 int64 per limb, 192 KiB for one.  Chunks of 2 048
#: were 5-12 % faster at l = 1, 4 and 10, but the buffer and its per-chunk
#: index arrays took a full batch's traced peak from 644 to 883 KB.
_BATCH_WINDOWS = 1 << 10

#: Rows per block of the Gram distances: one matrix product gives a
#: block's dot products with every later row, and one pass each the
#: block's sums and roots, about 16 x k x 16 B at k int64 vectors.
_GRAM_ROWS = 16

#: ``bytes.translate`` table: byte -> base code (A=0, C=1, G=2, T=3,
#: either case), 0xFF for every other byte.
_CODE_OF = bytes(
    BASES.index(chr(b)) if chr(b) in BASES else 0xFF for b in bytes(range(256)).upper()
)
#: Bytes that :func:`encode` ignores outright.
_SPACE = b" \t\r\n\x0b\x0c"
_VALID = BASES.encode() + BASES.lower().encode() + _SPACE
_BASE_BYTES = np.frombuffer(BASES.encode(), dtype=np.uint8)


class Metric(str, Enum):
    """Distance metric applied to a pair of PPN vectors."""

    EUCLIDEAN = "euclidean"
    MANHATTAN = "manhattan"

    @classmethod
    def _missing_(cls, value):
        """Any other value: a ValidationError naming the allowed metrics."""
        allowed = ", ".join(m.value for m in cls)
        raise ValidationError(f"metric must be one of {allowed}, got {value!r}")


def _is_int(value) -> bool:
    """True for an int that is not a bool (``True`` is an ``int`` too)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class PpnParams:
    """Window geometry and metric choice.

    ``radius`` is the neighborhood half-width l (window spans up to
    2l+1 nucleotides); ``stride`` is the gap t between the edges of
    successive windows, so centers sit t+1 positions apart.  Strides
    larger than the radius leave nucleotides uncovered and are rejected
    unless ``allow_gaps`` is set.
    """

    radius: int = 4
    stride: int = 1
    metric: Metric = Metric.EUCLIDEAN
    allow_gaps: bool = False

    def __post_init__(self):
        if not _is_int(self.radius) or self.radius < 1:
            raise ValidationError(f"radius must be an integer >= 1, got {self.radius!r}")
        if self.radius > MAX_RADIUS:
            raise ValidationError(
                f"radius must be <= {MAX_RADIUS} to keep window products below 2**63, "
                f"got {self.radius}"
            )
        if not _is_int(self.stride) or self.stride < 1:
            raise ValidationError(f"stride must be an integer >= 1, got {self.stride!r}")
        if self.stride > self.radius:
            if not self.allow_gaps:
                raise ValidationError(
                    f"stride {self.stride} > radius {self.radius} leaves gaps between "
                    f"windows; pass allow_gaps=True (--allow-gaps) to override"
                )
            warnings.warn(
                f"stride {self.stride} > radius {self.radius}: successive windows no "
                f"longer overlap and some nucleotides are never counted",
                stacklevel=3,
            )
        object.__setattr__(self, "metric", Metric(self.metric))


@dataclass(frozen=True, eq=False)
class EncodedSequence:
    """A DNA sequence as 2-bit-codeable integers (A=0, C=1, G=2, T=3).

    ``codes`` must be a 1-D integer array of values 0..3, else
    :class:`ValidationError` naming the id; empty codes raise
    :class:`EmptySequenceError`.  They are stored as a contiguous int8
    array that is read-only, so the 0..3 check made here holds for the
    instance's life: the window keys look codes up with ``mode="clip"``
    and would silently miscount a code written later.  An array that is
    already a read-only contiguous int8 array, as :func:`encode` and
    :func:`ppn.seqio.read_fasta` make, is kept without a copy; any other
    is copied, so the caller's array stays as writable as it was and a
    later write to it leaves ``codes`` as they are.  ``dropped`` counts
    what sanitization removed that is neither a base nor whitespace, in
    bytes of the UTF-8 input on every route: a path, a byte stream or a
    text stream given to :func:`ppn.seqio.read_fasta`, text or bytes
    given to :func:`encode`.
    """

    id: str
    codes: np.ndarray
    dropped: int = 0

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.ndim != 1 or codes.dtype.kind not in "iu":
            raise ValidationError(
                f"sequence {self.id!r}: codes must be a 1-D integer array, got "
                f"{codes.ndim}-D {codes.dtype}"
            )
        if not len(codes):
            raise _no_bases(self.id)
        # before the int8 cast, which would wrap 256 to 0
        if codes.min() < 0 or codes.max() > 3:
            raise ValidationError(f"sequence {self.id!r}: codes must be in 0..3")
        if codes.dtype != np.int8 or codes.flags.writeable or not codes.flags.c_contiguous:
            codes = _read_only(np.array(codes, dtype=np.int8, order="C"))
        object.__setattr__(self, "codes", codes)

    @property
    def length(self) -> int:
        """Number of encoded nucleotides (N)."""
        return len(self.codes)

    def bases(self) -> str:
        """The sequence as an ACGT string."""
        return bytes(_BASE_BYTES[self.codes]).decode()

    def __eq__(self, other):
        if not isinstance(other, EncodedSequence):
            return NotImplemented
        return (
            self.id == other.id
            and self.dropped == other.dropped
            and np.array_equal(self.codes, other.codes)
        )

    def __repr__(self):
        return (
            f"EncodedSequence(id={self.id!r}, length={self.length}, "
            f"dropped={self.dropped})"
        )


@dataclass(frozen=True)
class PpnVector:
    """The 24 per-assignment window-product sums of one sequence.

    Components are exact integers in :data:`PERMUTATIONS` row order.
    ``windows`` is the number of windows summed; every component is at
    least that large since each window contributes a product >= 2.

    Raises :class:`ValidationError` unless there are 24 components and
    each is an ``int``: the distances convert them to int64 where they
    fit, which would truncate a float and read a bool as 0 or 1.
    """

    components: tuple[int, ...]
    sequence_length: int
    windows: int
    params: PpnParams

    def __post_init__(self):
        if len(self.components) != len(PERMUTATIONS):
            raise ValidationError(
                f"expected {len(PERMUTATIONS)} components, got {len(self.components)}"
            )
        kinds = set(map(type, self.components))
        if not kinds <= {int}:
            names = ", ".join(sorted(k.__name__ for k in kinds - {int}))
            raise ValidationError(f"components must be integers, got {names}")

    @classmethod
    def _of(
        cls, components: tuple[int, ...], sequence_length: int, windows: int, params: PpnParams
    ) -> PpnVector:
        """A vector made unchecked, from 24 Python ints its caller made
        itself: the batch's and the tally's rows, where the check of
        :meth:`__post_init__` is a fifth of the batch's time."""
        vector = object.__new__(cls)
        vars(vector).update(
            components=components,
            sequence_length=sequence_length,
            windows=windows,
            params=params,
        )
        return vector


def _is_strict(policy: str) -> bool:
    """True for ``"strict"``, False for ``"drop"``; any other policy is refused."""
    if policy not in ("drop", "strict"):
        raise ValidationError(f"unknown sanitize policy {policy!r}")
    return policy == "strict"


def _sanitize(data: bytes, strict: bool, seq_id: str) -> tuple[bytes, int]:
    """The base codes in ``data`` and the count of other non-space bytes.

    One translate maps bases to codes and deletes whitespace; when that
    leaves a byte that is not a base, one delete pass removes every such
    byte.  Under ``strict`` a removed byte raises
    :class:`InvalidCharacterError` naming the first one: the UTF-8
    character it starts, or, when it starts none, its Latin-1 reading.
    """
    mapped = data.translate(_CODE_OF, _SPACE)
    # a memchr is much cheaper than a delete pass that finds nothing; an
    # int operand goes to memchr straight, a bytes one does not
    kept = mapped.translate(None, b"\xff") if 0xFF in mapped else mapped
    dropped = len(mapped) - len(kept)
    if dropped and strict:
        at = data.index(data.translate(None, _VALID)[:1])
        bad = data[at : at + 4].decode("utf-8", "surrogateescape")[0]
        if "\udc80" <= bad <= "\udcff":  # a byte that starts no character: Latin-1
            bad = chr(data[at])
        raise InvalidCharacterError(
            f"sequence {seq_id!r}: invalid character {bad!r} under strict policy"
        )
    return kept, dropped


def _no_bases(seq_id: str) -> EmptySequenceError:
    return EmptySequenceError(f"sequence {seq_id!r}: no A/C/G/T content")


def _read_only(codes: np.ndarray) -> np.ndarray:
    """``codes``, made read-only in place: an array whose maker holds no
    other reference to it, handed to :class:`EncodedSequence` uncopied."""
    codes.flags.writeable = False
    return codes


def encode(raw: str | bytes, policy: str = "drop", seq_id: str = "seq") -> EncodedSequence:
    """Sanitize and encode a nucleotide string.

    ``raw`` is text or bytes (any bytes-like object); text is taken as
    its UTF-8 bytes (a lone surrogate as the three bytes
    ``"surrogatepass"`` gives it), as :func:`ppn.seqio.read_fasta` takes
    every source.  Case-insensitive A/C/G/T map to codes 0..3.
    Whitespace (space, tab, CR, LF, VT, FF) is ignored outright, so a
    FASTA record body can be passed with its line breaks.  Any other
    byte (ambiguity codes, gaps, '*', each byte of a non-ASCII
    character, ...) is dropped and counted under the default ``"drop"``
    policy, or raises :class:`InvalidCharacterError` naming the
    character it starts under ``"strict"``; the dropped count is what
    one delete pass removes, in bytes of the UTF-8 input.

    Raises :class:`EmptySequenceError` if nothing remains.
    """
    strict = _is_strict(policy)
    data = raw.encode("utf-8", "surrogatepass") if isinstance(raw, str) else bytes(raw)
    kept, dropped = _sanitize(data, strict, seq_id)
    return EncodedSequence(seq_id, np.frombuffer(kept, dtype=np.int8), dropped)


def window_count(length: int, stride: int) -> int:
    """Number of windows n for a sequence of ``length`` nucleotides.

    Centers sit at positions 1, stride+2, 2*stride+3, ... (1-based), so
    n = 1 + floor((N-1) / (stride+1)).  The last center w = (n-1)(t+1)+1
    satisfies w <= N and w + t + 1 > N: no window is skipped and none
    starts past the end.

    Raises :class:`ValidationError` unless both arguments are integers
    >= 1.
    """
    for name, value in (("sequence length", length), ("stride", stride)):
        if not _is_int(value):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ValidationError(f"{name} must be >= 1, got {value}")
    return 1 + (length - 1) // (stride + 1)


def window_centers(length: int, stride: int) -> range:
    """1-based center positions, spaced ``stride + 1`` apart.

    Raises :class:`ValidationError` as :func:`window_count` does.
    """
    n = window_count(length, stride)
    return range(1, (n - 1) * (stride + 1) + 2, stride + 1)


def window_counts_at(
    seq: EncodedSequence, center: int, radius: int
) -> tuple[int, int, int, int]:
    """Nucleotide counts (A, C, G, T) in the window around ``center``.

    ``center`` is 1-based.  The window covers positions
    max(1, center-radius) .. min(N, center+radius); windows at the ends
    simply contain fewer nucleotides.

    Raises :class:`ValidationError` unless ``center`` is an integer and
    ``radius`` an integer >= 0, and :class:`OutOfRangeError` if the
    center lies outside the sequence.
    """
    if not (_is_int(center) and _is_int(radius) and radius >= 0):
        raise ValidationError(
            f"a window needs an integer center and an integer radius >= 0, got "
            f"center {center!r}, radius {radius!r}"
        )
    n = seq.length
    if not 1 <= center <= n:
        raise OutOfRangeError(f"center {center} outside [1, {n}]")
    lo = max(1, center - radius)
    hi = min(n, center + radius)
    counts = np.bincount(seq.codes[lo - 1 : hi], minlength=4)
    return (int(counts[0]), int(counts[1]), int(counts[2]), int(counts[3]))


def prime_product(counts: tuple[int, int, int, int], perm: int) -> int:
    """Product of primes raised to window counts, under assignment ``perm``.

    With row (p1, p2, p3, p4) = PERMUTATIONS[perm] and counts
    (f1, f2, f3, f4), returns p1**f1 * p2**f2 * p3**f3 * p4**f4.  The
    empty window maps to 1.  Exponents are table lookups.

    Raises :class:`ValidationError` unless ``counts`` are four integers
    >= 0 that sum to at most 2 * MAX_RADIUS + 1, the most a window holds,
    which keeps the result below 2**63, and ``perm`` is an integer in
    0..23.
    """
    row = _assignment(perm)
    if not (
        isinstance(counts, (tuple, list))
        and len(counts) == len(BASES)
        and all(_is_int(f) and f >= 0 for f in counts)
        and sum(counts) <= _MAX_EXPONENT
    ):
        raise ValidationError(
            f"counts must be {len(BASES)} integers >= 0 that sum to at most "
            f"{_MAX_EXPONENT}, got {counts!r}"
        )
    return _product(counts, row)


def _assignment(perm) -> tuple[int, int, int, int]:
    """Row ``perm`` of :data:`PERMUTATIONS`, or a :class:`ValidationError`
    for anything but an integer index of a row."""
    if not _is_int(perm) or not 0 <= perm < len(PERMUTATIONS):
        raise ValidationError(
            f"assignment must be an integer in 0..{len(PERMUTATIONS) - 1}, got {perm!r}"
        )
    return PERMUTATIONS[perm]


def _product(counts, row) -> int:
    """The product of the primes of ``row`` raised to ``counts``."""
    (f1, f2, f3, f4), (p1, p2, p3, p4) = counts, row
    return _POW[p1][f1] * _POW[p2][f2] * _POW[p3][f3] * _POW[p4][f4]


def factor_prime_product(value: int, perm: int) -> tuple[int, int, int, int]:
    """Recover the unique count tuple whose product is ``value``.

    Inverse of :func:`prime_product` for the same assignment.  Raises
    :class:`NotSmoothError` if ``value`` has a prime factor outside
    {2, 3, 5, 7} or is not a positive integer, and
    :class:`ValidationError` if ``perm`` is not an integer in 0..23.
    """
    row = _assignment(perm)
    if not _is_int(value) or value < 1:
        raise NotSmoothError(f"{value!r} is not a positive integer")
    exponents = []
    rest = value
    for p in row:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        exponents.append(e)
    if rest != 1:
        raise NotSmoothError(f"{value} has a prime factor outside {{2, 3, 5, 7}}")
    return tuple(exponents)


def window_products(seq: EncodedSequence, params: PpnParams, perm: int) -> list[int]:
    """Per-window products at every center, for one prime assignment.

    This is the direct path: each window is counted on its own.  The
    result has exactly ``window_count(N, stride)`` entries.  Raises
    :class:`ValidationError` if ``perm`` is not an integer in 0..23.
    """
    row = _assignment(perm)
    return [
        _product(window_counts_at(seq, c, params.radius), row)
        for c in window_centers(seq.length, params.stride)
    ]


def window_product_sum(seq: EncodedSequence, params: PpnParams, perm: int) -> int:
    """Sum of all window products for one prime assignment (exact int).

    Raises as :func:`window_products` does.
    """
    return sum(window_products(seq, params, perm))


@functools.cache
def _product_table(radius: int) -> np.ndarray:
    """``table[b, e, j]`` = ``PERMUTATIONS[j][b] ** e`` for e in 0..2l+1,
    read-only; at l = 10 it is 4 x 22 x 24 int64, 17 KB."""
    primes = np.array(PERMUTATIONS, dtype=np.int64).T
    table = primes[:, None, :] ** np.arange(2 * radius + 2)[None, :, None]
    table.flags.writeable = False
    return table


@functools.cache
def _full_table(radius: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The count tuples a full window of radius l can hold, indexed by key.

    Returns ``(keys, lookup, products)``, read-only: ``keys`` are the V =
    C(2l+4, 3) window keys ``A + C*B + G*B**2`` with A + C + G <= 2l+1, in
    increasing order (220 at l = 4, 2 024 at l = 10); ``lookup`` maps each
    of the B**3 keys to its index in ``keys``, int16, and every other key
    to 0; ``products[v]`` holds the 24 products of the full window with
    key ``keys[v]``, whose T count is 2l+1 - A - C - G, V x 24 int64 (389
    KB at l = 10).  Made at the first call for a radius, not at import.
    """
    span = 2 * radius + 1
    base = span + 1
    a, c, g = np.unravel_index(np.arange(base**3), (base, base, base))[::-1]
    keys = np.flatnonzero(a + c + g <= span)
    a, c, g = a[keys], c[keys], g[keys]
    lookup = np.zeros(base**3, dtype=np.int16)
    lookup[keys] = np.arange(len(keys))
    products = _products(radius, a, c, g, span - a - c - g)
    for array in (keys, lookup, products):
        array.flags.writeable = False
    return keys, lookup, products


@functools.lru_cache(maxsize=4)
def _table_limbs(radius: int, shifts: range, dtype: type) -> np.ndarray:
    """The products of :func:`_full_table` cut into limbs at ``shifts`` by
    :func:`_limbs`, as ``dtype``, read-only: V x 24 per limb.  The last
    four cuts asked for are kept; at l = 10 two limbs take 777 KB."""
    limbs = _limbs(_full_table(radius)[2], shifts).astype(dtype, copy=False)
    limbs.flags.writeable = False
    return limbs


def _cut_products(radius: int, keys: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The 24 products of each window cut short by an end, from its key
    and its size < 2l+1, one row per window.  The cut window holds the A,
    C and G of the full window with its key and ``2l+1 - size`` fewer T,
    so its products are that window's table row divided, exactly, by the
    T prime of each assignment to the power ``2l+1 - size``."""
    _, lookup, table = _full_table(radius)
    powers_of_t = _product_table(radius)[3].take(2 * radius + 1 - sizes, axis=0)
    return table.take(lookup.take(keys), axis=0) // powers_of_t


def _products(radius: int, a, c, g, t) -> np.ndarray:
    """The window products of the count tuples ``(a[i], c[i], g[i], t[i])``
    under all 24 assignments, one row per tuple; the radius cap keeps
    each below 2**63, so int64 holds it exactly."""
    table = _product_table(radius)
    # in place: a fresh array per factor costs more than the multiply
    products = table[0].take(a, axis=0)
    products *= table[1].take(c, axis=0)
    products *= table[2].take(g, axis=0)
    products *= table[3].take(t, axis=0)
    return products


def _limb_shifts(windows: int, span: int, bits: int = 63) -> range:
    """The bit offsets at which a window product is cut into limbs of
    ``step`` bits each: as few limbs as cover 7**span, the largest
    product, while ``windows`` of any one limb sum below 2**bits.  One
    limb is always a step of the product's own bit length, so the offsets
    of one limb do not depend on ``windows``.

    The two routes sum limbs in different dtypes.  The batch adds int64
    limbs of ``bits`` = 63 with ``np.add.reduceat``; float64 limbs of 53
    bits, exact there too, made it 1.1-2.2x slower at every l tried (1,
    4, 7/3, 8, 9, 10, 10/10; 300 x 200 nt), as their gather is no
    cheaper and l = 8 and 9 need a second limb.  The tally's one
    matrix-vector product is 1.4-5x faster in float64, which BLAS runs,
    than in int64, which it does not (3.7 against 5.3 us at l = 4, 21
    against 108 us at l = 10; 2-vCPU host, numpy 2.4)."""
    top = (7**span).bit_length()
    return range(0, top, min(bits - (windows - 1).bit_length(), top))


def _limbs(products: np.ndarray, shifts: range) -> np.ndarray:
    """The limbs of ``products`` at ``shifts`` side by side along the last
    axis, 24 columns per limb, or the products as they are."""
    if len(shifts) == 1:
        return products
    mask = (1 << shifts.step) - 1
    return np.concatenate([(products >> s) & mask for s in shifts], axis=-1)


def _join(sums: np.ndarray, shifts: range) -> np.ndarray:
    """The sums of whole products from the sums of their limbs, side by
    side along the last axis as :func:`_limbs` puts them."""
    if len(shifts) == 1:
        return sums
    parts = np.split(sums, len(shifts), axis=-1)
    return sum(part.astype(object) << s for part, s in zip(parts, shifts))


def _batch_vectors(pieces: list[np.ndarray], params: PpnParams) -> list[PpnVector]:
    """The vectors of whole records, given as their code arrays, from one
    pass over their concatenation.

    The records are joined with a run of ``l`` T codes before, between
    and after them.  T weighs nothing, so the window around code c of a
    record, full or cut short by an end alike, has the key of the 2l+1
    codes from c of its padded copy: the sum of their weights, ``A + C*B
    + G*B**2`` as in :class:`_WindowTally`.  One :func:`_weigh` and one
    :func:`_window_sums` key every position in int16, as the tally keys
    its windows over its own ``l`` pads.  The windows go through
    :data:`_BATCH_WINDOWS` at a time: each takes its key from its
    record's start and center, and its row of products from the table of
    :func:`_full_table`, already cut into int64 limbs (see
    :func:`_limb_shifts`, for the record with the most windows), one
    ``take`` per chunk into one buffer that every chunk reuses; the rows
    of windows cut short by an end are then made again by
    :func:`_cut_products`, and one ``np.add.reduceat`` adds the chunk's
    rows into their records' sums.  The batch holds its codes, the pads
    among them, once as int8 and twice as int16, and the one buffer.
    """
    radius, step, span = params.radius, params.stride + 1, 2 * params.radius + 1
    lengths = np.array([len(codes) for codes in pieces], dtype=np.int64)
    windows = 1 + (lengths - 1) // step
    starts = np.cumsum(lengths + radius) - lengths - radius  # where each record's pad begins
    firsts = np.cumsum(windows) - windows  # each record's first window in the batch
    total = int(firsts[-1] + windows[-1])
    pad = np.full(radius, BASES.index("T"), dtype=np.int8)
    codes = np.concatenate([x for p in pieces for x in (pad, p)] + [pad], dtype=np.int8)
    weights = np.empty(len(codes), dtype=np.int16)
    _weigh(codes, weights, span + 1)
    keys = _window_sums(weights, span, 0, len(codes) - span + 1, 1)
    shifts = _limb_shifts(int(windows.max()), span)
    lookup, table = _full_table(radius)[1], _table_limbs(radius, shifts, np.int64)
    sums = np.zeros((len(pieces), table.shape[1]), dtype=np.int64)
    buffer = np.empty((min(total, _BATCH_WINDOWS), table.shape[1]), dtype=np.int64)
    for lo in range(0, total, _BATCH_WINDOWS):
        index = np.arange(lo, min(lo + _BATCH_WINDOWS, total))
        record = np.searchsorted(firsts, index, side="right") - 1
        center = (index - firsts[record]) * step
        end = np.minimum(center + radius + 1, lengths[record])
        size = end - np.maximum(center - radius, 0)
        key = keys[starts[record] + center]
        chunk = buffer[: len(index)]
        # mode="clip" lets take write straight into chunk; every index is valid
        table.take(lookup.take(key), axis=0, out=chunk, mode="clip")
        cut = np.flatnonzero(size < span)
        if len(cut):
            chunk[cut] = _limbs(_cut_products(radius, key[cut], size[cut]), shifts)
        first, last = record[0], record[-1]
        segments = np.concatenate([[0], firsts[first + 1 : last + 1] - lo])
        sums[first : last + 1] += np.add.reduceat(chunk, segments)
    rows = _join(sums, shifts)
    return [
        PpnVector._of(tuple(row), n, w, params)
        for row, n, w in zip(rows.tolist(), lengths.tolist(), windows.tolist())
    ]


@functools.cache
def _tally_weights(base: int) -> tuple[np.ndarray, np.ndarray]:
    """The int16 window-key weight of each code, 1, B, B**2 and 0 for
    A, C, G and T, and the int32 weights of each pair of codes, read-only.

    Two int8 codes viewed as one uint16 index the pair table, whose entry
    viewed as two int16 holds their two weights in the same memory order,
    on either byte order.  Codes are 0..3, so an index is at most 0x0303
    and the table has 772 entries; those with a byte above 3 are never
    read.
    """
    weights = np.array([1, base, base * base, 0], dtype=np.int16)
    codes = np.arange(0x0303 + 1, dtype=np.uint16).view(np.int8)
    pairs = weights.take(codes, mode="clip").view(np.int32)
    weights.flags.writeable = pairs.flags.writeable = False
    return weights, pairs


def _weigh(codes: np.ndarray, out: np.ndarray, base: int) -> None:
    """Write the int16 weight of each int8 code into ``out``, two codes at a
    time through the pair table of :func:`_tally_weights`: the codes read
    as uint16, ``out`` as int32, so ``out`` should start at an even index
    of an int16 buffer.  An odd count's last code is looked up on its own."""
    weights, pairs = _tally_weights(base)
    paired = len(codes) & ~1
    # mode="clip" lets take write straight into out; a pair is at most 0x0303
    np.take(
        pairs, codes[:paired].view(np.uint16), out=out[:paired].view(np.int32), mode="clip"
    )
    if paired < len(codes):
        out[paired] = weights[codes[-1]]


def _counts(keys: np.ndarray, size, span: int) -> tuple:
    """The counts (A, C, G, T) of windows of ``size`` codes from their keys
    ``A + C*B + G*B**2``, B = span + 1; T is what the others leave."""
    base = span + 1
    a, c, g = keys % base, keys // base % base, keys // (base * base)
    return a, c, g, size - a - c - g


def _window_sums(
    weights: np.ndarray, span: int, start: int, count: int, step: int
) -> np.ndarray:
    """The sums of ``span`` consecutive ``weights`` from ``start``,
    ``start + step``, ..., ``count`` of them, as a strided view.

    The sums of runs of width 1, 2, 4, ... each come from two shifted
    views of the width before (the doubling scan of Hillis & Steele), and
    the runs at the set bits of ``span`` are added end to end: about
    log2(span) + popcount(span) contiguous vector adds, all in the dtype
    of ``weights``, which must hold every full sum.
    """
    last = (count - 1) * step + 1
    run = weights[start : start + last + span - 1]  # run[i]: width weights from start + i
    parts, width, offset = [], 1, 0
    while width <= span:
        if span & width:
            parts.append(run[offset : offset + last])
            offset += width
        if 2 * width <= span:
            run = run[:-width] + run[width:]
        width *= 2
    return functools.reduce(np.add, parts)[::step]


class _WindowTally:
    """Window-count histogram of one sequence whose codes arrive in blocks.

    Each base weighs B**b for A, C, G (b = 0, 1, 2) and T weighs nothing,
    with B = 2l+2, so the window of codes s..e-1 has the packed key
    ``A + C*B + G*B**2``, the sum of its weights; T is implied by the
    window's size.  A key is at most (2l+1)*B**2 < B**3 <= 22**3 = 10 648
    at the radius cap, and so is every partial sum, so the weights and
    keys are int16, exact below 2**15.  As in :func:`_batch_vectors`, the
    sequence is read with ``l`` T codes before and after it, so every
    window, full or cut short by an end alike, has the key of the 2l+1
    weights from its start in the padded copy, and :func:`_window_sums`
    keys them all.  A window is keyed as soon as its last code is fed;
    ``np.bincount`` over the B**3 keys adds the full windows to the
    running ``bins``, and the first ceil(l/(t+1)) keys, of the windows
    cut by the start, go to ``_cut``.  A call walks its codes
    :data:`_CHUNK` at a time through one buffer of weights that starts
    with the weights kept from the last chunk, so a window that straddles
    two blocks or two chunks is summed like any other, and working memory
    is bounded by the chunk and block sizes, not by the sequence length.
    A chunk's weights come from :func:`_weigh`, two codes at a time into
    the buffer read as int32, so the kept weights are placed to end at an
    even index.

    Between calls the tally holds ``bins``, at most ceil(l/(t+1)) keys
    in ``_cut``, and the weights from the start of the next window not
    yet keyed to the end, fewer than 2l+1 of them, the ``l`` pads at
    first.  Once the length is known, the windows left, those cut short
    by the end, are keyed from those weights.  :meth:`vector` folds the
    bins through the table of :func:`_full_table` and adds the cut
    windows' rows of :func:`_cut_products`; :meth:`finish` decodes the
    bins and the cut windows into count tuples with :func:`_counts`.
    """

    def __init__(self, params: PpnParams):
        self.params = params
        self._radius = params.radius
        self._step = params.stride + 1
        self._span = 2 * params.radius + 1
        base = self._span + 1
        self.bins = np.zeros(base**3, dtype=np.int64)
        self.length = 0
        # index of the first window not yet keyed
        self._next = 0
        # the keys of the windows cut by the start, and the weights from the
        # next window's start to code n - 1, the l pads before code 0 at first
        self._cut = []
        self._tail = [0] * self._radius

    def feed(self, codes: np.ndarray) -> None:
        """Key every window that ends inside the codes fed so far."""
        radius, step, span = self._radius, self._step, self._span
        cuts = -(-radius // step)  # windows cut by the start
        buf = np.empty(min(len(codes), _CHUNK) + span, dtype=np.int16)
        kept = len(self._tail)
        at = kept % 2  # the kept weights end, and the chunk's start, at an even index
        buf[at : at + kept] = self._tail
        for lo in range(0, len(codes), _CHUNK):
            chunk = codes[lo : lo + _CHUNK]
            hi = kept + len(chunk)
            weights = buf[at : at + hi]
            _weigh(chunk, weights[kept:], span + 1)
            first = self.length - kept  # weights[i] is code first + i's
            self.length += len(chunk)
            start = self._next * step - radius - first
            done = (self.length - 1 - radius) // step + 1
            if done > self._next:
                keys = _window_sums(weights, span, start, done - self._next, step)
                if self._next < cuts:
                    self._cut += keys[: cuts - self._next].tolist()
                    keys = keys[cuts - self._next :]
                self.bins += np.bincount(keys, minlength=len(self.bins))
                start += (done - self._next) * step
                self._next = done
            # keep the weights from the next window's start, none if it starts later
            kept = hi - min(start, hi)
            at = kept % 2
            buf[at : at + kept] = weights[hi - kept :]
        self._tail = buf[at : at + kept].tolist()

    def _cut_windows(self) -> tuple[np.ndarray, np.ndarray]:
        """The keys of the windows cut short by an end of the sequence, in
        window order, and their sizes, both int64.  There are at most
        2*ceil(l/(t+1)) of them, so the windows the end cuts are summed
        in Python from the kept weights, which l pads end."""
        radius, step, span = self._radius, self._step, self._span
        n = self.length
        left = range(self._next, window_count(n, step - 1))
        weights = self._tail + [0] * radius  # from window _next's start
        keys = self._cut + [sum(weights[i : i + span]) for i in range(0, len(left) * step, step)]
        centers = [j * step for j in [*range(len(self._cut)), *left]]
        sizes = [min(c + radius + 1, n) - max(c - radius, 0) for c in centers]
        return np.array(keys, dtype=np.int64), np.array(sizes, dtype=np.int64)

    def finish(self) -> tuple[np.ndarray, np.ndarray]:
        """Window count tuples (A, C, G, T) as rows, and their multiplicities:
        one row per nonzero bin, then one per window cut short by an end of
        the sequence, in window order, so a tuple may appear in more than
        one row."""
        cut, sizes = self._cut_windows()
        seen = np.flatnonzero(self.bins)
        keys = np.concatenate([seen, cut])
        sizes = np.concatenate([np.full(len(seen), self._span), sizes])
        counts = np.stack(_counts(keys, sizes, self._span), axis=1)
        return counts, np.concatenate([self.bins[seen], np.ones(len(cut), dtype=np.int64)])

    def vector(self) -> PpnVector:
        """The vector of everything fed so far.

        The full windows fold through the table of their radius: the bins
        of its V keys, as float64, times its products cut into limbs of b
        bits, b = 53 - bitlen(windows - 1), one BLAS matrix-vector product.
        Every term is a count times a limb, an integer, and the counts sum
        to at most ``windows``, so every partial sum is an integer below
        2**53 and the float64 result is exact in any order of addition.
        The windows cut short by an end, at most 2*ceil(l/(t+1)), add the
        same limbs of their own products, in int64.
        """
        radius, span = self._radius, self._span
        windows = window_count(self.length, self.params.stride)
        shifts = _limb_shifts(windows, span, 53)
        full = self.bins.take(_full_table(radius)[0]).astype(np.float64)
        sums = (full @ _table_limbs(radius, shifts, np.float64)).astype(np.int64)
        keys, sizes = self._cut_windows()
        if len(keys):
            sums += _limbs(_cut_products(radius, keys, sizes), shifts).sum(axis=0)
        return PpnVector._of(
            tuple(_join(sums, shifts).tolist()), self.length, windows, self.params
        )


def count_histogram(
    seq: EncodedSequence, params: PpnParams
) -> dict[tuple[int, int, int, int], int]:
    """Multiplicity of each distinct window count tuple.

    Multiplicities sum to the window count.  Grouping windows by their
    count tuple is the main performance lever: interior windows all hold
    2*radius+1 nucleotides, so the number of distinct tuples is bounded
    by the compositions of that total into four parts, independent of
    sequence length.  The at most 2*ceil(l/(t+1)) windows cut short by
    an end of the sequence hold fewer, and their tuples count only the
    nucleotides inside it: the tally keys them over ``l`` T pads, which
    the window's size then leaves out.  The codes go through the same
    block tally as a streamed FASTA record, as one block.
    """
    tally = _WindowTally(params)
    tally.feed(seq.codes)
    counts, multiplicity = tally.finish()
    hist = {}
    for row, weight in zip(map(tuple, counts.tolist()), multiplicity.tolist()):
        hist[row] = hist.get(row, 0) + weight
    return hist


def ppn_vector(seq: EncodedSequence, params: PpnParams) -> PpnVector:
    """Compute all 24 window-product sums in one pass over the sequence.

    Component j equals ``window_product_sum(seq, params, j)`` exactly;
    the histogram path just reorders the additions, and integer
    arithmetic makes the reordering harmless.
    """
    tally = _WindowTally(params)
    tally.feed(seq.codes)
    return tally.vector()


def _record_vectors(records, params: PpnParams):
    """Yield ``(id, vector)`` for each record ``(id, codes, tally)`` in order.

    A record is whole ``codes`` (``tally`` None) or the tally its codes
    were fed to.  Whole codes of at most :data:`_SHORT_WINDOWS` windows
    wait in a batch for one :func:`_batch_vectors` pass, flushed before
    it would pass :data:`_CHUNK` codes, each record's ``l`` pad codes
    counted, before any other vector and at the end; longer ones go to a
    tally of their own.
    """
    short = _SHORT_WINDOWS * (params.stride + 1)
    ids, pieces, held = [], [], 0
    for seq_id, codes, tally in records:
        batched = tally is None and len(codes) <= short
        if ids and (not batched or held + len(codes) + params.radius > _CHUNK):
            yield from zip(ids, _batch_vectors(pieces, params))
            ids, pieces, held = [], [], 0
        if batched:
            ids.append(seq_id)
            pieces.append(codes)
            held += len(codes) + params.radius
            continue
        if tally is None:
            tally = _WindowTally(params)
            tally.feed(codes)
        yield seq_id, tally.vector()
    if ids:
        yield from zip(ids, _batch_vectors(pieces, params))


def _shifted_rows(vectors: list[PpnVector], metric: Metric) -> np.ndarray:
    """The components minus each column's minimum, one row per vector.

    A shift changes no difference, and leaves every element in
    0..spread_j, the column's max minus its min.  No pair's sum of
    squares exceeds sum(spread_j**2), nor its sum of absolute
    differences sum(spread_j); when the metric's bound is below 2**63
    the rows are int64, else object dtype holding Python ints.
    """
    rows = np.array([v.components for v in vectors], dtype=object)
    rows -= rows.min(axis=0)
    spread = rows.max(axis=0)
    bound = (spread * spread if metric is Metric.EUCLIDEAN else spread).sum()
    return rows.astype(np.int64) if bound < _PRODUCT_LIMIT else rows


def _distance_rows(vectors: list[PpnVector], metric: Metric, normalized: bool):
    """Yield, for each vector in turn, its distances to every later vector.

    Without ``normalized`` the rows come from :func:`_shifted_rows`, and
    each row is one exact integer sum per pair, in int64 or in Python
    ints, then one conversion to float64 and, for Euclidean,
    ``np.sqrt``: either conversion rounds to nearest-even like
    ``float(int)`` and IEEE square root is correctly rounded, so the
    result is bit-identical to ``math.sqrt`` of the exact sum.  A
    Euclidean sum is taken in the Gram form ``sq_i + sq_j - 2 x_i.x_j``
    from each row's sum of squares ``sq``, made once: every shifted
    element lies in 0..spread_j, so ``sq_i``, ``x_i.x_j`` and the sum
    itself are at most sum(spread_j**2), below 2**63 on int64 rows.
    ``sq_i + sq_j`` and ``2 x_i.x_j`` may pass it, but int64 arithmetic
    wraps mod 2**64 and the true sum lies in 0..2**63 - 1, so the int64
    result is that sum; on object rows every step is exact in Python
    ints.  The sums come :data:`_GRAM_ROWS` rows at a time: one matrix
    product gives the block's dot products with every later row, one
    pass each its sums and roots, and each row is yielded as a slice of
    its block.  A Manhattan row sums each pair's absolute differences.
    With ``normalized`` the rows are float64 arrays of the correctly
    rounded ``x / windows``; each pair's difference terms are summed by
    ``math.fsum``.  The vectors are not held once the rows are made.
    """
    if normalized:
        rows = np.array([[c / v.windows for c in v.components] for v in vectors])
    else:
        rows = _shifted_rows(vectors, metric)
    del vectors  # a list that no one else holds goes before the first row
    euclidean = metric is Metric.EUCLIDEAN
    if euclidean and not normalized:
        sq = (rows * rows).sum(axis=1)
        for lo in range(0, len(rows) - 1, _GRAM_ROWS):
            block = slice(lo, lo + _GRAM_ROWS)
            dots = rows[block] @ rows[lo + 1 :].T
            sums = (sq[block, None] + sq[lo + 1 :] - 2 * dots).astype(np.float64)
            distances = np.sqrt(sums, out=sums)  # distances[r, c]: rows lo + r, lo + 1 + c
            yield from (row[at:] for at, row in enumerate(distances[: len(rows) - 1 - lo]))
        return
    for i in range(len(rows) - 1):
        if normalized:
            diff = rows[i] - rows[i + 1 :]
            terms = diff * diff if euclidean else np.abs(diff)
            sums = np.array([math.fsum(t) for t in terms.tolist()])
        else:
            sums = np.abs(rows[i] - rows[i + 1 :]).sum(axis=1).astype(np.float64)
        yield np.sqrt(sums) if euclidean else sums


def distance(
    a: PpnVector,
    b: PpnVector,
    metric: Metric | str | None = None,
    normalized: bool = False,
) -> float:
    """Distance between two PPN vectors.

    The pair's sum of squared or absolute differences is taken exactly
    on integers, the Euclidean one in the Gram form of
    :func:`_distance_rows`, in int64 when the pair's spreads bound the
    sum below 2**63 and in Python ints otherwise; floating point enters
    only in the sum's conversion and the square root, so the result is
    the same Python ``float`` either way.  With ``normalized`` each
    component is first divided by its own vector's window count; this
    mode is off by default and changes nothing about the raw contract.
    :func:`ppn.phylo.pairwise_matrix` runs the same code.

    Raises :class:`ParamsMismatchError` if the vectors were computed
    with different radius or stride.
    """
    pa, pb = a.params, b.params
    if (pa.radius, pa.stride) != (pb.radius, pb.stride):
        raise ParamsMismatchError(
            f"vectors computed with different params: radius {pa.radius} vs "
            f"{pb.radius}, stride {pa.stride} vs {pb.stride}"
        )
    metric = Metric(metric) if metric is not None else pa.metric
    return float(next(_distance_rows([a, b], metric, normalized))[0])
