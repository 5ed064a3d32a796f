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
2**63 (enforced via the radius cap), sums use Python's unbounded ints,
and floating point appears only in the final metric reduction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from itertools import chain, permutations

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
    "PERMUTATION_INDEX",
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

#: Inverse lookup: prime 4-tuple -> row index.
PERMUTATION_INDEX: dict[tuple[int, int, int, int], int] = {
    row: j for j, row in enumerate(PERMUTATIONS)
}

#: Radius cap.  The largest per-window product is 7**(2l+1), and
#: 7**21 < 2**63, so any radius up to 10 keeps products 64-bit safe.
MAX_RADIUS = 10

_MAX_EXPONENT = 2 * MAX_RADIUS + 1
_POW = {p: tuple(p**e for e in range(_MAX_EXPONENT + 1)) for p in PRIMES}
_PRODUCT_LIMIT = 2**63
_PRIME_ROWS = np.array(PERMUTATIONS, dtype=np.int64)

#: Nucleotides per chunk of :func:`count_histogram`.
_CHUNK = 1 << 15

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
                    f"windows; pass allow_gaps=True to override"
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

    ``dropped`` counts non-ACGT, non-whitespace characters removed
    during sanitization.  The code array is read-only; instances are
    safe to share across threads.
    """

    id: str
    codes: np.ndarray
    dropped: int = 0

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


def _from_codes(seq_id: str, codes: np.ndarray, dropped: int = 0) -> EncodedSequence:
    codes = np.ascontiguousarray(codes, dtype=np.int8)
    codes.flags.writeable = False
    return EncodedSequence(id=seq_id, codes=codes, dropped=dropped)


def encode(raw: str | bytes, policy: str = "drop", seq_id: str = "seq") -> EncodedSequence:
    """Sanitize and encode a nucleotide string.

    ``raw`` is text or bytes (any bytes-like object); text is taken one
    Latin-1 byte per character, with characters outside Latin-1 read as
    ``'?'``.  Case-insensitive A/C/G/T map to codes 0..3.  Whitespace
    (space, tab, CR, LF, VT, FF) is ignored outright, so a FASTA record
    body can be passed with its line breaks.  Any other character
    (ambiguity codes, gaps, '*', ...) is dropped and counted under the
    default ``"drop"`` policy, or raises :class:`InvalidCharacterError`
    under ``"strict"``.

    Raises :class:`EmptySequenceError` if nothing remains.
    """
    if policy not in ("drop", "strict"):
        raise ValidationError(f"unknown sanitize policy {policy!r}")
    data = raw.encode("latin-1", errors="replace") if isinstance(raw, str) else bytes(raw)
    kept = data.translate(_CODE_OF, _SPACE)
    dropped = kept.count(0xFF)
    if dropped:
        if policy == "strict":
            bad = chr(data.translate(None, _VALID)[0])
            raise InvalidCharacterError(
                f"sequence {seq_id!r}: invalid character {bad!r} under strict policy"
            )
        kept = kept.translate(None, b"\xff")
    if len(kept) == 0:
        raise EmptySequenceError(f"sequence {seq_id!r}: no A/C/G/T content")
    return _from_codes(seq_id, np.frombuffer(kept, dtype=np.int8), dropped)


def window_count(length: int, stride: int) -> int:
    """Number of windows n for a sequence of ``length`` nucleotides.

    Centers sit at positions 1, stride+2, 2*stride+3, ... (1-based), so
    n = 1 + floor((N-1) / (stride+1)).  The last center w = (n-1)(t+1)+1
    satisfies w <= N and w + t + 1 > N: no window is skipped and none
    starts past the end.
    """
    if length < 1:
        raise ValidationError(f"sequence length must be >= 1, got {length}")
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    return 1 + (length - 1) // (stride + 1)


def window_centers(length: int, stride: int) -> range:
    """1-based center positions, spaced ``stride + 1`` apart."""
    n = window_count(length, stride)
    return range(1, (n - 1) * (stride + 1) + 2, stride + 1)


def window_counts_at(
    seq: EncodedSequence, center: int, radius: int
) -> tuple[int, int, int, int]:
    """Nucleotide counts (A, C, G, T) in the window around ``center``.

    ``center`` is 1-based.  The window covers positions
    max(1, center-radius) .. min(N, center+radius); windows at the ends
    simply contain fewer nucleotides.
    """
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
    empty window maps to 1.  Exponents are table lookups; the radius cap
    guarantees the result fits in 64 bits.
    """
    p1, p2, p3, p4 = PERMUTATIONS[perm]
    f1, f2, f3, f4 = counts
    value = _POW[p1][f1] * _POW[p2][f2] * _POW[p3][f3] * _POW[p4][f4]
    assert value < _PRODUCT_LIMIT, "window product exceeded 64-bit range"
    return value


def factor_prime_product(value: int, perm: int) -> tuple[int, int, int, int]:
    """Recover the unique count tuple whose product is ``value``.

    Inverse of :func:`prime_product` for the same assignment.  Raises
    :class:`NotSmoothError` if ``value`` has a prime factor outside
    {2, 3, 5, 7} (or is not a positive integer).
    """
    if value < 1:
        raise NotSmoothError(f"{value} is not a positive integer")
    exponents = []
    rest = value
    for p in PERMUTATIONS[perm]:
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
    result has exactly ``window_count(N, stride)`` entries.
    """
    return [
        prime_product(window_counts_at(seq, c, params.radius), perm)
        for c in window_centers(seq.length, params.stride)
    ]


def window_product_sum(seq: EncodedSequence, params: PpnParams, perm: int) -> int:
    """Sum of all window products for one prime assignment (exact int)."""
    return sum(window_products(seq, params, perm))


def count_histogram(
    seq: EncodedSequence, params: PpnParams
) -> dict[tuple[int, int, int, int], int]:
    """Multiplicity of each distinct window count tuple.

    Multiplicities sum to the window count.  Grouping windows by their
    count tuple is the main performance lever: interior windows all hold
    2*radius+1 nucleotides, so the number of distinct tuples is bounded
    by the compositions of that total into four parts, independent of
    sequence length.

    Full windows are counted in chunks of about :data:`_CHUNK`
    nucleotides, so the working memory is bounded by the chunk size and
    not by the sequence length.  Each base weighs (2l+2)**b for A, C, G
    (b = 0, 1, 2) and T weighs nothing; one cumulative sum of the
    weights turns every window into a packed key ``A + C*B + G*B**2``
    taken from two prefix lookups, and ``np.bincount`` over the B**3
    keys tallies them.  T is implied, since a full window holds
    2l+1 nucleotides.  The few windows cut short by either end of the
    sequence, at most 2*ceil(l/(t+1)), are counted one by one.
    """
    n_nt, radius, step = seq.length, params.radius, params.stride + 1
    span = 2 * radius + 1
    base = span + 1
    n_windows = window_count(n_nt, params.stride)
    # full windows are those with index in [first, stop)
    first = -(-radius // step)
    stop = max(first, (n_nt - 1 - radius) // step + 1)

    per_chunk = max(1, _CHUNK // step)
    weights = np.array([1, base, base * base, 0], dtype=np.int64)
    bins = np.zeros(base**3, dtype=np.int64)
    # a chunk of m windows reads (m-1)*step + span nucleotides; the
    # buffers fit the largest chunk and every chunk reuses them
    most = max(0, min(per_chunk, stop - first))
    prefix = np.zeros(most * step + span, dtype=np.int64)
    key_buf = np.empty(most, dtype=np.int64)
    for i0 in range(first, stop, per_chunk):
        m = min(per_chunk, stop - i0)
        size = (m - 1) * step + span
        lo = i0 * step - radius
        pre = prefix[: size + 1]
        # mode="clip" lets take write straight into pre; codes are 0..3
        np.take(weights, seq.codes[lo : lo + size], out=pre[1:], mode="clip")
        np.cumsum(pre, out=pre)
        keys = np.subtract(pre[span::step], pre[: size + 1 - span : step], out=key_buf[:m])
        bins += np.bincount(keys, minlength=len(bins))

    seen = np.flatnonzero(bins)
    a = seen % base
    c = seen // base % base
    g = seen // (base * base)
    t = span - a - c - g
    hist = dict(
        zip(
            zip(a.tolist(), c.tolist(), g.tolist(), t.tolist()),
            bins[seen].tolist(),
        )
    )
    for i in chain(range(min(first, n_windows)), range(stop, n_windows)):
        counts = window_counts_at(seq, i * step + 1, radius)
        hist[counts] = hist.get(counts, 0) + 1
    return hist


def ppn_vector(seq: EncodedSequence, params: PpnParams) -> PpnVector:
    """Compute all 24 window-product sums in one pass over the sequence.

    Component j equals ``window_product_sum(seq, params, j)`` exactly;
    the histogram path just reorders the additions, and integer
    arithmetic makes the reordering harmless.
    """
    hist = count_histogram(seq, params)
    windows = window_count(seq.length, params.stride)
    # products[d, j] is tuple d's window product under assignment j;
    # the radius cap keeps each below 2**63, so int64 holds it exactly
    powers = _PRIME_ROWS ** np.array(list(hist), dtype=np.int64)[:, None, :]
    products = powers[..., 0] * powers[..., 1] * powers[..., 2] * powers[..., 3]
    # no sum exceeds windows * 7**(2l+1): int64 below 2**63, else Python ints
    exact = np.int64 if windows * 7 ** (2 * params.radius + 1) < _PRODUCT_LIMIT else object
    sums = np.array(list(hist.values()), dtype=exact) @ products.astype(exact)
    return PpnVector(
        components=tuple(sums.tolist()),
        sequence_length=seq.length,
        windows=windows,
        params=params,
    )


def distance(
    a: PpnVector,
    b: PpnVector,
    metric: Metric | str | None = None,
    normalized: bool = False,
) -> float:
    """Distance between two PPN vectors.

    Component differences are taken exactly on integers; floating point
    enters only in the final reduction (and the square root).  With
    ``normalized`` each component is first divided by its own vector's
    window count; this mode is off by default and changes nothing about
    the raw contract.

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
    if normalized:
        diffs = [
            x / a.windows - y / b.windows for x, y in zip(a.components, b.components)
        ]
        if metric is Metric.EUCLIDEAN:
            return math.sqrt(math.fsum(d * d for d in diffs))
        return math.fsum(abs(d) for d in diffs)
    if metric is Metric.EUCLIDEAN:
        ssq = sum((x - y) ** 2 for x, y in zip(a.components, b.components))
        return math.sqrt(ssq)
    return float(sum(abs(x - y) for x, y in zip(a.components, b.components)))
