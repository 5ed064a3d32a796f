"""Unit tests for encoding, window counting, prime products, vectors,
and the vector metric."""

import math
import random
import warnings
from collections import Counter
from itertools import combinations, permutations, product

import numpy as np
import pytest

from ppn import (
    BASES,
    MAX_RADIUS,
    PERMUTATIONS,
    PRIMES,
    EmptySequenceError,
    InvalidCharacterError,
    Metric,
    NotSmoothError,
    OutOfRangeError,
    ParamsMismatchError,
    PpnParams,
    PpnVector,
    ValidationError,
    count_histogram,
    EncodedSequence,
    distance,
    encode,
    factor_prime_product,
    ppn_vector,
    prime_product,
    window_centers,
    window_count,
    window_counts_at,
    window_product_sum,
    window_products,
)
from ppn.core import (
    _CHUNK,
    _WindowTally,
    _batch_vectors,
    _join,
    _limb_shifts,
    _limbs,
    _shifted_rows,
    _tally_weights,
)
from ppn.phylo import _vector_matrix
from oracles import decimal_euclidean, exact_manhattan, naive_vector, scalar_distance

DEMO = "ACTGCCTCGATAA"


def random_dna(rng, n):
    return "".join(rng.choice(BASES) for _ in range(n))


# -- permutation table ---------------------------------------------------------

class TestPermutationTable:
    def test_has_24_unique_rows(self):
        assert len(PERMUTATIONS) == 24
        assert len(set(PERMUTATIONS)) == 24
        assert all(sorted(row) == [2, 3, 5, 7] for row in PERMUTATIONS)

    def test_row_zero_is_identity_assignment(self):
        assert PERMUTATIONS[0] == (2, 3, 5, 7)

    def test_rows_are_in_lexicographic_order(self):
        assert list(PERMUTATIONS) == sorted(PERMUTATIONS)
        # spot values pin the enumeration, not just the ordering
        assert PERMUTATIONS[1] == (2, 3, 7, 5)
        assert PERMUTATIONS[23] == (7, 5, 3, 2)

    def test_matches_itertools_enumeration(self):
        assert list(PERMUTATIONS) == list(permutations(PRIMES))


# -- encoding ------------------------------------------------------------------

class TestEncode:
    def test_maps_bases_to_codes_in_order(self):
        seq = encode(DEMO)
        assert list(seq.codes) == [0, 1, 3, 2, 1, 1, 3, 1, 2, 0, 3, 0, 0]
        assert seq.length == 13
        assert seq.bases() == DEMO

    def test_lowercase_is_accepted(self):
        assert encode("acgt").bases() == "ACGT"

    def test_drop_policy_counts_removed_characters(self):
        seq = encode("ACNNGT", policy="drop")
        assert seq.bases() == "ACGT"
        assert seq.dropped == 2

    def test_whitespace_is_not_counted_as_dropped(self):
        seq = encode("AC GT\nAC", policy="drop")
        assert seq.bases() == "ACGTAC"
        assert seq.dropped == 0

    def test_bytes_encode_like_text(self):
        # text is taken as its UTF-8 bytes, so 'ÿ' drops two
        for raw in ("AC GT\r\nNNac", "x\xff-ACG\t"):
            assert encode(raw.encode("utf-8")) == encode(raw)
        assert encode("x\xff-ACG\t").dropped == 4
        with pytest.raises(InvalidCharacterError, match="'\xe9'"):
            encode(b"AC\n\xe9GT", policy="strict")

    def test_strict_policy_rejects_other_characters(self):
        with pytest.raises(InvalidCharacterError, match="N"):
            encode("ACNGT", policy="strict")

    def test_strict_policy_rejects_whitespace_free_ambiguity_codes(self):
        for ch in "RYKMSWBDHVN-":
            with pytest.raises(InvalidCharacterError):
                encode(f"ACGT{ch}", policy="strict")

    def test_empty_after_filtering_is_an_error(self):
        with pytest.raises(EmptySequenceError):
            encode("NNN", policy="drop")
        with pytest.raises(EmptySequenceError):
            encode("")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError):
            encode("ACGT", policy="ignore")

    def test_codes_are_read_only(self):
        seq = encode("ACGT")
        with pytest.raises(ValueError):
            seq.codes[0] = 3

    def test_equality_is_by_content(self):
        assert encode("ACGT", seq_id="x") == encode("ACGT", seq_id="x")
        assert encode("ACGT", seq_id="x") != encode("ACGT", seq_id="y")
        assert encode("ACGT", seq_id="x") != encode("ACGA", seq_id="x")


class TestEncodedSequence:
    @staticmethod
    def _codes_with(value):
        codes = np.random.default_rng(8).integers(0, 4, 1000)
        codes[500] = value
        return codes

    @pytest.mark.parametrize("value", [7, -1, 4, 256])
    def test_codes_outside_0_to_3_are_refused(self, value):
        # a 7 once read as T on the fast path and as itself on the spec path;
        # 256 would wrap to A in the int8 cast
        with pytest.raises(ValidationError, match="'x'.*0..3"):
            EncodedSequence("x", self._codes_with(value))

    @pytest.mark.parametrize(
        "codes", [np.array([[0, 1], [2, 3]]), np.array([0.0, 1.0]), np.int64(2)]
    )
    def test_codes_must_be_a_1d_integer_array(self, codes):
        with pytest.raises(ValidationError, match="'x'.*1-D integer"):
            EncodedSequence("x", codes)

    def test_empty_codes_are_no_bases(self):
        with pytest.raises(EmptySequenceError, match="sequence 'x': no A/C/G/T content"):
            EncodedSequence("x", np.array([], dtype=np.int8))

    @pytest.mark.parametrize("codes", [
        np.zeros(5, np.int8),  # writable int8: copied, not frozen
        np.zeros(10, np.int8)[::2],  # not contiguous
        np.zeros(5, np.int64),  # another dtype
    ], ids=["int8", "strided", "int64"])
    def test_leaves_the_callers_array_writable_and_its_own(self, codes):
        seq = EncodedSequence("x", codes)
        assert codes.flags.writeable
        codes[0] = 1
        assert seq.codes.tolist() == [0] * 5
        assert not seq.codes.flags.writeable

    def test_keeps_a_read_only_int8_array_uncopied(self):
        codes = np.zeros(5, np.int8)
        codes.flags.writeable = False
        assert EncodedSequence("x", codes).codes is codes
        seq = encode("ACGT")
        assert EncodedSequence("y", seq.codes).codes is seq.codes

    def test_valid_codes_are_stored_as_read_only_int8(self):
        seq = EncodedSequence("x", self._codes_with(3), dropped=2)
        assert seq.codes.dtype == np.int8 and seq.codes.flags.c_contiguous
        assert not seq.codes.flags.writeable
        assert seq == EncodedSequence("x", seq.codes.astype(np.uint16), dropped=2)
        assert ppn_vector(seq, PpnParams()).components[0] == window_product_sum(
            seq, PpnParams(), 0
        )

    def test_is_unequal_to_what_is_not_an_encoded_sequence(self):
        seq = encode("ACGT")
        assert seq.__eq__("ACGT") is NotImplemented
        assert (seq == "ACGT") is False

    def test_repr_names_id_length_and_dropped(self):
        seq = encode("ACGNT", seq_id="x")
        assert repr(seq) == "EncodedSequence(id='x', length=4, dropped=1)"


# -- parameters ----------------------------------------------------------------

class TestPpnParams:
    def test_defaults(self):
        p = PpnParams()
        assert (p.radius, p.stride) == (4, 1)
        assert p.metric is Metric.EUCLIDEAN

    def test_radius_bounds(self):
        with pytest.raises(ValidationError):
            PpnParams(radius=0)
        with pytest.raises(ValidationError):
            PpnParams(radius=MAX_RADIUS + 1)
        with pytest.raises(ValidationError):
            PpnParams(radius=True)
        assert PpnParams(radius=MAX_RADIUS, stride=1).radius == MAX_RADIUS

    def test_stride_bounds(self):
        with pytest.raises(ValidationError):
            PpnParams(stride=0)
        with pytest.raises(ValidationError):
            PpnParams(radius=2, stride=3)
        with pytest.raises(ValidationError):
            PpnParams(stride=True)

    def test_allow_gaps_permits_wide_stride_with_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            p = PpnParams(radius=2, stride=5, allow_gaps=True)
        assert p.stride == 5
        assert any("stride" in str(w.message) for w in caught)

    def test_metric_accepts_strings(self):
        assert PpnParams(metric="manhattan").metric is Metric.MANHATTAN
        with pytest.raises(ValidationError, match="euclidean, manhattan, got 'cosine'"):
            PpnParams(metric="cosine")
        v = ppn_vector(encode(DEMO), PpnParams(radius=2, stride=1))
        assert distance(v, v, metric="manhattan") == 0.0
        with pytest.raises(ValidationError, match="euclidean, manhattan, got 'cosine'"):
            distance(v, v, metric="cosine")


# -- windows -------------------------------------------------------------------

class TestWindows:
    def test_center_positions_step_by_stride_plus_one(self):
        assert list(window_centers(13, 1)) == [1, 3, 5, 7, 9, 11, 13]
        assert list(window_centers(10, 2)) == [1, 4, 7, 10]
        assert list(window_centers(1, 5)) == [1]

    def test_window_count_formula(self):
        for n in range(1, 200):
            for t in range(1, 6):
                assert window_count(n, t) == 1 + (n - 1) // (t + 1)
                assert window_count(n, t) == len(window_centers(n, t))

    @pytest.mark.parametrize("length, stride, message", [
        (0, 1, "sequence length must be >= 1, got 0"),
        (5, 0, "stride must be >= 1, got 0"),
    ])
    def test_window_count_refuses_no_sequence_and_no_stride(self, length, stride, message):
        with pytest.raises(ValidationError, match=message):
            window_count(length, stride)

    @pytest.mark.parametrize("length, stride", [
        (5.5, 1), (5, 1.5), (True, 1), (5, True), ("5", 1), (np.int64(5), 1),
    ])
    def test_window_count_and_centers_refuse_arguments_that_are_not_integers(
        self, length, stride
    ):
        for function in (window_count, window_centers):
            with pytest.raises(ValidationError, match="must be an integer, got"):
                function(length, stride)

    @pytest.mark.parametrize("center, radius", [
        (3, -1), (3.5, 1), (3, 1.0), (True, 1), (3, False), (np.int64(3), 1),
    ])
    def test_counts_refuse_a_center_or_radius_they_cannot_take(self, center, radius):
        with pytest.raises(ValidationError, match="integer center and an integer radius"):
            window_counts_at(encode(DEMO), center, radius)

    def test_counts_truncate_at_the_left_edge(self):
        seq = encode(DEMO)
        # center 1, radius 1 covers positions 1..2 only
        assert window_counts_at(seq, 1, 1) == (1, 1, 0, 0)

    def test_counts_truncate_at_the_right_edge(self):
        seq = encode(DEMO)
        # center 13, radius 1 covers positions 12..13
        assert window_counts_at(seq, 13, 1) == (2, 0, 0, 0)

    def test_interior_window_spans_both_sides(self):
        seq = encode(DEMO)
        # center 3, radius 1 covers CTG
        assert window_counts_at(seq, 3, 1) == (0, 1, 1, 1)

    def test_center_out_of_range(self):
        seq = encode("ACGT")
        with pytest.raises(OutOfRangeError):
            window_counts_at(seq, 0, 1)
        with pytest.raises(OutOfRangeError):
            window_counts_at(seq, 5, 1)

    def test_radius_larger_than_sequence_covers_everything(self):
        seq = encode("ACGTACG")
        assert window_counts_at(seq, 4, 10) == (2, 2, 2, 1)


# -- prime products ------------------------------------------------------------

class TestPrimeProduct:
    def test_spot_values_under_identity(self):
        # window GCC: two C, one G
        assert prime_product((0, 2, 1, 0), 0) == 45
        # window AC
        assert prime_product((1, 1, 0, 0), 0) == 6
        assert prime_product((0, 0, 0, 0), 0) == 1

    def test_respects_the_assignment_row(self):
        # one of each base is prime-order independent
        assert all(prime_product((1, 1, 1, 1), j) == 210 for j in range(24))
        # a single T picks out the fourth prime of each row
        for j, row in enumerate(PERMUTATIONS):
            assert prime_product((0, 0, 0, 1), j) == row[3]

    @pytest.mark.parametrize("counts, perm, message", [
        ((-1, 0, 0, 0), 0, "counts must be"),
        ((11, 11, 0, 0), 0, "counts must be"),
        ((22, 0, 0, 0), 0, "counts must be"),
        ((1, 0, 0), 0, "counts must be"),
        ((1, 0, 0, 0, 0), 0, "counts must be"),
        ((1.0, 0, 0, 0), 0, "counts must be"),
        ((True, 0, 0, 0), 0, "counts must be"),
        (5, 0, "counts must be"),
        ((1, 0, 0, 0), -1, "assignment must be"),
        ((1, 0, 0, 0), 24, "assignment must be"),
        ((1, 0, 0, 0), True, "assignment must be"),
        ((1, 0, 0, 0), 1.0, "assignment must be"),
    ])
    def test_product_refuses_counts_or_assignments_it_cannot_take(self, counts, perm, message):
        with pytest.raises(ValidationError, match=message):
            prime_product(counts, perm)

    @pytest.mark.parametrize("value, perm, error", [
        (6.0, 0, NotSmoothError),
        (True, 0, NotSmoothError),
        ("6", 0, NotSmoothError),
        (6, -1, ValidationError),
        (6, 24, ValidationError),
        (6, True, ValidationError),
    ])
    def test_factorization_refuses_values_or_assignments_it_cannot_take(
        self, value, perm, error
    ):
        with pytest.raises(error):
            factor_prime_product(value, perm)

    @pytest.mark.parametrize("perm", [-1, 24, True, 0.0])
    def test_window_products_refuse_an_assignment_that_is_no_row(self, perm):
        seq = encode(DEMO)
        for function in (window_products, window_product_sum):
            with pytest.raises(ValidationError, match="assignment must be"):
                function(seq, PpnParams(radius=1, stride=1), perm)

    def test_factorization_recovers_counts(self):
        assert factor_prime_product(105, 0) == (0, 1, 1, 1)
        assert factor_prime_product(45, 0) == (0, 2, 1, 0)
        assert factor_prime_product(1, 17) == (0, 0, 0, 0)

    def test_factorization_rejects_rough_numbers(self):
        for bad in (0, -6, 11, 2 * 11, 13):
            with pytest.raises(NotSmoothError):
                factor_prime_product(bad, 0)

    def test_round_trip_small_sweep(self):
        for counts in product(range(4), repeat=4):
            for j in (0, 5, 23):
                assert factor_prime_product(prime_product(counts, j), j) == counts

    def test_max_exponent_fits_in_64_bits(self):
        # widest window: radius 10 either side plus the center
        top = prime_product((0, 0, 0, 21), 0)
        assert top == 7**21
        assert top < 2**63


# -- vectors -------------------------------------------------------------------

class TestVector:
    def test_worked_example_products_and_sum(self):
        seq = encode(DEMO)
        params = PpnParams(radius=1, stride=1)
        assert window_products(seq, params, 0) == [6, 105, 45, 63, 30, 28, 4]
        assert window_product_sum(seq, params, 0) == 281

    @pytest.mark.parametrize("count", [23, 25])
    def test_other_than_24_components_are_refused(self, count):
        with pytest.raises(ValidationError, match=f"expected 24 components, got {count}"):
            PpnVector((2,) * count, sequence_length=1, windows=1, params=PpnParams())

    @pytest.mark.parametrize("component, kind", [
        (1.5, "float"), (True, "bool"), ("1", "str"), (np.int64(1), "int64"),
    ])
    def test_components_that_are_not_integers_are_refused(self, component, kind):
        with pytest.raises(ValidationError, match=f"components must be integers, got {kind}"):
            PpnVector((1,) * 23 + (component,), sequence_length=1, windows=1, params=PpnParams())

    @pytest.mark.parametrize("radius", [1, 4, 10])
    def test_batch_and_tally_vectors_pass_the_public_check(self, radius):
        # both routes make their vectors unchecked, from their own ints;
        # at l = 10 each product is joined from two limbs as Python ints
        params = PpnParams(radius=radius, stride=1)
        rng = np.random.default_rng(radius)
        pieces = [rng.integers(0, 4, n, dtype=np.int8) for n in (1, 50, 300)]
        pieces.append(np.full(100, 3, dtype=np.int8))  # poly-T: every product largest
        tallied = [ppn_vector(EncodedSequence("x", codes), params) for codes in pieces]
        for batched, tally in zip(_batch_vectors(pieces, params), tallied, strict=True):
            assert batched == tally
            for vector in (batched, tally):
                assert set(map(type, vector.components)) == {int}
                checked = PpnVector(
                    vector.components, vector.sequence_length, vector.windows, params
                )
                assert (checked, hash(checked), repr(checked)) == (
                    vector, hash(vector), repr(vector)
                )

    def test_vector_component_zero_matches_sum(self):
        seq = encode(DEMO)
        params = PpnParams(radius=1, stride=1)
        vec = ppn_vector(seq, params)
        assert vec.components[0] == 281
        assert vec.windows == 7
        assert vec.sequence_length == 13
        assert all(isinstance(c, int) for c in vec.components)

    def test_histogram_groups_equal_count_windows(self):
        hist = count_histogram(encode("AAAA"), PpnParams(radius=1, stride=1))
        assert hist == {(2, 0, 0, 0): 1, (3, 0, 0, 0): 1}

    def test_histogram_multiplicities_cover_every_window(self):
        rng = random.Random(11)
        for _ in range(20):
            raw = random_dna(rng, rng.randint(1, 400))
            params = PpnParams(radius=rng.randint(1, 5), stride=1)
            hist = count_histogram(encode(raw), params)
            assert sum(hist.values()) == window_count(len(raw), params.stride)

    def test_histogram_path_equals_direct_path(self):
        rng = random.Random(23)
        for _ in range(25):
            raw = random_dna(rng, rng.randint(1, 300))
            radius = rng.randint(1, 5)
            params = PpnParams(radius=radius, stride=rng.randint(1, radius))
            seq = encode(raw)
            vec = ppn_vector(seq, params)
            for j in (0, 7, 23):
                assert vec.components[j] == window_product_sum(seq, params, j)

    def test_matches_naive_recount(self):
        rng = random.Random(5)
        for _ in range(30):
            raw = random_dna(rng, rng.randint(1, 250))
            radius = rng.randint(1, 5)
            params = PpnParams(radius=radius, stride=rng.randint(1, radius))
            vec = ppn_vector(encode(raw), params)
            expected = naive_vector(raw, params.radius, params.stride, PERMUTATIONS)
            assert list(vec.components) == expected

    def test_relabeling_permutes_components(self):
        # renaming bases permutes the 24 sums: the sum under row p for the
        # relabeled string equals the sum under row p∘g for the original
        rng = random.Random(7)
        params = PpnParams(radius=3, stride=2)
        index_of = {row: j for j, row in enumerate(PERMUTATIONS)}
        raw = random_dna(rng, 120)
        vec = ppn_vector(encode(raw), params)
        for g in permutations(range(4)):
            relabeled = raw.translate(str.maketrans(BASES, "".join(BASES[g[i]] for i in range(4))))
            vec_g = ppn_vector(encode(relabeled), params)
            for j, row in enumerate(PERMUTATIONS):
                j2 = index_of[tuple(row[g[m]] for m in range(4))]
                assert vec_g.components[j] == vec.components[j2]
            assert sorted(vec_g.components) == sorted(vec.components)

    def test_single_substitution_moves_every_component(self):
        # when windows overlap, each position is covered somewhere, and a
        # changed base rescales that window's product under every row
        rng = random.Random(13)
        params = PpnParams(radius=4, stride=1)
        raw = random_dna(rng, 200)
        vec = ppn_vector(encode(raw), params)
        pos = rng.randrange(200)
        new = BASES[(BASES.index(raw[pos]) + 1) % 4]
        mutated = raw[:pos] + new + raw[pos + 1 :]
        vec2 = ppn_vector(encode(mutated), params)
        assert all(a != b for a, b in zip(vec.components, vec2.components))

    def test_wide_radius_long_run_is_exact(self):
        # 21 identical bases per interior window: the largest possible product
        seq = encode("T" * 1000)
        vec = ppn_vector(seq, PpnParams(radius=10, stride=1))
        products = window_products(seq, PpnParams(radius=10, stride=1), 0)
        assert vec.components[0] == sum(products)
        assert max(products) == 7**21

    def test_int16_keys_have_headroom_at_the_radius_cap(self):
        # the tally keys windows in int16: every key is below B**3, B = 2l+2,
        # so raising the radius cap past this bound must fail here first
        assert (2 * MAX_RADIUS + 2) ** 3 <= 2**15

    @pytest.mark.parametrize("radius", range(1, MAX_RADIUS + 1))
    @pytest.mark.parametrize("base", BASES)
    def test_single_base_run_fed_in_blocks_equals_the_closed_form(self, base, radius):
        # one base throughout: every window of size s adds p**s under each
        # assignment, and a run of G makes the largest key, (2l+1)*B**2
        n = _CHUNK + 3 * (2 * radius + 1) + 5
        tally = _WindowTally(PpnParams(radius=radius, stride=1))
        codes = encode(base * n).codes
        for lo in range(0, n, 10007):
            tally.feed(codes[lo : lo + 10007])
        sizes = [min(c + radius, n) - max(c - radius, 1) + 1 for c in window_centers(n, 1)]
        b = BASES.index(base)
        want = [sum(row[b] ** s for s in sizes) for row in PERMUTATIONS]
        assert list(tally.vector().components) == want

    @pytest.mark.parametrize("radius", range(1, MAX_RADIUS + 1))
    def test_pair_table_holds_the_weights_of_both_codes(self, radius):
        # the tally looks its weights up two codes at a time, by the pair's
        # bytes read as one uint16, whichever the byte order
        base = 2 * radius + 2
        weights, pairs = _tally_weights(base)
        assert weights.tolist() == [1, base, base * base, 0]
        assert len(pairs) == 0x0303 + 1
        assert not weights.flags.writeable and not pairs.flags.writeable
        for a, b in product(range(4), repeat=2):
            index = np.array([a, b], dtype=np.int8).view(np.uint16)
            assert pairs[index].view(np.int16).tolist() == [weights[a], weights[b]]

    @pytest.mark.parametrize("radius", range(1, MAX_RADIUS + 1))
    def test_batch_of_every_short_length_equals_the_tally(self, radius):
        # a batch keys its windows from the T codes joined around each
        # record: records of 1..2l+3 codes have windows cut at one end, at
        # both, or at neither; runs of one base give the extreme keys
        # (poly-G the largest), and a 40-window poly-T record adds a second
        # limb at l = 10
        rng = np.random.default_rng(radius)
        lengths = range(1, 2 * radius + 4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            geometries = [PpnParams(radius, t, allow_gaps=True) for t in lengths]
        pieces = [rng.integers(0, 4, n).astype(np.int8) for n in lengths]
        pieces += [np.full(n, b, dtype=np.int8) for b in range(4) for n in lengths]
        for params in geometries:
            long_t = np.full(40 * (params.stride + 1), 3, dtype=np.int8)
            for batch in (pieces, [*pieces, long_t]):
                want = [ppn_vector(EncodedSequence("x", codes), params) for codes in batch]
                assert _batch_vectors(batch, params) == want, params

    @pytest.mark.parametrize("radius", [1, 2, 3, 10])
    def test_cut_windows_of_every_short_record_equal_a_recount(self, radius):
        # records of 1..4l+3 codes have windows cut by the start, by the
        # end, by both or by neither; each is fed to a tally whole and one
        # code at a time, and its windows are recounted one by one from
        # the spec's centers
        rng = np.random.default_rng(radius)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            geometries = [
                PpnParams(radius, t, allow_gaps=True)
                for t in sorted({1, radius, radius + 1, 2 * radius + 3})
            ]
        for n in range(1, 4 * radius + 4):
            for codes in (np.zeros(n), np.full(n, 3), rng.integers(0, 4, n)):
                seq = EncodedSequence("x", codes.astype(np.int8))
                for params in geometries:
                    want = Counter(
                        window_counts_at(seq, c, radius)
                        for c in window_centers(n, params.stride)
                    )
                    assert count_histogram(seq, params) == dict(want), (n, params)
                    tally = _WindowTally(params)
                    for i in range(n):
                        tally.feed(seq.codes[i : i + 1])
                    got = Counter()
                    for row, weight in zip(*tally.finish()):
                        got[tuple(row.tolist())] += int(weight)
                    assert got == want, (n, params)

    @pytest.mark.parametrize("radius, stride", [(1, 1), (4, 1), (4, 4), (10, 1), (3, 20)])
    @pytest.mark.parametrize(
        "n, sizes",
        [
            (300, [1]),
            (300, [2]),
            (300, [3]),
            (300, [1, 2, 3, 2]),
            (3 * _CHUNK + 5, [_CHUNK + 1, 3, 2 * _CHUNK]),
        ],
        ids=["ones", "twos", "threes", "mixed", "chunks"],
    )
    def test_blocks_at_odd_addresses_and_of_any_parity_give_the_whole_vector(
        self, radius, stride, n, sizes
    ):
        # each block's codes start one byte into their buffer, so their
        # pairs are unaligned uint16, and odd blocks shift the weights kept
        # between calls from one buffer parity to the other
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            params = PpnParams(radius=radius, stride=stride, allow_gaps=True)
        codes = np.random.default_rng(n + radius * stride).integers(0, 4, n).astype(np.int8)
        tally = _WindowTally(params)
        lo, k = 0, 0
        while lo < n:
            data = codes[lo : lo + sizes[k % len(sizes)]].tobytes()
            block = np.frombuffer(b"\0" + data, np.int8)[1:]
            tally.feed(block)
            lo, k = lo + len(block), k + 1
        assert tally.vector() == ppn_vector(EncodedSequence("x", codes), params)

    @pytest.mark.parametrize("radius", range(1, MAX_RADIUS + 1))
    def test_limbs_sum_in_int64_and_cover_every_product(self, radius):
        # three or more limbs only occur past 2**33 windows, which no
        # sequence in the tests reaches, so this is their only check
        span = 2 * radius + 1
        top = 7**span
        near_powers = {2**e + d for e in range(1, 62) for d in (-1, 0, 1)}
        for windows in sorted(near_powers | {1, 2**62}):
            shifts = _limb_shifts(windows, span)
            assert windows * ((1 << shifts.step) - 1) < 2**63
            assert top < 1 << (shifts.step * len(shifts))
            assert len(shifts) == -(-top.bit_length() // shifts.step)
        rng = np.random.default_rng(radius)
        products = rng.integers(0, top, size=(5, 24), dtype=np.int64, endpoint=True)
        ones = np.ones(5, dtype=np.int64)
        for windows in (5, 2**40, 2**62):
            shifts = _limb_shifts(windows, span)
            sums = _join(ones @ _limbs(products, shifts), shifts)
            assert sums.tolist() == [sum(col) for col in zip(*products.tolist())]


# -- distances -----------------------------------------------------------------

def _vec(components, params):
    return PpnVector(
        components=tuple(components),
        sequence_length=100,
        windows=50,
        params=params,
    )


class TestDistance:
    def test_self_distance_is_exactly_zero(self):
        params = PpnParams()
        rng = random.Random(3)
        v = _vec([rng.randrange(10**9) for _ in range(24)], params)
        assert distance(v, v) == 0.0
        assert distance(v, v, metric="manhattan") == 0.0

    def test_euclidean_matches_decimal_oracle(self):
        rng = random.Random(29)
        params = PpnParams()
        for _ in range(50):
            a = _vec([rng.randrange(10**12) for _ in range(24)], params)
            b = _vec([rng.randrange(10**12) for _ in range(24)], params)
            got = distance(a, b)
            want = decimal_euclidean(a.components, b.components)
            assert got == pytest.approx(float(want), rel=1e-15)

    def test_manhattan_is_exact_on_integers(self):
        rng = random.Random(31)
        params = PpnParams(metric="manhattan")
        for _ in range(50):
            a = _vec([rng.randrange(10**6) for _ in range(24)], params)
            b = _vec([rng.randrange(10**6) for _ in range(24)], params)
            assert distance(a, b) == float(exact_manhattan(a.components, b.components))

    def test_metric_argument_overrides_params(self):
        params = PpnParams(metric="euclidean")
        a = _vec([0] * 24, params)
        b = _vec([1] * 24, params)
        assert distance(a, b) == pytest.approx(math.sqrt(24))
        assert distance(a, b, metric=Metric.MANHATTAN) == 24.0

    def test_mismatched_params_rejected(self):
        a = _vec([0] * 24, PpnParams(radius=4))
        b = _vec([0] * 24, PpnParams(radius=5))
        with pytest.raises(ParamsMismatchError):
            distance(a, b)

    def test_metric_choice_alone_is_compatible(self):
        a = _vec([0] * 24, PpnParams(metric="euclidean"))
        b = _vec([1] * 24, PpnParams(metric="manhattan"))
        assert distance(a, b) == pytest.approx(math.sqrt(24))

    def test_normalized_divides_by_own_window_count(self):
        params = PpnParams()
        a = PpnVector(tuple([100] * 24), 100, 50, params)
        b = PpnVector(tuple([200] * 24), 200, 100, params)
        # both normalize to 2.0 per component
        assert distance(a, b, normalized=True) == 0.0
        c = PpnVector(tuple([300] * 24), 200, 100, params)
        assert distance(a, c, normalized=True) == pytest.approx(math.sqrt(24))
        assert type(distance(a, c, normalized=True)) is float
        assert distance(a, c, metric="manhattan", normalized=True) == pytest.approx(24.0)


# -- the int64 regime of the distance rows ---------------------------------------

#: Pair sums whose conversion to float64 rounds: ties to even, either
#: way, and sums just past a tie.
_ROUNDED_SUMS = [
    2**53 + 1,
    2**53 + 3,
    2**62 + 2**9,
    2**62 + 3 * 2**9,
    2**62 + 2**9 + 1,
    2**63 - 2**9,
    2**63 - 2**9 - 1,
]


def _squares(total):
    """12 non-negative ints whose squares sum to ``total``, taken greedily."""
    out = []
    for _ in range(12):
        out.append(math.isqrt(total))
        total -= out[-1] ** 2
    assert total == 0
    return out


def _parts(total):
    """12 non-negative ints of at most 2**60 that sum to ``total``."""
    out = []
    for _ in range(12):
        out.append(min(total, 2**60))
        total -= out[-1]
    assert total == 0
    return out


def _bound_set(split, bound, metric):
    """Vectors a, b, c above 2**63, with b - a on components 0-11 and
    c - a on 12-23: the pairs (a, b), (a, c) and (b, c) sum to split,
    bound - split and bound, and the metric's spread bound is ``bound``."""
    params = PpnParams(metric=metric)
    terms = _squares if metric == "euclidean" else _parts
    offsets = ([0] * 24, terms(split) + [0] * 12, [0] * 12 + terms(bound - split))
    return [_vec([3 * 2**64 + j + d for j, d in enumerate(o)], params) for o in offsets]


class TestIntegerRegime:
    @pytest.mark.parametrize("bound, dtype", [(2**63 - 1, np.int64), (2**63, object)])
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    @pytest.mark.parametrize("split", _ROUNDED_SUMS)
    def test_spread_bound_and_rounding_match_the_scalar_oracle(
        self, split, metric, bound, dtype
    ):
        assert int(float(split)) != split
        vecs = _bound_set(split, bound, metric)
        assert _shifted_rows(vecs, Metric(metric)).dtype == dtype
        m = _vector_matrix(["a", "b", "c"], vecs, Metric(metric), False)
        for i, j in combinations(range(3), 2):
            want = scalar_distance(vecs[i], vecs[j], metric, False)
            assert m.values[i, j] == want
            got = distance(vecs[i], vecs[j], metric)
            assert type(got) is float and got == want

    @pytest.mark.parametrize(
        "bound, dtype", [(2**63 - 1, np.int64), (2**63, object), (2**63 + 1, object)]
    )
    def test_the_gram_form_wraps_back_to_the_exact_sum(self, bound, dtype):
        # a at the spread, b a step or two below it, c at zero: on the int64
        # route sq_a + sq_b and 2 a.b pass 2**63 and wrap, yet no pair's sum
        # of squares does
        spread = _squares(bound) + [0] * 12
        a, c = spread, [0] * 24
        b = [max(s - 1 - j % 2, 0) for j, s in enumerate(spread)]
        assert sum(s * s for s in spread) == bound
        assert sum(x * x for x in a) + sum(x * x for x in b) >= 2**63
        assert 2 * sum(x * y for x, y in zip(a, b)) >= 2**63
        params = PpnParams()
        vecs = [_vec([3 * 2**64 + x for x in v], params) for v in (a, b, c)]
        assert _shifted_rows(vecs, Metric.EUCLIDEAN).dtype == dtype
        m = _vector_matrix(["a", "b", "c"], vecs, Metric.EUCLIDEAN, False)
        for i, j in combinations(range(3), 2):
            want = scalar_distance(vecs[i], vecs[j], "euclidean", False)
            assert m.values[i, j] == want
            got = distance(vecs[i], vecs[j])
            assert type(got) is float and got == want
        assert m.values[0, 1] == math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
