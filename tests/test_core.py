"""Unit tests for encoding, window counting, prime products, vectors,
and the vector metric."""

import math
import random
import warnings
from itertools import permutations, product

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
from oracles import decimal_euclidean, exact_manhattan, naive_vector

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
        for raw in ("AC GT\r\nNNac", "x\xff-ACG\t"):
            assert encode(raw.encode("latin-1")) == encode(raw)
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
        assert distance(a, c, metric="manhattan", normalized=True) == pytest.approx(24.0)
