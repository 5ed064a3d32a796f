"""Acceptance suite: one test per numbered check, each printing a
single PASS line when it holds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Checks 1 through 10 are self-contained; check 11 records why the
published external benchmark is out of scope here.
"""

import math
import random
import time
from itertools import permutations

import numpy as np
import pytest

from ppn import (
    PERMUTATIONS,
    DistanceMatrix,
    Metric,
    PpnParams,
    PpnVector,
    SimulationSpec,
    distance,
    encode,
    factor_prime_product,
    from_newick,
    nqd,
    nrf,
    ppn_vector,
    prime_product,
    simulate,
    to_newick,
    upgma,
    window_count,
    window_products,
    window_product_sum,
)
from oracles import (
    naive_vector,
    oracle_nqd,
    random_binary_tree,
    random_ultrametric,
    splits_by_edge_cut,
    weighted_leaf_distances,
)

BASES = "ACGT"

# every (sequence length, stride, window count) this suite computes,
# re-checked at the end for the density bound
RUNS: list[tuple[int, int, int]] = []


def report(num: int, label: str) -> None:
    print(f"\n[acceptance {num:02d}] PASS: {label}")


def random_dna(rng, n):
    return "".join(rng.choice(BASES) for _ in range(n))


def test_c01_worked_example_is_exact():
    seq = encode("ACTGCCTCGATAA")
    params = PpnParams(radius=1, stride=1)
    products = window_products(seq, params, 0)
    assert products == [6, 105, 45, 63, 30, 28, 4]
    assert window_product_sum(seq, params, 0) == 281
    assert ppn_vector(seq, params).components[0] == 281
    n = window_count(seq.length, params.stride)
    assert n == 7
    RUNS.append((seq.length, params.stride, n))
    report(1, "13-nt example: products, their 281 sum, and 7 windows")


def test_c02_product_spot_values_and_factorization():
    # GCC window: two C, one G, under the identity assignment
    assert prime_product((0, 2, 1, 0), 0) == 45
    # AC window
    assert prime_product((1, 1, 0, 0), 0) == 6
    assert factor_prime_product(105, 0) == (0, 1, 1, 1)
    report(2, "spot products 45 and 6, and 105 factors to (0,1,1,1)")


def test_c03_histogram_path_equals_naive_recount():
    rng = random.Random(20260817)
    started = time.perf_counter()
    lengths = [1, 2, 3, 1000] + [rng.randint(1, 1000) for _ in range(996)]
    for n in lengths:
        raw = random_dna(rng, n)
        radius = rng.randint(1, 5)
        stride = rng.randint(1, radius)
        params = PpnParams(radius=radius, stride=stride)
        got = ppn_vector(encode(raw), params)
        want = naive_vector(raw, radius, stride, PERMUTATIONS)
        assert list(got.components) == want
        RUNS.append((n, stride, got.windows))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(3, f"1000 random sequences match the per-window recount "
              f"({elapsed:.1f}s)")


def test_c04_factorization_round_trip_exhaustive():
    checked = 0
    for total in range(12):
        for f1 in range(total + 1):
            for f2 in range(total - f1 + 1):
                for f3 in range(total - f1 - f2 + 1):
                    f4 = total - f1 - f2 - f3
                    counts = (f1, f2, f3, f4)
                    for j in range(24):
                        assert factor_prime_product(
                            prime_product(counts, j), j
                        ) == counts
                        checked += 1
    assert checked == 1365 * 24
    report(4, f"all {checked} (count tuple, assignment) round trips")


def test_c05_relabeling_equivariance():
    rng = random.Random(55)
    index_of = {row: j for j, row in enumerate(PERMUTATIONS)}
    params = PpnParams(radius=3, stride=1)
    for _ in range(100):
        raw = random_dna(rng, rng.randint(20, 400))
        vec = ppn_vector(encode(raw), params)
        for g in permutations(range(4)):
            table = str.maketrans(BASES, "".join(BASES[g[i]] for i in range(4)))
            relabeled = ppn_vector(encode(raw.translate(table)), params)
            # renaming bases permutes components: assignment row p on the
            # renamed string sees what row p composed with g saw before
            for j, row in enumerate(PERMUTATIONS):
                j2 = index_of[tuple(row[g[m]] for m in range(4))]
                assert relabeled.components[j] == vec.components[j2]
            assert sorted(relabeled.components) == sorted(vec.components)
    report(5, "100 sequences x 24 relabelings: multiset and index rule hold")


def test_c06_metric_properties():
    # component scale stays modest so the 1e-9 triangle slack dwarfs
    # double rounding; sums of squares remain exact in int arithmetic
    rng = random.Random(66)
    params = PpnParams()

    def vec():
        return PpnVector(
            components=tuple(rng.randrange(10**5) for _ in range(24)),
            sequence_length=100,
            windows=50,
            params=params,
        )

    for _ in range(1000):
        a, b, c = vec(), vec(), vec()
        for metric in (Metric.EUCLIDEAN, Metric.MANHATTAN):
            dab = distance(a, b, metric)
            dba = distance(b, a, metric)
            assert dab == dba
            assert distance(a, a, metric) == 0.0
            assert distance(a, c, metric) <= dab + distance(b, c, metric) + 1e-9
    report(6, "1000 triples: exact symmetry, zero self-distance, triangle")


def test_c07_upgma_hand_case_and_random_ultrametrics():
    d = np.array(
        [
            [0.0, 2.0, 6.0, 6.0],
            [2.0, 0.0, 6.0, 6.0],
            [6.0, 6.0, 0.0, 2.0],
            [6.0, 6.0, 2.0, 0.0],
        ]
    )
    tree = upgma(DistanceMatrix(["A", "B", "C", "D"], d))
    assert to_newick(tree) == "((A:1.0,B:1.0):2.0,(C:1.0,D:1.0):2.0);"
    paths = weighted_leaf_distances(tree)
    assert paths[("A", "B")] == 2.0 and paths[("C", "D")] == 2.0
    assert all(
        paths[pair] == 6.0
        for pair in [("A", "C"), ("A", "D"), ("B", "C"), ("B", "D")]
    )

    rng = random.Random(77)
    for _ in range(100):
        k = rng.randint(2, 12)
        dist = random_ultrametric(rng, k)
        labels = [f"t{i:02d}" for i in range(k)]
        got = weighted_leaf_distances(upgma(DistanceMatrix(labels, np.array(dist))))
        for i in range(k):
            for j in range(i + 1, k):
                assert got[(labels[i], labels[j])] == pytest.approx(
                    dist[i][j], abs=1e-9
                )

    # tie-break determinism: an all-tied matrix always yields one answer
    ones = np.ones((5, 5)) - np.eye(5)
    labels = ["e", "d", "c", "b", "a"]
    first = to_newick(upgma(DistanceMatrix(labels, ones)))
    assert first == to_newick(upgma(DistanceMatrix(labels, ones)))
    assert first == "((((a:0.5,b:0.5):0.0,c:0.5):0.0,d:0.5):0.0,e:0.5);"
    report(7, "hand case exact; 100 ultrametric matrices within 1e-9; "
              "ties deterministic")


def test_c08_tree_distances_match_oracles():
    rng = random.Random(88)
    nqd_checked = 0
    for _ in range(200):
        k = rng.randint(4, 16)
        labels = sorted(f"s{i:02d}" for i in range(k))
        t1 = random_binary_tree(rng, labels)
        t2 = random_binary_tree(rng, labels)

        s1, s2 = splits_by_edge_cut(t1), splits_by_edge_cut(t2)
        want_rf = len(s1 ^ s2) / (len(s1) + len(s2)) if s1 or s2 else 0.0
        assert nrf(t1, t2) == want_rf

        if k <= 12:
            assert nqd(t1, t2) == oracle_nqd(t1, t2)
            nqd_checked += 1

        same = from_newick(to_newick(t1))
        assert nrf(t1, same) == 0.0
        if k <= 12:
            assert nqd(t1, same) == 0.0
    assert nqd_checked >= 100

    a = from_newick("((A,B),(C,D));")
    b = from_newick("((A,C),(B,D));")
    assert nrf(a, b) == 1.0 and nqd(a, b) == 1.0
    report(8, f"200 tree pairs match both oracles ({nqd_checked} quartet "
              f"checks); extremes are 0 and 1")


def test_c09_vector_time_scales_linearly():
    started = time.perf_counter()
    lengths = [1_000_000, 2_000_000, 4_000_000]
    params = PpnParams()
    seqs = [simulate(SimulationSpec(species_count=1, length=n, seed=90))[0] for n in lengths]
    for seq in seqs:  # one untimed warm-up each
        ppn_vector(seq, params)
    best = [math.inf] * len(seqs)
    # one run of each size per round, 10 rounds: a stall of a loaded host
    # falls on every size alike, not on one size's block of runs; and the
    # best of the 10 timings, as a mean takes in every stall
    for _ in range(10):
        for s, seq in enumerate(seqs):
            t0 = time.perf_counter()
            ppn_vector(seq, params)
            best[s] = min(best[s], time.perf_counter() - t0)
    for n in lengths:
        RUNS.append((n, 1, window_count(n, 1)))
    r21 = best[1] / best[0]
    r42 = best[2] / best[1]
    elapsed = time.perf_counter() - started
    assert 1.6 <= r21 <= 2.6, f"1M->2M ratio {r21:.2f} outside [1.6, 2.6]"
    assert 1.6 <= r42 <= 2.6, f"2M->4M ratio {r42:.2f} outside [1.6, 2.6]"
    assert elapsed < 300.0
    report(9, f"doubling ratios {r21:.2f} and {r42:.2f} in [1.6, 2.6] "
              f"({elapsed:.0f}s total)")


def test_c10_window_density_bound():
    # every run recorded above, plus a broad sweep of the formula itself
    for length, stride, n in RUNS:
        assert stride >= 1
        assert 2 * (n - 1) <= length - 1
    for length in range(1, 2001):
        for stride in range(1, 11):
            n = window_count(length, stride)
            assert 2 * (n - 1) <= length - 1
    report(10, f"window count stays within half the length plus one "
               f"({len(RUNS)} recorded runs and a 2000x10 sweep)")


def test_c11_published_benchmark_out_of_scope():
    print("\n[acceptance 11] SKIP: published organelle-genome benchmark "
          "needs external datasets and the original hardware; checks 1-10 "
          "stand in for it")
    pytest.skip(
        "external datasets and original hardware are unavailable here; "
        "the self-contained checks above substitute as acceptance"
    )
