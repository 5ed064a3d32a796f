"""Unit tests for distance matrices, UPGMA, Newick IO, and the two
tree distances."""

import bz2
import gzip
import io
import lzma
import math
import random
import re
import string
import tracemalloc
from itertools import combinations

import numpy as np
import orjson
import pytest

from ppn import (
    DistanceMatrix,
    DuplicateIdError,
    DuplicateLeafError,
    encode,
    LeafSetMismatchError,
    NewickParseError,
    NonFiniteDistanceError,
    PhyloTree,
    PpnParams,
    TooFewLeavesError,
    TreeNode,
    ValidationError,
    from_newick,
    nqd,
    nrf,
    pairwise_matrix,
    ppn_vector,
    distance,
    read_phylip,
    simulate,
    SimulationSpec,
    to_newick,
    upgma,
    write_phylip,
)
from oracles import (
    PATH_FORMS,
    oracle_nqd,
    per_entry_phylip,
    scalar_distance,
    random_binary_tree,
    random_ultrametric,
    splits_by_edge_cut,
    weighted_leaf_distances,
)
from ppn import phylo
from ppn.core import Metric
from ppn.phylo import (
    _CHECK_CELLS,
    _NQD_MAX_LEAVES,
    _check_comparable,
    _forks,
    _splits,
    _vector_matrix,
)


def square(rows):
    return np.array(rows, dtype=np.float64)


# -- distance matrices ---------------------------------------------------------

class TestDistanceMatrix:
    def test_basic_access(self):
        m = DistanceMatrix(["a", "b"], square([[0, 2], [2, 0]]))
        assert m.size == 2
        assert m["a", "b"] == 2.0
        assert m["b", "b"] == 0.0

    @pytest.mark.parametrize("pair", [("a", "z"), ("z", "a"), ("z", "z")])
    def test_unknown_label_is_named(self, pair):
        m = DistanceMatrix(["a", "b"], square([[0, 2], [2, 0]]))
        with pytest.raises(ValidationError, match="no label 'z'"):
            m[pair]

    def test_requires_two_taxa(self):
        with pytest.raises(ValidationError):
            DistanceMatrix(["a"], square([[0]]))

    def test_rejects_duplicate_labels(self):
        # duplicate labels mean malformed input, not a parameter problem
        with pytest.raises(DuplicateIdError):
            DistanceMatrix(["a", "a"], square([[0, 1], [1, 0]]))

    # the label named is the first whose count is above 1, which is not
    # always the first repeat a scan meets: in "a b b a" that is "b"
    @pytest.mark.parametrize("labels, named", [
        ("a b b a", "a"),
        ("c a b b a", "a"),
        ("a b c c b a", "a"),
        ("x y z z y", "y"),
        ("a b a b", "a"),
        ("a b c d d", "d"),
    ])
    def test_names_the_first_label_that_repeats(self, labels, named):
        labels = labels.split()
        k = len(labels)
        with pytest.raises(DuplicateIdError, match=f"duplicate taxon label {named!r}$"):
            DistanceMatrix(labels, np.zeros((k, k)))

    def test_counts_each_label_once(self):
        # 20 000 labels with the repeat last compare a few labels, not k^2
        compared = []

        class Label(str):
            __hash__ = str.__hash__

            def __eq__(self, other):
                compared.append(1)
                return str.__eq__(self, other)

        labels = [Label(f"t{i}") for i in range(20_000)] + [Label("t19999")]
        with pytest.raises(DuplicateIdError, match="'t19999'"):
            DistanceMatrix._labels(labels)
        assert len(compared) < 100

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            DistanceMatrix(["a", "b", "c"], square([[0, 1], [1, 0]]))

    def test_rejects_asymmetry(self):
        with pytest.raises(ValidationError):
            DistanceMatrix(["a", "b"], square([[0, 1], [2, 0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValidationError):
            DistanceMatrix(["a", "b"], square([[1e-12, 1], [1, 0]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            DistanceMatrix(["a", "b"], square([[0, -1], [-1, 0]]))

    def test_negative_zeros_in_both_triangles_are_stored_as_zero(self):
        m = DistanceMatrix(["a", "b", "c"], square([[0, -0.0, 2], [-0.0, -0.0, 2], [2, 2, 0]]))
        assert not np.signbit(m.values).any()
        assert to_newick(upgma(m)) == "((a:0.0,b:0.0):1.0,c:1.0);"

    def test_negative_zero_in_one_triangle_reads_the_same_both_ways(self):
        m = DistanceMatrix(["a", "b"], square([[0, -0.0], [0, 0]]))
        assert repr(m["a", "b"]) == repr(m["b", "a"]) == "0.0"

    @pytest.mark.parametrize("cell", [(0, 1), (5, 390), (200, 201), (398, 399), (399, 3)])
    def test_checks_reach_every_block_of_rows(self, cell):
        k = 400  # several row blocks
        assert _CHECK_CELLS // k < k // 3
        rng = np.random.default_rng(8)
        values = rng.random((k, k))
        values = values + values.T
        np.fill_diagonal(values, 0.0)
        i, j = cell
        values[i, j] = values[j, i] = math.nan  # NaN facing NaN is symmetric
        labels = [f"t{n}" for n in range(k)]
        assert math.isnan(DistanceMatrix(labels, values).values[j, i])
        for wrong in (1.0, -1.0):
            bad = values.copy()
            bad[j, i] = wrong
            with pytest.raises(ValidationError, match="symmetric"):
                DistanceMatrix(labels, bad)
        bad = values.copy()
        bad[i, j] = bad[j, i] = -1.0
        with pytest.raises(ValidationError, match="non-negative"):
            DistanceMatrix(labels, bad)

    @pytest.mark.parametrize("wrong, second, match", [
        ((399, 398, 2.0), (1, 2, -1.0), "symmetric"),  # past the block with -1
        ((399, 399, 1.0), (0, 1, -1.0), "diagonal"),
    ])
    def test_errors_take_precedence_whatever_block_they_sit_in(self, wrong, second, match):
        k = 400
        assert _CHECK_CELLS // k < 399
        values = np.ones((k, k))
        np.fill_diagonal(values, 0.0)
        i, j, v = second
        values[i, j] = values[j, i] = v
        i, j, v = wrong
        values[i, j] = v
        with pytest.raises(ValidationError, match=match):
            DistanceMatrix([f"t{n}" for n in range(k)], values)

    def test_values_are_a_read_only_copy(self):
        src = square([[0, 1], [1, 0]])
        m = DistanceMatrix(["a", "b"], src)
        src[0, 1] = 99.0
        assert m["a", "b"] == 1.0
        with pytest.raises(ValueError):
            m.values[0, 1] = 5.0

    def test_public_constructor_neither_freezes_nor_changes_its_array(self):
        src = square([[0, -0.0], [-0.0, -0.0]])
        m = DistanceMatrix(["a", "b"], src)
        assert src.flags.writeable
        assert np.signbit(src).tolist() == [[False, True], [True, True]]
        assert m.values is not src
        assert [v.hex() for v in m.values.ravel().tolist()] == ["0x0.0p+0"] * 4


class TestPairwiseMatrix:
    def test_entries_match_single_distances(self):
        params = PpnParams(radius=3, stride=1)
        seqs = simulate(SimulationSpec(species_count=4, length=200, seed=1))
        m = pairwise_matrix(seqs, params)
        vecs = {s.id: ppn_vector(s, params) for s in seqs}
        for a, b in combinations([s.id for s in seqs], 2):
            assert m[a, b] == distance(vecs[a], vecs[b])
            assert m[a, b] == scalar_distance(vecs[a], vecs[b], "euclidean", False)

    def test_manhattan_metric_is_used_when_configured(self):
        params = PpnParams(radius=2, stride=1, metric="manhattan")
        seqs = simulate(SimulationSpec(species_count=3, length=150, seed=3))
        m = pairwise_matrix(seqs, params)
        va, vb = ppn_vector(seqs[0], params), ppn_vector(seqs[1], params)
        assert m[seqs[0].id, seqs[1].id] == distance(va, vb, metric="manhattan")
        assert m[seqs[0].id, seqs[1].id] == scalar_distance(va, vb, "manhattan", False)

    def test_requires_two_sequences(self):
        seqs = simulate(SimulationSpec(species_count=1, length=50, seed=0))
        with pytest.raises(ValidationError):
            pairwise_matrix(seqs, PpnParams())

    def test_rejects_duplicate_ids(self):
        seqs = simulate(SimulationSpec(species_count=2, length=50, seed=0))
        with pytest.raises(DuplicateIdError):
            pairwise_matrix([seqs[0], seqs[0]], PpnParams())

    @pytest.mark.parametrize("ids, error, match", [
        (["a"], ValidationError, "got 1"),
        (["a", "b", "c", "b"], DuplicateIdError, "'b'"),
    ])
    def test_ids_are_checked_before_the_vectors_are_read(self, ids, error, match):
        def vectors():
            raise AssertionError("the vectors were read")
            yield

        with pytest.raises(error, match=match) as caught:
            _vector_matrix(ids, vectors(), Metric.EUCLIDEAN, False)
        assert type(caught.value) is error

    def test_entries_satisfy_triangle_inequality(self):
        params = PpnParams(radius=4, stride=1)
        seqs = simulate(SimulationSpec(species_count=3, length=500, seed=8))
        m = pairwise_matrix(seqs, params)
        a, b, c = [s.id for s in seqs]
        assert m[a, c] <= m[a, b] + m[b, c] + 1e-9
        assert m[a, b] <= m[a, c] + m[c, b] + 1e-9
        assert m[b, c] <= m[b, a] + m[a, c] + 1e-9

    def test_normalized_mode_changes_values(self):
        params = PpnParams(radius=3, stride=1)
        rng = random.Random(4)
        a = encode("".join(rng.choice("ACGT") for _ in range(100)), seq_id="a")
        b = encode("".join(rng.choice("ACGT") for _ in range(300)), seq_id="b")
        m_raw = pairwise_matrix([a, b], params)
        m_norm = pairwise_matrix([a, b], params, normalized=True)
        assert m_norm["a", "b"] != m_raw["a", "b"]
        va, vb = ppn_vector(a, params), ppn_vector(b, params)
        assert m_norm["a", "b"] == distance(va, vb, normalized=True)
        assert m_norm["a", "b"] == scalar_distance(va, vb, "euclidean", True)


# -- UPGMA ---------------------------------------------------------------------

class TestUpgma:
    def test_two_taxa(self):
        m = DistanceMatrix(["A", "B"], square([[0, 3], [3, 0]]))
        assert to_newick(upgma(m)) == "(A:1.5,B:1.5);"

    def test_four_taxon_two_pair_case(self):
        d = square([
            [0, 2, 6, 6],
            [2, 0, 6, 6],
            [6, 6, 0, 2],
            [6, 6, 2, 0],
        ])
        tree = upgma(DistanceMatrix(["A", "B", "C", "D"], d))
        assert to_newick(tree) == "((A:1.0,B:1.0):2.0,(C:1.0,D:1.0):2.0);"
        paths = weighted_leaf_distances(tree)
        assert paths[("A", "B")] == 2.0
        assert paths[("C", "D")] == 2.0
        assert paths[("A", "C")] == 6.0

    def test_all_tied_matrix_merges_lexicographically(self):
        ones = square(np.ones((4, 4)) - np.eye(4))
        tree = upgma(DistanceMatrix(["A", "B", "C", "D"], ones))
        assert to_newick(tree) == "(((A:0.5,B:0.5):0.0,C:0.5):0.0,D:0.5);"

    def test_label_order_does_not_matter(self):
        rng = random.Random(17)
        k = 8
        dist = square(random_ultrametric(rng, k))
        labels = [f"L{i:02d}" for i in range(k)]
        base = to_newick(upgma(DistanceMatrix(labels, dist)))
        for _ in range(5):
            order = list(range(k))
            rng.shuffle(order)
            shuffled = DistanceMatrix(
                [labels[i] for i in order], dist[np.ix_(order, order)]
            )
            assert to_newick(upgma(shuffled)) == base

    def test_recovers_random_ultrametric_inputs(self):
        rng = random.Random(19)
        for _ in range(10):
            k = rng.randint(3, 10)
            dist = random_ultrametric(rng, k)
            labels = [f"t{i}" for i in range(k)]
            tree = upgma(DistanceMatrix(labels, square(dist)))
            paths = weighted_leaf_distances(tree)
            for i in range(k):
                for j in range(i + 1, k):
                    a, b = sorted((labels[i], labels[j]))
                    assert paths[(a, b)] == pytest.approx(dist[i][j], abs=1e-9)

    def test_output_is_ultrametric(self):
        rng = random.Random(23)
        seqs = simulate(SimulationSpec(species_count=7, length=400, seed=6))
        m = pairwise_matrix(seqs, PpnParams(radius=4, stride=1))
        tree = upgma(m)
        depths = []
        def walk(node, acc):
            if node.is_leaf:
                depths.append(acc)
            for ch in node.children:
                walk(ch, acc + ch.length)
        walk(tree.root, 0.0)
        assert max(depths) - min(depths) < 1e-9
        assert rng  # keep the fixture-free style honest

    def test_leaves_its_matrix_as_it_was(self):
        """``upgma`` merges in a copy: the matrix's values stay
        bit-identical and read-only, and a second call gives the same
        tree."""
        rng = np.random.default_rng(24)
        upper = np.triu(rng.random((20, 20)), 1)
        m = DistanceMatrix([f"t{i}" for i in range(20)], upper + upper.T)
        before = m.values.tobytes()
        first = to_newick(upgma(m))
        assert m.values.tobytes() == before
        assert not m.values.flags.writeable
        assert to_newick(upgma(m)) == first

    def test_rejects_non_finite_distances(self):
        bad = square([[0, np.inf], [np.inf, 0]])
        with pytest.raises(NonFiniteDistanceError):
            upgma(DistanceMatrix(["a", "b"], bad))
        # finite, but the first merge's weighted sums overflow to inf
        huge = np.full((4, 4), 1.7e308)
        np.fill_diagonal(huge, 0.0)
        huge[0, 1] = huge[1, 0] = 1.0
        with pytest.raises(NonFiniteDistanceError):
            upgma(DistanceMatrix(["a", "b", "c", "d"], huge))

    def test_deep_tie_chain_does_not_recurse_out(self):
        # an all-equal matrix makes a maximally unbalanced tree
        k = 1500
        labels = [f"x{i:05d}" for i in range(k)]
        ones = np.ones((k, k)) - np.eye(k)
        tree = upgma(DistanceMatrix(labels, ones))
        text = to_newick(tree)
        assert from_newick(text).leaf_names() == tree.leaf_names()


# -- Newick --------------------------------------------------------------------

class TestNewick:
    def test_round_trip_random_trees(self):
        rng = random.Random(29)
        for _ in range(20):
            k = rng.randint(2, 20)
            tree = random_binary_tree(rng, [f"n{i}" for i in range(k)])
            text = to_newick(tree)
            assert to_newick(from_newick(text)) == text

    def test_lengths_survive_exactly(self):
        text = "(A:0.1,(B:1e-07,C:123456.78125):3.5);"
        assert to_newick(from_newick(text)) == "(A:0.1,(B:1e-07,C:123456.78125):3.5);"

    def test_whitespace_is_tolerated(self):
        t = from_newick(" ( A : 1.0 ,\n B : 2.0 ) ; \n")
        assert sorted(t.leaf_names()) == ["A", "B"]

    def test_internal_labels_round_trip(self):
        text = "((A:1.0,B:2.0)ab:3.0,C:4.0)root;"
        assert to_newick(from_newick(text)) == text

    def test_fork_label_may_precede_whitespace_and_its_length(self):
        t = from_newick("(A,B)x :1;")
        assert (t.root.name, t.root.length) == ("x", 1.0)

    def test_lengths_are_optional(self):
        t = from_newick("((A,B),C);")
        assert sorted(t.leaf_names()) == ["A", "B", "C"]
        assert to_newick(t) == "((A,B),C);"

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("(A,B", 4),
            ("(A,B)", 5),
            ("(A,,B);", 3),
            ("(A:x,B);", 3),
            ("", 0),
            ("(A,B);junk", 6),
            ("((A,B)[c],(C,D));", 6),
            ("(A[&x=1],B,C);", 2),
            ("(A],B);", 2),
            ("(a,'b c');", 3),
            ("(a,'b');", 3),
            ("(A:1e999,B:1);", 3),
            ("(A,B) x;", 6),
            ("(A:1x,B);", 4),
            ("(A:1\u00b2,B);", 3),
            ("(A:\u0663,B);", 3),
            ("(A:1\uff11,B);", 3),
            ("(A,B):;", 6),
            (";", 0),
            ("(A,B);\u00a0x", 7),
            ("(A:1:2,B);", 4),
        ],
    )
    def test_parse_errors_carry_offsets(self, text, offset):
        with pytest.raises(NewickParseError) as err:
            from_newick(text)
        assert err.value.offset == offset
        assert f"offset {offset}" in str(err.value)

    @pytest.mark.parametrize(
        "text,reason",
        [
            ("((A,B)[c],(C,D));", "comments"),
            ("(a,'b c');", "quoted labels"),
            ("(A:1e999,B:1);", "not finite"),
        ],
    )
    def test_unsupported_syntax_is_named(self, text, reason):
        with pytest.raises(NewickParseError, match=reason):
            from_newick(text)

    @pytest.mark.parametrize("name", ["a[b", "a]b", "'ab'"])
    def test_never_writes_a_label_the_parser_rejects(self, name):
        tree = PhyloTree(TreeNode(children=[TreeNode(name), TreeNode("B")]))
        with pytest.raises(ValidationError):
            to_newick(tree)

    def test_duplicate_leaves_rejected(self):
        with pytest.raises(DuplicateLeafError):
            from_newick("(A,(B,A));")

    # leaves in walk order, which takes a fork's children last first: the
    # leaf named is the first whose count is above 1, where a scan would
    # meet another repeat first
    @pytest.mark.parametrize("text, named", [
        ("((B,A),(A,B),C);", "B"),  # walk order C B A A B
        ("(A,B,B,A,C);", "A"),  # C A B B A
        ("((A,B),(C,C),(B,A));", "A"),  # A B C C B A
        ("(A,A,(B,B));", "B"),  # B B A A
    ])
    def test_names_the_first_leaf_that_repeats(self, text, named):
        with pytest.raises(DuplicateLeafError, match=f"duplicate leaf label {named!r}$"):
            from_newick(text)

    def test_deep_caterpillar_round_trips(self):
        k = 2000
        text = "(" * (k - 1) + "L0"
        for i in range(1, k):
            text += f",L{i})"
        text += ";"
        tree = from_newick(text)
        assert len(tree.leaf_names()) == k
        assert to_newick(tree) == text


# -- splits and nRF ------------------------------------------------------------

def split_label_sets(tree):
    """``_splits`` with each bitmask mapped back to its leaf labels."""
    order = list(tree.walk())
    column = _check_comparable(order, order)
    labels = list(column)
    return {
        frozenset(name for i, name in enumerate(labels) if split >> i & 1)
        for split in _splits(_forks(order, column)[2], len(labels))
    }


class TestSplits:
    def test_matches_edge_cut_oracle_on_random_trees(self):
        rng = random.Random(31)
        for _ in range(30):
            k = rng.randint(4, 16)
            tree = random_binary_tree(rng, [f"s{i}" for i in range(k)])
            assert split_label_sets(tree) == splits_by_edge_cut(tree)

    def test_root_placement_does_not_change_splits(self):
        t1 = from_newick("((A,B),(C,D));")
        t2 = from_newick("(A,(B,(C,D)));")
        assert split_label_sets(t1) == split_label_sets(t2) == {frozenset("CD")}

    # a split is one int bitmask: past 64 leaves it takes several machine
    # words, and the complement of a set holding bit 0 reaches the top bit
    @pytest.mark.parametrize("multi", [False, True], ids=["binary", "multifurcating"])
    @pytest.mark.parametrize("k", [63, 64, 65, 128, 129, 300])
    def test_matches_edge_cut_oracle_past_one_machine_word(self, k, multi):
        rng = random.Random(f"{k}-{multi}")
        tree = random_binary_tree(rng, [f"s{i:03d}" for i in range(k)])
        if multi:
            tree = contracted(tree, rng, 0.4)
        assert split_label_sets(tree) == splits_by_edge_cut(tree)


def regrafted(tree, rng, depth):
    """A binary tree with the clades of ``tree`` ``depth`` edges below its
    root, joined in a random order above them."""
    clades = [from_newick(to_newick(tree)).root]
    for _ in range(depth):
        clades = [c for node in clades for c in (node.children or [node])]
    while len(clades) > 1:
        a = clades.pop(rng.randrange(len(clades)))
        b = clades.pop(rng.randrange(len(clades)))
        clades.append(TreeNode(children=[a, b]))
    return PhyloTree(clades[0])


class TestNrf:
    def test_zero_on_identical_trees(self):
        rng = random.Random(37)
        tree = random_binary_tree(rng, [f"s{i}" for i in range(9)])
        again = from_newick(to_newick(tree))
        assert nrf(tree, again) == 0.0

    def test_one_on_conflicting_four_leaf_trees(self):
        a = from_newick("((A,B),(C,D));")
        b = from_newick("((A,C),(B,D));")
        assert nrf(a, b) == 1.0

    def test_two_stars_have_distance_zero(self):
        a = from_newick("(A,B,C,D);")
        b = from_newick("(D,C,B,A);")
        assert nrf(a, b) == 0.0

    def test_matches_split_counting_by_hand(self):
        rng = random.Random(41)
        for _ in range(25):
            k = rng.randint(4, 14)
            labels = [f"s{i}" for i in range(k)]
            t1 = random_binary_tree(rng, labels)
            t2 = random_binary_tree(rng, labels)
            s1 = splits_by_edge_cut(t1)
            s2 = splits_by_edge_cut(t2)
            want = len(s1 ^ s2) / (len(s1) + len(s2)) if s1 or s2 else 0.0
            assert nrf(t1, t2) == pytest.approx(want, abs=0)

    @pytest.mark.parametrize("multi", [False, True], ids=["binary", "multifurcating"])
    @pytest.mark.parametrize("k", [63, 64, 65, 128, 129, 300])
    def test_matches_split_counting_past_one_machine_word(self, k, multi):
        rng = random.Random(f"{k}-{multi}")
        labels = [f"s{i:03d}" for i in range(k)]
        t1 = random_binary_tree(rng, labels)
        t2 = regrafted(t1, rng, 4)
        if multi:
            t1, t2 = contracted(t1, rng, 0.4), contracted(t2, rng, 0.4)
        s1, s2 = splits_by_edge_cut(t1), splits_by_edge_cut(t2)
        want = len(s1 ^ s2) / (len(s1) + len(s2))
        assert 0 < want < 1
        assert nrf(t1, t2) == nrf(t2, t1) == want
        assert phylo._compare(iter((t1, t2)))[0] == want

    def test_thousand_leaves_make_no_square_table(self):
        """Each split is one int, so nrf's traced peak on two 1 000-leaf
        binary trees stays under 1.5 MB; a forks x k bool table per tree
        took 4.4 MB."""
        labels = [f"s{i:04d}" for i in range(1000)]
        rng = random.Random(1000)
        t1, t2 = random_binary_tree(rng, labels), random_binary_tree(rng, labels)
        tracemalloc.start()
        try:
            nrf(t1, t2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6, peak

    def test_requires_matching_leaf_sets(self):
        a = from_newick("((A,B),(C,D));")
        b = from_newick("((A,B),(C,E));")
        with pytest.raises(LeafSetMismatchError, match="E"):
            nrf(a, b)

    def test_requires_at_least_four_leaves(self):
        a = from_newick("(A,(B,C));")
        b = from_newick("((A,B),C);")
        with pytest.raises(TooFewLeavesError):
            nrf(a, b)


# -- nQD -----------------------------------------------------------------------

def contracted(tree, rng, prob):
    """A copy of ``tree`` with each internal non-root edge contracted with
    probability ``prob``, which makes it multifurcating."""
    copy = from_newick(to_newick(tree))
    for node in list(copy.walk()):
        children = []
        for child in node.children:
            if child.children and rng.random() < prob:
                children.extend(child.children)
            else:
                children.append(child)
        node.children = children
    return copy


class TestNqd:
    def test_zero_on_identical_and_one_on_conflicting(self):
        a = from_newick("((A,B),(C,D));")
        b = from_newick("((A,C),(B,D));")
        assert nqd(a, a) == 0.0
        assert nqd(a, b) == 1.0

    def test_star_differs_from_any_resolution(self):
        star = from_newick("(A,B,C,D);")
        resolved = from_newick("((A,B),(C,D));")
        assert nqd(star, resolved) == 1.0
        assert nqd(star, star) == 0.0

    def test_matches_edge_disjointness_oracle(self):
        rng = random.Random(43)
        for _ in range(15):
            k = rng.randint(4, 10)
            labels = sorted(f"q{i}" for i in range(k))
            t1 = random_binary_tree(rng, labels)
            t2 = random_binary_tree(rng, labels)
            assert nqd(t1, t2) == oracle_nqd(t1, t2)

    def test_extremes_at_300_leaves(self):
        labels = [f"s{i:03d}" for i in range(300)]
        tree = random_binary_tree(random.Random(300), labels)
        star = PhyloTree(TreeNode(children=[TreeNode(name=n) for n in labels]))
        assert nqd(tree, from_newick(to_newick(tree))) == 0.0
        assert nqd(tree, star) == 1.0
        assert nqd(star, tree) == 1.0

    def test_unresolved_quartets_only_match_unresolved(self):
        # one tree resolves {A,B,C}, the other leaves it at a trifurcation;
        # exactly the two quartets holding all of A, B, C see the difference
        a = from_newick("(((A,B),C),(D,E));")
        b = from_newick("((A,B,C),(D,E));")
        assert nqd(a, b) == pytest.approx(2 / math.comb(5, 4), abs=1e-12)

    def test_leaf_set_checks_apply(self):
        a = from_newick("((A,B),(C,D));")
        b = from_newick("((A,B),(C,E));")
        with pytest.raises(LeafSetMismatchError):
            nqd(a, b)

    def test_dtypes_have_headroom_at_the_leaf_cap(self):
        # nqd keeps shared leaf counts in int16; leaf pairs per cell,
        # branch-pair products and their sums over one node in int32; and
        # sums over the second tree's nodes in int64: raising the cap past
        # any of these bounds must fail here first
        cap = _NQD_MAX_LEAVES
        assert cap < 2**15
        assert math.comb(cap, 2) < 2**31 and cap * (cap - 1) < 2**31
        assert (cap // 2) ** 2 < 2**31 and (cap // 2) * (cap - cap // 2) < 2**31
        assert cap**5 < 2**64 < (cap + 1) ** 5

    @pytest.mark.parametrize("cells", [1, 2**62], ids=["one-node", "one-chunk"])
    @pytest.mark.parametrize("shape", ["binary", "contracted", "resolution"])
    @pytest.mark.parametrize("k", [48, 200])
    def test_chunk_size_changes_no_bit(self, monkeypatch, k, shape, cells):
        # one node per chunk (and a node's branch pairs a slice at a time),
        # or each branch count's nodes in one chunk, gives the same float
        rng = random.Random(f"{k}-{shape}")
        labels = [f"c{i:03d}" for i in range(k)]
        t1 = random_binary_tree(rng, labels)
        if shape == "binary":
            t2 = random_binary_tree(rng, labels)
        elif shape == "contracted":
            t1 = contracted(t1, rng, 0.4)
            t2 = contracted(random_binary_tree(rng, labels), rng, 0.4)
        else:
            t2 = contracted(t1, rng, 0.4)
        want = [nqd(t1, t2).hex(), nqd(t2, t1).hex()]
        monkeypatch.setattr(phylo, "_NQD_CELLS", cells)
        monkeypatch.setattr(phylo, "_NQD_SHARE", 2**62)  # the budget stays at cells
        assert [nqd(t1, t2).hex(), nqd(t2, t1).hex()] == want

    @pytest.mark.parametrize("multi", [False, True], ids=["binary", "multifurcating"])
    @pytest.mark.parametrize("k", [63, 64, 65, 128, 129, 300])
    def test_shared_leaf_table_past_one_machine_word(self, monkeypatch, k, multi):
        # the second tree's leaf bits, unpacked, summed up the first tree:
        # each cell is the leaves below both forks, forks numbered as
        # _forks numbers them (children first)
        rng = random.Random(f"{k}-{multi}")
        labels = [f"s{i:03d}" for i in range(k)]
        t1, t2 = random_binary_tree(rng, labels), random_binary_tree(rng, labels)
        if multi:
            t1, t2 = contracted(t1, rng, 0.4), contracted(t2, rng, 0.4)

        def fork_leaves(tree):
            below = {}
            for node in reversed(list(tree.walk())):
                below[id(node)] = (
                    {node.name} if node.is_leaf
                    else set().union(*(below[id(c)] for c in node.children))
                )
            return [below[id(n)] for n in reversed(list(tree.walk())) if len(n.children) > 1]

        want = [[len(a & b) for b in fork_leaves(t2)] for a in fork_leaves(t1)]
        tables = []
        separated = phylo._separated

        def spy(shared, *args):
            tables.append(shared.tolist())
            return separated(shared, *args)

        monkeypatch.setattr(phylo, "_separated", spy)
        phylo._compare(iter((t1, t2)))
        assert tables and all(table == want for table in tables)

    def test_compare_walks_each_tree_once(self, monkeypatch):
        """One walk of each tree feeds the leaf-set check and both calls
        of _forks; nrf walks as _compare does."""
        t1 = from_newick("(((A,B),C),(D,E));")
        t2 = from_newick("((A,C),(B,D,E));")
        walks, forks_calls = [], []
        walk, forks = PhyloTree.walk, phylo._forks

        def walk_spy(tree):
            walks.append(tree)
            return walk(tree)

        def forks_spy(*args):
            forks_calls.append(args)
            return forks(*args)

        monkeypatch.setattr(PhyloTree, "walk", walk_spy)
        monkeypatch.setattr(phylo, "_forks", forks_spy)
        for compare in (lambda: phylo._compare(iter((t1, t2))), lambda: nrf(t1, t2)):
            walks.clear()
            forks_calls.clear()
            compare()
            assert sorted(map(id, walks)) == sorted([id(t1), id(t2)])
            assert len(forks_calls) == 2

    def test_thousand_leaves_compare_within_its_bound(self):
        """Parsing two 1 000-leaf binary trees and ppn treedist's core on
        them (nRF and nQD) peak under 5.5 MB traced: each tree is walked
        once and the first makes no membership table of its own (6.4 MB
        when it did)."""
        labels = [f"s{i:04d}" for i in range(1000)]
        rng = random.Random(1000)
        texts = [to_newick(random_binary_tree(rng, labels)) for _ in range(2)]
        tracemalloc.start()
        try:
            phylo._compare(map(from_newick, texts))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5e6, peak

    @pytest.mark.parametrize("k", [48, 300])
    def test_chunk_budget_grows_with_the_shared_table_past_48_leaves(self, monkeypatch, k):
        labels = [f"c{i:03d}" for i in range(k)]
        rng = random.Random(k)
        t1, t2 = random_binary_tree(rng, labels), random_binary_tree(rng, labels)
        budgets = set()
        separated = phylo._separated

        def spy(*args):
            budgets.add(args[-1])
            return separated(*args)

        monkeypatch.setattr(phylo, "_separated", spy)
        nqd(t1, t2)
        # a binary tree on k leaves has k - 1 forks
        assert budgets == {max(phylo._NQD_CELLS, (k - 1) ** 2 // phylo._NQD_SHARE)}
        if k <= 48:
            assert budgets == {phylo._NQD_CELLS}

    @pytest.mark.parametrize("m", [2, 3, 64, 65])
    def test_branch_pairs_are_kept_read_only_below_a_chunk(self, monkeypatch, m):
        monkeypatch.setattr(phylo, "_TRIU", {})
        pairs = phylo._pairs(m)
        assert [a.tolist() for a in pairs] == [a.tolist() for a in np.triu_indices(m, 1)]
        assert not any(a.flags.writeable for a in pairs)
        # kept only while m^2 pairs fit in a chunk's cells
        assert (phylo._pairs(m) is pairs) == (m * m <= phylo._NQD_CELLS)


# -- PHYLIP --------------------------------------------------------------------

def hexes(matrix):
    """Every entry of ``matrix`` as ``float.hex``, row by row."""
    return [v.hex() for v in matrix.values.ravel().tolist()]


def pipeline_like(k, seed):
    """A k-taxon matrix of edge values and square roots of integers, the
    entries a Euclidean ``ppn matrix`` writes."""
    rng = np.random.default_rng(seed)
    roots = [math.sqrt(n) for n in rng.integers(1, 2**40, 64).tolist()]
    pool = np.array([0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308, *roots])
    upper = np.triu_indices(k, 1)
    values = np.zeros((k, k))
    values[upper] = values[upper[::-1]] = rng.choice(pool, len(upper[0]))
    return DistanceMatrix([f"t{i}" for i in range(k)], values)


_ROWS = phylo._PHYLIP_ROWS
#: 2 and 3 taxa, block multiples and one either side, and past three blocks
_PHYLIP_SIZES = sorted(
    {2, 3, 3 * _ROWS + 5} | {n * _ROWS + d for n in (1, 2, 3) for d in (-1, 0, 1)} - {1}
)

_CANONICAL = "3\na\t0.0\t1.5\t2.0\nb\t1.5\t0.0\t3.0\nc\t2.0\t3.0\t0.0\n"


def _count_conversions(monkeypatch) -> list:
    """The list of every field the reader converts from here on, on the
    ``orjson.loads`` route and on the ``float`` one alike, as
    ``phylo._floats`` is the reader's one conversion point."""
    converted, floats = [], phylo._floats

    def counted(fields, loads):
        converted.extend(fields)
        return floats(fields, loads)

    monkeypatch.setattr(phylo, "_floats", counted)
    return converted


def plain_classes(n, seed):
    """``n`` doubles of each of five kinds, all of magnitude in [1e-4, 1e16),
    where ``repr`` prints plain decimals: random mantissas under every
    exponent there, log-uniform values, square roots of integers,
    integers, and ratios of integers."""
    rng = np.random.default_rng(seed)

    def kept(x):
        x = x[(x >= 1e-4) & (x < 1e16)]
        assert len(x) >= n
        return x[:n]

    exponents = rng.integers(1023 - 14, 1023 + 54, 2 * n, dtype=np.uint64)
    mantissas = rng.integers(0, 2**52, 2 * n, dtype=np.uint64)
    return {
        "bits": kept(((exponents << np.uint64(52)) | mantissas).view(np.float64)),
        "log_uniform": kept(10.0 ** rng.uniform(-4, 16, 2 * n)),
        "sqrt": np.sqrt(rng.integers(1, 2**53, n).astype(np.float64)),
        "integers": kept(rng.integers(1, 10**16, 2 * n).astype(np.float64)),
        "ratios": kept(rng.integers(1, 10**6, 2 * n) / rng.integers(1, 10**3, 2 * n)),
    }


class TestPhylip:
    def test_round_trip_is_exact(self):
        seqs = simulate(SimulationSpec(species_count=5, length=333, seed=7))
        m = pairwise_matrix(seqs, PpnParams(radius=4, stride=1))
        buf = io.StringIO()
        write_phylip(m, buf)
        back = read_phylip(io.StringIO(buf.getvalue()))
        assert back.labels == m.labels
        assert np.array_equal(back.values, m.values)

    def test_first_line_is_the_taxon_count(self):
        m = DistanceMatrix(["a", "b"], square([[0, 1.5], [1.5, 0]]))
        buf = io.StringIO()
        write_phylip(m, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "2"
        assert lines[1].split("\t") == ["a", "0.0", "1.5"]

    def test_rejects_bad_count_line(self):
        with pytest.raises(ValidationError, match="taxon count"):
            read_phylip(io.StringIO("nope\na 0 1\nb 1 0\n"))

    @pytest.mark.parametrize("count", ["\u0663", "1_0", "-3"])
    def test_rejects_a_count_line_int_would_misread(self, count):
        """``int`` reads the Arabic-Indic three as 3 and "1_0" as 10; the
        count line follows the values' rule, and a count is not negative."""
        with pytest.raises(ValidationError) as info:
            read_phylip(io.StringIO(f"{count}\n" + _CANONICAL.partition("\n")[2]))
        assert str(info.value) == f"expected a taxon count on the first line, found {count!r}"

    @pytest.mark.parametrize("count", ["+3", "03"])
    def test_reads_a_count_line_with_a_sign_or_a_leading_zero(self, count):
        m = read_phylip(io.StringIO(f"{count}\n" + _CANONICAL.partition("\n")[2]))
        assert hexes(m) == hexes(read_phylip(io.StringIO(_CANONICAL)))

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValidationError, match="rows"):
            read_phylip(io.StringIO("3\na 0 1\nb 1 0\n"))

    def test_rejects_wrong_field_count(self):
        with pytest.raises(ValidationError, match="fields"):
            read_phylip(io.StringIO("2\na 0 1\nb 1\n"))

    def test_rejects_non_numeric_values(self):
        with pytest.raises(ValidationError, match="row 1: .*'x'"):
            read_phylip(io.StringIO("2\na 0 x\nb 1 0\n"))

    @pytest.mark.parametrize("rows", ["a 0 x\nb 1 0\n", "a 0\nb 1 0\n", "a 0 1_5\nb 1 0\n"])
    def test_wrong_row_count_beats_an_earlier_bad_row(self, rows):
        with pytest.raises(ValidationError, match="expected 3 matrix rows, found 2"):
            read_phylip(io.StringIO("3\n" + rows))

    @pytest.mark.parametrize("head", ["2\na 0 x\n", "2\na 0\n", "nope\n", "-3\n"])
    def test_text_that_is_not_utf8_after_a_bad_row_beats_it(self, tmp_path, head):
        path = tmp_path / "m.phy"
        path.write_bytes(head.encode() + b"b 1 \xff0\n")
        with pytest.raises(ValidationError, match="not valid utf-8 text"):
            read_phylip(path)

    @pytest.mark.parametrize("count", ["-1", "0", "1000000000000"])
    def test_count_line_allocates_nothing_its_rows_do_not_show(self, count):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError):
                read_phylip(io.StringIO(f"{count}\na 0\n"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_file_too_small_for_its_count_makes_no_array(self, tmp_path):
        """A 5 000-taxon count line and one row: 5 000 rows cannot fit in
        the file, so no 5 000 x 5 000 array (200 MB) is made."""
        path = tmp_path / "m.phy"
        path.write_text("5000\na" + " 0.0" * 5000 + "\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="^expected 5000 matrix rows, found 1$"):
                read_phylip(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, peak

    def test_stream_whose_rows_do_not_fill_its_count_makes_no_array(self):
        """A 2 000-taxon count line and one row from an open stream, whose
        size is not known: the array waits for all k rows, so no 2 000 x
        2 000 array (32 MB) is made."""
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="^expected 2000 matrix rows, found 1$"):
                read_phylip(io.StringIO("2000\na" + " 0.0" * 2000 + "\n"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, peak

    @pytest.mark.parametrize(
        "text",
        [
            "3\na 0\nb 0\nc 0\n",  # wrong field counts, k rows
            "3\na 0 1 x\nb\nc\n",  # a value that is not a number, k rows
            "4\na 0 1 2 3\nb 1 0 x 4\nc\nd\n",  # a bad value right of a mirrored one
            "3\na 0 1_5 2\n",  # a misreadable value, then too few rows
            "3\na 0 1 2\nb\n",  # too few rows
        ],
    )
    def test_file_too_small_for_its_count_gives_the_errors_of_a_stream(
        self, tmp_path, text
    ):
        path = tmp_path / "m.phy"
        path.write_text(text)
        k = int(text.split()[0])
        assert path.stat().st_size < k * (2 * k + 1)
        with pytest.raises(ValidationError) as from_stream:
            read_phylip(io.StringIO(text))
        with pytest.raises(ValidationError, match=f"^{re.escape(str(from_stream.value))}$"):
            read_phylip(path)

    @pytest.mark.parametrize("k", [3, 40])
    def test_reads_a_file_of_the_least_size_its_count_allows(self, tmp_path, k):
        """One-character labels and values, one space apart, no final
        newline: k rows in k(2k + 1) bytes and k - 1 line breaks."""
        labels = string.ascii_letters[:k]
        rows = [" ".join([a, *("0" if a == b else "1" for b in labels)]) for a in labels]
        path = tmp_path / "m.phy"
        path.write_text(f"{k}\n" + "\n".join(rows))
        matrix = read_phylip(path)
        assert matrix.labels == tuple(labels)
        assert np.array_equal(matrix.values, 1 - np.eye(k))

    @pytest.mark.parametrize("module", [gzip, bz2, lzma])
    def test_reads_a_compressed_stream_larger_than_its_file(self, tmp_path, module):
        """A decompressing stream's file descriptor is the compressed
        file's, far smaller than the 40 rows of text it decodes to."""
        labels = [f"t{i}" for i in range(40)]
        m = DistanceMatrix(labels, 1 - np.eye(40))
        path = tmp_path / "m.phy.z"
        with module.open(path, "wt", encoding="utf-8") as fh:
            write_phylip(m, fh)
        assert path.stat().st_size < 40 * 81
        with module.open(path, "rt", encoding="utf-8") as fh:
            back = read_phylip(fh)
        assert back.labels == m.labels and np.array_equal(back.values, m.values)

    def test_rows_past_the_size_a_file_reported_raise(self):
        """k rows read from a file whose size said they could not fit: the
        file grew while it was read, and no array was made for them."""
        lines = iter(["2", "a 0 1", "b 1 0"])
        with pytest.raises(ValidationError, match="^distance matrix file grew while it was read$"):
            phylo._parse_phylip(lines, 3)

    @pytest.mark.parametrize("form", PATH_FORMS)
    def test_every_path_form_gives_the_same_bytes_and_matrix(self, tmp_path, form):
        m = pairwise_matrix(simulate(SimulationSpec(5, 200, 2)), PpnParams())
        text = io.StringIO()
        write_phylip(m, text)
        path = tmp_path / "m.phy"
        write_phylip(m, PATH_FORMS[form](path))
        assert path.read_bytes() == text.getvalue().encode()
        back = read_phylip(PATH_FORMS[form](path))
        assert back.labels == m.labels and np.array_equal(back.values, m.values)

    def test_streams_are_used_as_they_are_and_left_open(self):
        m = DistanceMatrix(["a", "b"], square([[0, 1.5], [1.5, 0]]))
        out = io.StringIO()
        write_phylip(m, out)
        source = io.StringIO(out.getvalue())
        back = read_phylip(source)
        assert not out.closed and not source.closed
        assert np.array_equal(back.values, m.values)

    @pytest.mark.parametrize("data", [
        b"2\na 0 1\nb 1 0\n", b"2\r\na 0 1\rb 1 0", b"2\na 0 x\nb 1 0\n",
        b"3\na 0 1\nb 1 0\n", "2\n\u00e9 0 1\nb 1 0\n".encode(), b"2\na 0 1\nb 1 \xff\n",
    ], ids=["lf", "cr", "bad-value", "few-rows", "utf8-label", "not-utf8"])
    def test_a_byte_stream_reads_as_its_path_and_is_left_open(self, tmp_path, data):
        path = tmp_path / "m.phy"
        path.write_bytes(data)

        def outcome(source):
            try:
                m = read_phylip(source)
            except ValidationError as exc:
                return str(exc)
            return m.labels, m.values.tolist()

        stream = io.BytesIO(data)
        assert outcome(stream) == outcome(path)
        assert not stream.closed
        with open(path, "rb") as fh:
            assert outcome(fh) == outcome(path)

    def test_rejects_empty_input(self):
        with pytest.raises(ValidationError, match="empty"):
            read_phylip(io.StringIO(""))

    @pytest.mark.parametrize("field", ["1_5", "\u0661", "1e1_0", "\uff11"])
    def test_rejects_fields_float_would_misread(self, field):
        text = f"2\na 0 {field}\nb {field} 0\n"
        with pytest.raises(ValidationError, match=f"row 1: '{field}' is not an ASCII"):
            read_phylip(io.StringIO(text))

    @pytest.mark.parametrize("k", _PHYLIP_SIZES)
    def test_writer_equals_a_writer_that_formats_every_cell(self, k, monkeypatch):
        matrix = pipeline_like(k, seed=k)
        want = io.StringIO()
        per_entry_phylip(matrix, want)
        # one row per block, the default, and every row in one block
        for rows in (1, _ROWS, 2**20):
            monkeypatch.setattr(phylo, "_PHYLIP_ROWS", rows)
            buf = io.StringIO()
            write_phylip(matrix, buf)
            assert buf.getvalue() == want.getvalue()
            back = read_phylip(io.StringIO(buf.getvalue()))
            assert back.labels == matrix.labels
            assert hexes(back) == hexes(matrix)

    @pytest.mark.parametrize("kind", ["bits", "log_uniform", "sqrt", "integers", "ratios"])
    def test_row_fields_equal_repr_on_a_hundred_thousand_doubles(self, kind):
        """Every row of 10**5 plain-range doubles of one kind takes the one
        ``dumps`` call, and its fields are ``repr`` of its entries."""
        calls = []

        def dumps(values):
            calls.append(len(values))
            return orjson.dumps(values)

        values = plain_classes(10**5, seed=38)[kind]
        for row in values.reshape(100, -1):
            assert phylo._fields(row, dumps) == list(map(repr, row.tolist()))
        assert calls == [1000] * 100

    def test_rows_with_a_value_out_of_the_plain_range_take_repr_there_only(self, monkeypatch):
        """Every row takes one ``dumps``, and only its entries out of
        [1e-4, 1e16), zeros aside, are then spelled by ``repr``."""
        calls, spelled = [], []

        def dumps(values):
            calls.append(values)
            return orjson.dumps(values)

        def counted(value):
            spelled.append(value)
            return repr(value)

        monkeypatch.setattr(phylo, "repr", counted, raising=False)
        odd = [math.nan, math.inf, 5e-324, math.nextafter(1e-4, 0.0), 1e-5, 1e16, -1.5]
        for value in odd:
            row = np.array([1.5, value, 0.0])
            assert phylo._fields(row, dumps) == ["1.5", repr(value), "0.0"]
        assert len(calls) == len(odd)
        assert [v.hex() for v in spelled] == [v.hex() for v in odd]
        calls.clear()
        spelled.clear()
        row = [0.0, *odd, 2.5, 1e-4, -0.0, *odd[::-1], 1e16 - 2]
        assert phylo._fields(np.array(row), dumps) == list(map(repr, row))
        assert len(calls) == 1 and len(spelled) == 2 * len(odd)
        calls.clear()
        spelled.clear()
        assert phylo._fields(np.array([0.0, -0.0, 1e-4]), dumps) == ["0.0", "-0.0", "0.0001"]
        assert len(calls) == 1 and spelled == []

    def test_writer_pulls_a_row_only_when_it_writes_it(self):
        """Row i is written with at most rows 0 to i of the upper triangle
        pulled, so each row of distances is written as it is made."""
        matrix = pipeline_like(3 * _ROWS + 2, seed=4)
        k, pulled, seen = matrix.size, 0, []

        def rows():
            nonlocal pulled
            for i in range(k - 1):
                pulled += 1
                yield matrix.values[i, i + 1 :]

        class Counted(io.StringIO):
            def write(self, text):
                seen.extend([pulled] * text.count("\n"))
                return super().write(text)

        out, want = Counted(), io.StringIO()
        phylo._write_rows(matrix.labels, rows(), out)
        write_phylip(matrix, want)
        assert out.getvalue() == want.getvalue()
        assert len(seen) == k + 1  # the count line, then k rows
        assert [n <= i + 1 for i, n in enumerate(seen[1:])] == [True] * k

    @pytest.mark.parametrize("k", _PHYLIP_SIZES)
    def test_reader_converts_each_pair_of_its_writer_once(self, k, monkeypatch):
        text = io.StringIO()
        write_phylip(pipeline_like(k, seed=k), text)
        converted = _count_conversions(monkeypatch)
        for rows in (1, _ROWS, 2**20):
            monkeypatch.setattr(phylo, "_PHYLIP_ROWS", rows)
            converted.clear()
            read_phylip(io.StringIO(text.getvalue()))
            assert len(converted) == k * (k + 1) // 2
        # fields are compared, not the gaps between them
        converted.clear()
        read_phylip(io.StringIO(text.getvalue().replace("\t", "  ")))
        assert len(converted) == k * (k + 1) // 2
        # a row whose fields left of the diagonal are spelled otherwise is
        # read whole
        lines = text.getvalue().splitlines()
        for r in range(1, k + 1):
            label, *fields = lines[r].split("\t")
            lines[r] = "\t".join([label, *("+" + f for f in fields[: r - 1]), *fields[r - 1 :]])
        converted.clear()
        read_phylip(io.StringIO("\n".join(lines)))
        assert len(converted) == k * k

    @pytest.mark.parametrize(
        "text",
        [
            "3\na\t0.0\t1.5\t2.0\nb\t1.50\t0.0\t3.0\nc\t2.00\t3.000\t0.0\n",
            "3\na 0.0 1.5 2.0\nb 15e-1 0.0 3.0\nc 20E-1 30e-1 0.0\n",
            "3\na 0.0 1.5 2.0\nb +1.5 0.0 3.0\nc +2.0 +3.0 0.0\n",
            "3\na 0.0 1.5 2.0\nb   1.5 \t 0.0 3.0\nc 2.0    3.0\t\t0.0\n",
            "3\r\na 0.0 1.5 2.0\r\nb 1.5 0.0 3.0\r\nc 2.0 3.0 0.0\r\n",
        ],
    )
    def test_lower_triangle_in_other_spellings_reads_the_same_floats(self, text):
        want = read_phylip(io.StringIO(_CANONICAL))
        got = read_phylip(io.StringIO(text))
        assert got.labels == want.labels
        assert hexes(got) == hexes(want)

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "3\na 0.0 1.5 2.0\nb 1.5 0.0 3.0\nc 2.0 3.0000000000000004 0.0\n",
                "distance matrix is not exactly symmetric",
            ),
            (
                "3\na 0.0 1.5 2.0\nb 1_5 0.0 3.0\nc 2.0 3.0 0.0\n",
                "matrix row 2: '1_5' is not an ASCII decimal number",
            ),
            (
                "3\na 0.0 1.5 2.0\nb 1.5 0.0 3.0\nc \u0662 3.0 0.0\n",
                "matrix row 3: '\u0662' is not an ASCII decimal number",
            ),
            (
                "3\na 0.0 1.5 2.0\nb x 0.0 3.0\nc 2.0 3.0 0.0\n",
                "matrix row 2: could not convert string to float: 'x'",
            ),
            (
                "3\na 0.0 1.5 2.0\nb x 0.0 y\nc 2.0 3.0 0.0\n",
                "matrix row 2: could not convert string to float: 'x'",
            ),
            (
                "3\na 0.0 1.5 2.0\nb 1.5 0.0\nc x 3.0 0.0\n",
                "matrix row 2: expected a label and 3 values, found 3 fields",
            ),
            ("3\na 0.0 1.5 2.0\nb x 0.0 3.0\n", "expected 3 matrix rows, found 2"),
            ("2\na 0.0 1.5\nb x 0.0\nc 1 2\n", "expected 2 matrix rows, found 3"),
        ],
    )
    def test_a_fault_left_of_the_diagonal_is_named_as_any_other(self, text, message):
        with pytest.raises(ValidationError) as info:
            read_phylip(io.StringIO(text))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text",
        [
            "3\na 0.0 -0.0 2.0\nb 0.0 0.0 3.0\nc 2.0 3.0 0.0\n",
            "3\na 0.0 0.0 2.0\nb -0.0 0.0 3.0\nc 2.0 3.0 0.0\n",
            "3\na -0.0 -0.0 2.0\nb -0.0 -0.0 3.0\nc 2.0 3.0 -0.0\n",
        ],
    )
    def test_negative_zero_in_either_triangle_reads_as_positive_zero(self, text):
        m = read_phylip(io.StringIO(text))
        assert hexes(m)[:2] + hexes(m)[3:5] == ["0x0.0p+0"] * 4
        assert m["a", "c"] == 2.0 and not m.values.flags.writeable

    def test_non_ascii_labels_and_nan_still_read(self):
        m = read_phylip(io.StringIO("3\ns\u00e9q 0 nan 1\nb nan 0 inf\nc 1 inf 0\n"))
        assert m.labels == ("s\u00e9q", "b", "c")
        assert math.isnan(m["b", "s\u00e9q"]) and m["b", "c"] == math.inf

    # a row is read from its diagonal on when the text left of it, past its
    # label, is its column's fields joined by tabs, as write_phylip writes
    # them; any other row is split whole
    _FOUR = (
        "4\na\t0.0\t1.5\t2.0\t2.5\nb\t1.5\t0.0\t3.0\t3.5\n"
        "c\t2.0\t3.0\t0.0\t4.5\nd\t2.5\t3.5\t4.5\t0.0\n"
    )
    _ROW_C = "c\t2.0\t3.0\t0.0\t4.5"

    @pytest.mark.parametrize(
        "row",
        [
            "c\t2.0\t3.0\t0.0\t4.5",  # as written
            "c  2.0\t3.0\t0.0\t4.5",  # another gap after the label only
            "c\t2.0  3.0\t0.0\t4.5",  # another gap left of the diagonal
            "c \t 2.0\t \t3.0\t0.0\t4.5",
            "c  2.0  3.0  0.0  4.5",
            "c\t\t2.0\t\t3.0\t\t0.0\t\t4.5",
        ],
    )
    def test_a_mirrored_row_spelled_with_other_gaps_reads_the_same_floats(
        self, row, monkeypatch
    ):
        want = read_phylip(io.StringIO(self._FOUR))
        converted = _count_conversions(monkeypatch)
        got = read_phylip(io.StringIO(self._FOUR.replace(self._ROW_C, row)))
        assert got.labels == want.labels
        assert hexes(got) == hexes(want)
        assert len(converted) == 4 * 5 // 2  # each pair once, on either route

    @pytest.mark.parametrize(
        "row, found",
        [
            ("c\t2.0\t3.0\t0.0\t4.5\t9.0", 6),  # mirrored, then one field more
            ("c\t2.0\t3.0\t9.0\t0.0\t4.5", 6),
            ("c  2.0  3.0  0.0  4.5  9.0", 6),
            ("c\t2.0\t3.0\t0.0", 4),  # mirrored, then one field less
            ("c\t2.0\t0.0\t4.5", 4),
            ("c 2.0 \t3.0 0.0", 4),
            # the first row has no fields left of its diagonal to differ
            ("a\t0.0\t1.5\t2.0", 4),
            ("a\t0.0\t1.5\t2.0\t2.5\t9.0", 6),
        ],
    )
    def test_a_row_with_a_field_more_or_less_is_refused(self, row, found):
        r = "abcd".index(row[0])
        text = self._FOUR.replace(self._FOUR.splitlines()[r + 1], row)
        with pytest.raises(ValidationError) as info:
            read_phylip(io.StringIO(text))
        assert str(info.value) == (
            f"matrix row {r + 1}: expected a label and 4 values, found {found} fields"
        )

    @pytest.mark.parametrize("bad", ["2_0", "\u0662", "3.\u0660"])
    @pytest.mark.parametrize("where", [1, 2, 3, 4])  # left of, at and right of the diagonal
    @pytest.mark.parametrize("gap", ["\t", "  ", " \t "])
    def test_an_underscore_or_a_non_ascii_digit_is_named_on_either_route(
        self, bad, where, gap
    ):
        fields = self._ROW_C.split("\t")
        fields[where] = bad
        with pytest.raises(ValidationError) as info:
            read_phylip(io.StringIO(self._FOUR.replace(self._ROW_C, gap.join(fields))))
        assert str(info.value) == f"matrix row 3: {bad!r} is not an ASCII decimal number"
