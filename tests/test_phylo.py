"""Unit tests for distance matrices, UPGMA, Newick IO, and the two
tree distances."""

import io
import math
import random
from itertools import combinations

import numpy as np
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
    oracle_nqd,
    random_binary_tree,
    random_ultrametric,
    splits_by_edge_cut,
    weighted_leaf_distances,
)
from ppn.phylo import _check_comparable, _splits


def square(rows):
    return np.array(rows, dtype=np.float64)


# -- distance matrices ---------------------------------------------------------

class TestDistanceMatrix:
    def test_basic_access(self):
        m = DistanceMatrix(["a", "b"], square([[0, 2], [2, 0]]))
        assert m.size == 2
        assert m["a", "b"] == 2.0
        assert m["b", "b"] == 0.0

    def test_requires_two_taxa(self):
        with pytest.raises(ValidationError):
            DistanceMatrix(["a"], square([[0]]))

    def test_rejects_duplicate_labels(self):
        # duplicate labels mean malformed input, not a parameter problem
        with pytest.raises(DuplicateIdError):
            DistanceMatrix(["a", "a"], square([[0, 1], [1, 0]]))

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

    def test_values_are_a_read_only_copy(self):
        src = square([[0, 1], [1, 0]])
        m = DistanceMatrix(["a", "b"], src)
        src[0, 1] = 99.0
        assert m["a", "b"] == 1.0
        with pytest.raises(ValueError):
            m.values[0, 1] = 5.0


class TestPairwiseMatrix:
    def test_entries_match_single_distances(self):
        params = PpnParams(radius=3, stride=1)
        seqs = simulate(SimulationSpec(species_count=4, length=200, seed=1))
        m = pairwise_matrix(seqs, params)
        vecs = {s.id: ppn_vector(s, params) for s in seqs}
        for a, b in combinations([s.id for s in seqs], 2):
            assert m[a, b] == distance(vecs[a], vecs[b])

    def test_manhattan_metric_is_used_when_configured(self):
        params = PpnParams(radius=2, stride=1, metric="manhattan")
        seqs = simulate(SimulationSpec(species_count=3, length=150, seed=3))
        m = pairwise_matrix(seqs, params)
        va, vb = ppn_vector(seqs[0], params), ppn_vector(seqs[1], params)
        assert m[seqs[0].id, seqs[1].id] == distance(va, vb, metric="manhattan")

    def test_requires_two_sequences(self):
        seqs = simulate(SimulationSpec(species_count=1, length=50, seed=0))
        with pytest.raises(ValidationError):
            pairwise_matrix(seqs, PpnParams())

    def test_rejects_duplicate_ids(self):
        seqs = simulate(SimulationSpec(species_count=2, length=50, seed=0))
        with pytest.raises(DuplicateIdError):
            pairwise_matrix([seqs[0], seqs[0]], PpnParams())

    def test_record_error_keeps_its_class_and_names_the_record(self, monkeypatch):
        # NewickParseError's constructor takes two arguments, so building
        # a new one from a message alone would raise a TypeError instead
        original = NewickParseError("bad thing", 7)

        def failing(seq, params):
            raise original

        monkeypatch.setattr("ppn.phylo.ppn_vector", failing)
        seqs = simulate(SimulationSpec(species_count=2, length=50, seed=0))
        with pytest.raises(NewickParseError) as caught:
            pairwise_matrix(seqs, PpnParams())
        assert str(caught.value) == "record 'sim_001': bad thing (at offset 7)"
        assert caught.value.offset == 7
        assert caught.value.__cause__ is original

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

    def test_rejects_non_finite_distances(self):
        bad = square([[0, np.inf], [np.inf, 0]])
        with pytest.raises(NonFiniteDistanceError):
            upgma(DistanceMatrix(["a", "b"], bad))

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
    """``_splits`` with each membership row mapped back to its leaf labels."""
    column = _check_comparable(tree, tree)
    labels = np.array(list(column))
    return {
        frozenset(labels[np.frombuffer(row, dtype=np.int16) == 1].tolist())
        for row in _splits(tree, column)
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


# -- PHYLIP --------------------------------------------------------------------

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

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValidationError, match="rows"):
            read_phylip(io.StringIO("3\na 0 1\nb 1 0\n"))

    def test_rejects_wrong_field_count(self):
        with pytest.raises(ValidationError, match="fields"):
            read_phylip(io.StringIO("2\na 0 1\nb 1\n"))

    def test_rejects_non_numeric_values(self):
        with pytest.raises(ValidationError, match="row 1: .*'x'"):
            read_phylip(io.StringIO("2\na 0 x\nb 1 0\n"))

    def test_rejects_empty_input(self):
        with pytest.raises(ValidationError, match="empty"):
            read_phylip(io.StringIO(""))
