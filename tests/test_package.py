"""The package's public names: each is declared once, in its module's
``__all__``, and ``ppn`` re-exports them all."""

import ast
import inspect
import os
import subprocess
import sys

import pytest

import ppn
from ppn import core, errors, phylo, seqio

MODULES = (core, errors, phylo, seqio)

NAMES = [
    "BASES", "DistanceMatrix", "DuplicateIdError", "DuplicateLeafError",
    "EmptySequenceError", "EncodedSequence", "InputError", "InvalidCharacterError",
    "LeafSetMismatchError", "MAX_RADIUS", "MalformedFastaError", "Metric",
    "NewickParseError", "NonFiniteDistanceError", "NotSmoothError", "OutOfRangeError",
    "PERMUTATIONS", "PRIMES", "ParamsMismatchError", "PhyloTree", "PpnError",
    "PpnParams", "PpnVector", "SimulationSpec", "TooFewLeavesError", "TreeNode",
    "ValidationError", "count_histogram", "distance", "encode", "factor_prime_product",
    "from_newick", "nqd", "nrf", "pairwise_matrix", "ppn_vector", "prime_product",
    "read_fasta", "read_phylip", "simulate", "to_newick", "upgma", "window_centers",
    "window_count", "window_counts_at", "window_product_sum", "window_products",
    "write_fasta", "write_phylip",
]


def test_ppn_exports_the_49_names():
    assert len(NAMES) == 49
    assert sorted(ppn.__all__) == NAMES


def test_each_name_is_its_modules_object_and_declared_once():
    owners = {name: m for m in MODULES for name in m.__all__}
    assert sum(len(m.__all__) for m in MODULES) == len(owners)
    assert sorted(owners) == NAMES
    for name, module in owners.items():
        assert getattr(ppn, name) is getattr(module, name), name


def test_star_import_binds_the_same_names():
    namespace = {}
    exec("from ppn import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == NAMES
    assert all(namespace[name] is getattr(ppn, name) for name in NAMES)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_is_a_literal_list_of_strings(module):
    # a type checker reads the names from the source, not from the module
    tree = ast.parse(inspect.getsource(module))
    [value] = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
    ]
    assert isinstance(value, ast.List)
    assert [ast.literal_eval(item) for item in value.elts] == module.__all__
    assert all(isinstance(item, ast.Constant) for item in value.elts)


def test_importing_the_cli_leaves_orjson_unimported():
    # only the PHYLIP writer and reader need orjson, and they import it
    # when they run, so that ppn vector, treedist and a tree from FASTA do
    # not pay for the import
    src = os.path.dirname(os.path.dirname(ppn.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    check = "import sys, ppn.cli; print('orjson' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
