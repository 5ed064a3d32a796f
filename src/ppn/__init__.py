"""Alignment-free DNA sequence comparison via prime-product
neighborhood vectors.

Each sequence maps to a 24-component integer vector: nucleotide counts
in sliding windows become exponents of the primes 2, 3, 5, 7 under all
24 prime-to-base assignments, and the per-window products are summed.
Distances between vectors feed UPGMA tree building, and trees can be
compared with normalized Robinson-Foulds and quartet distances.
"""

from .core import *
from .errors import *
from .phylo import *
from .seqio import *
from . import core, errors, phylo, seqio

__version__ = "0.1.0"

__all__ = core.__all__ + errors.__all__ + phylo.__all__ + seqio.__all__
