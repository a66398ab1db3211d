"""Categories of elementary abelian p-subgroups of finite permutation groups.

The package enumerates the elementary abelian p-subgroups of a finite
permutation group, builds several categories of injective homomorphisms
between them (distinguished by how much of each map is realized by
conjugation), and reports the invariants that separate those categories:
maximal object classes, component counts, and automorphism fibre indices.
A polynomial layer computes total Chern classes of abelian character
lists, Dickson invariant degree checks, and symmetric reductions.
"""

__version__ = "0.1.0"

from .errors import (
    CapExceeded,
    CatalogMismatch,
    ClosureGuardError,
    ElabcatError,
    InputFormatError,
    InvalidPermutation,
    NotMaximal,
    NotSymmetric,
)
from .groups import ConjugacyTable, FiniteGroup, Perm, close_generators
