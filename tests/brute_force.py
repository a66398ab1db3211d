"""Generate-and-test hom-sets: the slow definition, kept as a test oracle.

Every injective matrix of the right shape is enumerated and kept when the
single-matrix membership test accepts it.  Nothing here shares code with
the constructive search in ``categories.hom_matrices`` beyond the Creg
enumeration itself.
"""

from elabcat import categories as cg
from elabcat.fpmat import injective_matrices


def brute_hom_sets(kinds, E, F):
    """For each kind, all kind-morphisms E -> F, sorted, by filtering
    every injective matrix."""
    candidates = [cg.LinearHom(E, F, M)
                  for M in injective_matrices(E.prime, F.rank, E.rank)]
    return [tuple(h.matrix for h in candidates if cg.hom_in_kind(kind, h))
            for kind in kinds]
