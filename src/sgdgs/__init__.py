"""sgdgs: exact-arithmetic spectral-determinacy certification for signed trees.

Decides whether all signings of a tree are determined by their generalized
spectrum via the odd-square-free discriminant certificate, and provides
the supporting exact machinery: exact big-integer linear algebra,
integer polynomial factorization, rational orthogonal conjugator recovery,
number-field eigenvector verification, and desk-scale exhaustive search.
"""

from .certify import DgsCertificate, certify_from_charpoly, certify_tree
from .intpoly import IntPolynomial, discriminant, is_irreducible, resultant
from .linalg import IntMatrix, RatMatrix, charpoly, complement_matrix, det
from .sgraph import SignedGraph, are_isomorphic, bipartition, is_balanced, switch
from .spectra import (
    classify_q,
    generalized_spectrum,
    is_controllable,
    recover_q,
    verify_structure_theorem,
    walk_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "DgsCertificate",
    "IntMatrix",
    "IntPolynomial",
    "RatMatrix",
    "SignedGraph",
    "are_isomorphic",
    "bipartition",
    "certify_from_charpoly",
    "certify_tree",
    "charpoly",
    "classify_q",
    "complement_matrix",
    "det",
    "discriminant",
    "generalized_spectrum",
    "is_balanced",
    "is_controllable",
    "is_irreducible",
    "recover_q",
    "resultant",
    "switch",
    "verify_structure_theorem",
    "walk_matrix",
    "__version__",
]
