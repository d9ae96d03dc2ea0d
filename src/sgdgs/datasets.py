"""Embedded regression datasets.

Three named datasets are baked in so acceptance runs are hermetic:

* ``example1-poly``  - the degree-14 tree characteristic polynomial whose
  scaled discriminant root is odd and square-free;
* ``remark1``        - a pair of signed trees on 18 vertices, generalized
  cospectral and non-isomorphic, with the explicit block-diagonal
  conjugator (denominators 7) showing the square-free condition is tight;
* ``remark2``        - a pair of signed trees on 18 vertices with a
  reducible characteristic polynomial and an explicit conjugator
  (denominators 5) escaping the block structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intpoly import IntPolynomial
from .linalg import IntMatrix
from .sgraph import SignedGraph, from_bipartite_adjacency

EXAMPLE1_CHARPOLY = IntPolynomial(
    (-1, 0, 16, 0, -79, 0, 157, 0, -143, 0, 63, 0, -13, 0, 1)
)

EXAMPLE1_S_FACTORS = (5, 11, 4754599)  # s = 261502945

REMARK1_CHARPOLY = IntPolynomial(
    (-1, 0, 22, 0, -162, 0, 538, 0, -897, 0, 809, 0, -410, 0, 116, 0, -17, 0, 1)
)

REMARK1_S_FACTORS = ((7, 2), (347, 1), (357175051, 1))  # s = 6073047392153

_REMARK1_M = (
    (-1, 0, 0, 0, 0, 0, 0, 0, 0),
    (-1, -1, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, -1, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, -1, 0, 0, 0, 0, 0),
    (0, -1, 0, 0, -1, 1, 0, 0, 0),
    (0, 0, 0, 0, -1, 0, 0, 0, 0),
    (0, 0, 0, 0, -1, 0, -1, 1, 0),
    (0, 0, 0, 0, 0, 0, -1, 0, 0),
    (0, 0, 0, 0, 0, -1, 0, 0, -1),
)

_REMARK1_M_TILDE = (
    (0, 0, 0, 0, 0, 0, 0, 1, -1),
    (0, 0, 0, -1, -1, 0, 1, 0, 0),
    (0, 0, 0, -1, 0, 0, 0, 0, 0),
    (-1, -1, 0, 0, 0, 0, 0, 0, 0),
    (0, -1, -1, 0, 0, 0, 0, 0, 0),
    (-1, 0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, -1, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, -1, 0),
    (-1, 0, 0, 0, 0, -1, 0, 0, 1),
)

_REMARK1_Q1_NUM = (
    (-1, -1, -2, -2, 4, 3, 3, 2, 1),
    (-2, -2, 3, 3, 1, -1, -1, 4, 2),
    (2, 2, 4, -3, -1, 1, 1, 3, -2),
    (4, -3, 1, 1, -2, 2, 2, -1, 3),
    (-3, 4, 1, 1, -2, 2, 2, -1, 3),
    (3, 3, -1, -1, 2, -2, -2, 1, 4),
    (1, 1, 2, 2, 3, 4, -3, -2, -1),
    (2, 2, -3, 4, -1, 1, 1, 3, -2),
    (1, 1, 2, 2, 3, -3, 4, -2, -1),
)

_REMARK1_Q2_NUM = (
    (2, 2, 4, -3, -1, 1, 1, 3, -2),
    (2, 2, -3, 4, -1, 1, 1, 3, -2),
    (-2, -2, 3, 3, 1, -1, -1, 4, 2),
    (4, -3, 1, 1, -2, 2, 2, -1, 3),
    (1, 1, 2, 2, 3, 4, -3, -2, -1),
    (-3, 4, 1, 1, -2, 2, 2, -1, 3),
    (3, 3, -1, -1, 2, -2, -2, 1, 4),
    (-1, -1, -2, -2, 4, 3, 3, 2, 1),
    (1, 1, 2, 2, 3, -3, 4, -2, -1),
)

_REMARK2_M = (
    (1, 0, 0, 0, 0, 0, 0, 0, 0),
    (-1, 1, 0, 0, 0, 0, -1, 0, 0),
    (0, -1, -1, 0, 0, 0, 0, 0, 0),
    (0, 0, -1, 1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 1, -1, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, -1, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, -1, -1),
)

_REMARK2_M_TILDE = (
    (1, 0, 0, 0, 0, 0, 0, 0, 0),
    (-1, 1, -1, 0, 0, 0, 0, 0, 0),
    (0, 0, -1, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, -1, -1, 0, 0, 0, 0),
    (0, -1, 0, 0, 0, 1, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 1, 0, 1),
    (0, 0, 0, 0, 0, -1, 0, -1, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, -1),
)

_REMARK2_Q_NUM = (
    (5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 3, -2, 1, -1, 0, 0, 0, 0, 0, 1, -1, 2, 2),
    (0, 0, 0, 0, 0, -1, -1, -2, 2, 0, 0, 0, 0, 0, 3, 2, 1, 1),
    (0, 0, 0, 0, 0, -2, 3, 1, -1, 0, 0, 0, 0, 0, 1, -1, 2, 2),
    (0, 0, 0, 0, 0, 1, 1, 2, -2, 0, 0, 0, 0, 0, 2, 3, -1, -1),
    (0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, -1, -1, 3, 2, 0, 0, 0, 0, 0, -2, 2, 1, 1),
    (0, 0, 0, 0, 0, 2, 2, -1, 1, 0, 0, 0, 0, 0, -1, 1, 3, -2),
    (0, 0, 0, 0, 0, 2, 2, -1, 1, 0, 0, 0, 0, 0, -1, 1, -2, 3),
    (0, 0, 0, 0, 0, 1, 1, 2, 3, 0, 0, 0, 0, 0, 2, -2, -1, -1),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0),
)

# factors of remark2's charpoly as printed: (x-1)(x+1)(x^2-x-1)(x^2+x-1) * q12
REMARK2_CHARPOLY_FACTORS = (
    IntPolynomial((-1, 1)),
    IntPolynomial((1, 1)),
    IntPolynomial((-1, -1, 1)),
    IntPolynomial((-1, 1, 1)),
    IntPolynomial((1, 0, -21, 0, 95, 0, -119, 0, 60, 0, -13, 0, 1)),
)


@dataclass(frozen=True)
class Dataset:
    name: str
    kind: str  # "polynomial" or "tree-pair"
    description: str


_DATASETS = {
    "example1-poly": Dataset(
        "example1-poly",
        "polynomial",
        "degree-14 tree charpoly with odd square-free scaled discriminant root",
    ),
    "remark1": Dataset(
        "remark1",
        "tree-pair",
        "generalized-cospectral signed trees on 18 vertices with a "
        "block-diagonal conjugator (square-free condition is tight)",
    ),
    "remark2": Dataset(
        "remark2",
        "tree-pair",
        "signed trees on 18 vertices with reducible charpoly whose "
        "conjugator escapes the block structure",
    ),
}


def dataset_names() -> list[str]:
    return sorted(_DATASETS)


def get_dataset(name: str) -> Dataset:
    if name not in _DATASETS:
        raise ValueError(f"unknown dataset {name!r}; available: {', '.join(dataset_names())}")
    return _DATASETS[name]


def example1_polynomial() -> IntPolynomial:
    return EXAMPLE1_CHARPOLY


def remark1_matrices() -> tuple[IntMatrix, IntMatrix]:
    return IntMatrix(_REMARK1_M), IntMatrix(_REMARK1_M_TILDE)


def remark2_matrices() -> tuple[IntMatrix, IntMatrix]:
    return IntMatrix(_REMARK2_M), IntMatrix(_REMARK2_M_TILDE)


def remark1_pair() -> tuple[SignedGraph, SignedGraph]:
    m, mt = remark1_matrices()
    return from_bipartite_adjacency(m), from_bipartite_adjacency(mt)


def remark2_pair() -> tuple[SignedGraph, SignedGraph]:
    m, mt = remark2_matrices()
    return from_bipartite_adjacency(m), from_bipartite_adjacency(mt)


def remark1_printed_q() -> tuple[int, IntMatrix]:
    """diag(Q1, Q2) as printed, as the pair (7, 7 * diag(Q1, Q2))."""
    entries = [[0] * 18 for _ in range(18)]
    for i in range(9):
        entries[i][:9] = _REMARK1_Q1_NUM[i]
        entries[9 + i][9:] = _REMARK1_Q2_NUM[i]
    return 7, IntMatrix(entries)


def remark2_printed_q() -> tuple[int, IntMatrix]:
    """The printed 18 x 18 conjugator Q, as the pair (5, 5 * Q)."""
    return 5, IntMatrix(_REMARK2_Q_NUM)


def remark2_printed_charpoly() -> IntPolynomial:
    prod = IntPolynomial.one()
    for f in REMARK2_CHARPOLY_FACTORS:
        prod = prod * f
    return prod


def resolve_graph_spec(spec: str) -> SignedGraph:
    """Resolve 'dataset:remark1-a' style references used by the CLI."""
    if not spec.startswith("dataset:"):
        raise ValueError(f"not a dataset reference: {spec!r}")
    key = spec[len("dataset:") :]
    pairs = {"remark1": remark1_pair, "remark2": remark2_pair}
    for base, builder in pairs.items():
        if key == f"{base}-a":
            return builder()[0]
        if key == f"{base}-b":
            return builder()[1]
    raise ValueError(
        f"unknown dataset graph {spec!r}; use dataset:<remark1|remark2>-<a|b>"
    )
