"""Walk matrices, controllability, generalized spectra, and the recovery and
structural classification of the regular rational orthogonal conjugator Q.

Everything here is exact; there are no epsilon comparisons anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import NotBipartiteError, PreconditionError, SingularMatrixError
from .intpoly import IntPolynomial, is_irreducible
from .linalg import IntMatrix, RatMatrix, charpoly, complement_matrix, det, solve
from .sgraph import SignedGraph, bipartition, part_sorted_adjacency, walk_key


def walk_matrix(a: IntMatrix) -> IntMatrix:
    """W = [e, Ae, ..., A^(n-1)e], built by repeated matrix-vector products."""
    if not a.is_square:
        raise PreconditionError("walk matrix requires a square matrix")
    n = a.rows
    cols = []
    v = [1] * n
    cols.append(v)
    for _ in range(n - 1):
        v = [sum(a.data[i][j] * v[j] for j in range(n)) for i in range(n)]
        cols.append(v)
    return IntMatrix([[cols[k][i] for k in range(n)] for i in range(n)])


def is_controllable(a: IntMatrix) -> bool:
    """det W != 0."""
    return det(walk_matrix(a)) != 0


@dataclass(frozen=True)
class GeneralizedSpectrum:
    """Characteristic polynomials of A and of J - I - A, both monic."""

    adjacency_charpoly: IntPolynomial
    complement_charpoly: IntPolynomial


def generalized_spectrum(a: IntMatrix) -> GeneralizedSpectrum:
    return GeneralizedSpectrum(charpoly(a), charpoly(complement_matrix(a)))


def are_generalized_cospectral(a: IntMatrix, b: IntMatrix) -> bool:
    """Exact equality of both characteristic polynomials."""
    if a.shape() != b.shape():
        raise PreconditionError("matrices must have equal dimensions")
    if charpoly(a) != charpoly(b):
        return False
    return charpoly(complement_matrix(a)) == charpoly(complement_matrix(b))


# -- Q recovery -----------------------------------------------------------------


@dataclass(frozen=True)
class QRecovery:
    """Q = W(A) W(B)^(-1) plus the three validity flags.

    orthogonal and conjugates hold together exactly iff A and B are
    generalized cospectral, with the recovered Q as the unique regular
    rational orthogonal conjugator; a failed flag is diagnostic data, not
    an error.  regular (Q e = e) is no evidence: e is the first column of
    both walk matrices, so Q W_B = W_A gives Q e = e for every pair of
    controllable matrices.  It checks the solve.
    """

    q: RatMatrix
    orthogonal: bool
    regular: bool
    conjugates: bool

    @property
    def valid(self) -> bool:
        return self.orthogonal and self.regular and self.conjugates


def recover_q(a: IntMatrix, b: IntMatrix) -> QRecovery:
    """Recover the candidate conjugator between controllable A and B.

    Q W_B = W_A, so the fraction-free solve of W_B^T (dQ)^T = d W_A^T gives
    dQ = d Q as an integer matrix, d = det W_B.  The flags are checked on
    dQ in integers, each scaled by d or d^2: (dQ)^T (dQ) = d^2 I, every row
    of dQ sums to d, and (dQ)^T A (dQ) = d^2 B.  The row sums hold for any
    exact solve (see QRecovery), so only the other two flags tell
    cospectral pairs apart.  Fractions are built only for QRecovery.q.
    """
    if a.shape() != b.shape() or not a.is_square:
        raise PreconditionError("recover_q requires square matrices of equal size")
    wa = walk_matrix(a)
    wb = walk_matrix(b)
    if det(wa) == 0:
        raise PreconditionError("first matrix is not controllable (det W = 0)")
    try:
        d, dq_t = solve(wb.T, wa.T)
    except SingularMatrixError:
        raise PreconditionError("second matrix is not controllable (det W = 0)") from None
    dq = dq_t.T
    n = a.rows
    d2 = d * d
    scaled_identity = IntMatrix([[d2 if i == j else 0 for j in range(n)] for i in range(n)])
    orthogonal = dq_t @ dq == scaled_identity
    regular = all(sum(row) == d for row in dq.data)
    conjugates = dq_t @ a @ dq == IntMatrix([[d2 * x for x in row] for row in b.data])
    q = RatMatrix([[Fraction(x, d) for x in row] for row in dq.data])
    return QRecovery(q=q, orthogonal=orthogonal, regular=regular, conjugates=conjugates)


# -- classification ---------------------------------------------------------------


@dataclass(frozen=True)
class QClassification:
    """Structural classification of a square rational matrix.

    tag is the most specific label; the individual flags stay available so
    a permutation that also fits the bipartite block pattern can be
    recognized as such.
    """

    tag: str  # Permutation | SignedPermutation | BlockDiagonal | AntiBlockDiagonal | General
    is_permutation: bool
    is_signed_permutation: bool
    block_diagonal: Optional[bool] = None  # None when no split was given
    anti_block_diagonal: Optional[bool] = None
    split: Optional[int] = None
    q1: Optional[RatMatrix] = None
    q2: Optional[RatMatrix] = None


def _is_signed_permutation(q: RatMatrix) -> tuple[bool, bool]:
    """(signed_permutation, permutation)."""
    n = q.rows
    col_used = [False] * n
    all_positive = True
    for i in range(n):
        nonzero = [(j, q.data[i][j]) for j in range(n) if q.data[i][j] != 0]
        if len(nonzero) != 1:
            return False, False
        j, val = nonzero[0]
        if val not in (1, -1):
            return False, False
        if col_used[j]:
            return False, False
        col_used[j] = True
        if val != 1:
            all_positive = False
    return True, all_positive


def _zero_block(q: RatMatrix, rows: range, cols: range) -> bool:
    return all(q.data[i][j] == 0 for i in rows for j in cols)


def _extract(q: RatMatrix, rows: range, cols: range) -> RatMatrix:
    return RatMatrix([[q.data[i][j] for j in cols] for i in rows])


def classify_q(q: RatMatrix, split: Optional[int] = None) -> QClassification:
    """Exact structural classification; block tags only with a given split."""
    if not q.is_square:
        raise PreconditionError("classification requires a square matrix")
    n = q.rows
    signed_perm, perm = _is_signed_permutation(q)
    block = anti = None
    q1 = q2 = None
    if split is not None:
        if not (0 < split < n):
            raise PreconditionError(f"split must lie strictly between 0 and {n}")
        top, bottom = range(split), range(split, n)
        block = _zero_block(q, top, bottom) and _zero_block(q, bottom, top)
        anti = _zero_block(q, top, top) and _zero_block(q, bottom, bottom)
        if block:
            q1, q2 = _extract(q, top, top), _extract(q, bottom, bottom)
        elif anti:
            q1, q2 = _extract(q, top, bottom), _extract(q, bottom, top)
    if perm:
        tag = "Permutation"
    elif signed_perm:
        tag = "SignedPermutation"
    elif block:
        tag = "BlockDiagonal"
    elif anti:
        tag = "AntiBlockDiagonal"
    else:
        tag = "General"
    return QClassification(
        tag=tag,
        is_permutation=perm,
        is_signed_permutation=signed_perm,
        block_diagonal=block,
        anti_block_diagonal=anti,
        split=split,
        q1=q1,
        q2=q2,
    )


def is_regular_orthogonal(q: RatMatrix) -> bool:
    """Q^T Q = I and Qe = e, both exact."""
    if not q.is_square:
        return False
    if (q.T @ q) != RatMatrix.identity(q.rows):
        return False
    return all(sum(row) == 1 for row in q.data)


# -- structure theorem verification ------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    """Outcome of the bipartite block-structure verification.

    Preconditions are reported individually; when recovery is possible the
    conjugator, its classification against the n/2 split, and the regular-
    orthogonality of the extracted blocks are carried as witnesses.
    """

    failures: tuple[str, ...]
    split: Optional[int] = None
    recovery: Optional[QRecovery] = None
    classification: Optional[QClassification] = None
    q1_regular_orthogonal: Optional[bool] = None
    q2_regular_orthogonal: Optional[bool] = None

    @property
    def passed(self) -> bool:
        if self.failures or self.recovery is None or self.classification is None:
            return False
        if not self.recovery.valid:
            return False
        if not (self.classification.block_diagonal or self.classification.anti_block_diagonal):
            return False
        return bool(self.q1_regular_orthogonal and self.q2_regular_orthogonal)


def verify_structure_theorem(g: SignedGraph, h: SignedGraph) -> StructureReport:
    """Check the block/anti-block form of Q for two generalized cospectral
    signed bipartite graphs with a common irreducible charpoly.

    Both graphs are relabeled into part-sorted block form first, so the
    block pattern of Q is meaningful.  Precondition failures are collected
    rather than raised; Q is still recovered when controllability permits,
    because failure modes are data for the search layer.
    """
    failures: list[str] = []
    if g.n != h.n:
        return StructureReport(failures=("vertex counts differ",))
    mats = []
    for name, graph in (("first", g), ("second", h)):
        try:
            b = bipartition(graph)
        except NotBipartiteError:
            failures.append(f"{name} graph is not bipartite")
            continue
        if len(b.left) != len(b.right):
            failures.append(f"{name} graph has unequal part sizes")
            continue
        mats.append(part_sorted_adjacency(graph, b))
    if len(mats) != 2:
        return StructureReport(failures=tuple(failures))
    a_blk, b_blk = mats
    phi_a, phi_b = charpoly(a_blk), charpoly(b_blk)
    if phi_a != phi_b:
        failures.append("characteristic polynomials differ")
    elif not is_irreducible(phi_a).irreducible:
        failures.append("characteristic polynomial is reducible")
    # on equal phi, equal walk keys is equivalent to equal complement
    # charpolys (see sgraph.walk_key); relabeling leaves both unchanged
    if phi_a == phi_b and walk_key(g) != walk_key(h):
        failures.append("not generalized cospectral (complement spectra differ)")
    split = g.n // 2
    try:
        recovery = recover_q(a_blk, b_blk)
    except PreconditionError as exc:
        failures.append(str(exc))
        return StructureReport(failures=tuple(failures), split=split)
    classification = classify_q(recovery.q, split=split)
    q1_ok = q2_ok = None
    if classification.q1 is not None and classification.q2 is not None:
        q1_ok = is_regular_orthogonal(classification.q1)
        q2_ok = is_regular_orthogonal(classification.q2)
    return StructureReport(
        failures=tuple(failures),
        split=split,
        recovery=recovery,
        classification=classification,
        q1_regular_orthogonal=q1_ok,
        q2_regular_orthogonal=q2_ok,
    )
