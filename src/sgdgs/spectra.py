"""Walk matrices, controllability, generalized spectra, and the recovery and
structural classification of the regular rational orthogonal conjugator Q.

Everything here is exact; there are no epsilon comparisons anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
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
    """Q = W(A) W(B)^(-1) as the integer pair (level, scaled), plus the
    three validity flags.

    level is Q's level, the least positive integer l with l Q integral (the
    lcm of Q's denominators), and scaled = level * Q.  The pair is in
    lowest terms, so equal conjugators give equal pairs.

    orthogonal and conjugates hold together exactly iff A and B are
    generalized cospectral, with the recovered Q as the unique regular
    rational orthogonal conjugator; a failed flag is diagnostic data, not
    an error.  regular (Q e = e) is no evidence: e is the first column of
    both walk matrices, so Q W_B = W_A gives Q e = e for every pair of
    controllable matrices.  It checks the solve.
    """

    level: int
    scaled: IntMatrix
    orthogonal: bool
    regular: bool
    conjugates: bool

    @property
    def valid(self) -> bool:
        return self.orthogonal and self.regular and self.conjugates

    @property
    def q(self) -> RatMatrix:
        """Q itself, as Fractions; built on each read."""
        from fractions import Fraction

        return RatMatrix([[Fraction(x, self.level) for x in row] for row in self.scaled.data])


def recover_q(a: IntMatrix, b: IntMatrix) -> QRecovery:
    """Recover the candidate conjugator between controllable A and B.

    Q W_B = W_A, so the fraction-free solve of W_B^T (dQ)^T = d W_A^T gives
    dQ = d Q as an integer matrix, d = det W_B.  Dividing d and dQ by their
    gcd g, with the sign of d, gives the lowest-terms pair: level = |d| / g
    and scaled = sign(d) dQ / g.  The flags are checked on that pair in
    integers, each scaled by level or level^2: scaled^T scaled = level^2 I,
    every row of scaled sums to level, and scaled^T A scaled = level^2 B.
    The row sums hold for any exact solve (see QRecovery), so only the
    other two flags tell cospectral pairs apart.
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
    g = gcd(d, *(x for row in dq_t.data for x in row))
    if d < 0:
        g = -g
    level = d // g
    scaled_t = IntMatrix([[x // g for x in row] for row in dq_t.data])
    scaled = scaled_t.T
    l2 = level * level
    return QRecovery(
        level=level,
        scaled=scaled,
        orthogonal=_is_orthogonal(scaled_t, scaled, level),
        regular=all(sum(row) == level for row in scaled.data),
        conjugates=scaled_t @ a @ scaled == IntMatrix([[l2 * x for x in row] for row in b.data]),
    )


def _is_orthogonal(scaled_t: IntMatrix, scaled: IntMatrix, level: int) -> bool:
    """Q^T Q = I for Q = scaled / level: scaled^T scaled = level^2 I."""
    n, l2 = scaled.rows, level * level
    scaled_identity = IntMatrix([[l2 if i == j else 0 for j in range(n)] for i in range(n)])
    return scaled_t @ scaled == scaled_identity


# -- classification ---------------------------------------------------------------


@dataclass(frozen=True)
class QClassification:
    """Structural classification of a square rational matrix Q, given as
    the integer pair (level, scaled) with scaled = level * Q.

    tag is the most specific label; the individual flags stay available so
    a permutation that also fits the bipartite block pattern can be
    recognized as such.  q1 and q2 are the diagonal (or anti-diagonal)
    blocks of scaled, over the same level.
    """

    tag: str  # Permutation | SignedPermutation | BlockDiagonal | AntiBlockDiagonal | General
    is_permutation: bool
    is_signed_permutation: bool
    block_diagonal: Optional[bool] = None  # None when no split was given
    anti_block_diagonal: Optional[bool] = None
    split: Optional[int] = None
    q1: Optional[IntMatrix] = None
    q2: Optional[IntMatrix] = None


def _require_level(level: int) -> None:
    if level < 1:
        raise PreconditionError(f"level must be a positive integer, got {level}")


def _is_signed_permutation(scaled: IntMatrix, level: int) -> tuple[bool, bool]:
    """(signed_permutation, permutation): one nonzero entry per row and per
    column, each equal to +-level."""
    n = scaled.rows
    col_used = [False] * n
    all_positive = True
    for row in scaled.data:
        nonzero = [(j, x) for j, x in enumerate(row) if x != 0]
        if len(nonzero) != 1:
            return False, False
        j, val = nonzero[0]
        if val not in (level, -level):
            return False, False
        if col_used[j]:
            return False, False
        col_used[j] = True
        if val != level:
            all_positive = False
    return True, all_positive


def _zero_block(q: IntMatrix, rows: range, cols: range) -> bool:
    return all(q.data[i][j] == 0 for i in rows for j in cols)


def _extract(q: IntMatrix, rows: range, cols: range) -> IntMatrix:
    return IntMatrix([[q.data[i][j] for j in cols] for i in rows])


def classify_q(scaled: IntMatrix, level: int, split: Optional[int] = None) -> QClassification:
    """Exact structural classification of Q = scaled / level; block tags
    only with a given split."""
    _require_level(level)
    if not scaled.is_square:
        raise PreconditionError("classification requires a square matrix")
    n = scaled.rows
    signed_perm, perm = _is_signed_permutation(scaled, level)
    block = anti = None
    q1 = q2 = None
    if split is not None:
        if not (0 < split < n):
            raise PreconditionError(f"split must lie strictly between 0 and {n}")
        top, bottom = range(split), range(split, n)
        block = _zero_block(scaled, top, bottom) and _zero_block(scaled, bottom, top)
        anti = _zero_block(scaled, top, top) and _zero_block(scaled, bottom, bottom)
        if block:
            q1, q2 = _extract(scaled, top, top), _extract(scaled, bottom, bottom)
        elif anti:
            q1, q2 = _extract(scaled, top, bottom), _extract(scaled, bottom, top)
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


def is_regular_orthogonal(scaled: IntMatrix, level: int) -> bool:
    """Q^T Q = I and Qe = e for Q = scaled / level, in integers: every row
    of scaled sums to level."""
    _require_level(level)
    if not (scaled.is_square and _is_orthogonal(scaled.T, scaled, level)):
        return False
    return all(sum(row) == level for row in scaled.data)


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
    classification = classify_q(recovery.scaled, recovery.level, split=split)
    q1_ok = q2_ok = None
    if classification.q1 is not None and classification.q2 is not None:
        q1_ok = is_regular_orthogonal(classification.q1, recovery.level)
        q2_ok = is_regular_orthogonal(classification.q2, recovery.level)
    return StructureReport(
        failures=tuple(failures),
        split=split,
        recovery=recovery,
        classification=classification,
        q1_regular_orthogonal=q1_ok,
        q2_regular_orthogonal=q2_ok,
    )
