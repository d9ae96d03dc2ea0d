"""Symbolic eigenvectors in Z[x]/(phi) and the bipartite eigen-structure checks.

Used to verify the bipartite eigen-structure facts without any floating
point.  For an integer matrix A with irreducible characteristic
polynomial phi and a root alpha of phi, the eigenvectors for alpha have
entries in Q(alpha) = Q[x]/(phi); up to a Q(alpha) scale they have integer
polynomial entries of degree < deg(phi) (Cohen, A Course in Computational
Algebraic Number Theory, GTM 138, ch. 4), and every check here runs on
those integer residues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InternalInvariantError, NotBipartiteError, PreconditionError
from .intpoly import IntPolynomial, is_irreducible
from .kernels import poly_add, poly_mul
from .linalg import IntMatrix, charpoly
from .sgraph import SignedGraph, bipartite_adjacency, bipartition

# -- symbolic eigenvectors --------------------------------------------------------


@dataclass(frozen=True)
class SymbolicEigenvector:
    """Eigenvector of A for a root alpha of modulus = charpoly(A): entry r
    is the residue sum_k entries[r][k] alpha^k, with deg(modulus) integer
    coefficients, and A xi = alpha xi holds exactly modulo the modulus."""

    modulus: IntPolynomial
    entries: tuple[tuple[int, ...], ...]


def _z_reduce(a: list[int], phi: list[int]) -> list[int]:
    """a modulo the monic phi (ascending integer coefficients), padded to
    exactly deg(phi) coefficients."""
    n = len(phi) - 1
    r = list(a) + [0] * (n - len(a))
    for k in range(len(r) - 1, n - 1, -1):
        top = r[k]
        if top:
            for j in range(n):
                r[k - n + j] -= top * phi[j]
    return r[:n]


def _z_norm(vectors: Sequence[Sequence[int]], phi: list[int]) -> list[int]:
    """sum_i v_i^2 modulo the monic phi, each v_i of degree < deg(phi)."""
    out = [0] * (2 * len(phi) - 3)
    for v in vectors:
        out = poly_add(out, poly_mul(v, v))
    return _z_reduce(out, phi)


def symbolic_eigenvector(a: IntMatrix, phi: Optional[IntPolynomial] = None) -> SymbolicEigenvector:
    """Solve (alpha*I - A) xi = 0 over Q[x]/(phi), phi = charpoly(A) irreducible.

    xi is first found as column 1 of adj(alpha I - A).  With phi = sum_k
    c_k x^k, Cayley-Hamilton gives adj(xI - A) = sum_(j<n) x^j sum_(i<n-j)
    c_(i+j+1) A^i, so the column is sum_j alpha^j sum_i c_(i+j+1) A^i e_1:
    every entry is an integer polynomial of degree < n in alpha, and
    (alpha I - A) times the column is phi(alpha) e_1 = 0.  A xi = alpha xi
    is checked in Z[x]/(phi) before the column is returned.

    The column is never zero.  phi is irreducible, so alpha is a simple
    eigenvalue and alpha I - A has rank n - 1; its adjugate is symmetric,
    of rank 1, with every row and column in the kernel, so it is
    c v v^T for an eigenvector v and some c != 0, and its first column is
    c v_1 v.  If v_1 were 0, then for every embedding sigma of Q(alpha),
    sigma(v) would be an eigenvector for sigma(alpha) with first entry 0.
    The n conjugates of alpha are distinct, so these n eigenvectors form
    a basis of C^n on which the first coordinate vanishes: absurd.

    The kernel of alpha I - A over Q(alpha) is one-dimensional, so every
    nonzero kernel vector is a Q(alpha)-multiple of this one.  The column
    is returned as it is, in integer residues, not normalized.
    """
    if not a.is_square:
        raise PreconditionError("symbolic eigenvector requires a square matrix")
    if a != a.T:
        raise PreconditionError("matrix must be symmetric")
    actual = charpoly(a)
    if phi is None:
        phi = actual
    elif phi != actual:
        raise PreconditionError("phi is not the characteristic polynomial of A")
    if phi.degree < 1 or not is_irreducible(phi).irreducible:
        raise PreconditionError("characteristic polynomial must be irreducible over Q")
    n = a.rows
    c = list(phi.coeffs)
    powers = [[int(i == 0) for i in range(n)]]  # A^i e_1
    for _ in range(n - 1):
        y = powers[-1]
        powers.append([sum(x * y[j] for j, x in enumerate(row) if x) for row in a.data])
    column = [
        [sum(c[i + j + 1] * powers[i][r] for i in range(n - j)) for j in range(n)]
        for r in range(n)
    ]
    if not any(any(v) for v in column):
        raise InternalInvariantError("adjugate column of (alpha I - A) is zero")
    for i, row in enumerate(a.data):
        lhs = [0] * n
        for j, x in enumerate(row):
            if x:
                for k in range(n):
                    lhs[k] += x * column[j][k]
        if lhs != _z_reduce([0] + column[i], c):
            raise InternalInvariantError("eigenvector verification failed")
    return SymbolicEigenvector(modulus=phi, entries=tuple(map(tuple, column)))


# -- bipartite eigen-structure verification -----------------------------------------


@dataclass(frozen=True)
class BipartiteEigenReport:
    """Symbolic verification of the bipartite eigen-structure facts."""

    failures: tuple[str, ...]
    gram_charpolys_equal: Optional[bool] = None  # charpoly(MM^T) == charpoly(M^T M)
    gram_charpoly_irreducible: Optional[bool] = None
    eigenvector_verified: Optional[bool] = None  # MM^T u = alpha u in the field
    length_equality: Optional[bool] = None  # (M^T u)^T (M^T u) == alpha * u^T u
    even_structure: Optional[bool] = None  # charpoly(A)(x) == charpoly(M^T M)(x^2)

    @property
    def passed(self) -> bool:
        return not self.failures and all(
            flag is True
            for flag in (
                self.gram_charpolys_equal,
                self.gram_charpoly_irreducible,
                self.eigenvector_verified,
                self.length_equality,
                self.even_structure,
            )
        )


def verify_bipartite_eigen_properties(g: SignedGraph) -> BipartiteEigenReport:
    """Verify, in Q[x]/(charpoly(MM^T)), the eigenvalue/eigenvector facts of
    a signed bipartite graph with irreducible characteristic polynomial.

    The length equality is checked in its squared, field-expressible form:
    with w = M^T u and alpha = lambda^2 the generator, w^T w = alpha u^T u,
    which is exactly ||u|| = ||v|| for v = w / lambda.

    psi = charpoly(MM^T) needs no irreducibility test of its own once phi
    has been proven irreducible (parts larger than 1), phi(x) = psi(x^2)
    (even_structure) and charpoly(M^T M) = psi (gram_charpolys_equal): a
    factorization psi = g*h into factors of degree >= 1 would give
    phi = g(x^2)*h(x^2), into factors of degree >= 2.  Otherwise psi is
    tested.  symbolic_eigenvector still proves its own precondition.
    """
    failures: list[str] = []
    try:
        b = bipartition(g)
    except NotBipartiteError:
        return BipartiteEigenReport(failures=("graph is not bipartite",))
    phi = charpoly(g.adjacency())
    if len(b.left) != len(b.right):
        failures.append("bipartition has unequal parts (M is not square)")
    # the single-edge block (m = 1) is vacuously fine even though x^2 - s^2
    # is reducible; everything larger needs the irreducibility hypothesis
    elif len(b.left) > 1 and not is_irreducible(phi).irreducible:
        failures.append("characteristic polynomial is reducible")
    if failures:
        return BipartiteEigenReport(failures=tuple(failures))
    m = bipartite_adjacency(g, b)
    gram_left = m @ m.T
    gram_right = m.T @ m
    phi_left = charpoly(gram_left)
    phi_right = charpoly(gram_right)
    charpolys_equal = phi_left == phi_right
    even_structure = phi == phi_right.compose_x_squared()
    if len(b.left) > 1 and even_structure and charpolys_equal:
        irreducible = True  # phi(x) = phi_left(x^2), proven irreducible above
    else:
        irreducible = is_irreducible(phi_left).irreducible
    eig_ok = length_ok = None
    if irreducible:
        eig = symbolic_eigenvector(gram_left, phi_left)
        eig_ok = True  # verified inside symbolic_eigenvector
        # w^T w = alpha u^T u is homogeneous of degree 2 in u, so a Q(alpha)
        # scaling of u does not change its truth: it is checked in Z[x]/(phi)
        # on the integer adjugate column itself
        u = eig.entries
        half = len(u)
        mod = list(phi_left.coeffs)
        w = [
            [sum(m.data[i][j] * u[i][k] for i in range(half)) for k in range(half)]
            for j in range(half)
        ]
        length_ok = _z_norm(w, mod) == _z_reduce([0] + _z_norm(u, mod), mod)
    return BipartiteEigenReport(
        failures=(),
        gram_charpolys_equal=charpolys_equal,
        gram_charpoly_irreducible=irreducible,
        eigenvector_verified=eig_ok,
        length_equality=length_ok,
        even_structure=even_structure,
    )
