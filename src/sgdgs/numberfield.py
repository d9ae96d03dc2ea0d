"""Exact arithmetic in Q[x]/(phi) and the symbolic eigenvector machinery.

Used to verify the bipartite eigen-structure facts without any floating
point: eigenvector entries live in the number field generated by an
eigenvalue, i.e. they are polynomial residues with rational coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    FieldMismatchError,
    InternalInvariantError,
    NotBipartiteError,
    PreconditionError,
)
from .intpoly import IntPolynomial, is_irreducible
from .linalg import IntMatrix, charpoly
from .sgraph import SignedGraph, bipartite_adjacency, bipartition

# dense ascending Fraction coefficient lists ------------------------------------


def _q_trim(a: list[Fraction]) -> list[Fraction]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _q_add(a, b):
    n = max(len(a), len(b))
    return _q_trim(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def _q_sub(a, b):
    n = max(len(a), len(b))
    return _q_trim(
        [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
    )


def _q_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _q_trim(out)


def _q_divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = [Fraction(x) for x in a]
    if len(r) < len(b):
        return [], _q_trim(r)
    inv = 1 / b[-1]
    q = [Fraction(0)] * (len(r) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        coef = r[i + len(b) - 1] * inv
        if coef:
            q[i] = coef
            for j, bc in enumerate(b):
                r[i + j] -= coef * bc
    return _q_trim(q), _q_trim(r[: len(b) - 1])


def _q_gcdex(a, b):
    """(s, t, g) with s*a + t*b = g, g monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = _q_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _q_sub(s0, _q_mul(q, s1))
        t0, t1 = t1, _q_sub(t0, _q_mul(q, t1))
    if not r0:
        raise ZeroDivisionError("gcdex of zero polynomials")
    inv = 1 / r0[-1]
    return [c * inv for c in s0], [c * inv for c in t0], [c * inv for c in r0]


class NumberField:
    """Q[x]/(phi) for a monic irreducible integer polynomial phi."""

    __slots__ = ("modulus", "degree", "_mod_list")

    def __init__(self, modulus: IntPolynomial):
        if not modulus.is_monic():
            raise PreconditionError("field modulus must be monic")
        if modulus.degree >= 2 and not is_irreducible(modulus).irreducible:
            raise PreconditionError("field modulus must be irreducible over Q")
        if modulus.degree < 1:
            raise PreconditionError("field modulus must have degree >= 1")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "degree", modulus.degree)
        object.__setattr__(self, "_mod_list", [Fraction(c) for c in modulus.coeffs])

    def __setattr__(self, name, value):
        raise AttributeError("NumberField is immutable")

    def __eq__(self, other):
        if isinstance(other, NumberField):
            return self.modulus == other.modulus
        return NotImplemented

    def __hash__(self):
        return hash(self.modulus)

    def __repr__(self):
        return f"NumberField({self.modulus})"

    def element(self, coefficients: Sequence) -> "NumberFieldElement":
        coeffs = [Fraction(c) for c in coefficients]
        _, rem = _q_divmod(coeffs, self._mod_list)
        return NumberFieldElement(self, rem)

    def zero(self) -> "NumberFieldElement":
        return NumberFieldElement(self, [])

    def one(self) -> "NumberFieldElement":
        return self.element([1])

    def generator(self) -> "NumberFieldElement":
        """The residue of x, i.e. the adjoined root itself."""
        return self.element([0, 1])


class NumberFieldElement:
    """Residue c0 + c1*a + ... + c_(n-1)*a^(n-1) in its owning field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, reduced: list[Fraction]):
        object.__setattr__(self, "field", field)
        padded = list(reduced) + [Fraction(0)] * (field.degree - len(reduced))
        object.__setattr__(self, "coeffs", tuple(padded))

    def __setattr__(self, name, value):
        raise AttributeError("NumberFieldElement is immutable")

    def _check(self, other) -> "NumberFieldElement":
        if isinstance(other, NumberFieldElement):
            if other.field != self.field:
                raise FieldMismatchError("elements belong to different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element([other])
        raise TypeError(f"cannot combine NumberFieldElement with {type(other).__name__}")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        other = self._check(other)
        return NumberFieldElement(self.field, _q_add(list(self.coeffs), list(other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) + (-self)

    def __mul__(self, other):
        other = self._check(other)
        prod = _q_mul(list(self.coeffs), list(other.coeffs))
        _, rem = _q_divmod(prod, self.field._mod_list)
        return NumberFieldElement(self.field, rem)

    __rmul__ = __mul__

    def inverse(self) -> "NumberFieldElement":
        """Multiplicative inverse via the extended polynomial gcd."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in number field")
        s, _, g = _q_gcdex(_q_trim(list(self.coeffs)), self.field._mod_list)
        if g != [Fraction(1)]:  # pragma: no cover - modulus is irreducible
            raise InternalInvariantError("element shares a factor with the modulus")
        _, rem = _q_divmod(s, self.field._mod_list)
        return NumberFieldElement(self.field, rem)

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def __eq__(self, other):
        if isinstance(other, NumberFieldElement):
            return self.field == other.field and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == self.field.element([other])
        return NotImplemented

    def __hash__(self):
        return hash((self.field.modulus, self.coeffs))

    def __repr__(self):
        return f"NumberFieldElement({list(self.coeffs)})"


# -- symbolic eigenvectors --------------------------------------------------------


@dataclass(frozen=True)
class SymbolicEigenvector:
    """Eigenvector of A for the field generator: entries are residues, and
    A * xi = alpha * xi holds exactly modulo the field modulus."""

    field: NumberField
    entries: tuple[NumberFieldElement, ...]

    def entry_polynomials(self) -> list[tuple[Fraction, ...]]:
        return [e.coeffs for e in self.entries]


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


def _z_norm(vectors: list[list[int]], phi: list[int]) -> list[int]:
    """sum_i v_i^2 modulo the monic phi, each v_i of degree < deg(phi)."""
    out = [0] * (2 * len(phi) - 3)
    for v in vectors:
        for i, x in enumerate(v):
            if x:
                for j, y in enumerate(v):
                    out[i + j] += x * y
    return _z_reduce(out, phi)


def symbolic_eigenvector(a: IntMatrix, phi: Optional[IntPolynomial] = None) -> SymbolicEigenvector:
    """Solve (alpha*I - A) xi = 0 over Q[x]/(phi), phi = charpoly(A) irreducible.

    xi is first found as column 1 of adj(alpha I - A).  With phi = sum_k
    c_k x^k, Cayley-Hamilton gives adj(xI - A) = sum_(j<n) x^j sum_(i<n-j)
    c_(i+j+1) A^i, so the column is sum_j alpha^j sum_i c_(i+j+1) A^i e_1:
    every entry is an integer polynomial of degree < n in alpha, and
    (alpha I - A) times the column is phi(alpha) e_1 = 0.  A xi = alpha xi
    is checked in Z[x]/(phi) before anything else.

    The column is never zero.  phi is irreducible, so alpha is a simple
    eigenvalue and alpha I - A has rank n - 1; its adjugate is symmetric,
    of rank 1, with every row and column in the kernel, so it is
    c v v^T for an eigenvector v and some c != 0, and its first column is
    c v_1 v.  If v_1 were 0, then for every embedding sigma of Q(alpha),
    sigma(v) would be an eigenvector for sigma(alpha) with first entry 0.
    The n conjugates of alpha are distinct, so these n eigenvectors form
    a basis of C^n on which the first coordinate vanishes: absurd.

    The kernel is one-dimensional, so scaling by one field inverse to make
    the first nonzero entry 1 gives the unique normalized eigenvector.
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
    field = NumberField(phi)  # verifies irreducibility
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
    xi = [field.element(v) for v in column]
    inv = next(e for e in xi if not e.is_zero()).inverse()
    return SymbolicEigenvector(field=field, entries=tuple(e * inv for e in xi))


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
    verdict = is_irreducible(phi_left)
    irreducible = verdict.irreducible
    even_structure = phi == phi_right.compose_x_squared()
    eig_ok = length_ok = None
    if irreducible:
        eig = symbolic_eigenvector(gram_left, phi_left)
        eig_ok = True  # verified inside symbolic_eigenvector
        # w^T w = alpha u^T u is homogeneous in u, so it is checked in
        # Z[x]/(phi) on u scaled by the lcm of its coefficient denominators
        scale = math.lcm(*(x.denominator for e in eig.entries for x in e.coeffs))
        u = [[int(x * scale) for x in e.coeffs] for e in eig.entries]
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
