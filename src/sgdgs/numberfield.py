"""Exact arithmetic in Q[x]/(phi) and the symbolic eigenvector machinery.

Used to verify the bipartite eigen-structure facts without any floating
point: eigenvector entries live in the number field generated by an
eigenvalue, i.e. they are polynomial residues with rational coefficients.
"""

from __future__ import annotations

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


def _kernel_vector(rows: list[list[NumberFieldElement]], field: NumberField):
    """A nonzero kernel vector of a singular square matrix over the field."""
    n = len(rows)
    mat = [row[:] for row in rows]
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if not mat[i][c].is_zero()), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c].inverse()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(n):
            if i != r and not mat[i][c].is_zero():
                factor = mat[i][c]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivot_of_col[c] = r
        r += 1
    free = [c for c in range(n) if c not in pivot_of_col]
    if not free:
        return None
    c0 = free[0]
    x = [field.zero()] * n
    x[c0] = field.one()
    for c, piv in pivot_of_col.items():
        x[c] = -mat[piv][c0]
    return x


def symbolic_eigenvector(a: IntMatrix, phi: Optional[IntPolynomial] = None) -> SymbolicEigenvector:
    """Solve (alpha*I - A) xi = 0 over Q[x]/(phi), phi = charpoly(A) irreducible.

    The solution is scaled so its first nonzero entry is 1 and verified
    componentwise before returning.
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
    alpha = field.generator()
    n = a.rows
    rows = [
        [alpha - a.data[i][j] if i == j else field.element([-a.data[i][j]]) for j in range(n)]
        for i in range(n)
    ]
    xi = _kernel_vector(rows, field)
    if xi is None:  # pragma: no cover - alpha is always an eigenvalue
        raise InternalInvariantError("(alpha I - A) is invertible over the field")
    first = next(e for e in xi if not e.is_zero())
    inv = first.inverse()
    xi = [e * inv for e in xi]
    for i in range(n):
        acc = field.zero()
        for j in range(n):
            if a.data[i][j]:
                acc = acc + xi[j] * a.data[i][j]
        if acc != alpha * xi[i]:  # pragma: no cover - defensive
            raise InternalInvariantError("eigenvector verification failed")
    return SymbolicEigenvector(field=field, entries=tuple(xi))


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
        field = eig.field
        alpha = field.generator()
        u = list(eig.entries)
        half = len(u)
        w = []
        for j in range(half):
            acc = field.zero()
            for i in range(half):
                if m.data[i][j]:
                    acc = acc + u[i] * m.data[i][j]
            w.append(acc)
        uu = sum((x * x for x in u), field.zero())
        ww = sum((x * x for x in w), field.zero())
        length_ok = ww == alpha * uu
    return BipartiteEigenReport(
        failures=(),
        gram_charpolys_equal=charpolys_equal,
        gram_charpoly_irreducible=irreducible,
        eigenvector_verified=eig_ok,
        length_equality=length_ok,
        even_structure=even_structure,
    )
