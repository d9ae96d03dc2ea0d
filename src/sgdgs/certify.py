"""The spectral-determinacy certificate for signed trees.

A tree T of even order n with irreducible characteristic polynomial phi is
certified when s = 2^(-n/2) * sqrt(disc(phi)) is an odd square-free
integer: every signing of T is then determined by its generalized
spectrum.  The certificate carries all intermediate witnesses plus the
bipartite cross-check disc(phi) = 2^n * det(M)^2 * disc(charpoly(M^T M))^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from .errors import InternalInvariantError, PreconditionError
from .factorint import Factorization, factor_integer
from .intpoly import IntPolynomial, IrreducibilityVerdict, discriminant, is_irreducible
from .linalg import charpoly, det
from .sgraph import SignedGraph, bipartite_adjacency, bipartition, require_tree

VERDICT_CERTIFIED = "Certified-DGS"


@dataclass(frozen=True)
class DgsCertificate:
    """Structured verdict of the odd-square-free discriminant test."""

    n: int
    charpoly: IntPolynomial
    irreducible: IrreducibilityVerdict
    delta: int
    s: Optional[int]
    s_factorization: Optional[Factorization]
    s_odd: Optional[bool]
    s_squarefree: Optional[bool]
    verdict: str
    cross_check: Optional[dict] = None
    probabilistic: bool = False

    @property
    def certified(self) -> bool:
        return self.verdict == VERDICT_CERTIFIED

    def to_json_dict(self) -> dict:
        """Stable-key-order dict matching the certificate JSON schema."""
        return {
            "n": self.n,
            "charpoly": list(self.charpoly.coeffs),
            "irreducible": self.irreducible.irreducible,
            "delta": self.delta,
            "s": self.s,
            "s_factors": (
                [[p, e] for p, e in self.s_factorization.factors]
                if self.s_factorization is not None
                else None
            ),
            "s_odd": self.s_odd,
            "s_squarefree": self.s_squarefree,
            "verdict": self.verdict,
            "cross_check": self.cross_check,
            "probabilistic_flags": self.probabilistic,
        }


def _not_certified(reason: str) -> str:
    return f"Not-Certified({reason})"


def certify_from_charpoly(phi: IntPolynomial) -> DgsCertificate:
    """Evaluate the certificate directly on a characteristic polynomial."""
    if not phi.is_monic():
        raise PreconditionError("characteristic polynomial must be monic")
    n = phi.degree
    delta = discriminant(phi)
    verdict_irr = is_irreducible(phi, disc=delta)  # monic, so primitive
    s = _exact_scaled_sqrt(delta, n) if n % 2 == 0 else None
    fac = factor_integer(s) if s else None
    s_odd = None if s is None else s % 2 == 1
    s_squarefree = None if s is None else fac is not None and fac.is_squarefree()
    if n % 2 == 1:
        # 2^(-n/2) sqrt(delta) is never an integer scale for odd order;
        # rejected structurally rather than inventing a convention.
        reason = "odd order"
    elif s is None:
        reason = "delta/2^n is not a perfect square"
    elif s == 0:
        reason = "repeated eigenvalue (delta = 0)"
    elif not verdict_irr.irreducible:
        reason = "charpoly reducible"
    elif not s_odd:
        reason = "s is even"
    elif not s_squarefree:
        reason = "s is not square-free"
    else:
        reason = None
    return DgsCertificate(
        n=n,
        charpoly=phi,
        irreducible=verdict_irr,
        delta=delta,
        s=s,
        s_factorization=fac,
        s_odd=s_odd,
        s_squarefree=s_squarefree,
        verdict=VERDICT_CERTIFIED if reason is None else _not_certified(reason),
        probabilistic=fac is not None and fac.probable_only,
    )


def _exact_scaled_sqrt(delta: int, n: int) -> Optional[int]:
    """The integer s with delta = 2^n * s^2, or None when no such s exists."""
    if delta < 0:
        return None
    if delta == 0:
        return 0
    scaled, rem = divmod(delta, 1 << n)
    if rem:
        return None
    s = math.isqrt(scaled)
    return s if s * s == scaled else None


def certify_tree(g: SignedGraph) -> DgsCertificate:
    """Certificate for a signed tree; signs cannot change the outcome since
    trees are balanced and switching preserves the adjacency spectrum."""
    require_tree(g)
    phi = charpoly(g.adjacency())
    cert = certify_from_charpoly(phi)
    cert = replace(cert, cross_check=_bipartite_cross_check(g, cert.delta))
    if g.n >= 2 and cert.irreducible.irreducible and abs(phi.coefficient(0)) != 1:
        # trees of order n >= 2 with irreducible charpoly have constant term
        # +-1; the one-vertex tree's charpoly x is irreducible
        raise InternalInvariantError(
            f"irreducible tree charpoly with constant term {phi.coefficient(0)}"
        )
    return cert


def _bipartite_cross_check(g: SignedGraph, delta: int) -> Optional[dict]:
    """delta = disc(phi) = 2^n * det(M)^2 * disc(charpoly(M^T M))^2 when M
    is square."""
    rep = _identity_report(g, delta)  # trees are bipartite
    if rep is None:
        return None
    if not rep.holds:  # pragma: no cover - identity is a theorem
        raise InternalInvariantError(
            f"discriminant identity violated: {delta} != {rep.rhs}"
        )
    # |det M| rather than det M: the sign depends on the signing, the
    # certificate must not
    return {
        "delta_gram": rep.delta_gram,
        "det_m_abs": abs(rep.det_m),
        "identity_rhs": rep.rhs,
        "matches_delta": True,
    }


@dataclass(frozen=True)
class DiscriminantIdentityReport:
    lhs: int  # disc of the adjacency charpoly
    rhs: int  # 2^n * det(M)^2 * disc(charpoly(M^T M))^2
    det_m: int
    delta_gram: int

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def _identity_report(g: SignedGraph, lhs: int) -> Optional[DiscriminantIdentityReport]:
    """The identity with lhs = disc(phi) given, the right-hand side computed
    from the bipartite block M; None when M is not square."""
    b = bipartition(g)
    if len(b.left) != len(b.right):
        return None
    m = bipartite_adjacency(g, b)
    delta_gram = discriminant(charpoly(m.T @ m))
    det_m = det(m)
    rhs = (1 << g.n) * det_m * det_m * delta_gram * delta_gram
    return DiscriminantIdentityReport(lhs=lhs, rhs=rhs, det_m=det_m, delta_gram=delta_gram)


def discriminant_identity_check(g: SignedGraph) -> DiscriminantIdentityReport:
    """Evaluate both sides of the bipartite discriminant identity exactly.

    Requires a bipartition with equal parts (square M); both sides may be
    zero when det M = 0 or the Gram matrix has repeated eigenvalues.
    """
    rep = _identity_report(g, discriminant(charpoly(g.adjacency())))
    if rep is None:
        raise PreconditionError("bipartition parts must have equal sizes")
    return rep
