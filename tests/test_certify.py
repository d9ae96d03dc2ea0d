"""Certificate and discriminant-identity tests."""

import json
import random

import pytest

from sgdgs.certify import (
    DgsCertificate,
    certify_from_charpoly,
    certify_tree,
    discriminant_identity_check,
)
from sgdgs.datasets import (
    EXAMPLE1_CHARPOLY,
    REMARK1_CHARPOLY,
    remark1_pair,
    remark2_printed_charpoly,
)
from sgdgs.errors import InternalInvariantError, NotTreeError, PreconditionError
from sgdgs.intpoly import IntPolynomial, discriminant
from sgdgs.linalg import IntMatrix, charpoly
from sgdgs.search import enumerate_signings, random_signing, random_tree
from sgdgs.sgraph import SignedGraph, from_bipartite_adjacency


def path_graph(n, signs=None):
    signs = signs or [1] * (n - 1)
    return SignedGraph(n, tuple((i, i + 1, signs[i - 1]) for i in range(1, n)))


def test_certify_example1():
    cert = certify_from_charpoly(EXAMPLE1_CHARPOLY)
    assert cert.certified
    assert cert.irreducible.irreducible
    assert cert.s == 5 * 11 * 4754599 == 261502945
    assert cert.delta == 2**14 * cert.s**2
    assert cert.s_factorization.factors == ((5, 1), (11, 1), (4754599, 1))
    assert cert.s_odd and cert.s_squarefree
    assert not cert.probabilistic


def test_certify_remark1_poly():
    cert = certify_from_charpoly(REMARK1_CHARPOLY)
    assert not cert.certified
    assert cert.irreducible.irreducible
    assert cert.s == 7**2 * 347 * 357175051
    assert cert.s_squarefree is False and cert.s_odd is True
    assert "square-free" in cert.verdict


def test_certify_remark2_poly():
    cert = certify_from_charpoly(remark2_printed_charpoly())
    assert not cert.certified
    assert not cert.irreducible.irreducible
    assert "reducible" in cert.verdict


def test_certify_small_trees():
    cert2 = certify_tree(path_graph(2))
    assert not cert2.certified and "reducible" in cert2.verdict
    assert cert2.charpoly == IntPolynomial([-1, 0, 1])
    cert4 = certify_tree(path_graph(4))
    assert not cert4.certified and "reducible" in cert4.verdict
    cert3 = certify_tree(path_graph(3))
    assert not cert3.certified and "odd order" in cert3.verdict


def test_certify_one_vertex_tree():
    # phi = x is irreducible, but the +-1 constant term holds only for n >= 2
    cert = certify_tree(SignedGraph(1, ()))
    assert cert.charpoly == IntPolynomial([0, 1]) and cert.irreducible.irreducible
    assert cert.verdict == "Not-Certified(odd order)"


def test_certify_remark1_underlying_tree():
    g, _ = remark1_pair()
    cert = certify_tree(g.underlying())
    assert cert.irreducible.irreducible
    assert not cert.certified  # s has the repeated factor 7
    assert cert.s == 7**2 * 347 * 357175051
    # signing is irrelevant to the certificate
    assert certify_tree(g).to_json_dict() == cert.to_json_dict()


def test_certify_tree_cross_check_can_fail(monkeypatch):
    # the bipartite identity is checked against the delta the certificate
    # reports; a wrong det(M) must break it
    import sgdgs.certify as certify_mod

    monkeypatch.setattr(certify_mod, "det", lambda m: 2)
    with pytest.raises(InternalInvariantError, match="discriminant identity"):
        certify_tree(path_graph(6))


def test_certify_rejects_non_tree():
    tri = SignedGraph(3, ((1, 2, 1), (1, 3, 1), (2, 3, 1)))
    with pytest.raises(NotTreeError):
        certify_tree(tri)
    disconnected = SignedGraph(4, ((1, 2, 1), (3, 4, 1)))
    with pytest.raises(NotTreeError):
        certify_tree(disconnected)


def test_certify_requires_monic():
    with pytest.raises(PreconditionError):
        certify_from_charpoly(IntPolynomial([1, 0, 2]))


def test_verdict_iff_flags():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.choice([2, 4, 6, 8, 10])
        cert = certify_tree(random_signing(random_tree(n, rng), rng))
        expected = bool(
            cert.irreducible.irreducible and cert.s_odd and cert.s_squarefree
        )
        assert cert.certified == expected
        if cert.s is not None:
            assert cert.delta == (1 << cert.n) * cert.s * cert.s


def test_two_adic_valuation_when_certified():
    from sgdgs.search import enumerate_trees

    seen = 0
    for tree in enumerate_trees(10).trees:
        cert = certify_tree(tree)
        if not cert.certified:
            continue
        seen += 1
        delta = cert.delta
        nu2 = 0
        while delta % 2 == 0:
            delta //= 2
            nu2 += 1
        assert nu2 == cert.n  # s odd forces the exact 2-adic valuation n
    assert seen == 3  # development census: exactly three certified 10-vertex trees


def test_certificate_sign_invariance_all_signings():
    tree = random_tree(8, random.Random(42))
    baseline = None
    count = 0
    for signing in enumerate_signings(tree):
        cert = certify_tree(signing)
        payload = cert.to_json_dict()
        if baseline is None:
            baseline = payload
        assert payload == baseline
        count += 1
    assert count == 2**7


def test_discriminant_identity_single_edge():
    rep = discriminant_identity_check(SignedGraph(2, ((1, 2, 1),)))
    assert rep.holds and rep.lhs == 4
    assert rep.delta_gram == 1  # degree-1 discriminant convention


def test_discriminant_identity_singular_m():
    # 2+2 bipartite graph with rank-1 M: both sides vanish
    g = from_bipartite_adjacency(IntMatrix([[1, 1], [1, 1]]))
    rep = discriminant_identity_check(g)
    assert rep.det_m == 0
    assert rep.lhs == 0 and rep.rhs == 0


def test_discriminant_identity_remark1():
    g, _ = remark1_pair()
    rep = discriminant_identity_check(g)
    s = 7**2 * 347 * 357175051
    assert rep.holds
    assert rep.lhs == 2**18 * s * s
    assert abs(rep.delta_gram) == s


def test_discriminant_identity_unequal_parts():
    star = SignedGraph(4, ((1, 2, 1), (1, 3, 1), (1, 4, 1)))
    with pytest.raises(PreconditionError):
        discriminant_identity_check(star)


def test_discriminant_identity_random_trees():
    rng = random.Random(43)
    checked = 0
    for _ in range(80):
        n = rng.choice([2, 4, 6, 8, 10, 12])
        g = random_signing(random_tree(n, rng), rng)
        from sgdgs.sgraph import bipartition

        b = bipartition(g)
        if len(b.left) != len(b.right):
            continue
        rep = discriminant_identity_check(g)
        assert rep.holds
        # with irreducible charpoly, det(M)^2 = |constant term| = 1 and the
        # identity collapses to delta = 2^n * disc(charpoly(M^T M))^2
        from sgdgs.intpoly import is_irreducible

        phi = charpoly(g.adjacency())
        if is_irreducible(phi).irreducible:
            assert rep.lhs == (1 << g.n) * rep.delta_gram**2
            assert rep.det_m in (1, -1)
        checked += 1
    assert checked >= 30


def test_degree_one_discriminant_convention_consistency():
    # disc([y - c]) := 1 keeps the identity exact at m = 1 for both signs
    for s in (1, -1):
        g = SignedGraph(2, ((1, 2, s),))
        rep = discriminant_identity_check(g)
        assert rep.holds and rep.lhs == discriminant(charpoly(g.adjacency()))


def test_certificate_json_schema_and_stability():
    cert = certify_from_charpoly(EXAMPLE1_CHARPOLY)
    payload = cert.to_json_dict()
    assert list(payload.keys()) == [
        "n",
        "charpoly",
        "irreducible",
        "delta",
        "s",
        "s_factors",
        "s_odd",
        "s_squarefree",
        "verdict",
        "cross_check",
        "probabilistic_flags",
    ]
    again = certify_from_charpoly(EXAMPLE1_CHARPOLY)
    assert json.dumps(payload) == json.dumps(again.to_json_dict())
    assert payload["s_factors"] == [[5, 1], [11, 1], [4754599, 1]]
