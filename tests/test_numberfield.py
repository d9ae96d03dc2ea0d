"""Symbolic eigenvectors in Z[x]/(phi) and the bipartite eigen-structure
verifications, checked against the Fraction field arithmetic of
tests/oracles.py."""

import random
from fractions import Fraction

import pytest

from sgdgs import numberfield
from sgdgs.datasets import remark1_matrices, remark1_pair, remark2_pair
from sgdgs.errors import PreconditionError
from sgdgs.intpoly import IntPolynomial
from sgdgs.intpoly import is_irreducible
from sgdgs.linalg import IntMatrix, charpoly, solve
from sgdgs.numberfield import symbolic_eigenvector, verify_bipartite_eigen_properties
from sgdgs.search import enumerate_trees
from sgdgs.sgraph import SignedGraph, bipartite_adjacency, bipartition
from sgdgs.spectra import are_generalized_cospectral

from oracles import field_eigen_equation, field_scaled, kernel_eigenvector


def path_graph(n, signs=None):
    signs = signs or [1] * (n - 1)
    return SignedGraph(n, tuple((i, i + 1, signs[i - 1]) for i in range(1, n)))


def test_symbolic_eigenvector_fibonacci_matrix():
    a = IntMatrix([[1, 1], [1, 0]])
    eig = symbolic_eigenvector(a)
    # column 1 of adj(alpha I - A) = [[alpha, 1], [1, alpha - 1]] is (alpha, 1)
    assert eig.modulus == IntPolynomial([-1, -1, 1])
    assert eig.entries == ((0, 1), (1, 0))
    assert field_eigen_equation(a.to_lists(), eig.entries, [-1, -1, 1])


def test_symbolic_eigenvector_rejects_reducible():
    p4 = path_graph(4).adjacency()  # x^4 - 3x^2 + 1 factors
    with pytest.raises(PreconditionError):
        symbolic_eigenvector(p4)


def test_symbolic_eigenvector_preconditions():
    with pytest.raises(PreconditionError, match="square"):
        symbolic_eigenvector(IntMatrix([[0, 1, 1], [1, 0, 1]]))
    with pytest.raises(PreconditionError, match="symmetric"):
        symbolic_eigenvector(IntMatrix([[1, 1], [2, 0]]))
    with pytest.raises(PreconditionError, match="characteristic polynomial of A"):
        symbolic_eigenvector(IntMatrix([[1, 1], [1, 0]]), IntPolynomial([-1, 0, 1]))
    with pytest.raises(PreconditionError, match="irreducible"):
        symbolic_eigenvector(IntMatrix([[0, 1], [1, 0]]))  # x^2 - 1


def test_symbolic_eigenvector_smallest_irreducible_tree():
    """Locate the first tree (scanning orders upward, canonical order within
    each) whose charpoly is irreducible of degree >= 2, and verify its
    symbolic eigenvector; development scans place it at n = 8."""
    from sgdgs.intpoly import is_irreducible
    from sgdgs.search import enumerate_trees

    found = None
    for n in range(2, 11):
        for tree in enumerate_trees(n).trees:
            phi = charpoly(tree.adjacency())
            if is_irreducible(phi).irreducible:
                found = (n, tree, phi)
                break
        if found:
            break
    assert found is not None
    n, tree, phi = found
    assert n == 8
    eig = symbolic_eigenvector(tree.adjacency(), phi)
    assert len(eig.entries) == 8  # verification happens inside


def test_symbolic_eigenvector_remark1_gram():
    m, _ = remark1_matrices()
    gram = m @ m.T
    eig = symbolic_eigenvector(gram)
    assert eig.modulus.degree == 9
    assert all(len(e) == 9 for e in eig.entries)
    # A xi = alpha xi was verified internally; check it again in Fractions
    assert field_eigen_equation(gram.to_lists(), eig.entries, list(eig.modulus.coeffs))


def test_bipartite_sign_symmetry():
    """If (u; v) is the symbolic eigenvector of the block adjacency for the
    generator alpha, then (u; -v) is one for -alpha."""
    m, _ = remark1_matrices()
    g, _ = remark1_pair()
    a = g.adjacency()
    eig = symbolic_eigenvector(a)
    phi = list(eig.modulus.coeffs)
    assert field_eigen_equation(a.to_lists(), eig.entries, phi)
    flipped = list(eig.entries[:9]) + [[-x for x in e] for e in eig.entries[9:]]
    assert field_eigen_equation(a.to_lists(), flipped, phi, sign=-1)


def test_verify_bipartite_eigen_properties_examples():
    single = SignedGraph(2, ((1, 2, 1),))
    rep = verify_bipartite_eigen_properties(single)
    # M = [1]: everything degenerate but consistent
    assert rep.passed

    g, _ = remark1_pair()
    rep1 = verify_bipartite_eigen_properties(g)
    assert rep1.passed
    assert rep1.gram_charpolys_equal and rep1.gram_charpoly_irreducible
    assert rep1.length_equality and rep1.even_structure

    p4 = path_graph(4, [1, -1, 1])
    rep4 = verify_bipartite_eigen_properties(p4)
    assert not rep4.passed
    assert any("reducible" in f for f in rep4.failures)


def _gram_psi(g):
    """charpoly(MM^T) of a bipartite g with equal parts."""
    m = bipartite_adjacency(g, bipartition(g))
    return charpoly(m @ m.T)


def _equal_part_trees(top):
    for n in range(2, top + 1, 2):
        for tree in enumerate_trees(n).trees:
            b = bipartition(tree)
            if len(b.left) == len(b.right):
                yield tree


def _psi_flag_matches_its_test(g) -> bool:
    """gram_charpoly_irreducible reads what testing psi reads; returns
    whether the report got that far (no early reducible-phi failure)."""
    rep = verify_bipartite_eigen_properties(g)
    if rep.failures:
        assert rep.failures == ("characteristic polynomial is reducible",)
        assert rep.gram_charpoly_irreducible is None
        assert not is_irreducible(charpoly(g.adjacency())).irreducible
        return False
    assert rep.gram_charpoly_irreducible == is_irreducible(_gram_psi(g)).irreducible
    return True


def test_gram_charpoly_flag_matches_testing_psi():
    """The flag is derived from phi's proof when phi(x) = psi(x^2); it must
    equal is_irreducible(psi) on K2, remark1-a, every tree with n <= 12 and
    equal parts, and keep remark2-a's early failure."""
    assert _psi_flag_matches_its_test(SignedGraph(2, ((1, 2, 1),)))
    assert _psi_flag_matches_its_test(remark1_pair()[0])
    assert not _psi_flag_matches_its_test(remark2_pair()[0])
    reached = sum(_psi_flag_matches_its_test(tree) for tree in _equal_part_trees(12))
    assert reached > 0


def test_gram_charpoly_flag_needs_even_structure(monkeypatch):
    """With phi swapped for x^n - 2, irreducible by Eisenstein and equal to
    no tree's psi(x^2) (psi(0) = +-1 or 0), even_structure reads False, so
    psi must be tested rather than derived, and reducible psi must show."""
    real = numberfield.charpoly
    x = IntPolynomial.x()
    verdicts = []
    for tree in _equal_part_trees(12):
        fake = x**tree.n - 2
        monkeypatch.setattr(numberfield, "charpoly", lambda a: fake if a.rows == tree.n else real(a))
        rep = verify_bipartite_eigen_properties(tree)
        assert rep.failures == () and rep.even_structure is False
        verdicts.append(rep.gram_charpoly_irreducible)
        assert verdicts[-1] == is_irreducible(_gram_psi(tree)).irreducible
    assert True in verdicts and False in verdicts


def test_bipartite_eigen_properties_proves_psi_once(monkeypatch):
    """remark1-a makes two irreducibility tests: phi, then psi once, as the
    precondition of symbolic_eigenvector."""
    calls = []

    def counting(f, disc=None):
        calls.append(f)
        return is_irreducible(f, disc)

    monkeypatch.setattr(numberfield, "is_irreducible", counting)
    g, _ = remark1_pair()
    assert verify_bipartite_eigen_properties(g).passed
    assert calls == [charpoly(g.adjacency()), _gram_psi(g)]


def test_resolvent_identity_for_cospectral_pair():
    """e^T (xI - A)^-1 e agrees for generalized cospectral matrices at
    rational points that are not eigenvalues (float-free resolvent check).
    At lambda = p/q it is q e^T (pI - qA)^-1 e, solved in integers."""
    g, h = remark1_pair()
    a, b = g.adjacency(), h.adjacency()
    assert are_generalized_cospectral(a, b)
    rng = random.Random(32)
    n = a.rows
    ones = IntMatrix.ones_column(n)
    tested = 0
    while tested < 5:
        p, q = rng.randint(3, 50), rng.randint(1, 7)
        vals = []
        for mat in (a, b):
            shifted = IntMatrix(
                [[p * (i == j) - q * mat[i, j] for j in range(n)] for i in range(n)]
            )
            d, x = solve(shifted, ones)
            vals.append(Fraction(q * sum(x[i, 0] for i in range(n)), d))
        assert vals[0] == vals[1]
        tested += 1


def test_symbolic_eigenvector_matches_kernel_oracle():
    """The adjugate-column eigenvector is its first entry times the
    Gauss-Jordan kernel vector over the field (normalized to first entry 1)
    on seeded symmetric integer matrices with irreducible charpoly and on
    remark1's Gram matrix."""
    rng = random.Random(33)
    mats = []
    while len(mats) < 25:
        n = rng.randint(1, 6)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-3, 3)
        a = IntMatrix(rows)
        if is_irreducible(charpoly(a)).irreducible:
            mats.append(a)
    m, _ = remark1_matrices()
    mats.append(m @ m.T)
    for a in mats:
        eig = symbolic_eigenvector(a)
        phi = list(charpoly(a).coeffs)
        expected = kernel_eigenvector(a.to_lists(), phi)
        assert any(eig.entries[0])
        assert field_scaled(expected, eig.entries[0], phi) == [list(e) for e in eig.entries]
