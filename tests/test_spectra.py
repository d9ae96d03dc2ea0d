"""Walk matrices, Q recovery, classification, structure verification."""

import importlib
import random
from math import lcm

import pytest

from sgdgs.datasets import (
    remark1_pair,
    remark1_printed_q,
    remark2_pair,
    remark2_printed_q,
)
from sgdgs.errors import PreconditionError
from sgdgs.intpoly import discriminant, is_irreducible
from sgdgs.linalg import IntMatrix, charpoly, det
from sgdgs.numberfield import symbolic_eigenvector, verify_bipartite_eigen_properties
from sgdgs.search import enumerate_signings, random_signing, random_tree
from sgdgs.sgraph import (
    SignedGraph,
    bipartite_adjacency,
    bipartition,
    part_sorted_adjacency,
    permutation_matrix,
)
from sgdgs.spectra import (
    are_generalized_cospectral,
    classify_q,
    generalized_spectrum,
    is_controllable,
    is_regular_orthogonal,
    recover_q,
    verify_structure_theorem,
    walk_matrix,
)

from oracles import (
    cofactor_charpoly,
    field_length_equality,
    field_scaled,
    fraction_classify,
    fraction_regular_orthogonal,
    kernel_eigenvector,
    walk_conjugator,
)


def path_graph(n):
    return SignedGraph(n, tuple((i, i + 1, 1) for i in range(1, n)))


def star_graph(n):
    return SignedGraph(n, tuple((1, i, 1) for i in range(2, n + 1)))


def random_controllable(rng, n):
    # no 2-vertex signed graph is controllable (W rows coincide); need n >= 3
    assert n >= 3
    while True:
        edges = []
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < 0.5:
                    edges.append((u, v, rng.choice((1, -1))))
        g = SignedGraph(n, tuple(edges))
        a = g.adjacency()
        if is_controllable(a):
            return a


def test_walk_matrix_examples():
    assert walk_matrix(SignedGraph(2, ((1, 2, 1),)).adjacency()) == IntMatrix(
        [[1, 1], [1, 1]]
    )
    w = walk_matrix(path_graph(3).adjacency())
    assert w == IntMatrix([[1, 1, 2], [1, 2, 2], [1, 1, 2]])
    g, _ = remark1_pair()
    assert is_controllable(g.adjacency())


def test_is_controllable_examples():
    assert not is_controllable(path_graph(2).adjacency())
    assert not is_controllable(path_graph(4).adjacency())
    a, _ = (g.adjacency() for g in remark2_pair())
    assert is_controllable(a)


def test_generalized_spectrum_examples():
    p4 = path_graph(4).adjacency()
    s4 = star_graph(4).adjacency()
    assert are_generalized_cospectral(p4, p4)
    assert not are_generalized_cospectral(p4, s4)
    # adjacency charpolys x^4-3x^2+1 vs x^4-3x^2, via the cofactor oracle
    assert cofactor_charpoly(p4.to_lists()) == [1, 0, -3, 0, 1]
    assert cofactor_charpoly(s4.to_lists()) == [0, 0, -3, 0, 1]
    gs = generalized_spectrum(p4)
    assert list(gs.adjacency_charpoly.coeffs) == [1, 0, -3, 0, 1]
    a, b = (g.adjacency() for g in remark1_pair())
    assert are_generalized_cospectral(a, b)


def test_recover_q_identity():
    rng = random.Random(21)
    a = random_controllable(rng, 6)
    rec = recover_q(a, a)
    assert rec.valid and (rec.level, rec.scaled) == (1, IntMatrix.identity(6))


def test_recover_q_planted_permutation():
    rng = random.Random(22)
    for _ in range(20):
        n = rng.randint(3, 8)
        a = random_controllable(rng, n)
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        p = permutation_matrix(pi)
        b = p.T @ a @ p
        rec = recover_q(a, b)
        assert rec.valid
        assert (rec.level, rec.scaled) == (1, p)


def test_recover_q_remark1_printed():
    a, b = (g.adjacency() for g in remark1_pair())
    rec = recover_q(a, b)
    assert rec.orthogonal and rec.regular and rec.conjugates
    assert (rec.level, rec.scaled) == remark1_printed_q()


def test_recover_q_diagnostics_on_non_cospectral():
    rng = random.Random(23)
    a = random_controllable(rng, 5)
    while True:
        b = random_controllable(rng, 5)
        if charpoly(a) != charpoly(b):
            break
    rec = recover_q(a, b)
    assert not rec.conjugates and not rec.valid


def test_recover_q_uncontrollable_precondition():
    p4 = path_graph(4).adjacency()
    with pytest.raises(PreconditionError, match="first"):
        recover_q(p4, p4)
    rng = random.Random(24)
    a = random_controllable(rng, 4)
    with pytest.raises(PreconditionError, match="second"):
        recover_q(a, p4)


def test_recover_q_uniqueness_against_planted():
    # both the W-recovery and the planted conjugator must coincide
    rng = random.Random(25)
    for _ in range(10):
        n = rng.randint(3, 7)
        a = random_controllable(rng, n)
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        p = permutation_matrix(pi)
        rec = recover_q(a, p.T @ a @ p)
        assert (rec.level, rec.scaled) == (1, p)


def _planted_tree_pairs(rng, n, count):
    """Signed n-vertex trees with irreducible charpoly, each with a random
    relabeling of itself."""
    pairs = []
    while len(pairs) < count:
        g = random_signing(random_tree(n, rng), rng)
        if not is_irreducible(charpoly(g.adjacency())).irreducible:
            continue
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        h = SignedGraph(n, tuple((pi[u - 1], pi[v - 1], s) for u, v, s in g.edges))
        pairs.append((g, h))
    return pairs


def _assert_matches_walk_conjugator(a, b):
    """recover_q and classify_q (split n // 2) against the Fraction
    oracles: the level is the lcm of Q's denominators, scaled = level Q,
    and every flag and block equals the reference's."""
    rec = recover_q(a, b)
    q, orthogonal, regular, conjugates = walk_conjugator(a.to_lists(), b.to_lists())
    level = lcm(*(x.denominator for row in q for x in row))
    assert rec.level == level > 0
    assert rec.scaled.to_lists() == [[level * x for x in row] for row in q]
    assert [list(row) for row in rec.q.data] == q
    assert (rec.orthogonal, rec.regular, rec.conjugates) == (orthogonal, regular, conjugates)
    assert is_regular_orthogonal(rec.scaled, rec.level) == fraction_regular_orthogonal(q)
    split = a.rows // 2
    cls = classify_q(rec.scaled, rec.level, split=split)
    ref = fraction_classify(q, split)
    for field in ("tag", "is_permutation", "is_signed_permutation", "block_diagonal",
                  "anti_block_diagonal"):
        assert getattr(cls, field) == ref[field], field
    for block, ref_block in ((cls.q1, ref["q1"]), (cls.q2, ref["q2"])):
        if ref_block is None:
            assert block is None
            continue
        assert block.to_lists() == [[level * x for x in row] for row in ref_block]
        assert is_regular_orthogonal(block, level) == fraction_regular_orthogonal(ref_block)
    return rec


def test_recover_q_matches_fraction_oracle_on_cospectral_pairs():
    """Integer d*Q recovery against Fraction Gauss-Jordan Q = W_A W_B^-1:
    remark1, remark2, small planted permutations and planted 18-vertex
    signed trees, every flag true."""
    pairs = [
        tuple(part_sorted_adjacency(g) for g in pair) for pair in (remark1_pair(), remark2_pair())
    ]
    rng = random.Random(27)
    for _ in range(10):
        n = rng.randint(3, 8)
        a = random_controllable(rng, n)
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        p = permutation_matrix(pi)
        pairs.append((a, p.T @ a @ p))
    pairs += [
        (g.adjacency(), h.adjacency()) for g, h in _planted_tree_pairs(rng, 18, 4)
    ]
    recs = [_assert_matches_walk_conjugator(a, b) for a, b in pairs]
    assert all(rec.valid for rec in recs)
    levels = [rec.level for rec in recs]
    assert levels[:2] == [7, 5]  # remark1, remark2
    assert all(rec_level == 1 for rec_level in levels[2:])
    assert any(det(walk_matrix(b)) < 0 for _, b in pairs)


def test_recover_q_matches_fraction_oracle_on_non_cospectral_pairs():
    """Controllable pairs with different charpolys: the flags must read as
    the Fraction oracle's, and conjugates must be false.  Regular holds for
    every recovered Q, since both walk matrices start with the column e."""
    rng = random.Random(28)
    not_orthogonal = negative_det = 0
    for _ in range(20):
        n = rng.randint(3, 7)
        a = random_controllable(rng, n)
        b = random_controllable(rng, n)
        if charpoly(a) == charpoly(b):
            continue
        rec = _assert_matches_walk_conjugator(a, b)
        negative_det += det(walk_matrix(b)) < 0
        assert not rec.conjugates and rec.regular
        # regular holds although the pair is not cospectral: it is no evidence
        assert rec.regular and not (rec.orthogonal and rec.conjugates)
        not_orthogonal += not rec.orthogonal
    assert not_orthogonal > 0 and negative_det > 0


def test_eigen_structure_matches_oracles():
    """remark1 and planted 18-vertex pairs through the structure theorem;
    the integer Gram eigenvector is its first entry times the Gauss-Jordan
    kernel vector, and the length equality holds in the oracle's field
    arithmetic as in the report, on both vectors (remark1's kernel vector
    has non-integer coefficients)."""
    rng = random.Random(29)
    cases = [(remark1_pair(), "BlockDiagonal")]
    cases += [(pair, "Permutation") for pair in _planted_tree_pairs(rng, 18, 3)]
    for (g, h), tag in cases:
        rep = verify_structure_theorem(g, h)
        assert rep.passed and rep.classification.tag == tag
        m = bipartite_adjacency(g, bipartition(g))
        gram = m @ m.T
        phi = list(charpoly(gram).coeffs)
        u = kernel_eigenvector(gram.to_lists(), phi)
        xi = symbolic_eigenvector(gram).entries
        assert any(xi[0]) and field_scaled(u, xi[0], phi) == [list(e) for e in xi]
        lemma = verify_bipartite_eigen_properties(g)
        assert lemma.passed and lemma.length_equality
        assert field_length_equality(m.to_lists(), u, phi)
        assert field_length_equality(m.to_lists(), xi, phi)


def test_structure_complement_check_matches_generalized_spectrum_oracle():
    """verify_structure_theorem reports the complement failure exactly when
    are_generalized_cospectral is false; all signings of a tree share phi."""
    tree = SignedGraph(6, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (3, 6, 1)))
    differ = 0
    for h in enumerate_signings(tree):
        rep = verify_structure_theorem(tree, h)
        flagged = "not generalized cospectral (complement spectra differ)" in rep.failures
        assert flagged == (not are_generalized_cospectral(tree.adjacency(), h.adjacency()))
        differ += flagged
    assert 0 < differ < 32


def test_classify_q_examples():
    assert classify_q(IntMatrix.identity(4), 1).tag == "Permutation"
    cls = classify_q(IntMatrix([[1, 0], [0, -1]]), 1)
    assert cls.tag == "SignedPermutation" and not cls.is_permutation
    assert classify_q(IntMatrix([[0, -3], [3, 0]]), 3).tag == "SignedPermutation"
    # I / 3 is neither a permutation nor orthogonal
    assert classify_q(IntMatrix.identity(2), 3).tag == "General"
    assert not is_regular_orthogonal(IntMatrix.identity(2), 3)
    level, scaled = remark1_printed_q()
    cls1 = classify_q(scaled, level, split=9)
    assert cls1.tag == "BlockDiagonal"
    assert is_regular_orthogonal(cls1.q1, level) and is_regular_orthogonal(cls1.q2, level)
    level, scaled = remark2_printed_q()
    assert classify_q(scaled, level, split=9).tag == "General"


def test_classify_q_rejects_level_below_one():
    # -I over level -1 is the identity, so only the level check rejects it
    minus_identity = -IntMatrix.identity(2)
    for level in (0, -1):
        with pytest.raises(PreconditionError, match="level"):
            classify_q(minus_identity, level)
        with pytest.raises(PreconditionError, match="level"):
            is_regular_orthogonal(minus_identity, level)


def test_classify_q_anti_block():
    q = IntMatrix([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    cls = classify_q(q, 1, split=2)
    assert cls.anti_block_diagonal and cls.tag == "Permutation"
    # (1/2) [[0, H], [H, 0]] with H = [[1, 1], [1, -1]]
    anti = IntMatrix([[0, 0, 1, 1], [0, 0, 1, -1], [1, 1, 0, 0], [1, -1, 0, 0]])
    assert classify_q(anti, 2, split=2).tag == "AntiBlockDiagonal"


def test_verify_structure_remark1():
    g, h = remark1_pair()
    rep = verify_structure_theorem(g, h)
    assert rep.passed and rep.failures == ()
    assert rep.classification.tag == "BlockDiagonal"
    assert rep.q1_regular_orthogonal and rep.q2_regular_orthogonal
    # trivial case: a graph against itself
    rep_self = verify_structure_theorem(g, g)
    assert rep_self.passed
    assert rep_self.classification.is_permutation


def test_verify_structure_remark2_reducible():
    g, h = remark2_pair()
    rep = verify_structure_theorem(g, h)
    assert not rep.passed
    assert any("reducible" in f for f in rep.failures)
    # the recovered conjugator still exists and classifies General
    assert rep.recovery is not None and rep.recovery.valid
    assert rep.classification.tag == "General"
    assert (rep.recovery.level, rep.recovery.scaled) == remark2_printed_q()


def test_verify_structure_non_bipartite():
    tri = SignedGraph(3, ((1, 2, 1), (1, 3, 1), (2, 3, 1)))
    rep = verify_structure_theorem(tri, tri)
    assert any("not bipartite" in f for f in rep.failures)


@pytest.mark.parametrize(
    "module, call",
    [
        ("sgdgs.search", lambda mod, g: mod._structure_coordinates(g)),
        ("sgdgs.spectra", lambda mod, g: mod.verify_structure_theorem(g, g)),
        ("sgdgs.numberfield", lambda mod, g: mod.verify_bipartite_eigen_properties(g)),
    ],
    ids=["search", "spectra", "numberfield"],
)
def test_bipartition_bug_is_not_read_as_not_bipartite(monkeypatch, module, call):
    # only NotBipartiteError means "not bipartite"; any other error is a bug
    # and must propagate
    mod = importlib.import_module(module)

    def broken(g):
        raise RuntimeError("bug inside bipartition")

    monkeypatch.setattr(mod, "bipartition", broken)
    with pytest.raises(RuntimeError, match="bug inside bipartition"):
        call(mod, path_graph(4))


def test_signed_permutation_oracle_when_disc_odd_squarefree():
    """Whenever a rational orthogonal Q conjugates A to an integral matrix
    and disc(charpoly(A)) is odd square-free, Q must be a signed permutation.

    Adjacency matrices of signed graphs never qualify (their discriminant
    carries the 2^n factor), but the Gram matrices M^T M of certified trees
    do: their discriminant is exactly the odd square-free certificate
    integer s, so Q recovery over them exercises the oracle for real.
    """
    from sgdgs.certify import certify_tree
    from sgdgs.factorint import is_odd_squarefree
    from sgdgs.search import enumerate_trees
    from sgdgs.sgraph import bipartite_adjacency, bipartition

    rng = random.Random(26)
    hits = 0
    for tree in enumerate_trees(10).trees:
        cert = certify_tree(tree)
        if not cert.certified:
            continue
        b = bipartition(tree)
        m = bipartite_adjacency(tree, b)
        gram = m.T @ m
        d = discriminant(charpoly(gram))
        assert d == cert.s  # disc(M^T M) is the certificate integer itself
        assert is_odd_squarefree(d)[0]
        for _ in range(3):
            pi = list(range(1, gram.rows + 1))
            rng.shuffle(pi)
            p = permutation_matrix(pi)
            rec = recover_q(gram, p.T @ gram @ p)
            assert rec.valid
            assert classify_q(rec.scaled, rec.level).is_signed_permutation
            hits += 1
    assert hits >= 9  # three certified trees, three plants each


def test_generalized_cospectral_dimension_error():
    with pytest.raises(PreconditionError):
        are_generalized_cospectral(
            path_graph(3).adjacency(), path_graph(4).adjacency()
        )
