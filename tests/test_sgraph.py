"""Signed-graph model: bipartition, switching, balance, isomorphism, files."""

import random
from itertools import combinations, islice

import pytest

from sgdgs.datasets import remark1_matrices, remark1_pair
from sgdgs.errors import NotBipartiteError, NotTreeError
from sgdgs.intpoly import IntPolynomial
from sgdgs.linalg import IntMatrix, charpoly, complement_matrix
from sgdgs.search import enumerate_trees, random_signing, random_tree
from sgdgs.sgraph import (
    Bipartition,
    SignedGraph,
    are_isomorphic,
    bipartite_adjacency,
    bipartition,
    format_sg,
    from_bipartite_adjacency,
    has_perfect_matching,
    is_balanced,
    parse_sg,
    permutation_matrix,
    switch,
    switching_diagonal,
    tree_canonical_form,
    walk_key,
    walk_terms,
)

from oracles import brute_force_has_perfect_matching, brute_force_isomorphism, dense_walk_counts


def path_graph(n, signs=None):
    signs = signs or [1] * (n - 1)
    return SignedGraph(n, tuple((i, i + 1, signs[i - 1]) for i in range(1, n)))


def triangle(signs=(1, 1, 1)):
    return SignedGraph(3, ((1, 2, signs[0]), (1, 3, signs[1]), (2, 3, signs[2])))


def random_signed_graph(n, rng, p=0.5):
    edges = []
    for u, v in combinations(range(1, n + 1), 2):
        if rng.random() < p:
            edges.append((u, v, rng.choice((1, -1))))
    return SignedGraph(n, tuple(edges))


def test_construction_validation():
    with pytest.raises(ValueError):
        SignedGraph(2, ((1, 1, 1),))  # loop
    with pytest.raises(ValueError):
        SignedGraph(2, ((1, 2, 1), (2, 1, -1)))  # duplicate
    with pytest.raises(ValueError):
        SignedGraph(2, ((1, 3, 1),))  # out of range
    with pytest.raises(ValueError):
        SignedGraph(2, ((1, 2, 2),))  # bad sign
    g = SignedGraph(3, ((3, 1, -1),))
    assert g.edges == ((1, 3, -1),)


def test_adjacency_examples():
    assert SignedGraph(2, ((1, 2, 1),)).adjacency() == IntMatrix([[0, 1], [1, 0]])
    assert SignedGraph(2, ((1, 2, -1),)).adjacency() == IntMatrix([[0, -1], [-1, 0]])
    m, _ = remark1_matrices()
    g = from_bipartite_adjacency(m)
    a = g.adjacency()
    for i in range(9):
        for j in range(9):
            assert a[i, 9 + j] == m[i, j]
            assert a[9 + j, i] == m[i, j]
            assert a[i, j] == 0 and a[9 + i, 9 + j] == 0


def test_bipartition_tree_layers():
    g = path_graph(5)
    b = bipartition(g)
    assert b.left == (1, 3, 5) and b.right == (2, 4)


def test_bipartition_triangle_witness():
    with pytest.raises(NotBipartiteError) as info:
        bipartition(triangle())
    walk = info.value.odd_walk
    assert walk[0] == walk[-1] and len(walk) % 2 == 0  # closed, odd edge count
    for a, b in zip(walk, walk[1:]):
        assert a != b


def test_bipartition_remark1_parts():
    g, _ = remark1_pair()
    b = bipartition(g)
    assert len(b.left) == 9 and len(b.right) == 9
    assert b.left == tuple(range(1, 10))


def test_bipartite_adjacency_examples():
    g = SignedGraph(2, ((1, 2, 1),))
    assert bipartite_adjacency(g, bipartition(g)) == IntMatrix([[1]])
    p4 = path_graph(4)
    m = bipartite_adjacency(p4, bipartition(p4))
    assert m == IntMatrix([[1, 0], [1, 1]])
    m1, _ = remark1_matrices()
    g1 = from_bipartite_adjacency(m1)
    assert bipartite_adjacency(g1, bipartition(g1)) == m1


def test_bipartite_adjacency_rejects_bad_partition():
    g = path_graph(4)
    with pytest.raises(ValueError):
        bipartite_adjacency(g, Bipartition((1, 2), (3, 4)))


def test_switch_examples():
    g = path_graph(3)
    assert switch(g, ()) == g
    e = SignedGraph(2, ((1, 2, 1),))
    assert switch(e, {1}).edges == ((1, 2, -1),)
    rng = random.Random(11)
    for _ in range(20):
        h = random_signed_graph(rng.randint(2, 7), rng)
        subset = {v for v in range(1, h.n + 1) if rng.random() < 0.5}
        assert switch(switch(h, subset), subset) == h


def test_switch_matches_diagonal_conjugation():
    rng = random.Random(12)
    for _ in range(20):
        g = random_signed_graph(rng.randint(2, 7), rng)
        subset = {v for v in range(1, g.n + 1) if rng.random() < 0.5}
        d = switching_diagonal(g.n, subset)
        a = g.adjacency()
        expected = IntMatrix(
            [[d[i] * a[i, j] * d[j] for j in range(g.n)] for i in range(g.n)]
        )
        assert switch(g, subset).adjacency() == expected


def test_switch_out_of_range():
    with pytest.raises(ValueError):
        switch(path_graph(3), {9})


def test_is_balanced_examples():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(2, 8)
        tree = path_graph(n, [rng.choice((1, -1)) for _ in range(n - 1)])
        res = is_balanced(tree)
        assert res.balanced
        d = res.switching
        a = tree.adjacency()
        for i in range(n):
            for j in range(n):
                assert d[i] * a[i, j] * d[j] >= 0  # D A D is the unsigned tree
    assert not is_balanced(triangle((-1, 1, 1))).balanced
    assert is_balanced(triangle((-1, -1, 1))).balanced


def test_unbalanced_cycle_witness():
    res = is_balanced(triangle((-1, 1, 1)))
    cycle = res.unbalanced_cycle
    assert cycle[0] == cycle[-1]
    signs = dict()
    for u, v, s in triangle((-1, 1, 1)).edges:
        signs[(u, v)] = signs[(v, u)] = s
    negatives = sum(1 for a, b in zip(cycle, cycle[1:]) if signs[(a, b)] < 0)
    assert negatives % 2 == 1


def test_switching_preserves_adjacency_charpoly():
    rng = random.Random(14)
    for _ in range(30):
        g = random_signed_graph(rng.randint(2, 7), rng)
        subset = {v for v in range(1, g.n + 1) if rng.random() < 0.5}
        assert charpoly(switch(g, subset).adjacency()) == charpoly(g.adjacency())


def test_switching_can_change_generalized_spectrum():
    """Exhaustive search over signed trees with n <= 5 must exhibit a switch
    that changes charpoly(J - I - A): the generalized spectrum is not
    switching-invariant."""
    from sgdgs.search import enumerate_signings, enumerate_trees

    witness = None
    for n in range(2, 6):
        for tree in enumerate_trees(n).trees:
            for g in enumerate_signings(tree):
                base = charpoly(complement_matrix(g.adjacency()))
                for bits in range(1, 1 << g.n):
                    subset = {v + 1 for v in range(g.n) if bits >> v & 1}
                    h = switch(g, subset)
                    if charpoly(complement_matrix(h.adjacency())) != base:
                        witness = (g, subset, h)
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    assert witness is not None
    g, subset, h = witness
    assert charpoly(g.adjacency()) == charpoly(h.adjacency())
    assert charpoly(complement_matrix(g.adjacency())) != charpoly(
        complement_matrix(h.adjacency())
    )


def test_are_isomorphic_examples():
    g = path_graph(4, [1, -1, 1])
    pi = are_isomorphic(g, g)
    assert pi is not None
    assert are_isomorphic(SignedGraph(2, ((1, 2, 1),)), SignedGraph(2, ((1, 2, -1),))) is None
    g1, g2 = remark1_pair()
    assert are_isomorphic(g1, g2) is None


def relabeled(g, rng):
    pi = list(range(1, g.n + 1))
    rng.shuffle(pi)
    return SignedGraph(
        g.n,
        tuple((min(pi[u - 1], pi[v - 1]), max(pi[u - 1], pi[v - 1]), s) for u, v, s in g.edges),
    )


def random_signed_tree(n, rng):
    return random_signing(random_tree(n, rng), rng)


def is_bicentral(t):
    return tree_canonical_form(t).startswith("[")


def assert_relabeling_found(g, h):
    found = are_isomorphic(g, h)
    assert found is not None
    p = permutation_matrix(found)
    assert p.T @ g.adjacency() @ p == h.adjacency()
    # symmetry: inverting the permutation maps back
    back = are_isomorphic(h, g)
    assert back is not None
    q = permutation_matrix(back)
    assert q.T @ h.adjacency() @ q == g.adjacency()


def test_isomorphism_permutation_property():
    rng = random.Random(15)
    for _ in range(30):
        g = random_signed_graph(rng.randint(2, 7), rng)
        assert_relabeling_found(g, relabeled(g, rng))
    # signed trees take the canonical-encoding path; the bijection is read
    # off the encoding, so pairing children or bicenter halves wrongly shows
    rng = random.Random(150)
    trees = [random_signed_tree(n, rng) for n in range(1, 13) for _ in range(25)]
    assert sum(map(is_bicentral, trees)) >= 50
    for g in trees:
        assert_relabeling_found(g, relabeled(g, rng))


def assert_agrees_with_brute_force(g, h):
    ours = are_isomorphic(g, h)
    brute = brute_force_isomorphism(g.n, g.edges, h.edges)
    assert (ours is None) == (brute is None)
    if ours is not None:
        p = permutation_matrix(ours)
        assert p.T @ g.adjacency() @ p == h.adjacency()
    return ours is not None


def test_isomorphism_agrees_with_brute_force():
    rng = random.Random(16)
    for _ in range(40):
        n = rng.randint(2, 6)
        g = random_signed_graph(n, rng)
        h = random_signed_graph(n, rng)
        assert_agrees_with_brute_force(g, h)
    # signed trees: a re-signed relabeled copy (often isomorphic) or an
    # independent tree of the same order
    rng = random.Random(160)
    outcomes = []
    bicentral = 0
    for _ in range(80):
        g = random_signed_tree(rng.randint(1, 7), rng)
        if rng.random() < 0.5:
            h = relabeled(random_signing(g, rng), rng)
        else:
            h = random_signed_tree(g.n, rng)
        bicentral += is_bicentral(g)
        outcomes.append(assert_agrees_with_brute_force(g, h))
    assert 10 <= sum(outcomes) <= 70
    assert bicentral >= 10


def test_tree_isomorphism_signed_forms():
    # same underlying path, negative edge at mirrored positions: isomorphic
    g = path_graph(4, [-1, 1, 1])
    h = path_graph(4, [1, 1, -1])
    assert are_isomorphic(g, h) is not None
    # negative edge in the middle is a different signed tree
    k = path_graph(4, [1, -1, 1])
    assert are_isomorphic(g, k) is None
    assert tree_canonical_form(g) == tree_canonical_form(h)
    assert tree_canonical_form(g) != tree_canonical_form(k)


def test_single_vertex_graph():
    g = SignedGraph(1, ())
    assert charpoly(g.adjacency()) == IntPolynomial([0, 1])
    from sgdgs.spectra import walk_matrix

    assert walk_matrix(g.adjacency()) == IntMatrix([[1]])
    assert tree_canonical_form(g) == "()"


def test_canonical_form_requires_tree():
    with pytest.raises(NotTreeError):
        tree_canonical_form(triangle())


def test_sg_format_roundtrip():
    g = SignedGraph(4, ((1, 2, 1), (2, 3, -1), (1, 4, -1)))
    text = format_sg(g)
    assert parse_sg(text) == g
    assert text.splitlines()[0] == "4 3"
    # accepts bare +/- signs too
    alt = "3 2\n1 2 +\n2 3 -\n"
    assert parse_sg(alt) == SignedGraph(3, ((1, 2, 1), (2, 3, -1)))


def test_sg_format_rejects_garbage():
    with pytest.raises(ValueError):
        parse_sg("2 1\n1 2 0\n")
    with pytest.raises(ValueError):
        parse_sg("2 2\n1 2 +1\n")


def test_walk_key_matches_dense_oracle_on_cyclic_graphs():
    """walk_key and the walk-term generator against dense e^T A^k e on signed
    cycles and signed unicyclic graphs (mate-search pools take any graph)."""
    rng = random.Random(71)
    graphs = []
    for n in range(3, 10):
        cycle = [(i, i + 1) for i in range(1, n)] + [(1, n)]
        tree = [(rng.randrange(1, v), v) for v in range(2, n + 1)]
        extra = rng.choice([p for p in combinations(range(1, n + 1), 2) if p not in tree])
        for edges in (cycle, tree + [extra]):
            graphs.append(SignedGraph(n, tuple((u, v, rng.choice((1, -1))) for u, v in edges)))
    for g in graphs:
        rows = g.adjacency().to_lists()
        counts = dense_walk_counts(rows, 2 * g.n)
        assert walk_key(g) == tuple(counts[: g.n])
        e = [0] + [1] * g.n
        assert list(islice(walk_terms(g.edges, e), 2 * g.n - 1)) == counts[1:]


def test_has_perfect_matching_requires_tree():
    # a forest with a perfect matching is still not a tree
    for g in (triangle(), SignedGraph(4, ((1, 2, 1), (3, 4, 1)))):
        with pytest.raises(NotTreeError):
            has_perfect_matching(g)


def test_has_perfect_matching_matches_brute_force_oracle():
    """Every tree with n <= 10, and seeded Pruefer trees (random labels) up
    to n = 18, against a search over edge subsets."""
    rng = random.Random(16)
    sampled = [random_tree(rng.randint(11, 18), rng) for _ in range(150)]
    trees = [t for n in range(1, 11) for t in enumerate_trees(n).trees] + sampled
    verdicts = [brute_force_has_perfect_matching(t.n, t.edges) for t in trees]
    assert [has_perfect_matching(t) for t in trees] == verdicts
    assert sum(verdicts[-len(sampled):]) > 0 and not all(verdicts)
