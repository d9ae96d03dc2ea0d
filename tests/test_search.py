"""Tree enumeration, signing streams, mate search, exhaustive confirmation."""

import inspect
import itertools
import random

import pytest

from sgdgs.certify import certify_tree
from sgdgs.datasets import EXAMPLE1_CHARPOLY, remark1_pair
from sgdgs.errors import NotTreeError, PreconditionError, ResourceGuardError
from sgdgs.linalg import charpoly, complement_matrix
from sgdgs.search import (
    FREE_TREE_COUNTS,
    _check_spectrum_groups,
    _recover_and_classify,
    _signing,
    _walk_key_groups,
    all_signed_trees,
    decode_pruefer,
    enumerate_signings,
    enumerate_trees,
    exhaustive_dgs_check,
    find_gc_mates,
    random_signing,
    random_tree,
)
from sgdgs.sgraph import (
    SignedGraph,
    are_isomorphic,
    has_perfect_matching,
    is_balanced,
    is_tree,
    tree_canonical_form,
    walk_key,
)
from sgdgs.spectra import are_generalized_cospectral, is_controllable

from oracles import dense_walk_counts, full_key_groups, matching_polynomial, prufer_free_tree_count


def test_pool_counts_match_free_tree_sequence():
    for n in range(1, 11):
        pool = enumerate_trees(n)
        assert len(pool.trees) == FREE_TREE_COUNTS[n - 1]
        assert all(is_tree(t) for t in pool.trees)
        forms = {tree_canonical_form(t) for t in pool.trees}
        assert len(forms) == len(pool.trees)  # pairwise non-isomorphic


def test_pool_counts_against_prufer_oracle():
    # independent generator: full Pruefer enumeration with its own AHU dedup
    for n in range(2, 9):
        assert len(enumerate_trees(n).trees) == prufer_free_tree_count(n)


def test_pool_deterministic_order():
    a = [t.edges for t in enumerate_trees(7).trees]
    b = [t.edges for t in enumerate_trees(7).trees]
    assert a == b


def test_enumerate_trees_resource_guard():
    # the library takes no ceiling (the CLI's --max-n is the one guard):
    # n = 15 enumerates, with the OEIS A000055 count
    assert len(enumerate_trees(15).trees) == 7741
    with pytest.raises(ResourceGuardError):
        enumerate_trees(0)


def test_enumerate_signings_counts():
    single = SignedGraph(2, ((1, 2, 1),))
    assert len(list(enumerate_signings(single))) == 2
    p4 = SignedGraph(4, ((1, 2, 1), (2, 3, 1), (3, 4, 1)))
    signings = list(enumerate_signings(p4))
    assert len(signings) == 8
    assert len(set(signings)) == 8
    for n in (3, 5, 6):
        tree = enumerate_trees(n).trees[0]
        assert len(list(enumerate_signings(tree))) == 2 ** (n - 1)


def test_enumerate_signings_rejects_non_tree():
    tri = SignedGraph(3, ((1, 2, 1), (1, 3, 1), (2, 3, 1)))
    with pytest.raises(PreconditionError):
        list(enumerate_signings(tri))


def test_enumerate_signings_rejects_cycle_with_n_minus_1_edges():
    # a triangle plus an isolated vertex has n - 1 edges but is no tree
    g = SignedGraph(4, ((1, 2, 1), (2, 3, 1), (1, 3, 1)))
    with pytest.raises(NotTreeError):
        list(enumerate_signings(g))
    # one precondition, one error family
    assert issubclass(NotTreeError, PreconditionError)
    with pytest.raises(PreconditionError):
        list(enumerate_signings(g))


def _checked_signings(tree):
    """The slow definition: signing i negates edge j iff bit j of i is
    set, each built and validated by SignedGraph itself."""
    return [
        SignedGraph(
            tree.n,
            tuple((u, v, -1 if bits >> j & 1 else 1) for j, (u, v, _) in enumerate(tree.edges)),
        )
        for bits in range(1 << tree.m)
    ]


def _assert_signings_match_checked(tree):
    got = list(enumerate_signings(tree))
    expected = _checked_signings(tree)
    assert got == expected
    assert [hash(g) for g in got] == [hash(g) for g in expected]
    assert [_signing(tree, bits) for bits in range(len(expected))] == expected


def test_enumerate_signings_match_checked_construction_on_pool():
    assert inspect.isgeneratorfunction(enumerate_signings)
    for n in range(1, 11):
        for tree in enumerate_trees(n).trees:
            _assert_signings_match_checked(tree)


def test_enumerate_signings_match_checked_construction_on_pruefer_trees():
    # labeled trees with input signs, which the signings must ignore
    rng = random.Random(1709)
    for _ in range(12):
        tree = random_tree(rng.randint(11, 14), rng)
        _assert_signings_match_checked(random_signing(tree, rng))


def test_decode_pruefer_and_random_tree():
    assert sorted(decode_pruefer([1, 1])) == [(1, 2), (1, 3), (1, 4)]
    rng = random.Random(51)
    for _ in range(30):
        n = rng.randint(1, 12)
        t = random_tree(n, rng)
        assert is_tree(t)


def test_find_gc_mates_self_pool_empty():
    g, _ = remark1_pair()
    report = find_gc_mates(g, [g])
    assert report.mates == ()
    assert report.candidates_scanned == 1


def test_find_gc_mates_remark1():
    g, h = remark1_pair()
    report = find_gc_mates(g, [h])
    assert len(report.mates) == 1
    entry = report.mates[0]
    assert entry.recovery is not None and entry.recovery.valid
    assert entry.classification.tag == "BlockDiagonal"


def test_recover_and_classify_needs_controllable_pair():
    # star leaves have equal walk rows, so det W = 0: no Q, in native order
    star = SignedGraph(5, ((1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1)))
    relabelled = SignedGraph(5, ((1, 3, 1), (2, 3, 1), (3, 4, 1), (3, 5, 1)))
    assert _recover_and_classify(star, relabelled) == (None, None)
    # P4 has equal parts, so this pair runs in part-sorted coordinates
    p4 = SignedGraph(4, ((1, 2, 1), (2, 3, 1), (3, 4, 1)))
    assert _recover_and_classify(p4, p4) == (None, None)
    g, h = remark1_pair()
    recovery, classification = _recover_and_classify(g, h)
    assert recovery.valid and recovery.level == 7
    assert classification.tag == "BlockDiagonal" and classification.split == 9


def test_find_gc_mates_rejects_different_spectrum():
    p4 = SignedGraph(4, ((1, 2, 1), (2, 3, 1), (3, 4, 1)))
    star = SignedGraph(4, ((1, 2, 1), (1, 3, 1), (1, 4, 1)))
    report = find_gc_mates(p4, [star])
    assert report.mates == ()


def test_find_gc_mates_skips_isomorphic_signings():
    # mirrored signings of the path are isomorphic and generalized cospectral
    g = SignedGraph(4, ((1, 2, -1), (2, 3, 1), (3, 4, 1)))
    h = SignedGraph(4, ((1, 2, 1), (2, 3, 1), (3, 4, -1)))
    assert are_isomorphic(g, h) is not None
    report = find_gc_mates(g, [h])
    assert report.mates == ()


def test_exhaustive_check_all_certified_10():
    certified = [t for t in enumerate_trees(10).trees if certify_tree(t).certified]
    assert len(certified) == 3
    reports = exhaustive_dgs_check(10)
    assert [report.tree for report in reports] == certified
    for report in reports:
        assert report.ok
        assert report.counterexamples == ()
        assert report.signings_scanned == 512 * report.candidate_trees
        for pair in report.gc_pairs:
            assert pair.recovery_valid and pair.block_structure


def test_exhaustive_check_no_certified_tree_below_10():
    for n in range(1, 10):
        assert exhaustive_dgs_check(n) == ()


def test_exhaustive_check_negative_control():
    """Corrupting one signing's spectrum must break the homogeneity check."""
    tree = next(t for t in enumerate_trees(10).trees if certify_tree(t).certified)
    other = next(t for t in enumerate_trees(10).trees if t != tree)
    groups = {
        ("fake-spectrum",): [tree, other],  # non-isomorphic members, same bucket
    }
    ok, counterexamples = _check_spectrum_groups(groups)
    assert not ok
    assert len(counterexamples) == 1
    g, h = counterexamples[0]
    assert are_isomorphic(g, h) is None


def test_example1_pair_locatable_at_n14():
    """Exactly one unordered pair of 14-vertex trees carries the embedded
    degree-14 charpoly (the printed cospectral pair)."""
    matches = [
        t for t in enumerate_trees(14).trees if charpoly(t.adjacency()) == EXAMPLE1_CHARPOLY
    ]
    assert len(matches) == 2
    t1, t2 = matches
    assert are_isomorphic(t1, t2) is None
    assert charpoly(t1.adjacency()) == charpoly(t2.adjacency()) == EXAMPLE1_CHARPOLY
    assert certify_tree(t1).certified and certify_tree(t2).certified


def test_all_signed_trees_stream():
    count = sum(1 for _ in all_signed_trees(5))
    # 3 trees on 5 vertices, 16 signings each
    assert count == 3 * 16
    for n in range(1, 8):
        pool = all_signed_trees(n)
        assert pool.trees == enumerate_trees(n).trees
        first, second = list(pool), list(pool)
        assert first == second
        chained = list(itertools.chain.from_iterable(map(enumerate_signings, pool.trees)))
        assert first == chained
        assert len(first) == FREE_TREE_COUNTS[n - 1] << (n - 1)


def test_find_gc_mates_tree_pool_agrees_with_direct_filter():
    """Scanning all_signed_trees(n) tree by tree finds exactly the mates of
    a direct filter of the signing list: phi taken per tree here, walk
    counts by dense mat-vecs (on a common phi, equal walk counts mean
    generalized cospectral; see sgraph.walk_key).  Queries come from
    buckets with non-isomorphic members.  192 such buckets at n = 10 span
    two trees; their queries get mates from another tree, and those of a
    four-member bucket from the query's own tree too, so the tree order of
    the scan shows in the mate order.  Controllable queries (n = 7 and 9)
    have mates with a recovered and classified Q."""
    cross_tree_mates = two_tree_reports = classified_mates = 0
    for n in range(5, 11):
        trees = enumerate_trees(n).trees
        phis = [charpoly(t.adjacency()) for t in trees]
        signings = [(i, g) for i, t in enumerate(trees) for g in enumerate_signings(t)]
        # a bucket spans two trees only inside a phi class of several trees
        shared = {phi for phi in phis if phis.count(phi) > 1}
        buckets = {}
        for i, g in signings:
            if n < 10 or phis[i] in shared:
                buckets.setdefault((phis[i], walk_key(g)), []).append((i, g))
        if n < 10:
            mixed = [
                m for m in buckets.values()
                if len(m) > 1 and len({tree_canonical_form(g) for _, g in m}) > 1
            ]
            queries = [mixed[0][0]]
            # a controllable query has controllable mates, so Q is recovered
            queries += [m[0] for m in mixed if is_controllable(m[0][1].adjacency())][:1]
        else:
            cross = [m for m in buckets.values() if len({i for i, _ in m}) > 1]
            assert len(cross) == 192
            queries = [cross[0][0], next(m for m in cross if len(m) == 4)[0], cross[-1][0]]
        for tree_index, query in queries:
            walks = dense_walk_counts(query.adjacency().to_lists(), n)
            direct = [
                g for i, g in signings
                if phis[i] == phis[tree_index]
                and dense_walk_counts(g.adjacency().to_lists(), n) == walks
                and are_isomorphic(query, g) is None
            ]
            assert direct
            report = find_gc_mates(query, all_signed_trees(n))
            assert [entry.mate.edges for entry in report.mates] == [g.edges for g in direct]
            classifications = [_recover_and_classify(query, g)[1] for g in direct]
            assert [entry.classification for entry in report.mates] == classifications
            classified_mates += sum(c is not None for c in classifications)
            assert report.candidates_scanned == len(signings)
            own = tree_canonical_form(trees[tree_index])
            sources = [tree_canonical_form(g.underlying()) for g in direct]
            cross_tree_mates += sum(form != own for form in sources)
            two_tree_reports += len(set(sources)) > 1
            other = find_gc_mates(query, all_signed_trees(n - 1))
            assert (other.mates, other.candidates_scanned) == ((), 0)
    assert cross_tree_mates > 0 and two_tree_reports > 0 and classified_mates > 0


def _classes(keys):
    """The partition of range(len(keys)) into classes of equal key."""
    classes = {}
    for i, key in enumerate(keys):
        classes.setdefault(key, []).append(i)
    return sorted(classes.values())


def test_walk_key_buckets_match_complement_charpoly_buckets():
    """(phi, walk key) partitions every signing of every tree of order n <= 9
    exactly as (phi, complement charpoly) does.  Cospectral trees appear
    from n = 8, so some phi classes hold the signings of several trees."""
    cross_tree = 0
    for n in range(1, 10):
        signings = list(all_signed_trees(n))
        phis = [charpoly(g.adjacency()) for g in signings]
        by_walk = _classes([(phi, walk_key(g)) for phi, g in zip(phis, signings)])
        by_complement = _classes(
            [(phi, charpoly(complement_matrix(g.adjacency()))) for phi, g in zip(phis, signings)]
        )
        assert by_walk == by_complement, n
        shape = [tuple((u, v) for u, v, _ in g.edges) for g in signings]
        cross_tree += sum(len({shape[i] for i in c}) > 1 for c in _classes(phis))
    assert cross_tree > 0


def test_exhaustive_check_candidates_are_the_cospectral_pool_trees():
    """Each report's candidates are all pool trees, unscreened, with the
    report tree's matching polynomial (its charpoly): the screen loses no
    tree cospectral with a certified one."""
    reports = 0
    for n in range(1, 13):
        pool = enumerate_trees(n).trees
        for report in exhaustive_dgs_check(n):
            mu = matching_polynomial(n, report.tree.edges)
            expected = sum(matching_polynomial(n, t.edges) == mu for t in pool)
            assert report.candidate_trees == expected, (n, report.tree)
            assert report.signings_scanned == expected << (n - 1)
            reports += 1
    assert reports == 6


def test_perfect_matching_screen_is_charpoly_constant_term():
    """A tree has a perfect matching iff phi(0) != 0, on every pool tree
    with n <= 14; 15, 49 and 180 of them have one at n = 10, 12, 14."""
    matched = {}
    for n in range(1, 15):
        for t in enumerate_trees(n).trees:
            screen = has_perfect_matching(t)
            assert screen == (charpoly(t.adjacency()).coefficient(0) != 0), t
            matched[n] = matched.get(n, 0) + screen
    assert (matched[10], matched[12], matched[14]) == (15, 49, 180)


def test_no_tree_without_perfect_matching_is_certified():
    certified = 0
    for n in range(1, 13):
        for t in enumerate_trees(n).trees:
            if certify_tree(t).certified:
                assert has_perfect_matching(t), t
                certified += 1
    assert certified == 6  # 3 at n = 10 and 3 at n = 12


def test_walk_key_refinement_matches_full_key_dict():
    """Term-by-term refinement on every charpoly class of the whole pools
    with n <= 10 against the dict of full walk keys filled in stream order:
    the same number of buckets, and the same multi-member buckets with the
    same keys, members, member order and bucket order.  The classes come
    from the oracle's matching polynomial over the whole pool: no two
    trees with a perfect matching and n <= 10 are cospectral."""
    shared_classes = 0
    multi_bucket_classes = 0
    for n in range(1, 11):
        classes = full_key_groups(
            enumerate_trees(n).trees, lambda t: matching_polynomial(t.n, t.edges)
        )
        for trees in classes.values():
            count, groups = _walk_key_groups(trees)
            oracle = full_key_groups(
                (g for t in trees for g in enumerate_signings(t)), walk_key
            )
            assert count == len(oracle), (n, trees[0])
            colliding = [(key, members) for key, members in oracle.items() if len(members) > 1]
            assert list(groups.items()) == colliding, (n, trees[0])
            shared_classes += len(trees) > 1
            multi_bucket_classes += len(colliding) > 1
    assert shared_classes > 0 and multi_bucket_classes > 0


def test_find_gc_mates_non_tree_pool_agrees_with_direct_filter():
    """Signed unicyclic graphs: signings of one unsigned graph differ in phi
    when their cycle signs differ, so only tree charpolys may be shared."""
    n = 5
    shapes = {}
    for tree in enumerate_trees(n).trees:
        present = [(u, v) for u, v, _ in tree.edges]
        for extra in itertools.combinations(range(1, n + 1), 2):
            if extra not in present:
                shapes.setdefault(tuple(sorted(present + [extra])), None)
    pool = [
        SignedGraph(n, tuple((u, v, s) for (u, v), s in zip(shape, signs)))
        for shape in shapes
        for signs in itertools.product((1, -1), repeat=n)  # all-positive first
    ]
    smaller = list(all_signed_trees(n - 1))
    pool += list(all_signed_trees(n)) + smaller
    query = SignedGraph(n, ((1, 2, 1), (1, 3, 1), (2, 3, -1), (2, 4, -1), (3, 5, -1)))
    assert not is_balanced(query).balanced
    a = query.adjacency()
    direct = [
        g for g in pool
        if g.n == n
        and are_generalized_cospectral(a, g.adjacency())
        and are_isomorphic(query, g) is None
    ]
    report = find_gc_mates(query, pool)
    assert [entry.mate for entry in report.mates] == direct
    assert report.candidates_scanned == len(pool) - len(smaller)
    # the unbalanced mates share their unsigned graph with an earlier,
    # balanced pool member of another charpoly
    assert direct and all(not is_balanced(g).balanced for g in direct)
