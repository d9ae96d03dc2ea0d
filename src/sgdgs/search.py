"""Desk-scale enumeration and brute-force verification.

Free trees are generated by leaf augmentation with canonical-form
deduplication (exhaustive: every tree on k+1 vertices arises by attaching
a leaf to a tree on k vertices).  The exhaustive spectral-determinacy
check buckets all signings of all candidate trees by their generalized
spectrum; a certified tree passes when every bucket is isomorphism-
homogeneous.  Only trees with a perfect matching can be certified or be
cospectral with a certified tree (a tree's charpoly is its matching
polynomial, so phi(0) = +-(number of perfect matchings)), so the check
certifies and groups those trees alone.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, replace
from itertools import product
from typing import Iterable, Iterator, Optional

from .certify import certify_tree
from .errors import NotBipartiteError, PreconditionError, ResourceGuardError
from .intpoly import IntPolynomial
from .linalg import charpoly
from .sgraph import (
    SignedGraph,
    are_isomorphic,
    bipartition,
    has_perfect_matching,
    part_sorted_adjacency,
    require_tree,
    tree_canonical_form,
    walk_key,
    walk_terms,
)
from .spectra import QClassification, QRecovery, classify_q, recover_q

# free-tree counts for n = 1..10; pinned cross-check for the enumerator
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106)


@dataclass(frozen=True)
class TreePool:
    """All free trees on n vertices, all-positive signings, canonical order."""

    n: int
    trees: tuple[SignedGraph, ...]


_POOL_CACHE: dict[int, TreePool] = {}


def enumerate_trees(n: int) -> TreePool:
    """All isomorphism classes of free trees on n vertices."""
    if n < 1:
        raise ResourceGuardError(f"tree enumeration needs n >= 1, got {n}")
    if n in _POOL_CACHE:
        return _POOL_CACHE[n]
    level: dict[str, SignedGraph] = {
        tree_canonical_form(SignedGraph(1, ())): SignedGraph(1, ())
    }
    for k in range(2, n + 1):
        nxt: dict[str, SignedGraph] = {}
        for tree in level.values():
            for v in range(1, k):
                candidate = SignedGraph(k, tree.edges + ((v, k, 1),))
                key = tree_canonical_form(candidate)
                if key not in nxt:
                    nxt[key] = candidate
        level = nxt
    ordered = tuple(level[key] for key in sorted(level))
    pool = TreePool(n=n, trees=ordered)
    _POOL_CACHE[n] = pool
    return pool


def enumerate_signings(tree: SignedGraph) -> Iterator[SignedGraph]:
    """All 2^(n-1) signings of a tree, lazily, in sign-vector order:
    signing i has edge j negative iff bit j of i is set.

    A signing changes only signs, so its edges are the tree's canonical
    edges, in the same order, and as valid.  Each edge's two signed tuples
    are built once per tree and shared by every signing; itertools.product
    over the reversed pairs, each tuple reversed back, makes edge 0 vary
    fastest.  Raises NotTreeError when the input is not a tree.
    """
    require_tree(tree)
    pairs = [((u, v, 1), (u, v, -1)) for u, v, _ in tree.edges]
    for edges in product(*reversed(pairs)):
        yield _signed_tree(tree.n, edges[::-1])


def _signing(tree: SignedGraph, bits: int) -> SignedGraph:
    """Signing number `bits` of enumerate_signings(tree), built alone."""
    return _signed_tree(
        tree.n,
        tuple((u, v, -1 if bits >> i & 1 else 1) for i, (u, v, _) in enumerate(tree.edges)),
    )


def _signed_tree(n: int, edges: tuple) -> SignedGraph:
    """A SignedGraph built without SignedGraph.__post_init__, for signings
    only.  Invariant: `edges` are a tree's canonical edges (u < v, sorted,
    in range, no duplicates) with each sign +1 or -1; changing the signs
    of a valid canonical edge tuple keeps it valid and sorted, since no
    two edges share (u, v)."""
    g = object.__new__(SignedGraph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "edges", edges)
    return g


def random_tree(n: int, rng: random.Random) -> SignedGraph:
    """Uniform labeled tree from a random Pruefer sequence, all +1 signs."""
    if n == 1:
        return SignedGraph(1, ())
    if n == 2:
        return SignedGraph(2, ((1, 2, 1),))
    seq = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    return SignedGraph(n, tuple((u, v, 1) for u, v in decode_pruefer(seq)))


def decode_pruefer(seq: list[int]) -> list[tuple[int, int]]:
    """Edges of the labeled tree encoded by a Pruefer sequence on 1..n."""
    n = len(seq) + 2
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    leaf_heap = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaf_heap)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaf_heap)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaf_heap, v)
    u = heapq.heappop(leaf_heap)
    v = heapq.heappop(leaf_heap)
    edges.append((min(u, v), max(u, v)))
    return edges


def random_signing(tree: SignedGraph, rng: random.Random) -> SignedGraph:
    return SignedGraph(
        tree.n, tuple((u, v, rng.choice((1, -1))) for u, v, _ in tree.edges)
    )


# -- generalized-cospectral mate search ------------------------------------------


@dataclass(frozen=True)
class MateEntry:
    mate: SignedGraph
    recovery: Optional[QRecovery]
    classification: Optional[QClassification]


@dataclass(frozen=True)
class MateReport:
    query: SignedGraph
    mates: tuple[MateEntry, ...]
    candidates_scanned: int
    descriptor: str


def _structure_coordinates(g: SignedGraph):
    """Part-sorted block adjacency when bipartite with equal parts, else None."""
    try:
        b = bipartition(g)
    except NotBipartiteError:
        return None
    if len(b.left) != len(b.right):
        return None
    return part_sorted_adjacency(g, b)


def _recover_and_classify(g: SignedGraph, h: SignedGraph):
    """Q recovery for a generalized-cospectral pair.

    Performed in part-sorted coordinates when both graphs are bipartite
    with equal parts (so block tags line up with the structure theorem),
    in native vertex order otherwise; (None, None) when either graph is not
    controllable.
    """
    a_blk, b_blk = _structure_coordinates(g), _structure_coordinates(h)
    if a_blk is not None and b_blk is not None:
        a, b, split = a_blk, b_blk, g.n // 2
    else:
        a, b, split = g.adjacency(), h.adjacency(), None
    try:
        recovery = recover_q(a, b)
    except PreconditionError:  # a or b is not controllable
        return None, None
    return recovery, classify_q(recovery.scaled, recovery.level, split=split)


def find_gc_mates(
    query: SignedGraph,
    pool: Iterable[SignedGraph],
    descriptor: str = "",
) -> MateReport:
    """Generalized-cospectral, non-isomorphic members of the pool.

    The pool is scanned one unit at a time: a SignedTreePool (see
    all_signed_trees) by tree, any other iterable by member.  A unit of
    another order than the query's is skipped uncounted.  Every signing of
    a tree is switching-similar to the tree, so a tree unit's 2^(n-1)
    signings all have the tree's charpoly: one charpoly per unit decides
    whether any member can match, and a unit whose charpoly differs from
    the query's is counted and skipped whole.  The members of a matching
    unit are streamed in pool order and filtered by walk key (see
    sgraph.walk_key) and isomorphism.  Q is recovered and classified for
    each mate whenever both sides are controllable.
    """
    phi = charpoly(query.adjacency())
    key = walk_key(query)
    if isinstance(pool, SignedTreePool):
        units = ((tree, 1 << (tree.n - 1), enumerate_signings) for tree in pool.trees)
    else:
        units = ((g, 1, _alone) for g in pool)
    scanned = 0
    mates = []
    for graph, size, members in units:
        if graph.n != query.n:
            continue
        scanned += size
        if charpoly(graph.adjacency()) != phi:
            continue
        for candidate in members(graph):
            if walk_key(candidate) != key or are_isomorphic(query, candidate) is not None:
                continue
            recovery, classification = _recover_and_classify(query, candidate)
            mates.append(MateEntry(mate=candidate, recovery=recovery, classification=classification))
    return MateReport(
        query=query,
        mates=tuple(mates),
        candidates_scanned=scanned,
        descriptor=descriptor or f"pool of {scanned} signed graphs",
    )


def _alone(g: SignedGraph) -> tuple[SignedGraph]:
    return (g,)


@dataclass(frozen=True)
class SignedTreePool:
    """Every signing of each of `trees`, tree by tree, each tree's signings
    in enumerate_signings order.  Iterable any number of times; nothing is
    built before iteration asks for it."""

    trees: tuple[SignedGraph, ...]

    def __iter__(self) -> Iterator[SignedGraph]:
        for tree in self.trees:
            yield from enumerate_signings(tree)


def all_signed_trees(n: int) -> SignedTreePool:
    """Every signing of every free tree on n vertices, as a re-iterable
    pool over enumerate_trees(n).trees; find_gc_mates scans it by tree."""
    return SignedTreePool(enumerate_trees(n).trees)


# -- exhaustive spectral-determinacy confirmation ----------------------------------


@dataclass(frozen=True)
class GcPairRecord:
    """A generalized-cospectral pair met during the exhaustive check."""

    first: SignedGraph
    second: SignedGraph
    isomorphic: bool
    recovery_valid: Optional[bool]
    block_structure: Optional[bool]  # block or anti-block in part-sorted order


@dataclass(frozen=True)
class ExhaustiveCheckReport:
    tree: SignedGraph
    n: int
    ok: bool
    counterexamples: tuple[tuple[SignedGraph, SignedGraph], ...]
    candidate_trees: int
    signings_scanned: int
    spectrum_groups: int
    gc_pairs: tuple[GcPairRecord, ...]


def _check_spectrum_groups(groups: dict) -> tuple[bool, list]:
    """Every group must be isomorphism-homogeneous (one canonical form)."""
    counterexamples = []
    for members in groups.values():
        if len(members) < 2:
            continue
        by_form: dict[str, SignedGraph] = {}
        for g in members:
            by_form.setdefault(tree_canonical_form(g), g)
        if len(by_form) > 1:
            reps = list(by_form.values())
            counterexamples.append((reps[0], reps[1]))
    return not counterexamples, counterexamples


def _structure_records(groups: dict) -> list[GcPairRecord]:
    records = []
    for members in groups.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                g, h = members[i], members[j]
                iso = are_isomorphic(g, h) is not None
                recovery, classification = _recover_and_classify(g, h)
                if recovery is None:
                    records.append(
                        GcPairRecord(g, h, iso, recovery_valid=None, block_structure=None)
                    )
                    continue
                block = None
                if classification.block_diagonal is not None:
                    block = bool(
                        classification.block_diagonal or classification.anti_block_diagonal
                    )
                records.append(
                    GcPairRecord(
                        g,
                        h,
                        iso,
                        recovery_valid=recovery.valid,
                        block_structure=block,
                    )
                )
    return records


def _switching_order(tree: SignedGraph) -> list[tuple[int, int, int]]:
    """(edge index, parent, child) for every edge of a tree rooted at
    vertex 1, each parent before its children."""
    index = {(u, v): i for i, (u, v, _) in enumerate(tree.edges)}
    adj = tree.neighbor_lists()
    order = []
    seen, stack = {1}, [1]
    while stack:
        u = stack.pop()
        for v, _ in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
                order.append((index[min(u, v), max(u, v)], u, v))
    return order


def _switching_vector(g: SignedGraph, order: list[tuple[int, int, int]]) -> list[int]:
    """x with A_g = D |A| D for D = diag(x): x_1 = 1 and
    x_child = x_parent * sign(parent, child); slot 0 unused."""
    x = [0] * (g.n + 1)
    x[1] = 1
    for i, parent, child in order:
        x[child] = x[parent] * g.edges[i][2]
    return x


def _walk_key_groups(candidates: tuple[SignedGraph, ...]) -> tuple[int, dict]:
    """Bucket every signing of the candidate trees (order n) by walk key.

    Returns the number of buckets and the multi-member buckets as
    {walk key: signings}, in first-member order with members in stream
    order: the multi-member part of a dict of full walk keys filled in
    stream order.  A signing with switching vector x has w_k = x^T |A|^k x,
    so each is kept as a term generator on its tree's unsigned edges, and
    a bucket is split one term at a time only while it has several
    members: a unique partial key means a unique full key.  SignedGraphs
    are rebuilt only for buckets that still collide after n - 1 terms.
    """
    n = candidates[0].n
    members = []  # (stream index, term generator)
    for t in candidates:
        shape, order = t.underlying().edges, _switching_order(t)
        for g in enumerate_signings(t):
            members.append((len(members), walk_terms(shape, _switching_vector(g, order))))
    count = 0
    colliding = []
    pending = [((n,), members)]
    while pending:
        key, part = pending.pop()
        if len(part) == 1 or len(key) == n:
            count += 1
            if len(part) > 1:
                colliding.append((key, part))
            continue
        split: dict[int, list] = {}
        for member in part:
            split.setdefault(next(member[1]), []).append(member)
        pending.extend((key + (term,), sub) for term, sub in split.items())
    colliding.sort(key=lambda item: item[1][0][0])
    mask = (1 << (n - 1)) - 1
    groups = {
        key: [_signing(candidates[i >> (n - 1)], i & mask) for i, _ in part]
        for key, part in colliding
    }
    return count, groups


def exhaustive_dgs_check(n: int) -> tuple[ExhaustiveCheckReport, ...]:
    """Confirm every certified tree of order n against every signed tree of
    that order: one report per certified tree, in pool order.

    Only trees with a perfect matching are certified.  Any other tree is
    never certified: for odd n it has odd order, and for n >= 2 its charpoly
    is its matching polynomial, whose constant term is +-(number of perfect
    matchings) = 0, so x divides phi properly and phi is reducible.  The
    matched trees are grouped by their certificates' phi, pool order kept;
    a certified phi has phi(0) = +-1, and phi(0) is a spectral invariant,
    so its group holds every tree cospectral with it.  Those are the
    candidates (all signings of a tree share its adjacency charpoly, so
    nothing else can be generalized cospectral with a signing of it).
    Their signings are bucketed once per class by walk key, which on a
    common charpoly is equivalent to the complement charpoly (see
    sgraph.walk_key), and every bucket must consist of pairwise-isomorphic
    signed trees.  Each certified tree gets its class's report.
    """
    classes: dict[IntPolynomial, list[SignedGraph]] = {}
    certified = []  # (tree, phi) in pool order
    for tree in enumerate_trees(n).trees:
        if not has_perfect_matching(tree):
            continue
        cert = certify_tree(tree)
        classes.setdefault(cert.charpoly, []).append(tree)
        if cert.certified:
            certified.append((tree, cert.charpoly))
    reports: dict[IntPolynomial, ExhaustiveCheckReport] = {}
    for tree, phi in certified:
        if phi in reports:
            continue
        candidates = tuple(classes[phi])
        count, groups = _walk_key_groups(candidates)
        ok, counterexamples = _check_spectrum_groups(groups)
        reports[phi] = ExhaustiveCheckReport(
            tree=tree,
            n=n,
            ok=ok,
            counterexamples=tuple(counterexamples),
            candidate_trees=len(candidates),
            signings_scanned=len(candidates) << (n - 1),
            spectrum_groups=count,
            gc_pairs=tuple(_structure_records(groups)),
        )
    return tuple(replace(reports[phi], tree=tree) for tree, phi in certified)
