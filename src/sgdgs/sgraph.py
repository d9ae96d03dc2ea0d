"""Signed graphs: construction, bipartition, switching, balance, isomorphism.

Vertices are 1-indexed; edges are (u, v, sign) with u < v and sign in
{+1, -1}.  Values are immutable and all operations are pure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

from .errors import NotBipartiteError, NotTreeError
from .linalg import IntMatrix


@dataclass(frozen=True)
class SignedGraph:
    """A graph with +1/-1 edge signs; the underlying graph is simple."""

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vertex count must be >= 1")
        canon = []
        seen = set()
        for u, v, s in self.edges:
            if u > v:
                u, v = v, u
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge ({u},{v}) out of range 1..{self.n}")
            if s not in (1, -1):
                raise ValueError(f"edge sign must be +1 or -1, got {s}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            canon.append((u, v, s))
        canon.sort()
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> IntMatrix:
        a = [[0] * self.n for _ in range(self.n)]
        for u, v, s in self.edges:
            a[u - 1][v - 1] = s
            a[v - 1][u - 1] = s
        return IntMatrix(a)

    def underlying(self) -> "SignedGraph":
        """Same graph with every sign set to +1."""
        return SignedGraph(self.n, tuple((u, v, 1) for u, v, _ in self.edges))

    def neighbor_lists(self) -> list[list[tuple[int, int]]]:
        """adj[v] = [(neighbor, sign), ...] for v in 1..n (index 0 unused)."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n + 1)]
        for u, v, s in self.edges:
            adj[u].append((v, s))
            adj[v].append((u, s))
        return adj


@dataclass(frozen=True)
class Bipartition:
    """Disjoint covering vertex parts; every edge crosses them."""

    left: tuple[int, ...]
    right: tuple[int, ...]


@dataclass(frozen=True)
class BalanceResult:
    balanced: bool
    switching: Optional[tuple[int, ...]] = None  # diagonal of +-1, D A D >= 0
    unbalanced_cycle: Optional[tuple[int, ...]] = None  # closed walk, odd -1 count


# -- parity 2-colorings (shared by bipartition and balance) --------------------


def _parity_coloring(g: SignedGraph, weight):
    """2-color vertices so that color(u) xor color(v) == weight(edge).

    Returns (colors, None) on success (colors[v] in {0,1}, index 0 unused),
    or (None, cycle) where cycle is a closed walk of odd total weight.
    """
    adj = g.neighbor_lists()
    color = [None] * (g.n + 1)
    parent = [0] * (g.n + 1)
    depth = [0] * (g.n + 1)
    for root in range(1, g.n + 1):
        if color[root] is not None:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, s in adj[u]:
                w = weight(s)
                if color[v] is None:
                    color[v] = color[u] ^ w
                    parent[v] = u
                    depth[v] = depth[u] + 1
                    queue.append(v)
                elif color[v] != color[u] ^ w:
                    return None, _close_cycle(u, v, parent, depth)
    return color, None


def _close_cycle(u: int, v: int, parent, depth) -> tuple[int, ...]:
    pu, pv = [u], [v]
    a, b = u, v
    while depth[a] > depth[b]:
        a = parent[a]
        pu.append(a)
    while depth[b] > depth[a]:
        b = parent[b]
        pv.append(b)
    while a != b:
        a = parent[a]
        b = parent[b]
        pu.append(a)
        pv.append(b)
    pv.pop()  # drop the shared meeting vertex from one side
    return tuple(pu + list(reversed(pv)) + [u])


def bipartition(g: SignedGraph) -> Bipartition:
    """2-coloring by breadth-first layering; vertices keep input order.

    Raises NotBipartiteError carrying an odd closed walk when impossible.
    """
    colors, cycle = _parity_coloring(g, lambda s: 1)
    if colors is None:
        raise NotBipartiteError(cycle)
    left = tuple(v for v in range(1, g.n + 1) if colors[v] == 0)
    right = tuple(v for v in range(1, g.n + 1) if colors[v] == 1)
    return Bipartition(left, right)


def bipartite_adjacency(g: SignedGraph, b: Bipartition) -> IntMatrix:
    """The |left| x |right| block M with A = [[O, M], [M^T, O]] after the
    part-then-index vertex relabeling."""
    _check_bipartition(g, b)
    pos_left = {v: i for i, v in enumerate(b.left)}
    pos_right = {v: j for j, v in enumerate(b.right)}
    m = [[0] * len(b.right) for _ in range(len(b.left))]
    for u, v, s in g.edges:
        if u in pos_left:
            m[pos_left[u]][pos_right[v]] = s
        else:
            m[pos_left[v]][pos_right[u]] = s
    return IntMatrix(m)


def _check_bipartition(g: SignedGraph, b: Bipartition):
    left, right = set(b.left), set(b.right)
    if left & right or len(left) + len(right) != g.n:
        raise ValueError("parts must be disjoint and cover all vertices")
    if not left or not right:
        raise ValueError("both parts must be nonempty")
    for u, v, _ in g.edges:
        if (u in left) == (v in left):
            raise ValueError(f"edge ({u},{v}) does not cross the bipartition")


def from_bipartite_adjacency(m: IntMatrix) -> SignedGraph:
    """Graph with left part 1..r and right part r+1..r+c built from M."""
    edges = []
    for i in range(m.rows):
        for j in range(m.cols):
            s = m[i, j]
            if s == 0:
                continue
            if s not in (1, -1):
                raise ValueError("bipartite-adjacency entries must be 0 or +-1")
            edges.append((i + 1, m.rows + j + 1, s))
    return SignedGraph(m.rows + m.cols, tuple(edges))


def part_sorted_adjacency(g: SignedGraph, b: Optional[Bipartition] = None) -> IntMatrix:
    """Adjacency in block form [[O, M], [M^T, O]] under part-sorted labels."""
    if b is None:
        b = bipartition(g)
    return from_bipartite_adjacency(bipartite_adjacency(g, b)).adjacency()


# -- walk counts ------------------------------------------------------------------


def walk_terms(edges: Sequence[tuple[int, int, int]], x: Sequence[int]) -> Iterator[int]:
    """x^T A x, x^T A^2 x, ... without end, for the signed graph with these
    edges; x is indexed by vertex (slot 0 unused, zero).

    With y_0 = x and y_(j+1) = A y_j, the terms are
    w_(2j+1) = y_j^T A y_j = 2 sum_edges s_uv y_j[u] y_j[v] and
    w_(2j+2) = y_(j+1) . y_(j+1): one sparse mat-vec per two terms.
    """
    y = x
    while True:
        yield 2 * sum([s * y[u] * y[v] for u, v, s in edges])
        z = [0] * len(y)
        for u, v, s in edges:
            z[u] += s * y[v]
            z[v] += s * y[u]
        y = z
        yield sum([t * t for t in y])


def walk_key(g: SignedGraph) -> tuple[int, ...]:
    """Walk counts (w_0, ..., w_(n-1)) with w_k = e^T A^k e.

    Among graphs with equal adjacency charpoly phi_A, equal walk keys is
    equivalent to equal complement charpolys, so (phi_A, walk key) buckets
    exactly as the generalized spectrum does.  Proof: with y = -x - 1,
    xI - (J - I - A) = -[(yI - A) + e e^T], so by the matrix determinant
    lemma and the Neumann series of (yI - A)^-1 in 1/y,

        phi_(J-I-A)(x) = (-1)^n phi_A(y) (1 + sum_(k>=0) w_k y^(-k-1)).

    Given phi_A, the complement charpoly therefore fixes every w_k (the
    Laurent expansion at y = infinity is unique) and every w_k fixes it.
    By Cayley-Hamilton, phi_A(A) = 0, so with phi_A = sum_j c_j x^j and
    c_n = 1, w_(k+n) = -sum_(j<n) c_j w_(k+j): the w_k with k < n fix all
    others.  (This is the walk-matrix framework of Wang & Xu, Europ. J.
    Combin. 2006.)
    """
    e = [0] + [1] * g.n
    return (g.n,) + tuple(islice(walk_terms(g.edges, e), g.n - 1))


# -- switching and balance ------------------------------------------------------


def switching_diagonal(n: int, subset: Iterable[int]) -> tuple[int, ...]:
    """Diagonal of the +-1 switching matrix for the cut (subset, rest)."""
    chosen = set(subset)
    for v in chosen:
        if not (1 <= v <= n):
            raise ValueError(f"vertex {v} out of range 1..{n}")
    return tuple(-1 if v in chosen else 1 for v in range(1, n + 1))


def switch(g: SignedGraph, subset: Iterable[int]) -> SignedGraph:
    """Negate the signs of all edges crossing (subset, complement)."""
    chosen = set(subset)
    for v in chosen:
        if not (1 <= v <= g.n):
            raise ValueError(f"vertex {v} out of range 1..{g.n}")
    edges = tuple(
        (u, v, -s if (u in chosen) != (v in chosen) else s) for u, v, s in g.edges
    )
    return SignedGraph(g.n, edges)


def is_balanced(g: SignedGraph) -> BalanceResult:
    """Balance test: every cycle carries an even number of negative edges.

    On success the certificate D satisfies D A D = |A| entrywise; otherwise
    an unbalanced closed walk is returned.
    """
    colors, cycle = _parity_coloring(g, lambda s: 1 if s < 0 else 0)
    if colors is None:
        return BalanceResult(False, unbalanced_cycle=cycle)
    diag = tuple(1 if colors[v] == 0 else -1 for v in range(1, g.n + 1))
    return BalanceResult(True, switching=diag)


# -- connectivity ----------------------------------------------------------------


def is_connected(g: SignedGraph) -> bool:
    adj = g.neighbor_lists()
    seen = {1}
    queue = deque([1])
    while queue:
        u = queue.popleft()
        for v, _ in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == g.n


def is_tree(g: SignedGraph) -> bool:
    return g.m == g.n - 1 and is_connected(g)


def require_tree(g: SignedGraph):
    if not is_tree(g):
        raise NotTreeError(f"underlying graph is not a tree (n={g.n}, m={g.m})")


def has_perfect_matching(g: SignedGraph) -> bool:
    """Whether a tree has a perfect matching (a tree has at most one).

    Greedy leaf matching, O(n) and exact on trees: a leaf can only be
    matched to its one neighbour, so match the two, delete both, and go on
    with the forest that is left.  A vertex with no neighbour left can
    never be matched.  Every vertex is stacked once it has at most one
    neighbour left, and a nonempty forest has such a vertex, so the loop
    ends only when every vertex is matched.
    """
    require_tree(g)
    adj = g.neighbor_lists()
    degree = [len(nbrs) for nbrs in adj]  # unmatched neighbours
    matched = [False] * (g.n + 1)
    leaves = [v for v in range(1, g.n + 1) if degree[v] <= 1]
    while leaves:
        v = leaves.pop()
        if matched[v]:
            continue
        mate = next((u for u, _ in adj[v] if not matched[u]), None)
        if mate is None:
            return False
        matched[v] = matched[mate] = True
        for w, _ in adj[mate]:
            if not matched[w]:
                degree[w] -= 1
                if degree[w] == 1:
                    leaves.append(w)
    return True


# -- canonical form and isomorphism ----------------------------------------------


def _tree_roots(g: SignedGraph) -> list[tuple[int, int]]:
    """The AHU roots as (vertex, excluded neighbour) pairs: [(c, 0)] for a
    central tree, [(c1, c2), (c2, c1)] for a bicentral one."""
    if g.n == 1:
        return [(1, 0)]
    adj = g.neighbor_lists()
    degree = [len(adj[v]) for v in range(g.n + 1)]
    layer = [v for v in range(1, g.n + 1) if degree[v] == 1]
    remaining = g.n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            degree[v] = 0
            for u, _ in adj[v]:
                if degree[u] > 1:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt
    if len(layer) == 1:
        return [(layer[0], 0)]
    c1, c2 = sorted(layer)
    return [(c1, c2), (c2, c1)]


def _sign_char(s: int) -> str:
    return "+" if s > 0 else "-"


def _encode(adj, v: int, parent: int) -> str:
    """AHU token of the subtree at v (away from parent): each child token
    is prefixed by the sign of its edge to v, and the tokens are sorted."""
    tokens = sorted(_sign_char(s) + _encode(adj, u, v) for u, s in adj[v] if u != parent)
    return "(" + "".join(tokens) + ")"


def tree_canonical_form(g: SignedGraph) -> str:
    """Canonical string of a signed tree: AHU encoding where every child
    token is prefixed by the sign of its edge to the parent."""
    require_tree(g)
    adj = g.neighbor_lists()
    roots = _tree_roots(g)
    if len(roots) == 1:
        return _encode(adj, *roots[0])
    c1, c2 = roots[0]
    s = next(s for u, s in adj[c1] if u == c2)
    halves = sorted([_encode(adj, c1, c2), _encode(adj, c2, c1)])
    return "[" + _sign_char(s) + halves[0] + halves[1] + "]"


def _tree_isomorphism(g: SignedGraph, h: SignedGraph) -> Optional[tuple[int, ...]]:
    """Read the bijection off the canonical encoding.

    Equal canonical forms give equal sorted token lists at the roots and,
    below each pair of matched vertices, equal sorted lists of sign-prefixed
    child tokens, so zipping the sorted lists pairs isomorphic subtrees.
    """
    if tree_canonical_form(g) != tree_canonical_form(h):
        return None
    adj_g, adj_h = g.neighbor_lists(), h.neighbor_lists()

    def ranked_roots(graph, adj):
        return sorted((_encode(adj, v, p), v, p) for v, p in _tree_roots(graph))

    def ranked_children(adj, v, parent):
        return sorted((_sign_char(s) + _encode(adj, u, v), u, v) for u, s in adj[v] if u != parent)

    mapping = [0] * (g.n + 1)
    work = list(zip(ranked_roots(g, adj_g), ranked_roots(h, adj_h)))
    while work:
        (_, u, pu), (_, v, pv) = work.pop()
        mapping[u] = v
        work.extend(zip(ranked_children(adj_g, u, pu), ranked_children(adj_h, v, pv)))
    return tuple(mapping[1:])


def _backtracking_isomorphism(g: SignedGraph, h: SignedGraph) -> Optional[tuple[int, ...]]:
    def profile(graph: SignedGraph):
        pos = [0] * (graph.n + 1)
        neg = [0] * (graph.n + 1)
        for u, v, s in graph.edges:
            if s > 0:
                pos[u] += 1
                pos[v] += 1
            else:
                neg[u] += 1
                neg[v] += 1
        return [(pos[v], neg[v]) for v in range(1, graph.n + 1)]

    prof_g, prof_h = profile(g), profile(h)
    if sorted(prof_g) != sorted(prof_h):
        return None
    ag = g.adjacency()
    ah = h.adjacency()
    # assign g's vertices in order of decreasing degree for early pruning
    order = sorted(range(1, g.n + 1), key=lambda v: (-sum(prof_g[v - 1]), v))
    mapping = [0] * (g.n + 1)
    used = [False] * (h.n + 1)

    def backtrack(idx: int) -> bool:
        if idx == len(order):
            return True
        u = order[idx]
        for v in range(1, h.n + 1):
            if used[v] or prof_h[v - 1] != prof_g[u - 1]:
                continue
            ok = True
            for w in order[:idx]:
                if ag[u - 1, w - 1] != ah[v - 1, mapping[w] - 1]:
                    ok = False
                    break
            if ok:
                mapping[u] = v
                used[v] = True
                if backtrack(idx + 1):
                    return True
                mapping[u] = 0
                used[v] = False
        return False

    if backtrack(0):
        return tuple(mapping[1:])
    return None


def are_isomorphic(g: SignedGraph, h: SignedGraph) -> Optional[tuple[int, ...]]:
    """A vertex bijection pi with A_h[pi(u), pi(v)] = A_g[u, v], or None.

    Signs must match exactly; switching is not applied.  Signed trees are
    matched through their canonical encoding (O(n^2)), everything else by a
    backtracking search intended for n <= 20.
    """
    if g.n != h.n or g.m != h.m:
        return None
    sig_g = sorted(s for _, _, s in g.edges)
    sig_h = sorted(s for _, _, s in h.edges)
    if sig_g != sig_h:
        return None
    if is_tree(g):
        if not is_tree(h):
            return None
        return _tree_isomorphism(g, h)
    return _backtracking_isomorphism(g, h)


def permutation_matrix(pi: Sequence[int]) -> IntMatrix:
    """P with P[i][j] = 1 iff pi maps vertex i+1 to vertex j+1.

    With this convention P^T A(g) P = A(h) whenever pi = are_isomorphic(g, h).
    """
    n = len(pi)
    if sorted(pi) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..n")
    rows = [[0] * n for _ in range(n)]
    for i, image in enumerate(pi):
        rows[i][image - 1] = 1
    return IntMatrix(rows)


# -- .sg file format --------------------------------------------------------------


def parse_sg(text: str) -> SignedGraph:
    """Parse the signed edge-list format: 'n m' then m lines 'u v s'."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty .sg content")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("first line must be 'n m'")
    n, m = int(header[0]), int(header[1])
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for ln in lines[1 : m + 1]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"bad edge line: {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        tok = parts[2]
        if tok in ("+1", "+", "1"):
            s = 1
        elif tok in ("-1", "-"):
            s = -1
        else:
            raise ValueError(f"bad sign token: {tok!r}")
        edges.append((u, v, s))
    return SignedGraph(n, tuple(edges))


def format_sg(g: SignedGraph) -> str:
    """Canonical writer: edges sorted lexicographically, signs as +1/-1."""
    lines = [f"{g.n} {g.m}"]
    for u, v, s in g.edges:
        lines.append(f"{u} {v} {'+1' if s > 0 else '-1'}")
    return "\n".join(lines) + "\n"


def read_sg(path) -> SignedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sg(fh.read())


def write_sg(path, g: SignedGraph):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_sg(g))
