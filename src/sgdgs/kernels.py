"""Exact integer kernels: characteristic polynomial, and determinant and
linear solve by one fraction-free elimination.

All operate on plain ``list[list[int]]`` row data and Python big ints, and
every intermediate value is exact.  ``charpoly_coeffs`` chooses its
algorithm from the input: a matching-polynomial DP for symmetric,
zero-diagonal matrices whose graph is a forest (every tree adjacency, signed
or weighted), division-free Berkowitz for everything else.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InternalInvariantError


def backend() -> str:
    """Name of the kernel implementation: always 'pure' (Python integers)."""
    return "pure"


def charpoly_coeffs(rows: list[list[int]]) -> list[int]:
    """Coefficients of det(xI - A), ascending degree."""
    coeffs = _matching_charpoly(rows)
    return _berkowitz(rows) if coeffs is None else coeffs


def poly_add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Sum of two ascending coefficient sequences; trailing zeros are kept."""
    if len(a) < len(b):
        a, b = b, a
    return [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]


def poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Dense product of two ascending coefficient sequences; [] if either is empty."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _matching_charpoly(rows: list[list[int]]) -> list[int] | None:
    """det(xI - A) for a symmetric zero-diagonal A whose graph is a forest;
    None for any other input.

    On a forest the only spanning elementary subgraphs of Sachs' expansion
    are matchings, so det(xI - A) = sum_k (-1)^k m_k x^(n-2k), where m_k sums
    prod a_uv^2 over the k-matchings (Godsil & Gutman 1981).  The m_k come
    from a rooted DP: for each vertex v, the matching polynomials (in t, one
    power per matched edge) of v's subtree with v unmatched and with v
    matched, merged child by child.  O(n^2) coefficient operations.
    """
    n = len(rows)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    edges = 0
    for i in range(n):
        row = rows[i]
        if row[i]:
            return None
        for j in range(i + 1, n):
            a = row[j]
            if a != rows[j][i]:
                return None
            if a:
                edges += 1
                if edges >= n:  # a forest has at most n - 1 edges
                    return None
                adj[i].append((j, a * a))
                adj[j].append((i, a * a))
    # depth-first order; the graph is acyclic iff edges = n - components
    parent: list[int | None] = [None] * n  # -1 for a root
    weight = [0] * n  # a_(v, parent v)^2
    order = []
    roots = []
    for root in range(n):
        if parent[root] is not None:
            continue
        roots.append(root)
        parent[root] = -1
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for u, w2 in adj[v]:
                if parent[u] is None:
                    parent[u] = v
                    weight[u] = w2
                    stack.append(u)
    if edges != n - len(roots):
        return None
    free = [[1] for _ in range(n)]  # v unmatched
    matched: list[list[int]] = [[] for _ in range(n)]  # v matched to a child
    for v in reversed(order):  # every child before its parent
        p = parent[v]
        if p < 0:
            continue
        total = poly_add(free[v], matched[v])
        pair = [0] + [weight[v] * c for c in poly_mul(free[p], free[v])]
        matched[p] = poly_add(poly_mul(matched[p], total), pair)
        free[p] = poly_mul(free[p], total)
    m = [1]
    for r in roots:
        m = poly_mul(m, poly_add(free[r], matched[r]))
    out = [0] * (n + 1)
    for k, mk in enumerate(m):
        out[n - 2 * k] = -mk if k % 2 else mk
    return out


def _berkowitz(rows: list[list[int]]) -> list[int]:
    """Coefficients of det(xI - A), ascending degree, via Berkowitz.

    Division-free: the k-th step extends the characteristic polynomial of
    the leading principal k x k submatrix by one Toeplitz product, so all
    intermediates stay integers.
    """
    n = len(rows)
    poly = [1]  # descending coefficients, charpoly of the empty matrix
    for k in range(n):
        r = rows[k]
        neg_row = [-r[j] for j in range(k)]
        col = [rows[i][k] for i in range(k)]
        # items = [1, -a_kk, R·C, R·M·C, ..., R·M^(k-1)·C] with R = -A[k,:k],
        # C = A[:k,k], M = A[:k,:k]
        items = [1, -r[k]]
        v = col
        for step in range(k):
            acc = 0
            for j in range(k):
                acc += neg_row[j] * v[j]
            items.append(acc)
            if step == k - 1:
                break
            v = [sum(rows[i][j] * v[j] for j in range(k)) for i in range(k)]
        new = [0] * (k + 2)
        for i in range(k + 2):
            acc = 0
            for j in range(max(0, i - k - 1), min(i, k) + 1):
                acc += items[i - j] * poly[j]
            new[i] = acc
        poly = new
    poly.reverse()
    return poly


def det_int(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix: ``bareiss`` with no right-hand side."""
    return bareiss(rows)[0]


def bareiss(
    rows: list[list[int]], rhs: list[list[int]] | None = None
) -> tuple[int, list[list[int]] | None]:
    """Fraction-free elimination of M = rows, carrying the columns of R = rhs.

    Returns (d, X) with d = det M and M X = d R, so X = adj(M) R is an
    integer matrix with one column per column of R (none without R), or
    None when d = 0.

    Bareiss two-step scheme (Math. Comp. 22, 1968): every division by the
    previous pivot is exact, so entries remain integers throughout.  The
    eliminated rows are rational combinations of the rows of [M | R], so
    the triangular system U X = d R' they leave has the integer solution
    X, and every division of the back-substitution is exact as well.
    """
    n = len(rows)
    if n == 0:
        return 1, []
    width = len(rhs[0]) if rhs else 0
    total = n + width
    a = [list(row) + (list(rhs[i]) if rhs else []) for i, row in enumerate(rows)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0, None
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, total):
                row_i[j] = (pivot * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    d = sign * a[n - 1][n - 1]
    if d == 0:
        return 0, None
    x = [[0] * width for _ in range(n)]
    for i in range(n - 1, -1, -1):
        row = a[i]
        pivot = row[i]
        for c in range(width):
            acc = d * row[n + c]
            for j in range(i + 1, n):
                if row[j]:
                    acc -= row[j] * x[j][c]
            q, r = divmod(acc, pivot)
            if r:
                raise InternalInvariantError("inexact division in Bareiss back-substitution")
            x[i][c] = q
    return d, x
