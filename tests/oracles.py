"""Independent brute-force oracles for the test suite.

Everything here is deliberately self-contained (own polynomial and
determinant arithmetic) so a bug in the package cannot hide inside its
own checker.  Intended scales are tiny: degree <= 6 polynomials, n <= 7
matrices/graphs, Pruefer enumeration up to n = 8.  The Fraction
Gauss-Jordan definitions of Q = W_A W_B^-1, its Fraction classification
and the number-field eigenvector are the exception: they are what the
integer paths replaced, and run up to n = 18.  So is Rabin's test mod p,
which Ben-Or's test replaced, run up to degree 12 and p < 200, and the
perfect-matching search over edge subsets, run up to n = 18.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations, product
from operator import or_

# -- tiny dense polynomial helpers (ascending int lists) -------------------------


def p_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def p_add(a, b):
    n = max(len(a), len(b))
    return p_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def p_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return p_trim(out)


def p_scale(a, s):
    return p_trim([s * x for x in a])


def cofactor_charpoly(rows):
    """det(xI - A) by recursive cofactor expansion over Z[x] (n <= 6)."""
    n = len(rows)
    entries = [
        [p_trim([-rows[i][j], 1] if i == j else [-rows[i][j]]) for j in range(n)]
        for i in range(n)
    ]

    def poly_det(mat):
        size = len(mat)
        if size == 1:
            return mat[0][0]
        acc = []
        for j in range(size):
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            term = p_mul(mat[0][j], poly_det(minor))
            acc = p_add(acc, term if j % 2 == 0 else p_scale(term, -1))
        return acc

    return poly_det(entries)


def fraction_det(rows):
    """Determinant by plain fractional Gaussian elimination."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    detval = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            detval = -detval
        detval *= a[col][col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    assert detval.denominator == 1
    return int(detval)


def sylvester_resultant(f, g):
    """Res(f, g) as the Sylvester determinant (f, g ascending int lists)."""
    f, g = p_trim(list(f)), p_trim(list(g))
    m, n = len(f) - 1, len(g) - 1
    if m < 0 or n < 0:
        raise ValueError("zero polynomial")
    if m == 0 and n == 0:
        return 1
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    size = m + n
    fd = list(reversed(f))
    gd = list(reversed(g))
    rows = []
    for i in range(n):
        rows.append([0] * i + fd + [0] * (n - 1 - i))
    for j in range(m):
        rows.append([0] * j + gd + [0] * (m - 1 - j))
    assert all(len(r) == size for r in rows)
    return fraction_det(rows)


def root_product_discriminant(roots):
    """prod_(i<j) (r_i - r_j)^2 for a monic polynomial with known roots."""
    acc = 1
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            acc *= (roots[i] - roots[j]) ** 2
    return acc


def poly_from_roots(roots):
    out = [1]
    for r in roots:
        out = p_mul(out, [-r, 1])
    return out


# -- Fraction Gauss-Jordan: the conjugator Q and the symbolic eigenvector -------


def fraction_inverse(rows):
    """Exact inverse by Gauss-Jordan elimination over Fractions; None when
    the matrix is singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def mat_mul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def transpose(x):
    return [list(col) for col in zip(*x)]


def walk_matrix_rows(rows):
    """[e, Ae, ..., A^(n-1) e] as row lists."""
    v = [1] * len(rows)
    cols = [v]
    for _ in range(len(rows) - 1):
        v = [sum(a * b for a, b in zip(row, v)) for row in rows]
        cols.append(v)
    return transpose(cols)


def dense_walk_counts(rows, count):
    """[e^T A^k e for k < count] by dense mat-vecs."""
    v = [1] * len(rows)
    counts = []
    for _ in range(count):
        counts.append(sum(v))
        v = [sum(a * b for a, b in zip(row, v)) for row in rows]
    return counts


def full_key_groups(signings, key):
    """{key: members} filled in stream order: with key = walk_key, the
    buckets that _walk_key_groups' term-by-term refinement must reproduce
    for each phi class of exhaustive_dgs_check."""
    groups = {}
    for g in signings:
        groups.setdefault(key(g), []).append(g)
    return groups


def walk_conjugator(a, b):
    """(Q, orthogonal, regular, conjugates) for Q = W_A W_B^-1 over the
    rationals, or None when W_B is singular."""
    wb_inv = fraction_inverse(walk_matrix_rows(b))
    if wb_inv is None:
        return None
    q = mat_mul(walk_matrix_rows(a), wb_inv)
    n = len(a)
    qt = transpose(q)
    orthogonal = mat_mul(qt, q) == [[int(i == j) for j in range(n)] for i in range(n)]
    regular = all(sum(row) == 1 for row in q)
    conjugates = mat_mul(mat_mul(qt, a), q) == [list(row) for row in b]
    return q, orthogonal, regular, conjugates


def fraction_classify(q, split=None):
    """Reference structural classification of a Fraction matrix (row
    lists): {tag, is_permutation, is_signed_permutation, block_diagonal,
    anti_block_diagonal, q1, q2}, with q1 and q2 the Fraction blocks."""
    n = len(q)
    nonzero = [[(j, x) for j, x in enumerate(row) if x != 0] for row in q]
    signed = all(len(nz) == 1 and nz[0][1] in (1, -1) for nz in nonzero) and (
        len({nz[0][0] for nz in nonzero}) == n
    )
    perm = signed and all(nz[0][1] == 1 for nz in nonzero)
    block = anti = q1 = q2 = None
    if split is not None:
        top, bottom = range(split), range(split, n)

        def zero(rows, cols):
            return all(q[i][j] == 0 for i in rows for j in cols)

        def part(rows, cols):
            return [[q[i][j] for j in cols] for i in rows]

        block = zero(top, bottom) and zero(bottom, top)
        anti = zero(top, top) and zero(bottom, bottom)
        if block:
            q1, q2 = part(top, top), part(bottom, bottom)
        elif anti:
            q1, q2 = part(top, bottom), part(bottom, top)
    if perm:
        tag = "Permutation"
    elif signed:
        tag = "SignedPermutation"
    elif block:
        tag = "BlockDiagonal"
    elif anti:
        tag = "AntiBlockDiagonal"
    else:
        tag = "General"
    return {
        "tag": tag,
        "is_permutation": perm,
        "is_signed_permutation": signed,
        "block_diagonal": block,
        "anti_block_diagonal": anti,
        "q1": q1,
        "q2": q2,
    }


def fraction_regular_orthogonal(q):
    """Q^T Q = I and Q e = e over the rationals."""
    n = len(q)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    return mat_mul(transpose(q), q) == identity and all(sum(row) == 1 for row in q)


def _field_rem(a, phi):
    """a mod the monic phi (ascending), padded to deg phi Fractions."""
    d = len(phi) - 1
    r = [Fraction(x) for x in a] + [Fraction(0)] * max(0, d - len(a))
    for k in range(len(r) - 1, d - 1, -1):
        top = r[k]
        for j in range(d + 1):
            r[k - d + j] -= top * phi[j]
    return r[:d]


def _field_mul(a, b, phi):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _field_rem(out, phi)


def _field_inverse(a, phi):
    """a^-1 in Q[x]/(phi): solve (multiplication by a) z = 1."""
    d = len(phi) - 1
    basis = [[int(i == k) for i in range(d)] for k in range(d)]
    columns = [_field_mul(a, e, phi) for e in basis]
    inv = fraction_inverse(transpose(columns))
    return [row[0] for row in inv]


def kernel_eigenvector(rows, phi):
    """Eigenvector of the integer matrix A for alpha in Q[x]/(phi), phi =
    charpoly(A) monic irreducible (ascending ints): a kernel vector of
    alpha I - A by Gauss-Jordan over the field, scaled so that its first
    nonzero entry is 1.  Entries are coefficient lists of length deg phi."""
    n = len(rows)
    d = len(phi) - 1
    alpha = _field_rem([0, 1], phi)
    mat = [
        [
            [x - (rows[i][j] if k == 0 else 0) for k, x in enumerate(alpha)]
            if i == j
            else _field_rem([-rows[i][j]], phi)
            for j in range(n)
        ]
        for i in range(n)
    ]
    pivot_of_col = {}
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if any(mat[i][c])), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = _field_inverse(mat[r][c], phi)
        mat[r] = [_field_mul(x, inv, phi) for x in mat[r]]
        for i in range(n):
            if i != r and any(mat[i][c]):
                f = mat[i][c]
                mat[i] = [
                    [p - q for p, q in zip(x, _field_mul(f, y, phi))]
                    for x, y in zip(mat[i], mat[r])
                ]
        pivot_of_col[c] = r
        r += 1
    free = [c for c in range(n) if c not in pivot_of_col]
    assert free, "alpha I - A is invertible over the field"
    c0 = free[0]
    xi = [[Fraction(0)] * d for _ in range(n)]
    xi[c0] = _field_rem([1], phi)
    for c, piv in pivot_of_col.items():
        xi[c] = [-x for x in mat[piv][c0]]
    inv = _field_inverse(next(e for e in xi if any(e)), phi)
    return [_field_mul(e, inv, phi) for e in xi]


def field_scaled(u, c, phi):
    """c * u in Q[x]/(phi), entry by entry (coefficient lists)."""
    return [_field_mul(c, x, phi) for x in u]


def field_eigen_equation(rows, u, phi, sign=1):
    """Whether A u = sign * alpha u in Q[x]/(phi), row by row, for the
    integer matrix A and u a vector of coefficient lists."""
    d = len(phi) - 1
    alpha = _field_rem([0, 1], phi)
    return all(
        _field_rem([sum(x * v[k] for x, v in zip(row, u)) for k in range(d)], phi)
        == [sign * c for c in _field_mul(alpha, u_i, phi)]
        for row, u_i in zip(rows, u)
    )


def field_length_equality(m, u, phi):
    """w^T w == alpha u^T u in Q[x]/(phi) for w = M^T u, u a vector of
    coefficient lists."""
    zero = [Fraction(0)] * (len(phi) - 1)

    def dot(x, y):
        acc = zero
        for p, q in zip(x, y):
            acc = [s + t for s, t in zip(acc, _field_mul(p, q, phi))]
        return acc

    w = [
        [sum(row[j] * x for row, x in zip(m, col)) for col in zip(*u)]
        for j in range(len(m[0]))
    ]
    return dot(w, w) == _field_mul(_field_rem([0, 1], phi), dot(u, u), phi)


# -- brute-force irreducibility (monic, degree <= 6, small height) ----------------


def _divides(f, g):
    """Whether monic g divides f over Z (long division)."""
    r = list(f)
    dg = len(g) - 1
    while True:
        r = p_trim(r)
        if not r:
            return True
        if len(r) - 1 < dg:
            return False
        coef = r[-1]  # g is monic, so this is the quotient coefficient
        shift = len(r) - 1 - dg
        for i, gc in enumerate(g):
            r[shift + i] -= coef * gc


def brute_force_monic_factor(f):
    """A nontrivial monic factor of monic f found by bounded search, or None.

    Coefficient box from the Mignotte-style bound |b_i| <= 2^d * ||f||_2,
    pruned by divisibility of g(0) | f(0) and g(1) | f(1).
    """
    f = p_trim(list(f))
    n = len(f) - 1
    assert f[-1] == 1 and n >= 1
    norm = math.isqrt(sum(c * c for c in f)) + 1
    f0, f1 = f[0], sum(f)
    for d in range(1, n // 2 + 1):
        bound = (1 << d) * norm
        ranges = [range(-bound, bound + 1)] * d
        for tail in product(*ranges):
            g = list(tail) + [1]
            if f0 != 0 and (g[0] == 0 or f0 % g[0] != 0):
                continue
            g1 = sum(g)
            if f1 != 0 and (g1 == 0 or f1 % g1 != 0):
                continue
            if _divides(f, g):
                return g
    return None


# -- Rabin's irreducibility test mod p (monic, small p and degree) ------------------


def _fp_rem(a, b, p):
    """a mod b over F_p, b with a nonzero leading coefficient mod p."""
    r = [c % p for c in a]
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    for k in range(len(r) - 1, db - 1, -1):
        coef = r[k] * inv % p
        if coef:
            for j, bc in enumerate(b):
                r[k - db + j] = (r[k - db + j] - coef * bc) % p
    return p_trim(r[:db])


def _fp_gcd_degree(a, b, p):
    a, b = p_trim([c % p for c in a]), p_trim([c % p for c in b])
    while b:
        a, b = b, _fp_rem(a, b, p)
    return len(a) - 1


def _fp_frobenius_minus_x(k, f, p):
    """x^(p^k) - x mod the monic f over F_p, by square-and-multiply."""
    e, result, base = p**k, [1], _fp_rem([0, 1], f, p)
    while e:
        if e & 1:
            result = _fp_rem(p_mul(result, base), f, p)
        base = _fp_rem(p_mul(base, base), f, p)
        e >>= 1
    return _fp_rem(p_add(result, [0, -1]), f, p)


def rabin_is_irreducible(f, p):
    """Rabin's test (SIAM J. Comput. 9, 1980), the slow definition of
    intpoly._gf_is_irreducible: a monic f of degree n is irreducible mod p
    iff x^(p^n) = x mod f and gcd(f, x^(p^(n/q)) - x) = 1 for every prime
    q dividing n.  It always computes x^(p^n) in full."""
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    if _fp_frobenius_minus_x(n, f, p):
        return False
    m, q = n, 2
    while m > 1:
        if m % q == 0:
            if _fp_gcd_degree(f, _fp_frobenius_minus_x(n // q, f, p), p) != 0:
                return False
            while m % q == 0:
                m //= q
        q += 1
    return True


# -- graph oracles -----------------------------------------------------------------


def brute_force_isomorphism(n, edges_g, edges_h):
    """Permutation pi (1-indexed tuple) with signs preserved, or None (n <= 7)."""

    def norm(edges):
        return frozenset((min(u, v), max(u, v), s) for u, v, s in edges)

    target = norm(edges_h)
    for perm in permutations(range(1, n + 1)):
        mapped = frozenset(
            (min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1]), s)
            for u, v, s in edges_g
        )
        if mapped == target:
            return perm
    return None


def _unsigned_canonical(n, edges):
    """Canonical nested-tuple form of an unsigned free tree (independent AHU)."""
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    if n == 1:
        return ()
    # centers by leaf stripping
    degree = {v: len(adj[v]) for v in adj}
    layer = [v for v in adj if degree[v] <= 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            degree[v] = 0
            for u in adj[v]:
                if degree[u] > 1:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt

    def enc(v, parent):
        return tuple(sorted(enc(u, v) for u in adj[v] if u != parent))

    if remaining == 1 or len(layer) == 1:
        return enc(layer[0], 0)
    c1, c2 = sorted(layer)
    return tuple(sorted([enc(c1, c2), enc(c2, c1)]))


def _covered(edge_masks):
    return reduce(or_, edge_masks, 0)


def brute_force_has_perfect_matching(n, edges):
    """Whether some n/2 of the edges (u, v, ...) cover all n vertices, by
    search over edge subsets (n <= 18)."""
    if n % 2:
        return False
    masks = [(1 << e[0]) | (1 << e[1]) for e in edges]
    every = sum(1 << v for v in range(1, n + 1))
    return any(_covered(c) == every for c in combinations(masks, n // 2))


def matching_polynomial(n, edges):
    """sum_k (-1)^k m_k x^(n-2k), ascending, with m_k the number of k-edge
    matchings counted over edge subsets; a forest's adjacency charpoly
    (Sachs), for n <= 12."""
    masks = [(1 << e[0]) | (1 << e[1]) for e in edges]
    coeffs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        m_k = sum(bin(_covered(c)).count("1") == 2 * k for c in combinations(masks, k))
        coeffs[n - 2 * k] = (-1) ** k * m_k
    return tuple(coeffs)


def prufer_free_tree_count(n):
    """Number of free-tree isomorphism classes via full Pruefer enumeration."""
    if n == 1:
        return 1
    if n == 2:
        return 1
    seen = set()
    for seq in product(range(1, n + 1), repeat=n - 2):
        edges = decode_prufer_oracle(list(seq))
        seen.add(_unsigned_canonical(n, edges))
    return len(seen)


def decode_prufer_oracle(seq):
    """Independent naive Pruefer decoder: smallest current leaf each step."""
    n = len(seq) + 2
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(1, n + 1) if degree[u] == 1)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] = 0  # leaf leaves the tree
        degree[v] -= 1
    last = [u for u in range(1, n + 1) if degree[u] == 1]
    edges.append((min(last), max(last)))
    return edges
