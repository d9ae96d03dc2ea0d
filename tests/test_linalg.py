"""Exact matrix arithmetic: spec examples, invariants, format round-trips."""

import random
from fractions import Fraction

import pytest

from sgdgs import kernels
from sgdgs.errors import DimensionError, SingularMatrixError
from sgdgs.intpoly import IntPolynomial
from sgdgs.linalg import (
    IntMatrix,
    RatMatrix,
    charpoly,
    complement_matrix,
    det,
    format_matrix,
    parse_matrix,
    solve,
)
from sgdgs.datasets import REMARK1_CHARPOLY, remark1_pair
from sgdgs.search import enumerate_trees
from sgdgs.sgraph import SignedGraph, permutation_matrix
from sgdgs.spectra import walk_matrix

from oracles import cofactor_charpoly, fraction_det, fraction_inverse, mat_mul


def path_graph(n, sign=1):
    return SignedGraph(n, tuple((i, i + 1, sign) for i in range(1, n)))


def test_det_examples():
    assert det(IntMatrix([[0, 1], [1, 0]])) == -1
    assert det(IntMatrix.identity(5)) == 1
    # the end-swapping automorphism of the 4-path fixes e, forcing det W = 0
    assert det(walk_matrix(path_graph(4).adjacency())) == 0


def test_det_requires_square():
    with pytest.raises(DimensionError):
        det(IntMatrix([[1, 2, 3], [4, 5, 6]]))


def test_charpoly_examples():
    assert charpoly(IntMatrix([[0, 1], [1, 0]])) == IntPolynomial([-1, 0, 1])
    assert charpoly(IntMatrix.zeros(4, 4)) == IntPolynomial([0, 0, 0, 0, 1])
    g, _ = remark1_pair()
    assert charpoly(g.adjacency()) == REMARK1_CHARPOLY


def test_charpoly_against_cofactor_oracle():
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        assert list(charpoly(m).coeffs) == cofactor_charpoly(m.to_lists())


def test_det_against_fraction_elimination_oracle():
    rng = random.Random(202)
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert det(IntMatrix(rows)) == fraction_det(rows)


def test_det_transpose_invariant():
    rng = random.Random(303)
    for _ in range(25):
        n = rng.randint(1, 12)
        m = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        assert det(m) == det(m.T)


def test_charpoly_conjugation_and_trace_invariants():
    rng = random.Random(404)
    for _ in range(25):
        n = rng.randint(2, 8)
        m = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        p = permutation_matrix(pi)
        assert charpoly(p.T @ m @ p) == charpoly(m)
        trace = sum(m[i, i] for i in range(n))
        assert charpoly(m).coefficient(n - 1) == -trace


def _scaled(m, c):
    return IntMatrix([[c * x for x in row] for row in m.data])


def test_solve_examples():
    i3 = IntMatrix.identity(3)
    assert solve(i3, i3) == (1, i3)
    # X / d = diag(1/2, 1/4)
    assert solve(IntMatrix([[2, 0], [0, 4]]), IntMatrix.identity(2)) == (
        8,
        IntMatrix([[4, 0], [0, 2]]),
    )
    g, _ = remark1_pair()
    w = walk_matrix(g.adjacency())
    d, x = solve(w, IntMatrix.identity(18))
    assert d == det(w)
    assert w @ x == _scaled(IntMatrix.identity(18), d)


def test_solve_singular():
    with pytest.raises(SingularMatrixError) as info:
        solve(IntMatrix([[1, 1], [1, 1]]), IntMatrix.identity(2))
    assert info.value.determinant == 0


def test_solve_involution():
    """(M^-1)^-1 = M: with X = adj M = d M^-1, solving X Y = e d I gives
    Y = e M, and e = det adj M = d^(n-1)."""
    rng = random.Random(505)
    done = 0
    while done < 15:
        n = rng.randint(1, 6)
        m = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        try:
            d, x = solve(m, IntMatrix.identity(n))
        except SingularMatrixError:
            continue
        e, y = solve(x, _scaled(IntMatrix.identity(n), d))
        assert e == d ** (n - 1)
        assert y == _scaled(m, e)
        done += 1


def test_solve_against_fraction_gauss_jordan_oracle():
    rng = random.Random(606)
    singular = 0
    for _ in range(60):
        n = rng.randint(1, 7)
        k = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        rhs = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(n)]
        inverse = fraction_inverse(rows)
        if inverse is None:
            singular += 1
            with pytest.raises(SingularMatrixError):
                solve(IntMatrix(rows), IntMatrix(rhs))
            continue
        d, x = solve(IntMatrix(rows), IntMatrix(rhs))
        assert d == fraction_det(rows)
        assert [[Fraction(v, d) for v in row] for row in x.data] == mat_mul(inverse, rhs)
    assert singular > 0


def test_complement_matrix_examples():
    assert complement_matrix(IntMatrix.zeros(2, 2)) == IntMatrix([[0, 1], [1, 0]])
    j_minus_i = IntMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert complement_matrix(j_minus_i) == IntMatrix.zeros(3, 3)


def test_remark1_conjugation_by_printed_q():
    from sgdgs.datasets import remark1_printed_q

    g, h = remark1_pair()
    level, n = remark1_printed_q()
    assert n.T @ g.adjacency() @ n == _scaled(h.adjacency(), level**2)


def test_matmul_dimension_error():
    with pytest.raises(DimensionError):
        IntMatrix([[1, 2]]) @ IntMatrix([[1, 2]])


def test_matrix_text_roundtrip():
    m = IntMatrix([[1, -2, 3], [0, 5, -6]])
    assert parse_matrix(format_matrix(m)) == m
    r = RatMatrix([["1/2", "-3/4"], ["5", "0"]])
    assert parse_matrix(format_matrix(r)) == r


def _dp_and_berkowitz_agree(rows):
    dp = kernels._matching_charpoly(rows)
    assert dp is not None, rows  # the DP must take every forest
    assert dp == kernels._berkowitz(rows) == kernels.charpoly_coeffs(rows), rows


def test_tree_charpoly_dp_matches_berkowitz_on_all_small_trees():
    for n in range(1, 12):
        for tree in enumerate_trees(n).trees:
            _dp_and_berkowitz_agree(tree.adjacency().to_lists())


def test_forest_charpoly_dp_matches_berkowitz_on_random_forests():
    rng = random.Random(707)
    for trial in range(300):
        n = rng.randint(1, 16)
        labels = list(range(n))
        rng.shuffle(labels)
        rows = [[0] * n for _ in range(n)]
        for v in range(1, n):
            if rng.random() < 0.15:
                continue  # v starts a new component
            u = rng.randrange(v)
            w = rng.choice((-1, 1)) * (1 if trial % 2 else rng.randint(1, 5))
            rows[labels[u]][labels[v]] = rows[labels[v]][labels[u]] = w
        _dp_and_berkowitz_agree(rows)


def test_non_forest_inputs_take_berkowitz():
    cycle = path_graph(5).adjacency().to_lists()
    cycle[0][4] = cycle[4][0] = -1
    # a triangle beside a path: fewer than n edges, but not a forest
    triangle = [[0] * 6 for _ in range(6)]
    for u, v in ((0, 1), (1, 2), (0, 2), (3, 4)):
        triangle[u][v] = triangle[v][u] = 1
    diagonal = path_graph(5).adjacency().to_lists()
    diagonal[2][2] = 3
    asymmetric = path_graph(5).adjacency().to_lists()
    asymmetric[3][2] = 2
    for rows in (cycle, triangle, diagonal, asymmetric):
        assert kernels._matching_charpoly(rows) is None, rows
        assert kernels.charpoly_coeffs(rows) == cofactor_charpoly(rows)
