"""Polynomial algebra: resultants, discriminants, irreducibility, factorization."""

import math
import random

import pytest

from sgdgs import intpoly
from sgdgs.datasets import (
    EXAMPLE1_CHARPOLY,
    REMARK1_CHARPOLY,
    REMARK2_CHARPOLY_FACTORS,
    remark2_printed_charpoly,
)
from sgdgs.errors import UndefinedInputError
from sgdgs.factorint import first_primes
from sgdgs.intpoly import (
    IntPolynomial,
    IrreducibilityVerdict,
    discriminant,
    factor,
    format_poly_line,
    is_irreducible,
    parse_poly,
    poly_gcd,
    resultant,
    squarefree_part,
)
from sgdgs.linalg import charpoly
from sgdgs.search import decode_pruefer, enumerate_trees
from sgdgs.sgraph import SignedGraph

from oracles import (
    brute_force_monic_factor,
    poly_from_roots,
    rabin_is_irreducible,
    root_product_discriminant,
    sylvester_resultant,
)

X = IntPolynomial.x()


def test_resultant_examples():
    assert resultant(X - 1, X + 1) == 2
    assert resultant(X**3 + 2 * X + 7, IntPolynomial.one()) == 1
    # 2^2 * f(-1/2) = 4 * 3/4 = 3
    assert resultant(X**2 + X + 1, 2 * X + 1) == 3


def test_resultant_undefined_for_two_zeros():
    with pytest.raises(UndefinedInputError):
        resultant(IntPolynomial.zero(), IntPolynomial.zero())


def test_resultant_against_sylvester_oracle():
    rng = random.Random(111)
    for _ in range(80):
        df, dg = rng.randint(1, 6), rng.randint(1, 6)
        f = IntPolynomial([rng.randint(-4, 4) for _ in range(df)] + [rng.randint(1, 4)])
        g = IntPolynomial([rng.randint(-4, 4) for _ in range(dg)] + [rng.randint(1, 4)])
        assert resultant(f, g) == sylvester_resultant(list(f.coeffs), list(g.coeffs))


def test_resultant_swap_sign_rule():
    rng = random.Random(112)
    for _ in range(30):
        df, dg = rng.randint(1, 5), rng.randint(1, 5)
        f = IntPolynomial([rng.randint(-3, 3) for _ in range(df)] + [rng.randint(1, 3)])
        g = IntPolynomial([rng.randint(-3, 3) for _ in range(dg)] + [rng.randint(1, 3)])
        assert resultant(f, g) == (-1) ** (f.degree * g.degree) * resultant(g, f)


def test_discriminant_examples():
    assert discriminant(X**2 - 1) == 4
    assert discriminant(X**2 + X + 1) == -3
    s = 261502945
    assert discriminant(EXAMPLE1_CHARPOLY) == 2**14 * s * s


def test_discriminant_degree_one_convention():
    assert discriminant(3 * X + 5) == 1
    with pytest.raises(UndefinedInputError):
        discriminant(IntPolynomial.one())


def test_discriminant_root_product():
    rng = random.Random(222)
    for _ in range(30):
        deg = rng.randint(2, 6)
        roots = rng.sample(range(-8, 9), deg)
        f = IntPolynomial(poly_from_roots(roots))
        assert discriminant(f) == root_product_discriminant(roots)


def test_discriminant_zero_iff_repeated_factor():
    rng = random.Random(333)
    for _ in range(60):
        deg = rng.randint(1, 10)
        f = IntPolynomial([rng.randint(-3, 3) for _ in range(deg)] + [rng.randint(1, 3)])
        g = poly_gcd(f, f.derivative())
        assert (discriminant(f) == 0) == (g.degree > 0)


def test_is_irreducible_examples():
    v = is_irreducible(X**2 - 1)
    assert v.status == "reducible" and v.witness in (X - 1, X + 1)
    # x^4 + 1 is reducible mod every prime: only the factorization path settles it
    v = is_irreducible(X**4 + 1)
    assert v.status == "irreducible" and v.method == "factorization"
    assert is_irreducible(EXAMPLE1_CHARPOLY).irreducible
    assert is_irreducible(REMARK1_CHARPOLY).irreducible
    assert not is_irreducible(remark2_printed_charpoly()).irreducible


def test_rabin_test_counts_match_gauss_formula():
    """Rabin's test mod p accepts exactly (1/n) sum_(d|n) mu(d) p^(n/d) of
    the p^n monic polynomials of degree n: degrees with one, two and a
    repeated prime divisor exercise every n/q exponent of the test."""

    def mobius(d):
        out, q = 1, 2
        while q * q <= d:
            if d % q == 0:
                d //= q
                if d % q == 0:
                    return 0
                out = -out
            q += 1
        return -out if d > 1 else out

    for p, top in ((2, 9), (3, 6), (5, 4)):
        for n in range(1, top + 1):
            expected = sum(mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
            count = 0
            for low in range(p**n):
                f = [(low // p**i) % p for i in range(n)] + [1]
                count += intpoly._gf_is_irreducible(f, p)
            assert count == expected, (p, n)


def _gauss_sweep():
    """Every monic polynomial of degree n over F_p, for p = 2 (n <= 9),
    3 (n <= 6) and 5 (n <= 4)."""
    for p, top in ((2, 9), (3, 6), (5, 4)):
        for n in range(1, top + 1):
            for low in range(p**n):
                yield [(low // p**i) % p for i in range(n)] + [1], p


def test_gf_is_irreducible_matches_rabin_oracle_on_gauss_sweep():
    checked = irreducible = 0
    for f, p in _gauss_sweep():
        verdict = intpoly._gf_is_irreducible(f, p)
        assert verdict == rabin_is_irreducible(f, p), (f, p)
        checked += 1
        irreducible += verdict
    assert checked == (2**10 - 2) + (3**7 - 3) // 2 + (5**5 - 5) // 4
    assert 0 < irreducible < checked


def _random_dense_polys():
    rng = random.Random(2024)
    for _ in range(120):
        deg = rng.randint(2, 12)
        yield IntPolynomial([rng.randint(-9, 9) for _ in range(deg)] + [rng.choice((1, 1, 2, -3))])


def _pruefer_psis():
    """psi with phi(x) = psi(x^2) for 200 seeded Pruefer trees with a perfect
    matching (phi(0) != 0), n even, 4 <= n <= 18."""
    rng = random.Random(1981)
    out = []
    while len(out) < 200:
        n = rng.randrange(4, 19, 2)
        edges = decode_pruefer([rng.randint(1, n) for _ in range(n - 2)])
        phi = charpoly(SignedGraph(n, tuple((u, v, 1) for u, v in edges)).adjacency())
        if phi.coefficient(0):
            out.append(IntPolynomial(phi.coeffs[::2]))
    return out


def test_is_irreducible_verdicts_unchanged_under_rabin_oracle(monkeypatch):
    """The kernel is exact, so is_irreducible stops at the same prime with
    either test: (status, method, prime, witness) are equal input by input."""
    inputs = list(_random_dense_polys()) + _pruefer_psis()
    fast = [is_irreducible(f) for f in inputs]
    monkeypatch.setattr(intpoly, "_gf_is_irreducible", rabin_is_irreducible)
    slow = [is_irreducible(f) for f in inputs]
    for f, a, b in zip(inputs, fast, slow):
        assert a == b, (f, a, b)
    methods = {v.method for v in fast}
    assert {"mod-p", "factorization"} <= methods
    assert any(v.method == "mod-p" and v.prime > 3 for v in fast)


def test_reducible_witness_divides():
    rng = random.Random(444)
    for _ in range(40):
        deg = rng.randint(2, 6)
        f = IntPolynomial([rng.randint(-4, 4) for _ in range(deg)] + [1])
        v = is_irreducible(f)
        if v.status == "reducible":
            assert 0 < v.witness.degree < f.primitive_part().degree
            from sgdgs.intpoly import try_exact_divide

            assert try_exact_divide(f.primitive_part(), v.witness) is not None


def test_is_irreducible_agrees_with_brute_force():
    rng = random.Random(555)
    checked = 0
    for _ in range(60):
        deg = rng.randint(2, 6)
        f = IntPolynomial([rng.randint(-4, 4) for _ in range(deg)] + [1])
        witness = brute_force_monic_factor(list(f.coeffs))
        assert is_irreducible(f).irreducible == (witness is None)
        checked += 1
    assert checked == 60


def _skip_matches_mod_p_loop(monkeypatch, f: IntPolynomial) -> bool:
    """When the mod-p skip applies to f (nonzero disc), check it against its
    definition; return whether it applied.

    The skipped call may run no Rabin test.  The unskipped call must run it
    on exactly the first 25 usable odd primes, fail on each, and reach the
    same verdict as the skipped call."""
    prim = f.primitive_part()
    disc = discriminant(prim)
    if disc == 0 or not intpoly._reducible_mod_every_odd_prime(prim):
        return False
    primes = [p for p in first_primes(2000)[1:] if (prim.lc * disc) % p][:25]
    rabin = intpoly._gf_is_irreducible
    results = []

    def spy(fp, p):
        results.append((p, rabin(fp, p)))
        return results[-1][1]

    with monkeypatch.context() as m:
        m.setattr(intpoly, "_gf_is_irreducible", spy)
        skipped = is_irreducible(f)
        assert results == []
        m.setattr(intpoly, "_reducible_mod_every_odd_prime", lambda g: False)
        looped = is_irreducible(f)
    assert results == [(p, False) for p in primes], f
    assert skipped == looped, (f, skipped, looped)
    return True


def test_mod_p_skip_on_tree_charpolys(monkeypatch):
    # a tree charpoly with nonzero disc is x * g(x) (odd n) or psi(x^2) with
    # constant term (-1)^(n/2) (even n, perfect matching): the skip applies
    nonzero_disc = skipped = 0
    for n in range(2, 13):
        for tree in enumerate_trees(n).trees:
            phi = charpoly(tree.adjacency())
            if discriminant(phi) != 0:
                nonzero_disc += 1
                skipped += _skip_matches_mod_p_loop(monkeypatch, phi)
    assert skipped == nonzero_disc > 0


def test_mod_p_skip_on_random_polynomials(monkeypatch):
    rng = random.Random(777)
    skipped = 0
    for i in range(200):
        if i % 2:
            g = [rng.randint(-5, 5) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 3)]
            f = X * IntPolynomial(g)
        else:
            m = rng.randint(1, 5)
            psi = [rng.randint(-5, 5) for _ in range(m)] + [rng.randint(1, 3)]
            if i % 4 == 0:  # make (-1)^m * f(0) * lc a square
                psi[0] = (-1) ** m * psi[-1] * rng.randint(1, 3) ** 2
            f = IntPolynomial(psi).compose_x_squared()
        if f.degree >= 2:
            skipped += _skip_matches_mod_p_loop(monkeypatch, f)
    assert skipped >= 100
    # a square c alone is not enough: with an odd coefficient the fast path
    # must still run, and it often settles the question
    settled_mod_p = 0
    for _ in range(40):
        m = rng.randint(1, 4)
        cs = [rng.randint(-5, 5) for _ in range(2 * m)] + [rng.randint(1, 3)]
        cs[0] = (-1) ** m * cs[-1] * rng.randint(1, 3) ** 2
        cs[rng.randrange(1, 2 * m, 2)] = rng.choice((-1, 1)) * rng.randint(1, 5)
        f = IntPolynomial(cs)
        assert not _skip_matches_mod_p_loop(monkeypatch, f)
        settled_mod_p += is_irreducible(f).method == "mod-p"
    assert settled_mod_p >= 10


def test_mod_p_skip_boundaries():
    # c = (-1)^m * f(0) * lc = -1 is no square: the fast path still runs
    for f in (X**2 + 1, X**4 + X**2 - 1):
        assert not intpoly._reducible_mod_every_odd_prime(f)
        assert is_irreducible(f) == IrreducibilityVerdict("irreducible", method="mod-p", prime=3)
    # c = 1: skipped, and the factorization finds the factor
    f = X**4 + X**2 + 1
    assert intpoly._reducible_mod_every_odd_prime(f)
    assert is_irreducible(f) == IrreducibilityVerdict(
        "reducible", method="factorization", witness=X**2 + X + 1
    )


def test_factorization_path_computes_disc_once(monkeypatch):
    calls = []

    def counting(f):
        calls.append(f)
        return discriminant(f)

    monkeypatch.setattr(intpoly, "discriminant", counting)
    phi = X**4 - 3 * X**2 + 1  # the 4-path: skips the mod-p loop
    verdict = is_irreducible(phi)
    assert verdict.method == "factorization" and verdict.status == "reducible"
    assert calls == [phi]
    calls.clear()
    assert is_irreducible(phi, disc=discriminant(phi)) == verdict
    assert calls == []
    assert is_irreducible(-phi) == verdict  # disc(-f) = disc(f) is passed on
    assert calls == [phi]
    # lc != +-1: the monic associate computes its own discriminant
    calls.clear()
    f = 2 * X**4 + X**2 + 2
    assert is_irreducible(f).method == "factorization"
    assert [g.lc for g in calls] == [2, 1]


def test_squarefree_part_examples():
    f = (X - 1) * (X - 1) * (X + 2)
    assert squarefree_part(f) == (X - 1) * (X + 2)
    g = X**3 + 2 * X + 1
    assert squarefree_part(g) == g
    assert squarefree_part(X**4 - 2 * X**2 + 1) == X**2 - 1


def test_factor_reconstructs_remark2_charpoly():
    content, factors = factor(remark2_printed_charpoly())
    assert content == 1
    assert sorted(f.coeffs for f, _ in factors) == sorted(
        f.coeffs for f in REMARK2_CHARPOLY_FACTORS
    )
    assert all(mult == 1 for _, mult in factors)


def test_factor_with_multiplicities_and_content():
    f = 6 * (X - 1) ** 3 * (X**2 + 1)
    content, factors = factor(f)
    assert content == 6
    assert ((X - 1), 3) in [(g, m) for g, m in factors]
    assert ((X**2 + 1), 1) in [(g, m) for g, m in factors]


def test_factor_nonmonic():
    f = (2 * X + 3) * (5 * X**2 - X + 7)
    content, factors = factor(f)
    recon = IntPolynomial([content])
    for g, m in factors:
        recon = recon * g**m
    assert recon == f


def test_factor_returns_planted_factors():
    """Seeded oracle: products of 2-4 known irreducible factors, some with
    lc > 1.  They split mod p, so Hensel lifting and recombination run."""
    rng = random.Random(2718)

    def linear():
        while True:
            a, b = rng.randint(1, 4), rng.randint(-9, 9)
            if math.gcd(a, b) == 1:
                return IntPolynomial([b, a])

    def quadratic():
        # irreducible over Z: primitive, with a discriminant that is no square
        while True:
            a, b, c = rng.randint(1, 3), rng.randint(-9, 9), rng.randint(-9, 9)
            d = b * b - 4 * a * c
            if math.gcd(a, b, c) == 1 and (d < 0 or math.isqrt(d) ** 2 != d):
                return IntPolynomial([c, b, a])

    for _ in range(200):
        planted = [rng.choice((linear, quadratic))() for _ in range(rng.randint(2, 4))]
        f = IntPolynomial.one()
        for g in planted:
            f = f * g
        content, factors = factor(f)
        assert content == 1
        got = sorted(g.coeffs for g, mult in factors for _ in range(mult))
        assert got == sorted(g.coeffs for g in planted), f


def test_poly_text_format_roundtrip():
    f = EXAMPLE1_CHARPOLY
    assert parse_poly(format_poly_line(f)) == f
    assert format_poly_line(f) == "-1 0 16 0 -79 0 157 0 -143 0 63 0 -13 0 1"


def test_poly_evaluation_and_arithmetic():
    f = X**2 - X - 1
    assert f(2) == 1
    from fractions import Fraction

    assert f(Fraction(1, 2)) == Fraction(-5, 4)
    assert (X + 1) * (X - 1) == X**2 - 1
    assert (X**3).derivative() == 3 * X**2
