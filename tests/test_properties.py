"""Property tests (hypothesis): walk terms of signed trees from switching
vectors against dense e^T A^k e, and the mod-p irreducibility kernel
against Rabin's test."""

from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from sgdgs import intpoly
from sgdgs.factorint import first_primes
from sgdgs.search import _switching_order, _switching_vector, decode_pruefer
from sgdgs.sgraph import SignedGraph, walk_key, walk_terms

from oracles import dense_walk_counts, rabin_is_irreducible


@st.composite
def signed_pruefer_trees(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    seq = draw(st.lists(st.integers(min_value=1, max_value=n), min_size=n - 2, max_size=n - 2))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n - 1, max_size=n - 1))
    edges = decode_pruefer(seq)
    return SignedGraph(n, tuple((u, v, s) for (u, v), s in zip(edges, signs)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(signed_pruefer_trees())
def test_switching_vector_walk_terms_equal_signed_walk_counts(g):
    """x^T |A|^k x = e^T A_sigma^k e for the switching vector x read off the
    signs, and walk_key equals the dense oracle."""
    x = _switching_vector(g, _switching_order(g))
    assert all(abs(t) == 1 for t in x[1:])
    counts = dense_walk_counts(g.adjacency().to_lists(), g.n + 2)
    assert list(islice(walk_terms(g.underlying().edges, x), g.n + 1)) == counts[1:]
    assert walk_key(g) == tuple(counts[: g.n])


@st.composite
def monic_polys_mod_odd_prime(draw):
    """(f, p): p an odd prime below 200, where is_irreducible's 25 mod-p
    attempts fall unless many primes divide lc * disc, and f a random
    monic polynomial of degree <= 12 over F_p."""
    p = draw(st.sampled_from(first_primes(46)[1:]))  # 3, 5, ..., 199
    n = draw(st.integers(min_value=1, max_value=12))
    low = draw(st.lists(st.integers(min_value=0, max_value=p - 1), min_size=n, max_size=n))
    return low + [1], p


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(monic_polys_mod_odd_prime())
def test_gf_is_irreducible_matches_rabin_oracle(fp):
    f, p = fp
    assert intpoly._gf_is_irreducible(f, p) == rabin_is_irreducible(f, p)
