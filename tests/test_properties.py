"""Property tests (hypothesis): walk terms of signed trees from switching
vectors against dense e^T A^k e."""

from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from sgdgs.search import _switching_order, _switching_vector, decode_pruefer
from sgdgs.sgraph import SignedGraph, walk_key, walk_terms

from oracles import dense_walk_counts


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
