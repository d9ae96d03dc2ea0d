"""Embedded datasets must reproduce the printed values exactly."""

import pytest

from sgdgs.datasets import (
    EXAMPLE1_CHARPOLY,
    REMARK1_CHARPOLY,
    dataset_names,
    example1_polynomial,
    get_dataset,
    remark1_matrices,
    remark1_pair,
    remark1_printed_q,
    remark2_matrices,
    remark2_pair,
    remark2_printed_q,
    remark2_printed_charpoly,
    resolve_graph_spec,
)
from sgdgs.linalg import IntMatrix, charpoly
from sgdgs.sgraph import bipartite_adjacency, bipartition, is_tree
from sgdgs.spectra import is_regular_orthogonal


def _scaled(m, c):
    return IntMatrix([[c * x for x in row] for row in m.data])


def test_names_and_lookup():
    assert dataset_names() == ["example1-poly", "remark1", "remark2"]
    assert get_dataset("remark1").kind == "tree-pair"
    with pytest.raises(ValueError):
        get_dataset("nope")


def test_example1_polynomial_coefficients():
    p = example1_polynomial()
    assert list(p.coeffs) == [-1, 0, 16, 0, -79, 0, 157, 0, -143, 0, 63, 0, -13, 0, 1]
    assert p.degree == 14 and p.is_monic()
    assert p == EXAMPLE1_CHARPOLY


def test_remark1_graphs_are_trees_with_printed_charpoly():
    g, h = remark1_pair()
    assert is_tree(g) and is_tree(h)
    assert g.n == h.n == 18
    assert charpoly(g.adjacency()) == REMARK1_CHARPOLY
    assert charpoly(h.adjacency()) == REMARK1_CHARPOLY


def test_remark1_matrices_roundtrip():
    m, mt = remark1_matrices()
    g, h = remark1_pair()
    assert bipartite_adjacency(g, bipartition(g)) == m
    assert bipartite_adjacency(h, bipartition(h)) == mt


def test_remark1_printed_q_is_block_regular_orthogonal_conjugator():
    g, h = remark1_pair()
    level, n = remark1_printed_q()
    assert level == 7
    assert is_regular_orthogonal(n, level)
    # N^T A N = 49 B for N = 7 Q
    assert n.T @ g.adjacency() @ n == _scaled(h.adjacency(), level**2)


def test_remark2_graphs_and_printed_charpoly():
    g, h = remark2_pair()
    assert is_tree(g) and is_tree(h)
    assert charpoly(g.adjacency()) == remark2_printed_charpoly()
    assert charpoly(h.adjacency()) == remark2_printed_charpoly()
    m, mt = remark2_matrices()
    assert bipartite_adjacency(g, bipartition(g)) == m
    assert bipartite_adjacency(h, bipartition(h)) == mt


def test_remark2_printed_q_conjugates():
    g, h = remark2_pair()
    level, n = remark2_printed_q()
    assert level == 5
    assert is_regular_orthogonal(n, level)
    # N^T A N = 25 B for N = 5 Q
    assert n.T @ g.adjacency() @ n == _scaled(h.adjacency(), level**2)


def test_resolve_graph_spec():
    g, h = remark1_pair()
    assert resolve_graph_spec("dataset:remark1-a") == g
    assert resolve_graph_spec("dataset:remark1-b") == h
    with pytest.raises(ValueError):
        resolve_graph_spec("dataset:unknown-a")
    with pytest.raises(ValueError):
        resolve_graph_spec("somefile.sg")
