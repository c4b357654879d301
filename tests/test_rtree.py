"""Tests for the STR R-tree substrate (range queries)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.rtree import RTree


def brute_range(X, q, r):
    d = np.linalg.norm(X - q[None, :], axis=1)
    return set(np.where(d <= r)[0].tolist())


@pytest.fixture(scope="module")
def tree_and_data():
    g = np.random.default_rng(0)
    X = g.standard_normal((1200, 15))
    return RTree(X, capacity=16), X


def test_invariants(tree_and_data):
    tree, _ = tree_and_data
    tree.check_invariants()


def test_leaf_capacity_respected(tree_and_data):
    tree, _ = tree_and_data
    for node in tree.nodes():
        assert node.n_entries() <= tree.capacity


def test_batch_call_matches_single_calls(tree_and_data):
    """The (nq, m) call PM-LSH's probe makes returns (query index, row)
    hits grouped by query, each group equal to that query's 1-D call."""
    tree, X = tree_and_data
    g = np.random.default_rng(2)
    Q = np.concatenate([g.standard_normal((3, 15)), X[[5]], np.full((1, 15), 50.0)])
    R = np.array([2.0, 3.5, 5.0, 0.0, 1.0])
    hits, dists = tree.range_query(Q, R)
    assert hits.shape == (len(dists), 2)
    assert np.all(np.diff(hits[:, 0]) >= 0)
    for i, (q, r) in enumerate(zip(Q, R)):
        rows, d = tree.range_query(q, r)
        np.testing.assert_array_equal(hits[hits[:, 0] == i, 1], rows)
        np.testing.assert_array_equal(dists[hits[:, 0] == i], d)
    assert 5 in hits[hits[:, 0] == 3, 1]


@pytest.mark.parametrize("r", [0.5, 1.5, 3.0, 5.0, 8.0])
def test_range_query_matches_brute_force(tree_and_data, r):
    tree, X = tree_and_data
    q = np.random.default_rng(int(r * 7)).standard_normal(15)
    rows, dists = tree.range_query(q, r)
    assert set(rows.tolist()) == brute_range(X, q, r)
    np.testing.assert_allclose(dists, np.linalg.norm(X[rows] - q[None, :], axis=1))


def test_counters_increment(tree_and_data):
    tree, _ = tree_and_data
    tree.reset_counters()
    tree.range_query(np.zeros(15), 2.0)
    assert tree.cc > 0 and tree.nodes_accessed > 0


@pytest.mark.parametrize("capacity", [4, 16, 64])
def test_capacity_variants(capacity):
    g = np.random.default_rng(capacity)
    X = g.standard_normal((400, 8))
    tree = RTree(X, capacity=capacity)
    tree.check_invariants()
    q = g.standard_normal(8)
    rows, _ = tree.range_query(q, 2.5)
    assert set(rows.tolist()) == brute_range(X, q, 2.5)


def test_singleton_and_duplicates():
    tree = RTree(np.array([[1.0, 2.0]]), capacity=4)
    rows, _ = tree.range_query(np.array([1.0, 2.0]), 0.0)
    assert rows.tolist() == [0]
    X = np.tile([[3.0, 3.0]], (20, 1))
    tree = RTree(X, capacity=4)
    rows, _ = tree.range_query(np.array([3.0, 3.0]), 0.01)
    assert len(rows) == 20


def test_rejects_non_matrix_input():
    with pytest.raises(ValueError):
        RTree(np.ones(5))


@given(
    n=st.integers(5, 120),
    dim=st.integers(2, 10),
    r=st.floats(0.1, 6.0),
    seed=st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_range_query_property(n, dim, r, seed):
    g = np.random.default_rng(seed)
    X = g.standard_normal((n, dim)) * 2
    tree = RTree(X, capacity=8)
    q = g.standard_normal(dim)
    rows, _ = tree.range_query(q, r)
    assert set(rows.tolist()) == brute_range(X, q, r)

