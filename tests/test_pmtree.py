"""Tests for the PM-tree: structural invariants and range-query correctness."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pmtree import PMTree, select_pivots


def brute_range(X, q, r):
    d = np.linalg.norm(X - q[None, :], axis=1)
    return set(np.where(d <= r)[0].tolist())


@pytest.fixture(scope="module")
def tree_and_data():
    g = np.random.default_rng(0)
    X = g.standard_normal((1200, 15))
    return PMTree(X, n_pivots=5, capacity=16, seed=0), X


def test_invariants(tree_and_data):
    tree, _ = tree_and_data
    tree.check_invariants()


@pytest.mark.parametrize("r", [0.5, 1.5, 3.0, 5.0, 8.0])
def test_range_query_matches_brute_force(tree_and_data, r):
    tree, X = tree_and_data
    q = np.random.default_rng(int(r * 10)).standard_normal(15)
    rows, dists = tree.range_query(q, r)
    assert set(rows.tolist()) == brute_range(X, q, r)
    np.testing.assert_allclose(dists, np.linalg.norm(X[rows] - q[None, :], axis=1))


def test_range_query_radius_zero_from_member(tree_and_data):
    tree, X = tree_and_data
    rows, dists = tree.range_query(X[17], 0.0)
    assert 17 in rows.tolist()
    assert np.min(dists) == 0.0


@pytest.mark.parametrize("dim, rounding", [(1, None), (6, 1), (15, None)])
def test_radius_zero_finds_every_point(dim, rounding):
    """A data point queried at r=0 is always found, although the pruning
    tests compare rounded distances at their boundary."""
    X = np.random.default_rng(dim).standard_normal((200, dim)) * 2
    if rounding is not None:
        X = np.round(X, rounding)
    for capacity in (2, 5, 16):
        tree = PMTree(X, n_pivots=3, capacity=capacity, seed=capacity)
        hits, dists = tree.range_query(X, np.zeros(len(X)))
        for i in range(len(X)):
            assert i in hits[hits[:, 0] == i, 1]
        assert np.all(dists == 0.0)


def test_range_query_counts_distance_computations(tree_and_data):
    tree, X = tree_and_data
    tree.reset_counters()
    tree.range_query(np.zeros(15), 2.0)
    assert tree.cc > 0
    assert tree.nodes_accessed > 0


def test_small_radius_costs_less_than_large(tree_and_data):
    tree, _ = tree_and_data
    q = np.random.default_rng(4).standard_normal(15)
    tree.reset_counters()
    tree.range_query(q, 0.5)
    small = tree.cc
    tree.reset_counters()
    tree.range_query(q, 10.0)
    large = tree.cc
    assert small < large


@pytest.mark.parametrize("capacity", [4, 16, 64])
def test_capacity_variants_all_correct(capacity):
    g = np.random.default_rng(capacity)
    X = g.standard_normal((400, 8))
    tree = PMTree(X, n_pivots=3, capacity=capacity, seed=1)
    tree.check_invariants()
    q = g.standard_normal(8)
    rows, _ = tree.range_query(q, 2.5)
    assert set(rows.tolist()) == brute_range(X, q, 2.5)


@pytest.mark.parametrize("s", [0, 1, 3, 8])
def test_pivot_count_variants(s):
    g = np.random.default_rng(s)
    X = g.standard_normal((300, 6))
    tree = PMTree(X, n_pivots=s, capacity=8, seed=2)
    tree.check_invariants()
    q = g.standard_normal(6)
    rows, _ = tree.range_query(q, 2.0)
    assert set(rows.tolist()) == brute_range(X, q, 2.0)


def test_external_pivots_used_verbatim():
    g = np.random.default_rng(9)
    X = g.standard_normal((200, 5))
    pv = g.standard_normal((4, 5))
    tree = PMTree(X, capacity=8, pivots=pv, seed=0)
    np.testing.assert_array_equal(tree.pivots, pv)
    tree.check_invariants()
    q = g.standard_normal(5)
    rows, _ = tree.range_query(q, 2.0)
    assert set(rows.tolist()) == brute_range(X, q, 2.0)


def test_duplicate_points_all_returned():
    X = np.tile(np.ones((1, 4)), (50, 1))
    tree = PMTree(X, n_pivots=2, capacity=8, seed=0)
    rows, dists = tree.range_query(np.ones(4), 0.1)
    assert len(rows) == 50
    assert np.all(dists == 0.0)


def test_singleton_dataset():
    X = np.array([[1.0, 2.0, 3.0]])
    tree = PMTree(X, n_pivots=2, capacity=4, seed=0)
    rows, _ = tree.range_query(np.array([1.0, 2.0, 3.1]), 0.2)
    assert rows.tolist() == [0]
    rows, _ = tree.range_query(np.array([9.0, 9.0, 9.0]), 0.2)
    assert rows.tolist() == []


def test_rejects_non_matrix_input():
    with pytest.raises(ValueError):
        PMTree(np.ones(5))


def test_nodes_enumeration_covers_all_leaf_entries(tree_and_data):
    tree, X = tree_and_data
    leaf = np.diff(tree.child_ptr) == 0
    assert tree.node_entries()[leaf].sum() == len(X)
    np.testing.assert_array_equal(np.sort(tree.rows), np.arange(len(X)))
    np.testing.assert_array_equal(tree.points, X[tree.rows])


# (cc, nodes_accessed, rows returned, sha256 prefix of the ordered int64 rows)
# of the module fixture's queries, as the recursive per-query walk of the
# PM-tree returned them; the batched kernel must reproduce them exactly.
GOLDEN = {
    0.5: (569, 73, 0, "e3b0c44298fc1c14"),
    1.5: (1129, 154, 0, "e3b0c44298fc1c14"),
    3.0: (1416, 229, 6, "8b3a0a464747251c"),
    5.0: (1498, 294, 332, "121022d2ee9d371b"),
    8.0: (1606, 401, 1199, "5fb6c7b6650286d0"),
}


@pytest.mark.parametrize("r", sorted(GOLDEN))
def test_range_query_golden_counters_and_order(tree_and_data, r):
    tree, _ = tree_and_data
    q = np.random.default_rng(int(r * 10)).standard_normal(15)
    tree.reset_counters()
    rows, _ = tree.range_query(q, r)
    digest = hashlib.sha256(np.asarray(rows, dtype="<i8").tobytes()).hexdigest()[:16]
    assert (tree.cc, tree.nodes_accessed, len(rows), digest) == GOLDEN[r]


def test_batch_equals_single_query_calls(tree_and_data):
    """Each 1-D call is its query's slice of the 2-D call, in the same
    order and with the same distances, and the counters add up."""
    tree, X = tree_and_data
    g = np.random.default_rng(3)
    Q = np.concatenate([g.standard_normal((6, 15)) * 1.5, X[[17, 400]]])
    R = np.array([0.0, 1.0, 2.5, 4.0, 5.5, 7.0, 0.0, 3.0])
    tree.reset_counters()
    hits, dists = tree.range_query(Q, R)
    cc, nodes = tree.cc, tree.nodes_accessed
    assert hits.shape == (len(dists), 2) and hits.dtype == np.int64
    assert np.all(np.diff(hits[:, 0]) >= 0)
    tree.reset_counters()
    for i, (q, r) in enumerate(zip(Q, R)):
        rows, d = tree.range_query(q, r)
        mine = hits[:, 0] == i
        np.testing.assert_array_equal(hits[mine, 1], rows)
        np.testing.assert_array_equal(dists[mine], d)
    assert (tree.cc, tree.nodes_accessed) == (cc, nodes)


def test_select_pivots_spread():
    g = np.random.default_rng(1)
    X = g.standard_normal((500, 10))
    pv = select_pivots(X, 5, seed=0)
    assert pv.shape == (5, 10)
    # farthest-first pivots should be pairwise farther apart than random picks
    dmin_pv = min(
        np.linalg.norm(pv[i] - pv[j]) for i in range(5) for j in range(i + 1, 5)
    )
    rnd = X[g.choice(500, 5, replace=False)]
    dmin_rnd = min(
        np.linalg.norm(rnd[i] - rnd[j]) for i in range(5) for j in range(i + 1, 5)
    )
    assert dmin_pv >= dmin_rnd * 0.8


def test_select_pivots_empty_and_zero():
    assert len(select_pivots(np.zeros((0, 3)), 2)) == 0
    assert len(select_pivots(np.ones((5, 3)), 0)) == 0


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
    tree = PMTree(X, n_pivots=3, capacity=8, seed=seed)
    q = g.standard_normal(dim)
    rows, _ = tree.range_query(q, r)
    assert set(rows.tolist()) == brute_range(X, q, r)


@given(
    n=st.integers(1, 120),
    dim=st.integers(1, 8),
    capacity=st.sampled_from([2, 8, 200]),
    s=st.integers(0, 3),
    radii=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 6.0)), min_size=1,
                   max_size=6),
    seed=st.integers(0, 1000),
)
@settings(max_examples=60, deadline=None)
def test_batched_range_query_property(n, dim, capacity, s, radii, seed):
    """Each query of a batch, with its own radius, gets exactly its brute-
    force set; covers r=0, a query with no hits (far away), a query that is
    a data point, a single-point tree and a leaf-only tree (capacity >= n)."""
    g = np.random.default_rng(seed)
    X = g.standard_normal((n, dim)) * 2
    tree = PMTree(X, n_pivots=s, capacity=capacity, seed=seed)
    Q = X[g.integers(0, n, len(radii))] + g.standard_normal((len(radii), dim))
    Q[0] = 100.0  # no point within reach
    Q[-1] = X[seed % n]  # at distance 0 from a point, found even at r=0
    hits, dists = tree.range_query(Q, np.array(radii))
    for i, r in enumerate(radii):
        mine = hits[:, 0] == i
        assert set(hits[mine, 1].tolist()) == brute_range(X, Q[i], r)
        assert len(hits[mine, 1]) == len(set(hits[mine, 1].tolist()))
        np.testing.assert_allclose(
            dists[mine], np.linalg.norm(X[hits[mine, 1]] - Q[i], axis=1))
