"""Tests for the distributed PM-LSH framework (Algorithms 1 and 2)."""
import numpy as np
import pandas as pd
import pytest

from repro import datasets
from repro.core.pmlsh import ann_search
from repro.metrics import summarize


def test_build_covers_all_points(pmlsh_index, audio_small):
    X, _ = audio_small
    assert pmlsh_index.n == len(X)
    assert sum(s["count"] for s in pmlsh_index.index.summaries.values()) == len(X)


def test_confidence_parameters_propagated(pmlsh_index):
    assert pmlsh_index.ci.m == 15
    assert pmlsh_index.ci.c == 1.5
    assert pmlsh_index.beta == pytest.approx(0.2809)


def test_rmin_increases_with_k(pmlsh_index):
    assert pmlsh_index.r_min(100) >= pmlsh_index.r_min(1)


def test_query_batch_quality(pmlsh_index, audio_small, audio_exact):
    _, Q = audio_small
    res = pmlsh_index.query_batch(Q, k=20)
    s = summarize(res, audio_exact)
    assert s["recall"] >= 0.8
    assert s["overall_ratio"] <= 1.05


def test_c2_approximation_guarantee(pmlsh_index, audio_small, audio_exact):
    """Theorem 1: every returned NN is within c^2 of the true NN distance
    (holds w.p. >= 1/2 - 1/e per query; with beta=0.2809 candidates it is
    essentially always satisfied at this scale)."""
    _, Q = audio_small
    res = pmlsh_index.query_batch(Q, k=1)
    c2 = pmlsh_index.ci.c ** 2
    for (ids, dists), (eids, edists) in zip(res, audio_exact):
        assert dists[0] <= c2 * edists[0] + 1e-9


def test_results_sorted_and_unique(pmlsh_index, audio_small):
    _, Q = audio_small
    for ids, dists in pmlsh_index.query_batch(Q, k=15):
        assert len(ids) == 15
        assert len(set(ids.tolist())) == 15
        assert np.all(np.diff(dists) >= -1e-12)


def test_query_single_matches_batch(pmlsh_index, audio_small):
    _, Q = audio_small
    single = pmlsh_index.query(Q[0], k=10)
    batch = pmlsh_index.query_batch(Q[:1], k=10)[0]
    np.testing.assert_array_equal(single[0], batch[0])


def test_returned_distances_are_true_distances(pmlsh_index, audio_small):
    X, Q = audio_small
    ids, dists = pmlsh_index.query(Q[0], k=5)
    expected = np.linalg.norm(X[ids] - Q[0][None, :], axis=1)
    np.testing.assert_allclose(dists, expected, rtol=1e-9)


def test_ball_cover_returns_point_in_ball(pmlsh_index, audio_small, audio_exact):
    _, Q = audio_small
    nn_dist = audio_exact[0][1][0]
    out = pmlsh_index.ball_cover(Q[0], nn_dist * 1.2)
    assert out is not None
    pid, d = out
    assert d <= pmlsh_index.ci.c * nn_dist * 1.2 + 1e-9


def test_ball_cover_empty_for_tiny_radius(pmlsh_index, audio_small, audio_exact):
    _, Q = audio_small
    nn_dist = audio_exact[0][1][0]
    # radius far below the NN distance: B(q, c*r) is empty -> no result
    out = pmlsh_index.ball_cover(Q[0], nn_dist * 1e-4)
    assert out is None


def test_k_one(pmlsh_index, audio_small, audio_exact):
    _, Q = audio_small
    res = pmlsh_index.query_batch(Q, k=1)
    for (ids, dists) in res:
        assert len(ids) == 1


def test_partition_summaries_have_ring_bounds(pmlsh_index):
    for s in pmlsh_index.index.summaries.values():
        assert s["hr"].shape == (5, 2)
        assert np.all(s["hr"][:, 0] <= s["hr"][:, 1])
        assert s["radius"] >= 0


def test_closed_index_directory_is_gone(spark):
    """``close()`` (here through the context manager) deletes the blobs."""
    import os

    from repro.core.pmlsh import PMLSH

    X = np.random.default_rng(3).standard_normal((300, 16))
    with PMLSH.build(spark, datasets.to_spark(spark, X), n_partitions=2,
                     seed=0) as index:
        index_dir = index.index.index_dir
        assert len(os.listdir(index_dir)) == 2
    assert not os.path.exists(index_dir)


def test_build_rejects_empty_dataframe(spark):
    from repro.core.pmlsh import PMLSH
    from repro.core.projection import VECTOR_SCHEMA

    empty = spark.createDataFrame([], schema=VECTOR_SCHEMA)
    with pytest.raises(ValueError):
        PMLSH.build(spark, empty)


def test_probe_retrieves_candidates_within_projected_radius(pmlsh_index, audio_small):
    """Soundness of the distributed range retrieval: every candidate's
    projected distance is within t*r, and no in-radius point is missed
    (checked against a driver-side recomputation)."""
    X, Q = audio_small
    q = Q[0]
    qp = pmlsh_index.proj.project(q)[0]
    r = pmlsh_index.r_min(10)
    pr = pmlsh_index.ci.t * r
    got = pmlsh_index._probe_round({0: qp}, {0: q}, {0: pr})
    P = pmlsh_index.proj.project(X)
    pdist = np.linalg.norm(P - qp[None, :], axis=1)
    expected = set(np.where(pdist <= pr)[0].tolist())
    assert set(got["id"].astype(int).tolist()) == expected


# ---- shared Algorithm-2 driver loop (fake rounds, no Spark) ---------------

def _fake_rounds(dists: dict[int, np.ndarray], reach: float, log: list):
    """Round callback over points at true distances ``dists[qid]``: a
    round retrieves the points within ``reach * r`` (nested across rounds,
    like PM-LSH's range queries) and logs the radii and the candidates
    the caller could see."""
    def probe(radii, cand):
        log.append((dict(radii), {i: dict(C) for i, C in cand.items()}))
        rows = [(qid, pid, d) for qid, r in radii.items()
                for pid, d in enumerate(dists[qid]) if d <= reach * r]
        return pd.DataFrame(rows, columns=["qid", "id", "dist"])
    return probe


def test_ann_search_stops_once_k_lie_within_cr():
    log = []
    dists = {0: np.arange(1.0, 101.0), 1: np.arange(1.0, 101.0) / 4}
    res, probed = ann_search(_fake_rounds(dists, 2.0, log), 2, 3, r0=1.0,
                             c=2.0, budget=1000, n=100, max_rounds=64)
    # query 1 has 8 points within c*r0 = 2 after one round; query 0 needs r = 2
    assert [radii for radii, _ in log] == [{0: 1.0, 1: 1.0}, {0: 2.0}]
    # a deduping caller sees the candidates earlier rounds verified
    assert log[0][1] == {0: {}, 1: {}}
    assert log[1][1][0] == {0: 1.0, 1: 2.0}
    np.testing.assert_array_equal(res[0][0], [0, 1, 2])
    np.testing.assert_array_equal(res[0][1], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(res[1][0], [0, 1, 2])
    assert probed == {0: 4, 1: 8}


def test_ann_search_stops_at_candidate_budget():
    log = []
    # 8 candidates in the first round, none of them within c*r = 2*0.1
    res, probed = ann_search(_fake_rounds({0: np.arange(1.0, 101.0)}, 80.0, log),
                             1, 3, r0=0.1, c=2.0, budget=5, n=100, max_rounds=64)
    assert len(log) == 1 and probed == {0: 8}
    np.testing.assert_array_equal(res[0][1], [1.0, 2.0, 3.0])


def test_ann_search_stops_when_all_points_verified():
    log = []
    res, probed = ann_search(_fake_rounds({0: np.full(10, 100.0)}, 1e4, log),
                             1, 3, r0=1.0, c=2.0, budget=1e9, n=10, max_rounds=64)
    assert len(log) == 1 and probed == {0: 10}
    assert len(res[0][0]) == 3


def test_ann_search_round_cap_returns_best_effort():
    log = []
    # the single point is reached when r = 16 but never lies within c*r
    res, probed = ann_search(_fake_rounds({0: np.array([50.0])}, 4.0, log),
                             1, 1, r0=1.0, c=2.0, budget=1e9, n=100, max_rounds=5)
    assert [radii[0] for radii, _ in log] == [1.0, 2.0, 4.0, 8.0, 16.0]
    np.testing.assert_array_equal(res[0][0], [0])
    np.testing.assert_array_equal(res[0][1], [50.0])
    assert probed == {0: 1}
