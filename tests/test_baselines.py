"""Per-baseline correctness tests (SRS, QALSH, Multi-Probe, R-LSH, LScan)."""
import math

import numpy as np
import pandas as pd
import pytest

from repro.baselines.lscan import LScan
from repro.baselines.multiprobe import MultiProbe, probe_sequence
from repro.baselines.qalsh import QALSH, qalsh_params
from repro.baselines.rlsh import RLSH
from repro.baselines.srs import SRS
from repro.metrics import summarize


# ---- R-LSH ---------------------------------------------------------------

@pytest.fixture(scope="module")
def rlsh_index(spark, audio_df):
    with RLSH.build(spark, audio_df, m=15, c=1.5, n_partitions=6, seed=0,
                    beta=0.2809) as index:
        yield index


def test_rlsh_quality(rlsh_index, audio_small, audio_exact):
    _, Q = audio_small
    s = summarize(rlsh_index.query_batch(Q, k=20), audio_exact)
    assert s["recall"] >= 0.8
    assert s["overall_ratio"] <= 1.05


def test_rlsh_uses_rtree(rlsh_index):
    from repro.core.partindex import load_blob
    from repro.baselines.rtree import RTree

    path = rlsh_index.index.meta.first()["path"]
    assert isinstance(load_blob(path)["tree"], RTree)


def test_rlsh_and_pmlsh_agree(rlsh_index, pmlsh_index, audio_small):
    """Same projection + same radii: the two trees retrieve the same
    candidate sets, so the returned neighbours coincide."""
    _, Q = audio_small
    a = rlsh_index.query_batch(Q[:2], k=10)
    b = pmlsh_index.query_batch(Q[:2], k=10)
    for (ia, da), (ib, db) in zip(a, b):
        np.testing.assert_allclose(np.sort(da), np.sort(db), rtol=1e-9)


# ---- SRS -----------------------------------------------------------------

@pytest.fixture(scope="module")
def srs_index(spark, audio_df):
    with SRS.build(spark, audio_df, m=15, c=1.5, n_partitions=6, seed=0) as index:
        yield index


def test_srs_quality(srs_index, audio_small, audio_exact):
    _, Q = audio_small
    s = summarize(srs_index.query_batch(Q, k=20), audio_exact)
    assert s["recall"] >= 0.75
    assert s["overall_ratio"] <= 1.1


def test_srs_default_paper_parameters(srs_index):
    assert srs_index.T == pytest.approx(0.4010)
    assert srs_index.p_tau == pytest.approx(0.8107)


def test_srs_stop_respects_budget(srs_index):
    pdist = np.linspace(0.1, 10, 500)
    dist = np.linspace(5, 20, 500)
    stop = srs_index._incremental_stop(pdist, dist, k=5, budget=100)
    assert stop <= 100


def test_srs_stop_early_when_good_nn_found():
    """A very close true NN early in the stream triggers termination."""
    import repro.baselines.srs as srs_mod

    obj = SRS.__new__(SRS)
    obj.c, obj.m, obj.p_tau, obj.early_stop = 1.5, 15, 0.8107, True
    pdist = np.linspace(1.0, 100.0, 2000)
    dist = np.full(2000, 50.0)
    dist[0] = 0.5  # excellent NN in the first chunk
    stop = obj._incremental_stop(pdist, dist, k=1, budget=2000)
    assert stop < 2000


def test_srs_results_sorted(srs_index, audio_small):
    _, Q = audio_small
    for ids, dists in srs_index.query_batch(Q, k=10):
        assert np.all(np.diff(dists) >= -1e-12)
        assert len(ids) == 10


# ---- QALSH ---------------------------------------------------------------

@pytest.fixture(scope="module")
def qalsh_index(spark, audio_df):
    with QALSH.build(spark, audio_df, c=1.5, n_partitions=6, seed=0) as index:
        yield index


def test_qalsh_params_formulas():
    m_q, l, beta_q = qalsh_params(10_000, 1.5, m_cap=10_000)
    assert beta_q == pytest.approx(0.01)
    assert 1 <= l <= m_q
    # more stringent beta (larger n) needs more hash functions
    m_q2, _, _ = qalsh_params(1_000_000, 1.5, m_cap=10_000)
    assert m_q2 >= m_q


def test_qalsh_params_cap():
    m_q, l, _ = qalsh_params(10**9, 1.1, m_cap=200)
    assert m_q == 200 and l <= 200


def test_qalsh_quality(qalsh_index, audio_small, audio_exact):
    _, Q = audio_small
    s = summarize(qalsh_index.query_batch(Q, k=20), audio_exact)
    assert s["recall"] >= 0.6
    assert s["overall_ratio"] <= 1.2


def test_qalsh_uses_many_hash_functions(qalsh_index):
    assert qalsh_index.m_q > 15  # the paper's space critique


def test_qalsh_radius_schedule_geometric(qalsh_index, audio_small, monkeypatch):
    """Virtual rehashing: radii r0, c*r0, c^2*r0, ... up to the round cap."""
    import repro.baselines.qalsh as qalsh_mod

    radii_seen = []
    shared_loop = qalsh_mod.ann_search

    def without_collisions(probe, *args, **kwargs):
        def no_hits(radii, cand):
            radii_seen.append(radii[0])
            return pd.DataFrame(columns=["qid", "id", "dist"])
        return shared_loop(no_hits, *args, **kwargs)

    monkeypatch.setattr(qalsh_mod, "ann_search", without_collisions)
    _, Q = audio_small
    ids, _ = qalsh_index.query(Q[0], k=5)
    r0 = qalsh_index.r0()
    assert r0 > 0 and len(ids) == 0
    expected = [r0]
    while len(expected) < 48:
        expected.append(expected[-1] * qalsh_index.c)
    assert radii_seen == expected


# ---- Multi-Probe ---------------------------------------------------------

@pytest.fixture(scope="module")
def mp_index(spark, audio_df):
    with MultiProbe.build(spark, audio_df, L=4, m_mp=8, n_probe=64,
                          n_partitions=6, seed=0) as index:
        yield index


def test_probe_sequence_starts_with_base_bucket():
    f = np.array([0.4, 1.7, 3.9])
    seq = probe_sequence(f, 1.0, 5)
    assert seq[0] == (0, 1, 3)


def test_probe_sequence_buckets_are_adjacent_and_unique():
    f = np.array([0.4, 1.7, 3.9, 2.2])
    seq = probe_sequence(f, 1.0, 12)
    base = np.array(seq[0])
    assert len(set(seq)) == len(seq)
    for b in seq[1:]:
        delta = np.abs(np.array(b) - base)
        assert np.all(delta <= 1)
        assert delta.sum() >= 1


def test_probe_sequence_scores_nondecreasing():
    g = np.random.default_rng(0)
    f = g.uniform(0, 10, 8)
    w = 1.0
    seq = probe_sequence(f, w, 20)
    base = np.floor(f / w).astype(int)
    x_low = f - base * w

    def score(bucket):
        s = 0.0
        for j, (bj, bb) in enumerate(zip(bucket, base)):
            if bj == bb - 1:
                s += x_low[j] ** 2
            elif bj == bb + 1:
                s += (w - x_low[j]) ** 2
        return s

    scores = [score(b) for b in seq[1:]]
    assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))


def test_probe_sequence_handles_zero_probes():
    seq = probe_sequence(np.array([0.5]), 1.0, 0)
    assert len(seq) == 1


def test_multiprobe_quality(mp_index, audio_small, audio_exact):
    _, Q = audio_small
    s = summarize(mp_index.query_batch(Q, k=20), audio_exact)
    assert s["recall"] >= 0.5
    assert s["overall_ratio"] <= 1.3


def test_multiprobe_more_probes_do_not_hurt(spark, audio_df, audio_small,
                                            audio_exact):
    _, Q = audio_small
    with MultiProbe.build(spark, audio_df, L=4, m_mp=8, n_probe=4,
                          n_partitions=6, seed=0) as few:
        s_few = summarize(few.query_batch(Q, k=20), audio_exact)
    with MultiProbe.build(spark, audio_df, L=4, m_mp=8, n_probe=128,
                          n_partitions=6, seed=0) as many:
        s_many = summarize(many.query_batch(Q, k=20), audio_exact)
    assert s_many["recall"] >= s_few["recall"] - 1e-9


# ---- query input checks --------------------------------------------------

@pytest.mark.parametrize("bad_value, k", [(np.nan, 5), (np.inf, 5), (None, 0),
                                          (None, -1)])
@pytest.mark.parametrize("index_name", ["pmlsh_index", "srs_index", "qalsh_index",
                                        "mp_index"])
def test_malformed_query_rejected_before_spark(request, monkeypatch, audio_small,
                                               index_name, bad_value, k):
    index = request.getfixturevalue(index_name)
    probes = []
    monkeypatch.setattr(index.index, "probe", lambda *a, **kw: probes.append(a))
    Q = audio_small[1][:2].copy()
    if bad_value is not None:
        Q[1, 3] = bad_value
    with pytest.raises(ValueError):
        index.query_batch(Q, k)
    assert probes == []


# ---- LScan ---------------------------------------------------------------

@pytest.fixture(scope="module")
def lscan_index(spark, audio_df):
    with LScan(spark, audio_df, fraction=0.7, seed=0) as index:
        yield index


def test_lscan_sample_size(lscan_index, audio_small):
    X, _ = audio_small
    assert lscan_index.n_sampled == pytest.approx(0.7 * len(X), rel=0.1)


def test_lscan_recall_near_sample_rate(lscan_index, audio_small, audio_exact):
    _, Q = audio_small
    s = summarize(lscan_index.query_batch(Q, k=20), audio_exact)
    assert 0.45 <= s["recall"] <= 0.95


def test_lscan_full_fraction_is_exact(spark, audio_df, audio_small, audio_exact):
    _, Q = audio_small
    with LScan(spark, audio_df, fraction=1.0, seed=0) as full:
        s = summarize(full.query_batch(Q, k=20), audio_exact)
    assert s["recall"] == 1.0
    assert s["overall_ratio"] == pytest.approx(1.0)


def test_lscan_rejects_bad_fraction(spark, audio_df):
    with pytest.raises(ValueError):
        LScan(spark, audio_df, fraction=0.0)
