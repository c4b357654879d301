"""Self-test of the benchmark's answer check: ``python -m pytest perfbench -q``."""
import numpy as np
import pytest

from pmlsh_bench.check import answer_error, exact_topk

K = 5


def _case():
    g = np.random.default_rng(0)
    X = g.standard_normal((200, 8))
    q = g.standard_normal(8)
    ids, dists = exact_topk(X, q[None, :], K)[0]
    return X, q, ids, dists


def test_exact_answer_passes():
    X, q, ids, dists = _case()
    brute = np.argsort(np.linalg.norm(X - q, axis=1), kind="stable")[:K]
    assert ids.tolist() == brute.tolist()
    assert answer_error(ids, dists, q, X, K) is None


def _short(ids, dists):
    return ids[:-1], dists[:-1]


def _duplicate(ids, dists):
    ids = ids.copy()
    ids[1] = ids[0]
    return ids, dists


def _wrong_distance(ids, dists):
    dists = dists.copy()
    dists[-1] *= 1.01
    return ids, dists


@pytest.mark.parametrize("corrupt", [_short, _duplicate, _wrong_distance])
def test_corrupted_answer_fails(corrupt):
    X, q, ids, dists = _case()
    assert answer_error(*corrupt(ids, dists), q, X, K) is not None
