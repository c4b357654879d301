"""Shared fixtures for the PM-LSH reproduction test suite.

Heavy artifacts (Spark DataFrames of vectors, built indexes, exact kNN
ground truth) are session-scoped: many test modules read them, none
mutates them.
"""
import numpy as np
import pytest

from repro import datasets


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture(scope="session")
def clustered_X():
    """Small clustered dataset (easy NN structure) for pure-NumPy tests."""
    g = np.random.default_rng(7)
    centers = g.standard_normal((12, 24)) * 8.0
    labels = g.integers(0, 12, 1500)
    return centers[labels] + g.standard_normal((1500, 24))


@pytest.fixture(scope="session")
def queries_X():
    g = np.random.default_rng(8)
    centers = np.random.default_rng(7).standard_normal((12, 24)) * 8.0
    labels = g.integers(0, 12, 8)
    return centers[labels] + g.standard_normal((8, 24))


@pytest.fixture(scope="session")
def audio_small():
    """A 2000-point slice of the Audio stand-in plus 6 held-out queries."""
    X = datasets.generate("Audio", n=2000)
    Q = datasets.make_queries("Audio", nq=6)
    return X, Q


@pytest.fixture(scope="session")
def audio_df(spark, audio_small):
    X, _ = audio_small
    df = datasets.to_spark(spark, X, partitions=8).cache()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def audio_exact(spark, audio_df, audio_small):
    from repro.baselines.exact import exact_knn_arrays

    _, Q = audio_small
    return exact_knn_arrays(audio_df, Q, 20)


@pytest.fixture(scope="session")
def pmlsh_index(spark, audio_df):
    from repro.core.pmlsh import PMLSH

    with PMLSH.build(spark, audio_df, m=15, c=1.5, n_partitions=6, seed=0,
                     beta=0.2809) as index:
        yield index
