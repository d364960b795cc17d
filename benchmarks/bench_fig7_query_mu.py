"""Figure 7 benchmark: clustering-query time at eps=0.6, varying mu."""
import pytest

from repro.baselines.pscan import pscan_query
from repro.core.query import query_clusters
from repro.experiments import datasets

EPS = 0.6
MUS = (2, 8, 32)
NAMES = ("orkut_lite", "brain_lite")


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("mu", MUS)
def test_index_query_spark(benchmark, spark_indices, name, mu):
    idx = spark_indices[name]

    def q():
        return len(query_clusters(idx, mu, EPS).labels_pandas())

    benchmark.pedantic(q, rounds=2, iterations=1)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("mu", MUS)
def test_ppscan_per_query_spark(benchmark, graphs, name, mu):
    g = graphs[name]
    measure = datasets.measure_for(name)

    def q():
        return len(pscan_query(g, mu, EPS, measure).labels_pandas())

    benchmark.pedantic(q, rounds=2, iterations=1)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("mu", MUS)
def test_index_query_sequential(benchmark, seq_indices, name, mu):
    seq = seq_indices[name]
    benchmark.pedantic(lambda: seq.query(mu, EPS), rounds=2, iterations=1)
