"""Figure 6 benchmark: clustering-query time at mu=5, varying eps.

Engines: Spark index query vs ppSCAN-style per-query Spark vs the
sequential GS*-Index query. The paper's shape: the index query wins at
every eps, and everyone gets faster as eps grows.
"""
import pytest

from repro.baselines.pscan import pscan_query
from repro.core.query import query_clusters
from repro.experiments import datasets

MU = 5
EPS = (0.2, 0.5, 0.8)
NAMES = ("orkut_lite", "brain_lite")


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("eps", EPS)
def test_index_query_spark(benchmark, spark_indices, name, eps):
    idx = spark_indices[name]

    def q():
        return len(query_clusters(idx, MU, eps).labels_pandas())

    benchmark.pedantic(q, rounds=2, iterations=1)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("eps", EPS)
def test_ppscan_per_query_spark(benchmark, graphs, name, eps):
    g = graphs[name]
    measure = datasets.measure_for(name)

    def q():
        return len(pscan_query(g, MU, eps, measure).labels_pandas())

    benchmark.pedantic(q, rounds=2, iterations=1)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("eps", EPS)
def test_index_query_sequential(benchmark, seq_indices, name, eps):
    seq = seq_indices[name]
    benchmark.pedantic(lambda: seq.query(MU, eps), rounds=2, iterations=1)
