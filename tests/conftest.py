"""Shared fixtures: small materialized graphs + built indices.

Session-scoped on purpose — Spark actions dominate test wall time, so
every module reuses the same handful of small graphs and prebuilt
indices. All graphs are deterministic in their seeds.
"""
from __future__ import annotations

import os

# Test graphs are tiny (tens to hundreds of edges); 64 shuffle
# partitions would mean mostly-empty tasks on every one of the
# thousands of shuffles this suite runs. The root conftest reads this
# env var when the session fixture first runs — which is after this
# module imports — so an explicit SPARK_SHUFFLE_PARTITIONS still wins.
os.environ.setdefault("SPARK_SHUFFLE_PARTITIONS", "4")

import pandas as pd
import pytest

from repro.core.index import build_index
from repro.core.similarity import edge_similarities
from repro.graph import generators as gen
from repro.graph.graphframe import UndirectedGraph

#: Fixture names of the adversarial shapes below, for parametrizing.
ADVERSARIAL = ("star", "two_cliques", "with_isolated", "edgeless")


@pytest.fixture(scope="session")
def fig1(spark):
    """The paper's Figure-1 worked example (11 vertices, 13 edges)."""
    g = gen.fig1_graph(spark).materialize()
    yield g
    g.unpersist()


@pytest.fixture(scope="session")
def fig1_index(fig1):
    idx = build_index(fig1, "cosine").persist()
    yield idx
    idx.unpersist()


@pytest.fixture(scope="session")
def sbm_small(spark):
    """60-vertex planted-partition graph: has real cluster structure."""
    g = gen.sbm_graph(spark, n=60, n_blocks=3, p_in=0.5, p_out=0.05, seed=7)
    yield g.materialize()
    g.unpersist()


@pytest.fixture(scope="session")
def sbm_small_index(sbm_small):
    idx = build_index(sbm_small, "cosine").persist()
    yield idx
    idx.unpersist()


@pytest.fixture(scope="session")
def gnp_small(spark):
    """40-vertex Erdos–Renyi graph: unstructured edge soup."""
    g = gen.gnp_graph(spark, n=40, p=0.15, seed=3)
    yield g.materialize()
    g.unpersist()


@pytest.fixture(scope="session")
def weighted_small(spark):
    """45-vertex weighted SBM for the weighted-cosine paths."""
    g = gen.sbm_graph(
        spark, n=45, n_blocks=3, p_in=0.55, p_out=0.08, seed=9, weighted=True
    )
    yield g.materialize()
    g.unpersist()


@pytest.fixture(scope="session")
def dense_small(spark):
    """30-vertex dense graph (avg degree ~14): LSH heuristic engages
    at small k."""
    g = gen.gnp_graph(spark, n=30, p=0.5, seed=5)
    yield g.materialize()
    g.unpersist()


@pytest.fixture(scope="session")
def star(spark):
    """One hub joined to 40 leaves: every edge intersects the hub's
    whole list, the most work per edge relative to O(alpha*m), and no
    edge has a common neighbor."""
    g = UndirectedGraph.from_edge_list(spark, [(1, v) for v in range(2, 42)], 41)
    yield g.materialize()
    g.unpersist()


@pytest.fixture(scope="session")
def two_cliques(spark):
    """Two weighted 6-cliques joined by the one edge (6, 7): similarity
    1 inside each clique away from the bridge, low across it."""
    edges = [
        (a, b, 1.0 + (a * b) % 5 / 4)
        for lo in (1, 7)
        for a in range(lo, lo + 6)
        for b in range(a + 1, lo + 6)
    ]
    g = UndirectedGraph.from_edge_list(spark, edges + [(6, 7, 0.5)], 12)
    yield g.materialize()
    g.unpersist()


@pytest.fixture(scope="session")
def with_isolated(spark):
    """A triangle with a tail, plus isolated vertices 1, 5, 8, 9, 10."""
    edges = [(2, 3), (3, 4), (2, 4), (4, 6), (6, 7)]
    g = UndirectedGraph.from_edge_list(spark, edges, 10)
    yield g.materialize()
    g.unpersist()


@pytest.fixture(scope="session")
def edgeless(spark):
    """Five vertices and no edges."""
    g = UndirectedGraph.from_pandas(spark, pd.DataFrame(columns=["u", "v"]), 5)
    yield g.materialize()
    g.unpersist()


@pytest.fixture(scope="session")
def gnp_small_index(gnp_small):
    idx = build_index(gnp_small, "cosine").persist()
    yield idx
    idx.unpersist()


@pytest.fixture(scope="session")
def weighted_index(weighted_small):
    idx = build_index(weighted_small, "wcosine").persist()
    yield idx
    idx.unpersist()


@pytest.fixture(scope="session")
def sbm_jaccard_index(sbm_small):
    idx = build_index(sbm_small, "jaccard").persist()
    yield idx
    idx.unpersist()


@pytest.fixture(scope="session")
def exact_sims():
    """Session cache of exact per-edge similarities as pandas Series.

    Many statistical LSH tests compare estimates against the same
    exact values, so each (graph, measure) runs the similarity plan
    once per session instead of once per test.
    """
    cache: dict = {}

    def get(g, measure: str):
        key = (id(g.edges), measure)
        if key not in cache:
            cache[key] = (
                edge_similarities(g, measure)
                .toPandas()
                .set_index(["u", "v"])["sim"]
            )
        return cache[key]

    return get
