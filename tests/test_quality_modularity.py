"""Modularity: hand-computed cases and the DuckDB term oracle."""
import duckdb
import pandas as pd
import pytest

from repro.core.query import query_clusters
from repro.quality.modularity import modularity_pandas
from tests.oracle_sql import MODULARITY_TERMS


def _duckdb_modularity(edges: pd.DataFrame, labels: pd.DataFrame) -> float:
    """Q from DuckDB-computed W, Win, sum-of-squared-cluster-degrees."""
    con = duckdb.connect()
    con.register("e", edges)
    con.register("labels", labels)
    W, Win, SS = con.execute(MODULARITY_TERMS).fetchone()
    con.close()
    return Win / W - SS / (4 * W * W)


def _full_labels(g, index, mu, eps):
    """Total labeling of one query as a pandas frame and a dict."""
    full = query_clusters(index, mu, eps).full_labels(g.num_vertices).toPandas()
    return full, dict(full.itertuples(index=False))


def test_two_triangles_hand_computed():
    """Two disjoint triangles, each its own cluster.

    m = 6; within = 6; each cluster degree sum = 6.
    Q = 1 - 2 * (6 / 12)^2 = 0.5
    """
    edges = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]
    labels = {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2}
    e = pd.DataFrame(edges, columns=["u", "v"])
    assert modularity_pandas(e, labels) == pytest.approx(0.5)


def test_single_cluster_is_zero():
    """Everything in one cluster: Q = W/W - (2W/2W)^2 = 0."""
    e = pd.DataFrame([(1, 2), (2, 3), (1, 3)], columns=["u", "v"])
    assert modularity_pandas(e, {1: 1, 2: 1, 3: 1}) == pytest.approx(0.0)


def test_all_singletons_negative(fig1):
    """All singletons: Win = 0, so Q = -sum(deg^2) / (4 m^2)."""
    labels = {v: v for v in range(1, 12)}
    deg = fig1.degrees().toPandas()["deg"].to_numpy(float)
    m = fig1.num_edges()
    q = modularity_pandas(fig1.to_pandas(), labels)
    assert q < 0
    assert q == pytest.approx(-(deg**2).sum() / (4.0 * m * m))


@pytest.mark.parametrize("mu,eps", [(2, 0.3), (3, 0.5), (3, 0.6)])
def test_fig1_clusterings_match_duckdb_terms(fig1, fig1_index, mu, eps):
    full, labels = _full_labels(fig1, fig1_index, mu, eps)
    edges = fig1.to_pandas()
    assert modularity_pandas(edges, labels) == pytest.approx(
        _duckdb_modularity(edges, full)
    )


@pytest.mark.parametrize(
    "fixture,index_fixture",
    [("sbm_small", "sbm_small_index"), ("weighted_small", "weighted_index")],
)
def test_against_duckdb_terms(fixture, index_fixture, request):
    g = request.getfixturevalue(fixture)
    full, labels = _full_labels(g, request.getfixturevalue(index_fixture), 3, 0.4)
    edges = g.to_pandas()
    assert modularity_pandas(edges, labels) == pytest.approx(
        _duckdb_modularity(edges, full)
    )


def test_planted_partition_recovered_clustering_scores_high(sbm_small, sbm_small_index):
    """SCAN at sensible parameters on an SBM should beat Q = 0.3 —
    the sanity floor for 'found real structure'."""
    _, labels = _full_labels(sbm_small, sbm_small_index, 3, 0.35)
    assert modularity_pandas(sbm_small.to_pandas(), labels) > 0.3


def test_weighted_modularity_uses_weights():
    """Same topology, different weights => different Q."""
    e1 = pd.DataFrame([(1, 2, 1.0), (3, 4, 1.0), (2, 3, 1.0)], columns=["u", "v", "w"])
    e2 = pd.DataFrame([(1, 2, 5.0), (3, 4, 5.0), (2, 3, 1.0)], columns=["u", "v", "w"])
    labels = {1: 1, 2: 1, 3: 2, 4: 2}
    q1 = modularity_pandas(e1, labels)
    q2 = modularity_pandas(e2, labels)
    assert q2 > q1  # heavier intra-cluster edges => higher Q
    lab = pd.DataFrame({"v": list(labels), "cluster": list(labels.values())})
    assert q2 == pytest.approx(_duckdb_modularity(e2, lab))


def test_empty_graph_zero():
    assert modularity_pandas(pd.DataFrame(columns=["u", "v", "w"]), {1: 1}) == 0.0


def test_modularity_never_exceeds_one(fig1, fig1_index):
    edges = fig1.to_pandas()
    for eps in (0.2, 0.5, 0.8):
        _, labels = _full_labels(fig1, fig1_index, 2, eps)
        assert modularity_pandas(edges, labels) <= 1.0
