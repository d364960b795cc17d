"""Cluster queries: the paper's worked example, engine differential
tests, the DuckDB recursive-CTE component oracle, and edge cases."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines.gs_index_seq import SequentialGSIndex
from repro.core.index import build_index
from repro.core.query import (
    get_cores,
    query_clusters,
    similar_edges_from_cores,
)
from repro.oracle import assert_equivalent
from tests.conftest import ADVERSARIAL
from tests.oracle_sql import COMPONENTS

EPS_GRID = (0.1, 0.3, 0.5, 0.6, 0.7, 0.9)
MU_GRID = (2, 3, 5, 8)


def test_fig1_paper_clustering(fig1_index):
    res = query_clusters(fig1_index, 3, 0.6)
    labels = res.labels_pandas()
    assert labels == {1: 1, 2: 1, 3: 1, 4: 1, 6: 6, 7: 6, 8: 6, 11: 6}


def test_fig1_paper_cores(fig1_index):
    cores = sorted(r.v for r in get_cores(fig1_index, 3, 0.6).collect())
    assert cores == [1, 2, 3, 4, 6, 7, 8]


def test_fig1_border_vertex_is_not_core(fig1_index):
    res = query_clusters(fig1_index, 3, 0.6)
    pdf = res.assignments.toPandas().set_index("v")
    assert not pdf.loc[11, "is_core"]
    assert pdf.loc[[1, 2, 3, 4, 6, 7, 8], "is_core"].all()


def test_mu_above_max_degree_gives_empty(fig1_index):
    res = query_clusters(fig1_index, 100, 0.1)
    assert res.assignments.count() == 0


def test_eps_zero_clusters_everything_connected(fig1_index):
    res = query_clusters(fig1_index, 2, 0.0)
    labels = res.labels_pandas()
    # whole graph is one connected component, all vertices clustered
    assert set(labels) == set(range(1, 12))
    assert len(set(labels.values())) == 1


def test_eps_one_clusters_nothing_at_mu3(fig1_index):
    # only sigma(1,3) = 1 qualifies at eps=1; one similar neighbor
    # (+self) never reaches mu=3, so no cores and no clusters
    res = query_clusters(fig1_index, 3, 1.0)
    assert res.labels_pandas() == {}


def test_mu_below_two_raises(fig1_index):
    with pytest.raises(ValueError):
        query_clusters(fig1_index, 1, 0.5)


def _seq_for(g, measure="cosine"):
    return SequentialGSIndex(g.to_pandas(), g.num_vertices, measure).build()


@pytest.fixture(scope="module")
def seq_sbm(sbm_small):
    return _seq_for(sbm_small)


@pytest.fixture(scope="module")
def seq_gnp(gnp_small):
    return _seq_for(gnp_small)


@pytest.mark.parametrize("mu", MU_GRID)
@pytest.mark.parametrize("eps", EPS_GRID)
def test_differential_vs_sequential_sbm(sbm_small_index, seq_sbm, mu, eps):
    """Spark index query == sequential GS*-Index on a structured graph.

    Labels are fully comparable: both engines use canonical min-core-id
    clusters and the deterministic border rule.
    """
    got = query_clusters(sbm_small_index, mu, eps).labels_pandas()
    assert got == seq_sbm.query(mu, eps)


@pytest.mark.parametrize("mu,eps", [(2, 0.2), (3, 0.5), (4, 0.6), (2, 0.8)])
def test_differential_vs_sequential_gnp(gnp_small_index, seq_gnp, mu, eps):
    got = query_clusters(gnp_small_index, mu, eps).labels_pandas()
    assert got == seq_gnp.query(mu, eps)


@pytest.mark.parametrize("mu,eps", [(2, 0.3), (3, 0.5), (5, 0.7)])
def test_differential_weighted(weighted_small, weighted_index, mu, eps):
    got = query_clusters(weighted_index, mu, eps).labels_pandas()
    expect = _seq_for(weighted_small, "wcosine").query(mu, eps)
    assert got == expect


@pytest.mark.parametrize("fixture", ADVERSARIAL)
def test_adversarial_shapes_build_and_query(fixture, request):
    """Stars, bridged cliques, isolated vertices and the empty graph:
    the persisted index has 2m NO rows and every query equals the
    sequential GS*-Index, at the eps extremes too."""
    g = request.getfixturevalue(fixture)
    idx = build_index(g, "cosine").persist()
    try:
        assert idx.neighbor_order.count() == 2 * g.num_edges()
        seq = _seq_for(g)
        for mu, eps in ((2, 0.0), (3, 0.0), (2, 0.5), (3, 0.7), (2, 1.0), (6, 1.0)):
            assert query_clusters(idx, mu, eps).labels_pandas() == seq.query(mu, eps)
    finally:
        idx.unpersist()


@pytest.mark.parametrize("mu,eps", [(2, 0.4), (3, 0.6), (4, 0.5)])
def test_differential_jaccard(sbm_small, sbm_jaccard_index, mu, eps):
    got = query_clusters(sbm_jaccard_index, mu, eps).labels_pandas()
    expect = _seq_for(sbm_small, "jaccard").query(mu, eps)
    assert got == expect


def test_core_components_match_duckdb_recursive_cte(sbm_small_index, spark):
    """The core-cluster labels equal DuckDB's transitive closure over
    the eps-similar core-core subgraph — an independent-engine oracle
    for the connectivity step."""
    mu, eps = 3, 0.45
    cores = get_cores(sbm_small_index, mu, eps)
    sim = similar_edges_from_cores(sbm_small_index, cores, eps)
    core_core = sim.join(cores, "v").where(F.col("u") < F.col("v")).select("u", "v")
    got = (
        query_clusters(sbm_small_index, mu, eps)
        .assignments.where("is_core")
        .select("v", "cluster")
    )
    assert_equivalent(got, COMPONENTS, edges=core_core, verts=cores)


def test_full_labels_are_total_and_collision_free(fig1, fig1_index):
    res = query_clusters(fig1_index, 3, 0.6)
    full = res.full_labels(fig1.num_vertices).toPandas()
    assert len(full) == 11
    lab = dict(full.itertuples(index=False))
    assert lab[5] == 5 and lab[9] == 9 and lab[10] == 10  # singletons
    assert lab[11] == 6


def test_border_attaches_to_most_similar_core(fig1_index):
    # vertex 11 is eps-similar only to core 7 (sim .71): joins 7's cluster
    res = query_clusters(fig1_index, 3, 0.6)
    assert res.labels_pandas()[11] == 6  # cluster id = min core id (6)


def test_monotonicity_in_eps(sbm_small_index):
    """Raising eps can only shrink the set of cores."""
    prev = None
    for eps in (0.2, 0.4, 0.6, 0.8):
        cores = {r.v for r in get_cores(sbm_small_index, 3, eps).collect()}
        if prev is not None:
            assert cores <= prev
        prev = cores


def test_monotonicity_in_mu(sbm_small_index):
    prev = None
    for mu in (2, 3, 4, 6):
        cores = {r.v for r in get_cores(sbm_small_index, mu, 0.5).collect()}
        if prev is not None:
            assert cores <= prev
        prev = cores


def test_query_is_one_collect(spark, sbm_small_index):
    """A query runs two Spark jobs: the broadcast of the CO[mu] prefix
    and the one collect of the eps-edges; labels come from the driver."""
    sc = spark.sparkContext
    sc.setJobGroup("test_query_is_one_collect", "one (mu, eps) query")
    try:
        labels = query_clusters(sbm_small_index, 3, 0.5).labels_pandas()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert labels
    assert len(sc.statusTracker().getJobIdsForGroup("test_query_is_one_collect")) <= 2
