"""Cluster queries: the paper's worked example, engine differential
tests, the DuckDB recursive-CTE component oracle, and edge cases."""
import duckdb
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines.gs_index_seq import SequentialGSIndex
from repro.baselines.pscan import pscan_query
from repro.core.index import SCANIndex, build_index
from repro.core.query import get_cores, query_clusters, similar_edges_from_cores
from repro.graph.graphframe import UndirectedGraph
from repro.oracle import assert_equivalent
from tests.conftest import ADVERSARIAL
from tests.oracle_sql import COMPONENTS, CORES, EPS_EDGES

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


#: Each engine's query, called as (index, graph, mu, eps); the eps-edge
#: step takes no mu.
ENGINES = {
    "query_clusters": lambda idx, g, mu, eps: query_clusters(idx, mu, eps),
    "get_cores": lambda idx, g, mu, eps: get_cores(idx, mu, eps),
    "similar_edges_from_cores": lambda idx, g, mu, eps: similar_edges_from_cores(
        idx, get_cores(idx, 3, 0.5), eps
    ),
    "pscan_query": lambda idx, g, mu, eps: pscan_query(g, mu, eps),
}


#: Bad (mu, eps) pairs by name; the eps-edge step meets only the eps ones.
BAD_PARAMS = {
    "mu_fraction": (2.5, 0.5),
    "mu_numpy_float": (np.float64(3.0), 0.5),
    "mu_below_two": (1, 0.5),
    "eps_nan": (3, float("nan")),
}


@pytest.mark.parametrize(
    "engine, bad",
    [
        (engine, bad)
        for engine in ENGINES
        for bad in BAD_PARAMS
        if engine != "similar_edges_from_cores" or bad.startswith("eps")
    ],
)
def test_bad_query_parameters_raise(fig1, fig1_index, engine, bad):
    """Every engine refuses a mu that is not an integer >= 2 and a NaN
    eps with the same ValueError, instead of an IndexError, an answer
    for a rounded mu or an empty clustering."""
    mu, eps = BAD_PARAMS[bad]
    with pytest.raises(ValueError, match="SCAN requires an integer mu >= 2 and eps not NaN"):
        ENGINES[engine](fig1_index, fig1, mu, eps)


def test_numpy_integer_mu_is_accepted(fig1, fig1_index):
    expect = query_clusters(fig1_index, 3, 0.6).labels_pandas()
    assert query_clusters(fig1_index, np.int64(3), 0.6).labels_pandas() == expect
    assert pscan_query(fig1, np.int32(3), 0.6).labels_pandas() == expect


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
def test_adversarial_shapes_build_and_query(fixture, request, spark, tmp_path):
    """Stars, bridged cliques, isolated vertices and the empty graph:
    the persisted index has 2m NO rows, and every query equals the
    sequential GS*-Index, at the eps extremes too, before and after a
    save/load round trip."""
    g = request.getfixturevalue(fixture)
    idx = build_index(g, "cosine").persist()
    try:
        assert idx.neighbor_order.count() == 2 * g.num_edges()
        idx.save(str(tmp_path / "idx"))
        loaded = SCANIndex.load(spark, str(tmp_path / "idx"))
        seq = _seq_for(g)
        for index in (idx, loaded):
            for mu, eps in ((2, 0.0), (3, 0.0), (2, 0.5), (3, 0.7), (2, 1.0), (6, 1.0)):
                _assert_engines_agree(index, seq, mu, eps)
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
    """Quality measures label an unclustered vertex by its own id
    (paper §7.3.4); no such label can collide with a cluster id,
    because every cluster id is the id of a clustered vertex."""
    labels = query_clusters(fig1_index, 3, 0.6).labels_pandas()
    assert set(labels.values()) <= set(labels)
    lab = {v: labels.get(v, v) for v in range(1, fig1.num_vertices + 1)}
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


def test_query_runs_no_spark_job(spark, sbm_small_index, tmp_path):
    """A query on a persisted or a loaded index reads the driver's
    arrays only: labels, cores and borders without a Spark job."""
    sbm_small_index.save(str(tmp_path / "idx"))
    loaded = SCANIndex.load(spark, str(tmp_path / "idx"))
    sc = spark.sparkContext
    for name, idx in (("persisted", sbm_small_index), ("loaded", loaded)):
        group = f"test_query_runs_no_spark_job-{name}"
        sc.setJobGroup(group, "one (mu, eps) query")
        try:
            labels = query_clusters(idx, 3, 0.5).labels_pandas()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert labels
        assert len(sc.statusTracker().getJobIdsForGroup(group)) == 0, name


# -- edge values: the driver engine against seq and DuckDB -------------


def _assert_engines_agree(idx, seq, mu, eps) -> dict:
    got = query_clusters(idx, mu, eps).labels_pandas()
    assert got == seq.query(mu, eps), (mu, eps)
    return got


@pytest.mark.parametrize("fixture", ["fig1", "sbm_small", *ADVERSARIAL])
def test_core_search_and_eps_prefix_match_duckdb(fixture, request):
    """The binary searches of a query equal DuckDB's selection over the
    stored NO: the cores (rank = mu and sim >= eps) and their eps-edges,
    at eps equal to stored similarities and one ulp below and above,
    where a prefix ends exactly on a tie with eps."""
    idx = build_index(request.getfixturevalue(fixture), "cosine")
    a = idx.arrays
    sims = np.unique(a.no_sim)
    picked = np.unique(np.r_[sims[:: max(1, len(sims) // 6)], sims[-1:]])
    con = duckdb.connect()
    try:
        con.register("no", a.rows())
        for s in picked:
            for eps in (np.nextafter(s, -1.0), s, np.nextafter(s, 2.0)):
                for mu in (2, 3, 5):
                    con.register("q", pd.DataFrame({"mu": [mu], "eps": [float(eps)]}))
                    cores = a.cores(mu, eps)
                    expect = con.execute(CORES).fetchdf()
                    assert sorted(cores.tolist()) == sorted(expect["v"].tolist()), (mu, eps)
                    u, v, _ = a.eps_edges(cores, eps)
                    expect = con.execute(EPS_EDGES).fetchdf()
                    assert sorted(zip(u.tolist(), v.tolist())) == sorted(
                        zip(expect["u"].tolist(), expect["v"].tolist())
                    ), (mu, eps)
    finally:
        con.close()


def test_similarity_equal_to_eps_is_included(fig1, fig1_index):
    """sigma(5, 6) is vertex 5's best similarity: at eps equal to the
    stored value 5 is a core, one ulp above it 5 is not."""
    a = fig1_index.arrays
    block = slice(a.no_off[5], a.no_off[6])
    s56 = float(a.no_sim[block][a.no_v[block] == 6][0])
    seq = _seq_for(fig1)
    at = _assert_engines_agree(fig1_index, seq, 2, s56)
    above = _assert_engines_agree(fig1_index, seq, 2, float(np.nextafter(s56, 2.0)))
    assert at[5] == at[6] and 5 not in above
    assert 5 in set(a.cores(2, s56)) and 5 not in set(a.cores(2, np.nextafter(s56, 2.0)))


def test_stored_similarities_as_eps(sbm_small_index, seq_sbm):
    """eps equal to stored similarities, so prefixes end exactly on a
    tie with eps."""
    sims = np.unique(sbm_small_index.arrays.no_sim)
    for eps in sims[:: max(1, len(sims) // 6)]:
        for mu in (2, 3, 5):
            _assert_engines_agree(sbm_small_index, seq_sbm, mu, float(eps))


@pytest.fixture(scope="module")
def tied(spark):
    """Two 4-cliques {1..4} and {5..8}; vertex 9 joined to 1 and 5 with
    bit-equal similarity 2/sqrt(15)."""
    edges = [(a, b) for lo in (1, 5) for a in range(lo, lo + 4) for b in range(a + 1, lo + 4)]
    g = UndirectedGraph.from_edge_list(spark, edges + [(1, 9), (5, 9)], 9).materialize()
    idx = build_index(g, "cosine").persist()
    yield g, idx
    idx.unpersist()
    g.unpersist()


def test_ties_break_by_ascending_id(tied):
    """NO ties order by ascending neighbor id, and a border tied between
    two cores joins the lower core's cluster."""
    g, idx = tied
    a = idx.arrays
    assert a.no_v[a.no_off[9] : a.no_off[10]].tolist() == [1, 5]
    assert a.no_v[a.no_off[1] : a.no_off[2]].tolist() == [2, 3, 4, 9]
    got = _assert_engines_agree(idx, _seq_for(g), 4, 0.5)
    assert got == {**dict.fromkeys(range(1, 5), 1), **dict.fromkeys(range(5, 9), 5), 9: 1}


def test_mu_beyond_every_closed_degree(fig1, fig1_index):
    """mu = max closed degree still finds the top-degree cores; one more
    returns empty without raising."""
    seq = _seq_for(fig1)
    top = fig1_index.arrays.max_degree + 1
    assert top == max(seq.deg.values()) + 1
    assert _assert_engines_agree(fig1_index, seq, top, 0.0)
    assert _assert_engines_agree(fig1_index, seq, top + 1, 0.0) == {}


@pytest.mark.parametrize(
    "graph, index",
    [("fig1", "fig1_index"), ("sbm_small", "sbm_small_index"), ("weighted_small", "weighted_index")],
)
@pytest.mark.parametrize("eps", (0.0, 1.0))
def test_eps_extremes(graph, index, eps, request):
    """eps = 0 admits every edge and eps = 1 only similarity-1 edges."""
    idx = request.getfixturevalue(index)
    seq = _seq_for(request.getfixturevalue(graph), idx.measure)
    for mu in (2, 3, 5):
        _assert_engines_agree(idx, seq, mu, eps)
