"""Neighbor-order / core-order construction and persistence."""
import dataclasses

import pytest
from pyspark.sql import functions as F

from repro.baselines.gs_index_seq import SequentialGSIndex
from repro.core.approx import build_approx_index
from repro.core.index import SCANIndex, build_index
from repro.core.query import query_clusters


def test_neighbor_order_ranks_start_at_two(fig1_index):
    no = fig1_index.neighbor_order.toPandas()
    assert no.groupby("u")["rank"].min().eq(2).all()


def test_neighbor_order_ranks_contiguous(fig1_index, fig1):
    no = fig1_index.neighbor_order.toPandas()
    deg = dict(fig1.degrees().toPandas().itertuples(index=False))
    for v, grp in no.groupby("u"):
        assert sorted(grp["rank"]) == list(range(2, deg[v] + 2))


def test_neighbor_order_sorted_by_similarity(sbm_small_index):
    no = sbm_small_index.neighbor_order.toPandas()
    for _, grp in no.groupby("u"):
        grp = grp.sort_values("rank")
        sims = grp["sim"].to_numpy()
        assert (sims[:-1] >= sims[1:] - 1e-12).all()


def test_core_order_is_rekeyed_neighbor_order(fig1_index):
    no = fig1_index.neighbor_order.toPandas()
    co = fig1_index.core_order.toPandas()
    a = set(map(tuple, no[["u", "rank", "sim"]].to_numpy()))
    b = set(map(tuple, co[["v", "mu", "threshold"]].to_numpy()))
    assert a == b


def test_fig1_core_order_paper_numbers(fig1_index):
    co = fig1_index.core_order.toPandas()
    co2 = co[co["mu"] == 2].set_index("v")["threshold"]
    assert co2[6] == pytest.approx(0.75)  # the paper's CO[2] label for 6
    co3 = co[co["mu"] == 3]
    assert set(co3["v"]) == set(range(1, 10))  # paper: "nine vertices {1..9}"


def test_index_size_is_2m(fig1_index, fig1):
    assert fig1_index.neighbor_order.count() == 2 * fig1.num_edges()
    assert fig1_index.core_order.count() == 2 * fig1.num_edges()


def test_max_mu_is_max_closed_degree(fig1_index, fig1):
    max_deg = fig1.degrees().agg(F.max("deg")).collect()[0][0]
    assert fig1_index.max_mu() == max_deg + 1


def test_matches_sequential_reference(sbm_small, sbm_small_index):
    seq = SequentialGSIndex(sbm_small.to_pandas(), sbm_small.num_vertices, "cosine").build()
    no = sbm_small_index.neighbor_order.toPandas()
    for v, grp in no.groupby("u"):
        got = list(
            grp.sort_values("rank")[["v", "sim"]].itertuples(index=False, name=None)
        )
        expect = seq.NO[v]
        assert [x for x, _ in got] == [x for x, _ in expect]
        for (_, a), (_, b) in zip(got, expect):
            assert a == pytest.approx(b)


def test_core_thresholds_match_sequential_reference(sbm_small, sbm_small_index):
    seq = SequentialGSIndex(sbm_small.to_pandas(), sbm_small.num_vertices, "cosine").build()
    co = sbm_small_index.core_order.toPandas()
    for mu in (2, 3, 5):
        got = dict(co[co["mu"] == mu][["v", "threshold"]].itertuples(index=False))
        expect = dict(seq.CO.get(mu, []))
        assert set(got) == set(expect)
        for v in got:
            assert got[v] == pytest.approx(expect[v])


def test_save_load_roundtrip(fig1_index, tmp_path, spark):
    path = str(tmp_path / "idx")
    fig1_index.save(path)
    loaded = SCANIndex.load(spark, path)
    assert loaded.num_vertices == fig1_index.num_vertices
    assert loaded.measure == "cosine"
    a = fig1_index.neighbor_order.toPandas().sort_values(["u", "rank"]).reset_index(drop=True)
    b = loaded.neighbor_order.toPandas().sort_values(["u", "rank"]).reset_index(drop=True)
    assert a.equals(b)


def test_neighbor_order_is_the_only_stored_frame():
    frames = [f.name for f in dataclasses.fields(SCANIndex) if f.type == "DataFrame"]
    assert frames == ["neighbor_order"]


def test_saved_index_derives_core_order(sbm_small_index, tmp_path, spark):
    """A saved index holds NO and its metadata only; after loading, CO
    (a view of NO) and query results equal the built index's."""
    path = tmp_path / "idx"
    sbm_small_index.save(str(path))
    assert sorted(p.name for p in path.iterdir()) == ["meta.json", "neighbor_order"]
    loaded = SCANIndex.load(spark, str(path))

    def co(idx):
        pdf = idx.core_order.toPandas()
        return pdf.sort_values(["mu", "v"]).reset_index(drop=True)

    assert co(loaded).equals(co(sbm_small_index))
    for mu, eps in ((2, 0.3), (3, 0.5), (5, 0.6)):
        got = query_clusters(loaded, mu, eps).labels_pandas()
        assert got == query_clusters(sbm_small_index, mu, eps).labels_pandas()


def test_persisted_index_plan_is_a_scan_of_stored_rows(sbm_small_index):
    """persist() cuts NO's lineage: its executed plan no longer carries
    the triangle/similarity/window plan that built it."""
    plan = sbm_small_index.neighbor_order._jdf.queryExecution().executedPlan()
    assert len(plan.toString().splitlines()) <= 5


def test_build_is_few_spark_jobs(spark, sbm_small):
    """The exact build is one plan: the neighbor-list groupBy, its two
    broadcasts, the NO window shuffle and the checkpoint."""
    sc = spark.sparkContext
    sc.setJobGroup("test_build_is_few_spark_jobs", "exact build")
    try:
        idx = build_index(sbm_small, "cosine").persist()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    idx.unpersist()
    assert len(sc.statusTracker().getJobIdsForGroup("test_build_is_few_spark_jobs")) <= 8


def _cached_rdd_ids(spark) -> set[int]:
    return {i.id() for i in spark.sparkContext._jsc.sc().getRDDStorageInfo()}


@pytest.mark.parametrize("kind", ["exact", "approx"])
def test_unpersist_frees_everything_the_build_cached(spark, sbm_small, kind):
    """After unpersist() no block a build or persist() stored is left,
    and a query on the released index fails instead of recomputing."""
    before = _cached_rdd_ids(spark)
    if kind == "exact":
        idx = build_index(sbm_small, "cosine").persist()
    else:
        idx = build_approx_index(sbm_small, 2, "cosine")[0].persist()
    assert _cached_rdd_ids(spark) - before  # the checkpoint is stored
    idx.unpersist()
    assert _cached_rdd_ids(spark) - before == set()
    with pytest.raises(Exception, match="CHECKPOINT_RDD_BLOCK_ID_NOT_FOUND"):
        query_clusters(idx, 3, 0.5)


def test_build_with_given_similarities(fig1, spark):
    import pandas as pd

    sims = pd.DataFrame(
        {"u": [1, 1], "v": [2, 3], "sim": [0.9, 0.1]}
    )
    idx = build_index(fig1, "cosine", similarities=spark.createDataFrame(sims))
    no = idx.neighbor_order.toPandas()
    assert len(no) == 4  # 2 edges, both directions
    r1 = no[no["u"] == 1].sort_values("rank")
    assert r1["v"].tolist() == [2, 3]  # ordered by given sims, not graph
