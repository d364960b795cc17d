"""Neighbor-order / core-order construction and persistence."""
import dataclasses
import json
import re

import numpy as np
import pandas as pd
import pytest

from repro.baselines.gs_index_seq import SequentialGSIndex
from repro.core.approx import approx_edge_similarities, build_approx_index
from repro.core.index import IndexReleasedError, SCANIndex, build_index
from repro.core.query import get_cores, query_clusters, similar_edges_from_cores
from repro.oracle import assert_equivalent
from tests.conftest import ADVERSARIAL
from tests.oracle_sql import NEIGHBOR_ORDER


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


def test_neighbor_order_is_the_only_stored_frame(fig1_index, tmp_path, spark):
    """NO is the one frame an index caches. A loaded index, like a built
    one, makes it from its arrays when it is first asked for."""
    frames = [f.name for f in dataclasses.fields(SCANIndex) if "DataFrame" in f.type]
    assert frames == ["_neighbor_order"]
    fig1_index.save(str(tmp_path / "idx"))
    loaded = SCANIndex.load(spark, str(tmp_path / "idx"))
    assert loaded._neighbor_order is None
    assert loaded.neighbor_order.toPandas().equals(fig1_index.neighbor_order.toPandas())


def test_saved_index_derives_core_order(sbm_small, sbm_small_index, tmp_path, spark):
    """A saved index holds its metadata and one similarity row per edge
    (u < v) only; after loading, CO (a view of NO) and query results
    equal the built index's."""
    path = tmp_path / "idx"
    sbm_small_index.save(str(path))
    assert sorted(p.name for p in path.iterdir()) == ["meta.json", "similarities.npz"]
    with np.load(path / "similarities.npz", allow_pickle=False) as z:
        stored = {name: z[name] for name in z.files}
    assert sorted(stored) == ["sim", "u", "v"]
    assert len(stored["u"]) == sbm_small.num_edges()
    assert (stored["u"] < stored["v"]).all()
    loaded = SCANIndex.load(spark, str(path))

    def co(idx):
        pdf = idx.core_order.toPandas()
        return pdf.sort_values(["mu", "v"]).reset_index(drop=True)

    assert co(loaded).equals(co(sbm_small_index))
    for mu, eps in ((2, 0.3), (3, 0.5), (5, 0.6)):
        got = query_clusters(loaded, mu, eps).labels_pandas()
        assert got == query_clusters(sbm_small_index, mu, eps).labels_pandas()


class _Trap:
    """Pickles to a call of :func:`_sprung`: an array of these runs it
    when it is unpickled."""

    def __reduce__(self):
        return _sprung, ()


def _sprung():
    raise AssertionError("load() unpickled a saved array")


def _tamper(path, how: str) -> None:
    """Break fig1's saved artifact at ``path`` one way."""
    meta = json.loads((path / "meta.json").read_text())
    npz = path / "similarities.npz"
    with np.load(npz, allow_pickle=False) as z:
        edges = {name: z[name] for name in z.files}
    if how == "id_out_of_range":
        edges["v"][0] = 99
    elif how == "duplicate_pair":
        edges = {name: np.r_[a, a[:1]] for name, a in edges.items()}
        edges["sim"][-1] = 0.5
        meta["num_edges"] += 1
    elif how == "dropped_row":
        edges = {name: a[1:] for name, a in edges.items()}
    elif how == "nan_sim":
        edges["sim"][0] = np.nan
    elif how == "missing_array":
        del edges["sim"]
    elif how == "extra_array":
        edges["rank"] = np.arange(len(edges["u"]))
    elif how == "float_ids":
        edges["u"] = edges["u"].astype(np.float64)
    elif how == "object_array":
        edges["u"] = np.array([_Trap()] * len(edges["u"]), dtype=object)
    elif how == "missing_field":
        del meta["num_vertices"]
    elif how == "float_field":
        meta["num_edges"] = float(meta["num_edges"])
    elif how == "format_2":
        # The Spark-written layout: one Parquet dataset of (u, v, sim).
        meta["format"] = 2
        (path / "similarities").mkdir()
        pd.DataFrame(edges).to_parquet(path / "similarities" / "part-00000.parquet")
        npz.unlink()
    (path / "meta.json").write_text(json.dumps(meta))
    if npz.exists():
        np.savez_compressed(npz, **edges)


#: Ways to break a saved artifact, each with what load() says of it.
TAMPERED = [
    ("id_out_of_range", "vertex ids outside 1..11"),
    ("duplicate_pair", "a \\(u, v\\) pair is listed twice"),
    ("dropped_row", "'u': \\('int64', \\(12,\\)\\)"),
    ("nan_sim", "a similarity is not finite"),
    ("missing_array", "arrays \\{'u': \\('int64', \\(13,\\)\\), 'v': \\('int64', \\(13,\\)\\)\\}, not"),
    ("extra_array", "'rank': \\('int64'"),
    ("float_ids", "'u': \\('float64', \\(13,\\)\\)"),
    ("object_array", "[Oo]bject arrays cannot be loaded"),
    ("missing_field", "meta.json num_vertices is None, not int"),
    ("float_field", "meta.json num_edges is 13.0, not int"),
    ("format_2", "format 2, not 3"),
]


@pytest.mark.parametrize("how, message", TAMPERED)
def test_load_rejects_a_tampered_neighbor_order(fig1_index, tmp_path, spark, how, message):
    """load() validates the saved artifact before it can answer a
    query: a corrupt, mismatched or old-format artifact raises a
    ValueError that names its path, and an object array is refused
    without being unpickled."""
    path = tmp_path / "idx"
    fig1_index.save(str(path))
    _tamper(path, how)
    with pytest.raises(ValueError, match=f"index at {re.escape(str(path))}: .*{message}"):
        SCANIndex.load(spark, str(path))


def test_failed_save_keeps_the_earlier_artifact(
    fig1_index, sbm_small_index, tmp_path, spark, monkeypatch
):
    """save() writes aside and moves the artifact into place: a save
    that fails during the array write leaves the earlier artifact
    loadable and nothing else behind, and a save that succeeds
    replaces it."""
    path = tmp_path / "idx"
    sbm_small_index.save(str(path))
    write = np.savez_compressed

    def write_then_fail(*args, **kwargs):
        write(*args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez_compressed", write_then_fail)
    with pytest.raises(OSError, match="disk full"):
        fig1_index.save(str(path))
    assert [p.name for p in tmp_path.iterdir()] == ["idx"]
    assert SCANIndex.load(spark, str(path)).arrays.rows().equals(sbm_small_index.arrays.rows())
    monkeypatch.undo()
    fig1_index.save(str(path))
    assert [p.name for p in tmp_path.iterdir()] == ["idx"]
    assert SCANIndex.load(spark, str(path)).arrays.rows().equals(fig1_index.arrays.rows())


def test_save_into_an_existing_empty_directory(fig1_index, tmp_path, spark):
    """An empty directory made beforehand (as the benchmark makes one)
    takes the artifact, and nothing else is left beside it."""
    path = tmp_path / "idx"
    path.mkdir()
    fig1_index.save(str(path))
    assert [p.name for p in tmp_path.iterdir()] == ["idx"]
    assert sorted(p.name for p in path.iterdir()) == ["meta.json", "similarities.npz"]
    assert SCANIndex.load(spark, str(path)).arrays.rows().equals(fig1_index.arrays.rows())


def test_save_and_load_run_no_spark_job(spark, sbm_small_index, tmp_path):
    """The artifact is written and read on the driver with numpy."""
    sc = spark.sparkContext
    sc.setJobGroup("test_save_and_load_run_no_spark_job", "save and load")
    try:
        sbm_small_index.save(str(tmp_path / "idx"))
        loaded = SCANIndex.load(spark, str(tmp_path / "idx"))
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert loaded.arrays.rows().equals(sbm_small_index.arrays.rows())
    assert sc.statusTracker().getJobIdsForGroup("test_save_and_load_run_no_spark_job") == []


@pytest.mark.parametrize("kind", ["exact", "simhash"])
@pytest.mark.parametrize("fixture", ["fig1", "sbm_small", "weighted_small", *ADVERSARIAL])
def test_loaded_arrays_equal_the_built_ones(fixture, kind, request, tmp_path, spark):
    """Every array of a loaded index equals the built index's byte for
    byte, for an exact and a SimHash build, the edgeless graph too."""
    g = request.getfixturevalue(fixture)
    if kind == "exact":
        idx = build_index(g, "cosine")
    else:
        idx = build_approx_index(g, 4, "cosine", seed=1)[0]
    idx.save(str(tmp_path / "idx"))
    loaded = SCANIndex.load(spark, str(tmp_path / "idx"))
    assert (loaded.num_vertices, loaded.measure) == (g.num_vertices, "cosine")
    for f in dataclasses.fields(idx.arrays):
        built, got = getattr(idx.arrays, f.name), getattr(loaded.arrays, f.name)
        assert (got.dtype, got.shape, got.tobytes()) == (built.dtype, built.shape, built.tobytes()), f.name


def test_save_refuses_to_replace_a_directory_that_is_not_an_index(fig1_index, tmp_path):
    """Moving the artifact into place replaces what is at the path, so
    save() raises, and writes nothing, over a directory of other files."""
    (tmp_path / "notes.txt").write_text("keep me")
    with pytest.raises(FileExistsError, match="is not a saved index"):
        fig1_index.save(str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["notes.txt"]


def test_persisted_index_plan_is_a_scan_of_stored_rows(sbm_small_index):
    """NO is a frame of the driver's rows: its executed plan carries no
    neighbor-list or similarity plan that built it."""
    plan = sbm_small_index.neighbor_order._jdf.queryExecution().executedPlan()
    assert len(plan.toString().splitlines()) <= 5


def test_build_is_few_spark_jobs(spark, sbm_small):
    """The exact build is two Spark jobs: the collect of the edges for
    the CSR, and the one kernel stage over the edges with its collect
    of the similarities."""
    sc = spark.sparkContext
    sc.setJobGroup("test_build_is_few_spark_jobs", "exact build")
    try:
        idx = build_index(sbm_small, "cosine").persist()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    idx.unpersist()
    assert len(sc.statusTracker().getJobIdsForGroup("test_build_is_few_spark_jobs")) <= 2


def test_approx_build_is_few_spark_jobs(spark, dense_small):
    """The SimHash build is the exact build's two Spark jobs: the
    sketches are made inside the one kernel stage."""
    sc = spark.sparkContext
    sc.setJobGroup("test_approx_build_is_few_spark_jobs", "approx build")
    try:
        idx = build_approx_index(dense_small, 4, "cosine")[0].persist()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    idx.unpersist()
    jobs = sc.statusTracker().getJobIdsForGroup("test_approx_build_is_few_spark_jobs")
    assert len(jobs) <= 2


def _cached_rdd_ids(spark) -> set[int]:
    return {i.id() for i in spark.sparkContext._jsc.sc().getRDDStorageInfo()}


@pytest.mark.parametrize("kind", ["exact", "approx"])
def test_unpersist_frees_everything_the_build_cached(spark, sbm_small, kind):
    """A build leaves no block stored: NO lives on the driver. After
    unpersist() a query on the released index fails with our own error
    instead of recomputing."""
    before = _cached_rdd_ids(spark)
    if kind == "exact":
        idx = build_index(sbm_small, "cosine").persist()
    else:
        idx = build_approx_index(sbm_small, 2, "cosine")[0].persist()
    assert _cached_rdd_ids(spark) - before == set()
    query_clusters(idx, 3, 0.5)  # the built index answers
    idx.unpersist()
    assert _cached_rdd_ids(spark) - before == set()
    with pytest.raises(IndexReleasedError, match="released by unpersist"):
        query_clusters(idx, 3, 0.5)
    with pytest.raises(IndexReleasedError, match="released by unpersist"):
        get_cores(idx, 3, 0.5)
    with pytest.raises(IndexReleasedError, match="released by unpersist"):
        similar_edges_from_cores(idx, spark.createDataFrame([(1,)], "v long"), 0.5)


def test_unpersist_drops_the_neighbor_order_frame(fig1):
    """A NO frame made before unpersist() goes with the arrays: NO and
    CO then raise like every other read of a released index."""
    idx = build_index(fig1, "cosine")
    assert idx.neighbor_order.count() == 2 * fig1.num_edges()
    idx.unpersist()
    with pytest.raises(IndexReleasedError, match="released by unpersist"):
        idx.neighbor_order
    with pytest.raises(IndexReleasedError, match="released by unpersist"):
        idx.core_order


@pytest.mark.parametrize("kind", ["exact", "approx"])
def test_build_destroys_its_broadcast(spark, sbm_small, monkeypatch, kind):
    """A build ships the CSR in one broadcast and destroys it once the
    similarities are collected."""
    sc = spark.sparkContext
    made, broadcast = [], sc.broadcast
    monkeypatch.setattr(sc, "broadcast", lambda value: made.append(broadcast(value)) or made[-1])
    if kind == "exact":
        build_index(sbm_small, "cosine").unpersist()
    else:
        build_approx_index(sbm_small, 2, "cosine")[0].unpersist()
    assert len(made) == 1
    assert not made[0]._jbroadcast.isValid()


def test_approx_edge_similarities_leaves_only_its_result_stored(spark, dense_small):
    """The call stores nothing: its result is a frame of the rows it
    collected, and its CSR broadcast is destroyed."""
    before = _cached_rdd_ids(spark)
    sims, stats = approx_edge_similarities(dense_small, 8, "cosine")
    assert stats.n_edges_approx > 0  # the kernel sketched
    assert sims.count() == dense_small.num_edges()
    assert _cached_rdd_ids(spark) - before == set()


def test_build_with_given_similarities(fig1, spark):
    sims = pd.DataFrame(
        {"u": [1, 1], "v": [2, 3], "sim": [0.9, 0.1]}
    )
    idx = SCANIndex.from_similarities(spark, sims, fig1.num_vertices, "cosine")
    no = idx.neighbor_order.toPandas()
    assert len(no) == 4  # 2 edges, both directions
    r1 = no[no["u"] == 1].sort_values("rank")
    assert r1["v"].tolist() == [2, 3]  # ordered by given sims, not graph


@pytest.mark.parametrize(
    "rows, message",
    [
        ([(1, 2, 0.9), (1, 2, 0.5), (2, 3, 0.7)], "a \\(u, v\\) pair is listed twice"),
        ([(1, 2, 0.9), (1, 9, 0.5)], "vertex ids outside 1..3"),
        ([(1, 2, 0.9), (3, 2, 0.5)], "a row has u >= v"),
        ([(1, 2, 0.9), (2, 3, float("nan"))], "a similarity is not finite"),
    ],
    ids=["duplicate_pair", "id_out_of_range", "u_not_below_v", "nan_sim"],
)
def test_from_similarities_rejects_rows_that_are_not_edges(spark, rows, message):
    """Given similarities take the checks a loaded artifact takes: a
    pair listed twice or an id outside 1..n would otherwise change NO
    (a duplicate pair lists its neighbor twice and raises the closed
    degree), so they raise."""
    sims = pd.DataFrame(rows, columns=["u", "v", "sim"])
    with pytest.raises(ValueError, match=message):
        SCANIndex.from_similarities(spark, sims, 3, "cosine")


@pytest.mark.parametrize("fixture", ["fig1", "sbm_small", *ADVERSARIAL])
def test_neighbor_order_matches_duckdb_ranking(fixture, request):
    """NO's ranks equal DuckDB's ROW_NUMBER over both directions of the
    index's own similarities. The star's hub and the cliques of
    two_cliques list tied similarities, which order by ascending id."""
    no = build_index(request.getfixturevalue(fixture), "cosine").neighbor_order
    assert_equivalent(no, NEIGHBOR_ORDER, e=no.where("u < v").select("u", "v", "sim"))
