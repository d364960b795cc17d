"""Approximate index construction: the §6.3 degree heuristic, the
exact-fallback guarantee, and end-to-end approximate clustering."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import approx as approx_module
from repro.core.approx import (
    approx_edge_similarities,
    build_approx_index,
    degree_threshold,
)
from repro.core.index import build_index
from repro.core.query import query_clusters
from repro.core.similarity import edge_similarities
from repro.lsh.minhash import minhash_estimate
from repro.lsh.simhash import simhash_estimate
from tests.test_index import _cached_rdd_ids
from tests.test_lsh_simhash import _closed_sets, _reference_sketch


def test_degree_thresholds_match_paper():
    assert degree_threshold("cosine", 10) == 10
    assert degree_threshold("wcosine", 10) == 10
    assert degree_threshold("jaccard", 10) == 15  # 3k/2 (§6.3)


def test_huge_k_reverts_to_exact(sbm_small):
    """With k above every degree, the heuristic approximates nothing
    and the result must equal the exact similarities bit-for-bit in
    spirit (same values)."""
    sims, stats = approx_edge_similarities(sbm_small, k=10_000, measure="cosine")
    assert stats.n_edges_approx == 0
    assert stats.n_vertices_sketched == 0
    got = sims.toPandas().set_index(["u", "v"])["sim"]
    exact = (
        edge_similarities(sbm_small, "cosine").toPandas().set_index(["u", "v"])["sim"]
    )
    assert len(got) == len(exact)
    for key in exact.index:
        assert got[key] == pytest.approx(exact[key])


def test_small_k_on_dense_graph_approximates(dense_small):
    # avg degree ~14, so k=4 (threshold 4) puts most edges on the
    # sketch path
    _, stats = approx_edge_similarities(dense_small, k=4, measure="cosine")
    assert stats.n_edges_approx > 0
    assert stats.n_vertices_sketched > 0
    assert stats.n_edges_approx + stats.n_edges_exact == dense_small.num_edges()


def test_heuristic_split_is_by_both_endpoint_degrees(dense_small):
    k = 8
    _, stats = approx_edge_similarities(dense_small, k=k, measure="cosine")
    deg = dict(dense_small.degrees().toPandas().itertuples(index=False))
    pdf = dense_small.to_pandas()
    expect_approx = sum(
        1 for r in pdf.itertuples(index=False) if deg[r.u] > k and deg[r.v] > k
    )
    assert stats.n_edges_approx == expect_approx


def test_disable_heuristic_sketches_everything(dense_small):
    _, stats = approx_edge_similarities(
        dense_small, k=1024, measure="cosine", use_degree_heuristic=False
    )
    assert stats.n_edges_exact == 0
    assert stats.n_vertices_sketched == dense_small.num_vertices


def test_all_edges_covered_once(dense_small):
    sims, _ = approx_edge_similarities(dense_small, k=8, measure="jaccard")
    pdf = sims.toPandas()
    assert len(pdf) == dense_small.num_edges()
    assert not pdf.duplicated(["u", "v"]).any()


def test_high_k_minhash_index_clusters_exactly(sbm_small):
    """MinHash at k=2048 (estimate sd ~0.01) reproduces the exact
    Jaccard clustering identically on this graph."""
    exact_idx = build_index(sbm_small, "jaccard")
    approx_idx, stats = build_approx_index(
        sbm_small, k=2048, measure="jaccard", seed=0, use_degree_heuristic=False
    )
    assert stats.n_edges_approx == sbm_small.num_edges()
    for mu, eps in ((3, 0.4), (4, 0.6)):
        a = query_clusters(exact_idx, mu, eps).labels_pandas()
        b = query_clusters(approx_idx, mu, eps).labels_pandas()
        assert a == b


def test_high_k_simhash_classifies_edges_like_exact(sbm_small, exact_sims):
    """SimHash's estimator is wider (sd ~0.035 at k=2048) and this
    graph's similarity values form a continuum, so cluster-level
    equality is not attainable at practical k; what the paper's
    Theorem 5.2 promises — and what we assert — is that the
    eps-classification of edges is right outside a small window, and
    nearly right overall."""
    approx_idx, _ = build_approx_index(
        sbm_small, k=2048, measure="cosine", seed=0, use_degree_heuristic=False
    )
    est = (
        approx_idx.neighbor_order.where(F.col("u") < F.col("v"))
        .select("u", "v", "sim")
        .toPandas()
        .set_index(["u", "v"])["sim"]
        .sort_index()
    )
    exact = exact_sims(sbm_small, "cosine").sort_index()
    for eps in (0.4, 0.6):
        flipped = ((est >= eps) != (exact >= eps))
        assert flipped.mean() < 0.05
        far = (exact - eps).abs() > 0.12
        assert not (flipped & far).any()


def test_weighted_graph_uses_simhash(weighted_small):
    approx_idx, stats = build_approx_index(
        weighted_small, k=512, measure="wcosine", seed=1, use_degree_heuristic=False
    )
    res = query_clusters(approx_idx, 3, 0.5)
    exact_res = query_clusters(build_index(weighted_small, "wcosine"), 3, 0.5)
    got, expect = res.labels_pandas(), exact_res.labels_pandas()
    # allow small discrepancies near the threshold: at least 90% of
    # vertex pair relationships preserved, measured via ARI
    from repro.quality.ari import adjusted_rand_index_pandas

    n = weighted_small.num_vertices
    total_a = {v: got.get(v, v) for v in range(1, n + 1)}
    total_b = {v: expect.get(v, v) for v in range(1, n + 1)}
    assert adjusted_rand_index_pandas(total_a, total_b) > 0.9


def test_invalid_measure_raises(sbm_small):
    with pytest.raises(ValueError):
        approx_edge_similarities(sbm_small, 8, "dice")


def test_stats_fields(dense_small):
    _, stats = approx_edge_similarities(dense_small, k=8, measure="jaccard")
    assert stats.degree_threshold == 12.0  # 3k/2


@pytest.mark.parametrize(
    "graph, measure, k",
    # k such that the threshold (k, or 3k/2 for Jaccard) splits the edges
    [("dense_small", "cosine", 12), ("dense_small", "jaccard", 8), ("weighted_small", "wcosine", 8)],
)
def test_approx_build_equals_its_building_blocks(request, graph, measure, k):
    """The one-pass build gives, bit for bit, the estimate of each
    vertex's sketch drawn alone on the approximated edges and the exact
    build's similarity on the rest."""
    g = request.getfixturevalue(graph)
    seed = 3
    idx, stats = build_approx_index(g, k, measure, seed=seed)
    got = idx.arrays.rows().query("u < v").set_index(["u", "v"])["sim"]
    idx.unpersist()
    edges = g.to_pandas()
    deg = pd.concat([edges["u"], edges["v"]]).value_counts()
    thr = degree_threshold(measure, k)
    approx = edges[(deg[edges["u"]].to_numpy() > thr) & (deg[edges["v"]].to_numpy() > thr)]
    closed = _closed_sets(g, weighted=measure == "wcosine")
    scheme = "oph" if measure == "jaccard" else "simhash"

    def sketches(vs) -> np.ndarray:
        rows = [_reference_sketch(scheme, *closed[v], k, seed) for v in vs]
        if scheme == "oph":
            return np.array(rows, np.int64)
        words = -(-k // 64)
        return np.stack(
            [np.frombuffer(r.ljust(8 * words, b"\0"), ">i8").astype(np.int64) for r in rows]
        )

    a, b = sketches(approx["u"]), sketches(approx["v"])
    est = minhash_estimate(a, b, k) if scheme == "oph" else simhash_estimate(a, b, k)
    want = edge_similarities(g, measure).toPandas().set_index(["u", "v"])["sim"]
    assert 0 < len(approx) == stats.n_edges_approx < len(want)  # a mixed split
    want.loc[pd.MultiIndex.from_frame(approx[["u", "v"]])] = est
    assert got.sort_index().equals(want.sort_index())


@pytest.mark.parametrize("measure", ["cosine", "wcosine", "jaccard"])
def test_each_vertex_is_sketched_once_per_build(spark, weighted_small, monkeypatch, measure):
    """One call of the driver's sketch function per build makes one row
    per vertex above the threshold, and the build leaves no block
    stored and no broadcast alive."""
    made = []
    for name in ("simhash_matrix", "minhash_matrix"):
        def counted(*args, _sketch=getattr(approx_module, name), **kw):
            made.append(_sketch(*args, **kw))
            return made[-1]

        monkeypatch.setattr(approx_module, name, counted)
    sc = spark.sparkContext
    broadcasts, broadcast = [], sc.broadcast
    monkeypatch.setattr(
        sc, "broadcast", lambda value: broadcasts.append(broadcast(value)) or broadcasts[-1]
    )
    before = _cached_rdd_ids(spark)
    idx, stats = build_approx_index(weighted_small, 8, measure)
    idx.unpersist()
    assert 0 < stats.n_edges_approx < weighted_small.num_edges()
    assert [len(m) for m in made] == [stats.n_vertices_sketched]
    assert _cached_rdd_ids(spark) - before == set()
    assert len(broadcasts) == 1 and not broadcasts[0]._jbroadcast.isValid()


def test_cosine_on_weighted_graph_sketches_unit_weights(weighted_small, exact_sims):
    """Plain cosine ignores the edge weights on both sides of the
    build: with every edge sketched, the estimates track the exact
    unweighted cosine, not the weighted one."""
    idx, stats = build_approx_index(
        weighted_small, k=4096, measure="cosine", seed=2, use_degree_heuristic=False
    )
    assert stats.n_edges_exact == 0
    est = (
        idx.neighbor_order.where(F.col("u") < F.col("v"))
        .select("u", "v", "sim")
        .toPandas()
        .set_index(["u", "v"])["sim"]
    )
    err = (est - exact_sims(weighted_small, "cosine")).abs()
    err_weighted = (est - exact_sims(weighted_small, "wcosine")).abs()
    assert err.mean() < 0.03 and err.max() < 0.15
    assert err_weighted.mean() > 2 * err.mean()
