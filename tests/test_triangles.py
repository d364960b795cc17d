"""Triangle counting vs the DuckDB oracle and brute force."""
import pytest
from pyspark.sql import functions as F

from repro.core.approx import build_approx_index
from repro.core.index import build_index
from repro.graph.graphframe import UndirectedGraph
from repro.graph.triangles import triangle_edge_aggregates
from repro.oracle import assert_equivalent
from tests.conftest import ADVERSARIAL
from tests.oracle_sql import TRIANGLES_PER_EDGE


@pytest.mark.parametrize(
    "fixture", ["fig1", "gnp_small", "sbm_small", "weighted_small", *ADVERSARIAL]
)
def test_per_edge_aggregates_match_duckdb(fixture, request):
    g = request.getfixturevalue(fixture)
    assert_equivalent(
        triangle_edge_aggregates(g).select(
            "u", "v", "tri", F.col("cw").cast("double").alias("cw")
        ),
        TRIANGLES_PER_EDGE,
        e=g.edges,
    )


def test_each_triangle_counted_once(dense_small):
    # total from per-edge aggregates must be divisible by 3
    s = (
        triangle_edge_aggregates(dense_small)
        .agg(F.sum("tri").alias("s"))
        .collect()[0]["s"]
    )
    assert s % 3 == 0


def test_weighted_cw_brute_force(weighted_small):
    agg = triangle_edge_aggregates(weighted_small).toPandas()
    pdf = weighted_small.to_pandas()
    wmap = {(r.u, r.v): r.w for r in pdf.itertuples(index=False)}
    wmap.update({(b, a): w for (a, b), w in list(wmap.items())})
    nbrs: dict[int, set[int]] = {}
    for a, b in wmap:
        nbrs.setdefault(a, set()).add(b)
    for row in agg.itertuples(index=False):
        common = nbrs[row.u] & nbrs[row.v]
        assert row.tri == len(common)
        expect = sum(wmap[(row.u, x)] * wmap[(row.v, x)] for x in common)
        assert row.cw == pytest.approx(expect)


def test_no_rows_for_triangle_free_edges(fig1):
    agg = triangle_edge_aggregates(fig1).toPandas()
    edges_with_tri = set(map(tuple, agg[["u", "v"]].to_numpy()))
    assert (4, 5) not in edges_with_tri  # bridge edge, no triangle
    assert (1, 2) in edges_with_tri


def _over_frame(spark, rows, n=4):
    """A graph straight over an unchecked Spark frame of (u, v, w)."""
    return UndirectedGraph(spark.createDataFrame(rows, "u long, v long, w double"), n)


@pytest.mark.parametrize("bad", [(0, 2), (2, 5)])
def test_csr_rejects_ids_outside_universe(spark, bad):
    g = _over_frame(spark, [(1, 2, 1.0), (*bad, 1.0)])
    with pytest.raises(ValueError, match=r"1\.\.4"):
        build_index(g, "cosine")


def test_csr_rejects_unoriented_edge(spark):
    g = _over_frame(spark, [(1, 2, 1.0), (3, 2, 1.0)])
    with pytest.raises(ValueError, match="u < v"):
        build_index(g, "cosine")


def test_csr_rejects_duplicate_pair(spark):
    g = _over_frame(spark, [(1, 2, 1.0), (2, 3, 1.0), (1, 2, 0.5)])
    with pytest.raises(ValueError, match="twice"):
        build_approx_index(g, 1, "cosine")


@pytest.mark.parametrize("w", [float("nan"), float("inf"), 0.0, -1.0])
def test_csr_rejects_non_finite_or_non_positive_weight(spark, w):
    g = _over_frame(spark, [(1, 2, 1.0), (2, 3, w)])
    with pytest.raises(ValueError, match="finite and > 0"):
        build_index(g, "wcosine")
