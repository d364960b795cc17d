"""Triangle counting vs the DuckDB oracle and brute force."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graph.graphframe import UndirectedGraph
from repro.graph.triangles import total_triangles, triangle_edge_aggregates
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


def test_triangle_total_k4(spark):
    g = UndirectedGraph.from_edge_list(
        spark, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], 4
    )
    assert total_triangles(g) == 4


def test_triangle_total_triangle_free(spark):
    g = UndirectedGraph.from_edge_list(spark, [(1, 2), (2, 3), (3, 4), (4, 5)], 5)
    assert total_triangles(g) == 0


def test_triangle_total_fig1(fig1):
    # Figure-1 graph triangles: {1,2,3}, {1,3,4}, {6,7,8}
    assert total_triangles(fig1) == 3


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
