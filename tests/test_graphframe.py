"""Unit tests for the graph representation substrate."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graph.graphframe import UndirectedGraph, canonical_edges
from repro.oracle import assert_equivalent
from tests.oracle_sql import DEGREES


def test_canonical_edges_orients_dedups_and_drops_loops(spark):
    raw = spark.createDataFrame(
        pd.DataFrame({"u": [2, 1, 3, 4, 2], "v": [1, 2, 3, 5, 1]})
    )
    out = canonical_edges(raw).toPandas().sort_values(["u", "v"])
    assert list(map(tuple, out[["u", "v"]].to_numpy())) == [(1, 2), (4, 5)]
    assert (out["w"] == 1.0).all()


def test_canonical_edges_preserves_weights(spark):
    raw = spark.createDataFrame(pd.DataFrame({"u": [2], "v": [1], "w": [0.25]}))
    out = canonical_edges(raw).collect()[0]
    assert (out["u"], out["v"], out["w"]) == (1, 2, 0.25)


def test_from_edge_list_canonicalizes(spark):
    """from_pandas orients, drops self-loops and keeps each edge once
    (its first weight) before its one upload."""
    g = UndirectedGraph.from_edge_list(
        spark, [(2, 1, 0.5), (1, 2, 0.7), (3, 3, 1.0), (4, 3, 2.0)], 4, weighted=True
    )
    assert list(map(tuple, g.to_pandas().to_numpy())) == [(1, 2, 0.5), (3, 4, 2.0)]


def test_from_edge_list_and_counts(spark):
    g = UndirectedGraph.from_edge_list(spark, [(1, 2), (2, 3)], num_vertices=4)
    assert g.num_edges() == 2
    assert g.num_vertices == 4
    assert g.vertices().count() == 4


def test_adjacency_is_symmetric(fig1):
    adj = fig1.adjacency().toPandas()
    fwd = set(map(tuple, adj[["u", "v"]].to_numpy()))
    assert all((b, a) in fwd for a, b in fwd)
    assert len(adj) == 2 * fig1.num_edges()


def test_degrees_match_duckdb_oracle(fig1):
    assert_equivalent(
        fig1.degrees(),
        DEGREES,
        e=fig1.edges,
        verts=fig1.vertices(),
    )


def test_degrees_match_duckdb_oracle_random(gnp_small):
    assert_equivalent(
        gnp_small.degrees(),
        DEGREES,
        e=gnp_small.edges,
        verts=gnp_small.vertices(),
    )


def test_zero_degree_vertices_present(spark):
    g = UndirectedGraph.from_edge_list(spark, [(1, 2)], num_vertices=5)
    deg = dict(g.degrees().toPandas().itertuples(index=False))
    assert deg == {1: 1, 2: 1, 3: 0, 4: 0, 5: 0}


def test_fig1_degrees(fig1):
    deg = dict(fig1.degrees().toPandas().itertuples(index=False))
    # reconstructed Figure-1 graph: CO[3] = vertices {1..9} (deg >= 2)
    assert deg == {1: 3, 2: 2, 3: 3, 4: 3, 5: 2, 6: 3, 7: 3, 8: 3, 9: 2, 10: 1, 11: 1}


def test_to_pandas_sorted_canonical(fig1):
    pdf = fig1.to_pandas()
    assert (pdf["u"] < pdf["v"]).all()
    assert pdf[["u", "v"]].apply(tuple, axis=1).is_monotonic_increasing


def test_empty_graph(spark):
    g = UndirectedGraph.from_pandas(spark, pd.DataFrame(columns=["u", "v"]), 3)
    assert g.num_edges() == 0
    assert g.degrees().toPandas()["deg"].tolist() == [0, 0, 0]


def test_vertex_id_outside_universe_raises(spark):
    # (3, 7) used to be dropped silently, leaving an NO of 6 rows, not 8.
    with pytest.raises(ValueError, match=r"1\.\.4"):
        UndirectedGraph.from_edge_list(
            spark, [(1, 2), (2, 3), (1, 3), (3, 7)], num_vertices=4
        )


def test_vertex_id_below_one_raises(spark):
    with pytest.raises(ValueError, match=r"1\.\.3"):
        UndirectedGraph.from_edge_list(spark, [(0, 1), (1, 2)], num_vertices=3)


def test_non_integer_vertex_ids_raise(spark):
    pdf = pd.DataFrame({"u": [1.0, 2.5], "v": [2.0, 3.0]})
    with pytest.raises(ValueError, match="integers"):
        UndirectedGraph.from_pandas(spark, pdf, num_vertices=3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_non_finite_or_non_positive_weight_raises(spark, bad):
    # One NaN weight used to make every wcosine similarity NaN.
    with pytest.raises(ValueError, match="finite and > 0"):
        UndirectedGraph.from_edge_list(
            spark, [(1, 2, 1.0), (2, 3, bad), (1, 3, 2.0)], 3, weighted=True
        )
