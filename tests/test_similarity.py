"""Exact similarity computation vs the DuckDB oracle, the paper's
worked numbers, and the restricted-subset path."""
import math

import pytest
from pyspark.sql import functions as F

from repro.core.similarity import edge_similarities, similarities_for_edges
from repro.oracle import assert_equivalent
from tests import oracle_sql
from tests.conftest import ADVERSARIAL


@pytest.mark.parametrize("measure", ["cosine", "jaccard"])
@pytest.mark.parametrize("fixture", ["fig1", "gnp_small", "sbm_small", *ADVERSARIAL])
def test_similarities_match_duckdb(measure, fixture, request):
    g = request.getfixturevalue(fixture)
    assert_equivalent(
        edge_similarities(g, measure).select("u", "v", "sim"),
        oracle_sql.similarities(measure),
        e=g.edges,
    )


@pytest.mark.parametrize("fixture", ["weighted_small", "fig1", *ADVERSARIAL])
def test_weighted_cosine_matches_duckdb(fixture, request):
    g = request.getfixturevalue(fixture)
    assert_equivalent(
        edge_similarities(g, "wcosine").select("u", "v", "sim"),
        oracle_sql.similarities("wcosine"),
        e=g.edges,
    )


def test_wcosine_reduces_to_cosine_on_unit_weights(fig1):
    a = edge_similarities(fig1, "cosine").toPandas().set_index(["u", "v"])["sim"]
    b = edge_similarities(fig1, "wcosine").toPandas().set_index(["u", "v"])["sim"]
    for k in a.index:
        assert a[k] == pytest.approx(b[k])


def test_fig1_paper_similarity_values(fig1):
    """Every similarity the paper prints for Figures 1–3."""
    sims = {
        (r.u, r.v): r.sim
        for r in edge_similarities(fig1, "cosine").collect()
    }
    assert sims[(5, 6)] == pytest.approx(2 / math.sqrt(12))   # ~.58 (paper §3.1)
    assert sims[(2, 3)] == pytest.approx(3 / math.sqrt(12))   # .87 in NO[3]
    assert sims[(6, 7)] == pytest.approx(0.75)                # CO[2] threshold of 6
    assert sims[(7, 11)] == pytest.approx(2 / math.sqrt(8))   # border edge, >= .6
    assert sims[(1, 3)] == pytest.approx(1.0)                 # identical closed nbhd


def test_similarity_bounds(sbm_small):
    for measure in ("cosine", "jaccard"):
        pdf = edge_similarities(sbm_small, measure).toPandas()
        assert (pdf["sim"] > 0).all()
        assert (pdf["sim"] <= 1.0 + 1e-12).all()


def test_jaccard_leq_cosine(sbm_small):
    # J(A,B) <= cos(A,B) always (AM-GM on |A||B|)
    c = edge_similarities(sbm_small, "cosine").toPandas().set_index(["u", "v"])["sim"]
    j = edge_similarities(sbm_small, "jaccard").toPandas().set_index(["u", "v"])["sim"]
    assert ((j <= c + 1e-12)).all()


@pytest.mark.parametrize("measure", ["cosine", "jaccard", "wcosine"])
def test_subset_path_agrees_with_full_path(weighted_small, measure):
    full = (
        edge_similarities(weighted_small, measure)
        .toPandas()
        .set_index(["u", "v"])["sim"]
    )
    subset = weighted_small.edges.where(F.col("u") % 3 == 0).select("u", "v")
    part = (
        similarities_for_edges(weighted_small, subset, measure)
        .toPandas()
        .set_index(["u", "v"])["sim"]
    )
    assert len(part) == subset.count() > 0
    for k, s in part.items():
        assert s == pytest.approx(full[k])


def test_subset_path_empty_subset(fig1, spark):
    empty = spark.createDataFrame([], "u long, v long")
    out = similarities_for_edges(fig1, empty, "cosine")
    assert out.count() == 0


def test_unknown_measure_raises(fig1):
    with pytest.raises(ValueError):
        edge_similarities(fig1, "dice")


def test_triangle_free_graph_similarities(spark):
    from repro.graph.graphframe import UndirectedGraph

    g = UndirectedGraph.from_edge_list(spark, [(1, 2), (2, 3)], 3)
    sims = {
        (r.u, r.v): r.sim for r in edge_similarities(g, "cosine").collect()
    }
    assert sims[(1, 2)] == pytest.approx(2 / math.sqrt(2 * 3))
    assert sims[(2, 3)] == pytest.approx(2 / math.sqrt(3 * 2))
