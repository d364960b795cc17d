"""Exact per-edge structural similarity (paper §4.1.1).

For adjacent u, v with t = |N(u) ∩ N(v)| common *open* neighbors, the
closed neighborhoods N̄ = N ∪ {·} intersect in t + 2 elements (the two
endpoints themselves are always shared since {u, v} ∈ E), hence:

- cosine(u, v)  = (t + 2) / sqrt((d(u)+1) * (d(v)+1))
- jaccard(u, v) = (t + 2) / (d(u) + d(v) + 2 − (t + 2))
- weighted cosine(u, v) =
    (2·w(u,v) + Σ_{x ∈ N(u)∩N(v)} w(u,x)·w(v,x)) / (norm(u)·norm(v))
  with w(x, x) = 1 and norm(v) = sqrt(1 + Σ_{x∈N(v)} w(v,x)²); the
  2·w(u,v) term is x = u and x = v of the closed intersection.

Every edge is joined to both endpoints' sorted neighbor lists
(:mod:`repro.graph.triangles`): d = size(list) and t is the size of
the lists' intersection, so all edges' similarities come from one Spark
plan. Weighted cosine also explodes the common ids to look up the two
weights of each. The full build, the §6.3 exact side of the approximate
build and the ppSCAN baseline's undecided edges all apply the one
formula of :func:`similarities_from_lists`.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.graphframe import UndirectedGraph
from repro.graph.triangles import (
    broadcast_if_small,
    common_neighbor_weights,
    with_neighbor_lists,
)

#: Supported similarity measures.
MEASURES = ("cosine", "jaccard", "wcosine")


def similarities_from_lists(g: UndirectedGraph, e: DataFrame, measure: str) -> DataFrame:
    """Exact similarity of every row of ``e``, a frame of
    :func:`~repro.graph.triangles.with_neighbor_lists` that may carry
    more columns: e's columns but the two lists, plus ``sim``.

    The one formula per measure: the full build, the §6.3 fallback of
    the approximate build and ppSCAN's undecided edges all run it.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")
    rest = [c for c in e.columns if c not in ("nu", "nv")]
    if measure == "wcosine":
        cw = common_neighbor_weights(g, e).groupBy(*rest).agg(
            F.coalesce(F.sum(F.col("wux") * F.col("wvx")), F.lit(0.0)).alias("cw")
        )
        sim = (2 * F.col("w") + F.col("cw")) / (F.col("norm_u") * F.col("norm_v"))
        return cw.select(*rest, sim.alias("sim"))
    shared = F.size(F.array_intersect("nu", "nv")).cast("long") + 2  # |closed ∩|
    du = F.size("nu").cast("long")
    dv = F.size("nv").cast("long")
    if measure == "cosine":
        sim = shared / F.sqrt((du + 1) * (dv + 1))
    else:  # jaccard
        sim = shared / (du + dv + 2 - shared)
    return e.select(*rest, sim.alias("sim"))


def _similarities(g: UndirectedGraph, edges: DataFrame, measure: str) -> DataFrame:
    """(u, v, w, sim) for every row of ``edges`` (u, v, w)."""
    e = with_neighbor_lists(g, edges)
    return similarities_from_lists(g, e, measure).select("u", "v", "w", "sim")


def edge_similarities(g: UndirectedGraph, measure: str = "cosine") -> DataFrame:
    """Similarity of every edge: (u, v, w, sim) with u < v.

    The expensive part of index construction the paper's Figure 5/8
    experiments time.
    """
    return _similarities(g, g.edges, measure)


def similarities_for_edges(
    g: UndirectedGraph, subset: DataFrame, measure: str = "cosine"
) -> DataFrame:
    """Exact similarity restricted to ``subset`` (columns u, v, u < v).

    Used by the ppSCAN baseline: only its undecided edges need exact
    computation.
    """
    edges = subset.select("u", "v").join(broadcast_if_small(g)(g.edges), ["u", "v"])
    return _similarities(g, edges, measure)
