"""Common neighbors of each edge by sorted neighbor-list intersection.

This is the substrate for exact SCAN similarity (paper §4.1.1 / §6.1).
One ``groupBy`` of the adjacency collects every vertex's open neighbor
ids into a sorted list; each edge is joined to both endpoints' lists,
and its common neighbors N(u) ∩ N(v) are the intersection of the two.
The whole pass is one Spark plan.

The work is O(Σ_v d(v)²), since each edge intersects two whole lists,
against the O(αm) of the paper's degree-oriented counting. At the
graph sizes here Spark's per-job cost, not this work, sets the time:
the oriented wedge join plus closing-edge join took 11 Spark jobs where
this plan takes a few, and the build with it was 2–4x slower on every
Fig 5 graph, the skewed-degree webbase_lite included.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.graphframe import UndirectedGraph


def broadcast_if_small(g: UndirectedGraph):
    """Broadcast hint for per-vertex tables of ``g`` when it is small.

    At lite scale the neighbor lists and the adjacency are a few MB, so
    broadcasting them turns the edge joins into map-side hash joins.
    Gated on a known edge count so a graph that was never materialized,
    or a genuinely large one, takes the shuffle path. (The session
    disables auto-broadcast; vertex lookups are where an explicit hint
    belongs.)
    """
    small = g._num_edges is not None and g._num_edges <= 500_000
    return F.broadcast if small else (lambda df: df)


def neighbor_lists(g: UndirectedGraph, weights: bool = False) -> DataFrame:
    """(v, nbrs, norm) for every vertex of degree ≥ 1, plus ``wts`` if
    ``weights``.

    ``nbrs`` is the ascending array of v's open neighbor ids, so
    deg(v) = size(nbrs). ``norm = sqrt(1 + Σ_{x∈N(v)} w(v,x)²)`` is the
    weighted closed-neighborhood 2-norm; the 1 is the implicit
    self-edge weight w(v, v) = 1 (paper §4.1.1). ``wts`` holds the edge
    weights w(v, x) in the order of ``nbrs``.
    """
    norm = F.sqrt(F.lit(1.0) + F.sum(F.col("w") * F.col("w"))).alias("norm")
    by_vertex = g.adjacency().groupBy(F.col("u").alias("v"))
    if not weights:
        return by_vertex.agg(F.array_sort(F.collect_list("v")).alias("nbrs"), norm)
    pairs = F.array_sort(F.collect_list(F.struct("v", "w"))).alias("pairs")
    return by_vertex.agg(pairs, norm).select(
        "v", F.col("pairs.v").alias("nbrs"), F.col("pairs.w").alias("wts"), "norm"
    )


def with_neighbor_lists(
    g: UndirectedGraph, edges: DataFrame, lists: DataFrame | None = None
) -> DataFrame:
    """``edges`` (u, v, w) joined to both endpoints' neighbor lists:
    (u, v, w, nu, nv, norm_u, norm_v).

    ``lists`` defaults to :func:`neighbor_lists`; a stored per-vertex
    table with the same columns may be passed instead. Its other
    columns c come along as c_u and c_v.
    """
    lists = broadcast_if_small(g)(neighbor_lists(g) if lists is None else lists)
    extra = [c for c in lists.columns if c not in ("v", "nbrs", "norm")]

    def side(end: str, nbrs: str) -> DataFrame:
        return lists.select(
            F.col("v").alias(end),
            F.col("nbrs").alias(nbrs),
            F.col("norm").alias(f"norm_{end}"),
            *(F.col(c).alias(f"{c}_{end}") for c in extra),
        )

    return edges.join(side("u", "nu"), "u").join(side("v", "nv"), "v")


def common_neighbor_weights(g: UndirectedGraph, e: DataFrame) -> DataFrame:
    """One row per common neighbor x of each edge of ``e``.

    ``e`` carries the lists of :func:`with_neighbor_lists`; the result
    keeps e's columns and adds (x, wux, wvx) with wux = w(u, x) and
    wvx = w(v, x). An edge with no common neighbor keeps one row whose
    x, wux and wvx are null. Both weights are looked up in the
    adjacency: a map lookup per id would scan the map linearly.
    """
    adj = broadcast_if_small(g)(g.adjacency())
    common = e.select(
        "*", F.explode_outer(F.array_intersect("nu", "nv")).alias("x")
    )
    return common.join(
        adj.select("u", F.col("v").alias("x"), F.col("w").alias("wux")),
        ["u", "x"],
        "left",
    ).join(
        adj.select(
            F.col("u").alias("v"), F.col("v").alias("x"), F.col("w").alias("wvx")
        ),
        ["v", "x"],
        "left",
    )


def triangle_edge_aggregates(g: UndirectedGraph) -> DataFrame:
    """Per-edge triangle aggregates: (u, v, tri, cw) with u < v.

    ``tri``  = |N(u) ∩ N(v)|, the number of triangles through the edge;
    ``cw``   = sum over common neighbors x of w(u,x) * w(v,x), the
    weighted-cosine numerator term (paper §4.1.1).

    Only edges that appear in at least one triangle are returned.
    """
    common = common_neighbor_weights(g, with_neighbor_lists(g, g.edges))
    return (
        common.groupBy("u", "v")
        .agg(
            F.count("x").alias("tri"),
            F.sum(F.col("wux") * F.col("wvx")).alias("cw"),
        )
        .where(F.col("tri") > 0)
    )

