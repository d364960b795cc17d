"""ppSCAN-style per-query SCAN in Spark (paper §7.1 comparison system).

ppSCAN (Che et al., ICPP 2018) clusters for one fixed (mu, eps) without
an index, pruning similarity computations whose outcome the endpoint
degrees already decide (the pSCAN bounds). This baseline reproduces
that algorithmic profile on the Spark substrate so the Figure 6/7
comparison is meaningful: per query it pays (pruned) similarity
computation + clustering, while the index query pays only clustering.

Degree bounds for adjacent u, v (t = common open neighbors,
t ∈ [0, min(d(u), d(v)) − 1] since u, v are mutual neighbors):

- cosine:  sigma = (t+2)/sqrt((du+1)(dv+1)) ∈ [lb, ub] with
  lb = 2/sqrt((du+1)(dv+1)), ub = (min(du,dv)+1)/sqrt((du+1)(dv+1)).
- jaccard: sigma = (t+2)/(du+dv−t) ∈ [2/(du+dv), (min+1)/(max+1)].

Edges with lb >= eps are similar without computation; edges with
ub < eps are dissimilar without computation; only the rest get an exact
intersection (:func:`repro.core.similarity.similarities_for_edges`).
Decided-similar edges carry sigma = lb as the (valid lower-bound)
similarity used only for deterministic border ordering, so border
choices may differ from the exact-index engine — the paper notes border
assignment is arbitrary among valid cores anyway (§3.1, §7.1).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.query import ClusteringResult, assemble_from_edges
from repro.core.similarity import similarities_for_edges
from repro.graph.graphframe import UndirectedGraph


def _with_endpoint_degrees(g: UndirectedGraph, edges: DataFrame) -> DataFrame:
    deg = g.degrees()  # per-vertex: broadcastable dimension table
    return edges.join(
        F.broadcast(deg.withColumnRenamed("v", "u").withColumnRenamed("deg", "du")),
        "u",
    ).join(F.broadcast(deg.withColumnRenamed("deg", "dv")), "v")


def _bounds(measure: str):
    """(lb, ub) column expressions over (du, dv)."""
    mind = F.least("du", "dv")
    maxd = F.greatest("du", "dv")
    if measure == "cosine":
        s = F.sqrt((F.col("du") + 1) * (F.col("dv") + 1))
        return F.lit(2) / s, (mind + 1) / s
    if measure == "jaccard":
        return F.lit(2) / (F.col("du") + F.col("dv")), (mind + 1) / (maxd + 1)
    raise ValueError(
        f"pscan baseline supports unweighted measures only, got {measure!r}"
    )


def pscan_query(
    g: UndirectedGraph,
    mu: int,
    eps: float,
    measure: str = "cosine",
) -> ClusteringResult:
    """One SCAN clustering computed from scratch with pruning."""
    if mu < 2:
        raise ValueError("SCAN requires mu >= 2")
    lb, ub = _bounds(measure)
    e = _with_endpoint_degrees(g, g.edges).select(
        "u", "v", lb.alias("lb"), ub.alias("ub")
    )
    decided_similar = e.where(F.col("lb") >= eps).select(
        "u", "v", F.col("lb").alias("sim")
    )
    undecided = e.where((F.col("lb") < eps) & (F.col("ub") >= eps)).select("u", "v")
    computed = similarities_for_edges(g, undecided, measure).where(
        F.col("sim") >= eps
    ).select("u", "v", "sim")
    similar = decided_similar.unionByName(computed)
    sym = similar.unionByName(
        similar.select(F.col("v").alias("u"), F.col("u").alias("v"), "sim")
    ).persist()
    # Core check: eps-neighborhood contains the vertex itself, so a
    # core needs >= mu - 1 similar incident edges.
    cores = (
        sym.groupBy(F.col("u").alias("v"))
        .agg(F.count("*").alias("k"))
        .where(F.col("k") >= mu - 1)
        .select("v")
    )
    # Cores are broadcast, as in the index query: with a shuffle join,
    # a query with no cores finishes early while the abandoned shuffle
    # of sym keeps running into the caller's next job.
    sim_from_cores = sym.join(
        F.broadcast(cores.withColumnRenamed("v", "u")), "u", "left_semi"
    )
    # One collect of the eps-edges out of cores; the index query's
    # driver assembly finishes the clustering. The scratch similar-edge
    # cache is free to go once the edges are on the driver.
    e = sim_from_cores.toPandas()
    sym.unpersist()
    return assemble_from_edges(e["u"], e["v"], e["sim"], mu, eps, g.spark)
