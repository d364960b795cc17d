"""Approximate SCAN index construction via LSH (paper §5, §6.3).

Similarity measure → scheme: (weighted) cosine → SimHash; Jaccard →
k-partition MinHash, like the paper's implementation.

The §6.3 degree heuristic: approximating a low-degree pair is slower
*and* less accurate than intersecting its neighbor lists, so only edges
whose endpoints **both** exceed a degree threshold (k for cosine, 3k/2
for Jaccard) use sketches; everything else is computed exactly.

The build is one pass over the edges joined to both endpoints' sorted
neighbor lists (:func:`repro.graph.triangles.with_neighbor_lists`),
stored once: a degree is a list's size, so the split needs no degree
table. Only vertices with an approximated incident edge are sketched,
into one checkpointed sketch frame. The exact formula of
:func:`repro.core.similarity.similarities_from_lists` runs over every
row's lists, an approximated edge's with an empty nv so that it
intersects (and, for weighted cosine, explodes) nothing. The broadcast
sketches are joined to that result, and each edge takes the sketch
estimate if it is approximated and the exact value otherwise: no second
neighbor-list plan and no union.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.index import SCANIndex, build_index, release
from repro.core.similarity import MEASURES, similarities_from_lists
from repro.graph.graphframe import UndirectedGraph
from repro.graph.triangles import broadcast_if_small, with_neighbor_lists
from repro.lsh.minhash import minhash_estimator, minhash_sketches
from repro.lsh.simhash import simhash_estimator, simhash_sketches, with_sketches


@dataclass
class ApproxStats:
    """How much of the graph the approximation actually touched."""

    n_edges_approx: int
    n_edges_exact: int
    n_vertices_sketched: int
    degree_threshold: float


def degree_threshold(measure: str, k: int) -> float:
    """§6.3 thresholds: k for cosine-like, 3k/2 for Jaccard."""
    return 1.5 * k if measure == "jaccard" else float(k)


def approx_edge_similarities(
    g: UndirectedGraph,
    k: int,
    measure: str = "cosine",
    seed: int = 0,
    use_degree_heuristic: bool = True,
) -> tuple[DataFrame, ApproxStats]:
    """(u, v, w, sim) per edge with LSH-approximated similarities.

    The result is cached and materialized, and the frames the plan
    stored on the way are already released: its ``unpersist()`` frees
    everything this call stored.
    """
    sims, stats, cache = _approx_similarities(g, k, measure, seed, use_degree_heuristic)
    sims = sims.persist()
    sims.count()
    for df in cache:
        release(df)
    return sims, stats


def _approx_similarities(
    g: UndirectedGraph, k: int, measure: str, seed: int, use_degree_heuristic: bool
) -> tuple[DataFrame, ApproxStats, list[DataFrame]]:
    """:func:`approx_edge_similarities`, unmaterialized, plus the frames
    it stored and its result reads, for the caller to release."""
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")
    thr = degree_threshold(measure, k) if use_degree_heuristic else 0.0
    is_approx = (F.size("nu") > thr) & (F.size("nv") > thr)
    e = with_neighbor_lists(g, g.edges).withColumn("approx", is_approx).persist()
    cache = [e]
    n_approx = e.where("approx").count()
    n_sketched = 0
    if n_approx == 0:
        sims = similarities_from_lists(g, e, measure)
    else:
        scope = e.where("approx").select(F.explode(F.array("u", "v")).alias("v")).distinct()
        if measure == "jaccard":
            sk = minhash_sketches(g, k, seed, scope=scope)
            est = minhash_estimator(k)
        else:  # cosine / wcosine — SimHash handles weights natively
            sk = simhash_sketches(g, k, seed, scope=scope)
            est = simhash_estimator(k)
        sk = sk.localCheckpoint(eager=True)
        cache.append(sk)
        n_sketched = sk.count()
        # An approximated edge's exact value is discarded, so it gets an
        # empty nv: no common neighbors to intersect (or, for wcosine,
        # to explode and aggregate).
        nv = F.when(F.col("approx"), F.array().cast("array<long>")).otherwise(F.col("nv"))
        exact = similarities_from_lists(g, e.withColumn("nv", nv), measure)
        # Left joins: an exact edge has an endpoint without a sketch.
        sims = with_sketches(exact, broadcast_if_small(g)(sk), "left")
        sims = sims.withColumn(
            "sim", F.when(F.col("approx"), est("sk_u", "sk_v")).otherwise(F.col("sim"))
        )
    stats = ApproxStats(
        n_edges_approx=n_approx,
        n_edges_exact=g.num_edges() - n_approx,
        n_vertices_sketched=n_sketched,
        degree_threshold=thr,
    )
    return sims.select("u", "v", "w", "sim"), stats, cache


def build_approx_index(
    g: UndirectedGraph,
    k: int,
    measure: str = "cosine",
    seed: int = 0,
    use_degree_heuristic: bool = True,
) -> tuple[SCANIndex, ApproxStats]:
    """Construct a SCAN index from LSH-approximate similarities.

    Queries against the returned index are *identical in cost* to exact
    queries — only construction (what Figures 8–10 measure) changes.
    The stored list-joined edges and sketches are the index's build
    cache, released by its persist() once NO no longer reads them.
    """
    sims, stats, cache = _approx_similarities(g, k, measure, seed, use_degree_heuristic)
    idx = build_index(g, measure, similarities=sims)
    idx.build_cache = cache
    return idx, stats
