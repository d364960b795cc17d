"""Approximate SCAN index construction via LSH (paper §5, §6.3).

Similarity measure → scheme: (weighted) cosine → SimHash; Jaccard →
k-partition MinHash, like the paper's implementation. SimHash sketches
weighted cosine with the edge weights and plain cosine with unit
weights, so each estimate targets the measure its exact side computes.

The §6.3 degree heuristic: approximating a low-degree pair is slower
*and* less accurate than intersecting its neighbor lists, so only edges
whose endpoints **both** exceed a degree threshold (k for cosine, 3k/2
for Jaccard) use sketches; everything else is computed exactly.

The build reads one per-vertex table, stored once: the neighbor lists
of :func:`repro.graph.triangles.neighbor_lists` (with the edge weights
for weighted cosine) plus a ``sketch`` column, filled by one
``mapInPandas`` pass for every vertex above the threshold
(:func:`repro.lsh.simhash.sketch_vertices`). A degree is a list's size,
so the split needs no degree table. Each edge joins the table on both
endpoints; an approximated edge takes the Spark SQL estimate of its
two sketches, any other the exact formula of
:func:`repro.core.similarity.similarities_from_lists`. An approximated
edge's ``nv`` is emptied first, so the exact formula intersects (and,
for weighted cosine, explodes) nothing for it. One collect brings the
similarities to the driver, which ranks NO (:mod:`repro.core.index`)
and counts the split from the same rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.index import SCANIndex, release
from repro.core.similarity import MEASURES, similarities_from_lists
from repro.graph.graphframe import UndirectedGraph
from repro.graph.triangles import neighbor_lists, with_neighbor_lists
from repro.lsh.minhash import minhash_estimator, minhash_kernel
from repro.lsh.simhash import simhash_estimator, simhash_kernel, sketch_vertices


@dataclass
class ApproxStats:
    """How much of the graph the approximation actually touched."""

    n_edges_approx: int
    n_edges_exact: int
    # Vertices above the degree threshold: each gets a sketch, whether
    # or not one of its edges is approximated.
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

    The result is cached and materialized, and the per-vertex table is
    already released: its ``unpersist()`` frees everything this call
    stored.
    """
    sims, table, thr = _approx_similarities(g, k, measure, seed, use_degree_heuristic)
    try:
        sims = sims.persist()
        edges = sims.select("u", "v").toPandas()
    finally:
        release(table)
    return sims, _stats(edges, g.num_vertices, thr)


def _approx_similarities(
    g: UndirectedGraph, k: int, measure: str, seed: int, use_degree_heuristic: bool
) -> tuple[DataFrame, DataFrame, float]:
    """(u, v, w, sim) per edge, unmaterialized, the stored per-vertex
    table it reads, for the caller to release, and the threshold."""
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")
    thr = degree_threshold(measure, k) if use_degree_heuristic else 0.0
    if measure == "jaccard":
        kernel, est = minhash_kernel(k, seed), minhash_estimator(k)
    else:
        kernel, est = simhash_kernel(k, seed), simhash_estimator(k)
    lists = neighbor_lists(g, weights=measure == "wcosine")
    table = sketch_vertices(lists, kernel, thr).localCheckpoint(eager=True)
    e = with_neighbor_lists(g, g.edges, table)
    approx = (F.size("nu") > thr) & (F.size("nv") > thr)
    e = e.select(
        "u", "v", "w", "nu",
        F.when(approx, F.array().cast("array<long>")).otherwise(F.col("nv")).alias("nv"),
        "norm_u", "norm_v",
        F.when(approx, est("sketch_u", "sketch_v")).alias("est"),
    )
    sims = similarities_from_lists(g, e, measure).select(
        "u", "v", "w", F.coalesce("est", "sim").alias("sim")
    )
    return sims, table, thr


def _stats(edges, num_vertices: int, thr: float) -> ApproxStats:
    """The §6.3 split of ``edges`` (u, v), counted from their degrees."""
    u, v = edges["u"].to_numpy(np.int64), edges["v"].to_numpy(np.int64)
    above = np.bincount(np.concatenate((u, v)), minlength=num_vertices + 1) > thr
    n_approx = int((above[u] & above[v]).sum())
    return ApproxStats(
        n_edges_approx=n_approx,
        n_edges_exact=len(u) - n_approx,
        n_vertices_sketched=int(above.sum()),
        degree_threshold=thr,
    )


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
    The per-vertex table is released once the similarities are on the
    driver.
    """
    sims, table, thr = _approx_similarities(g, k, measure, seed, use_degree_heuristic)
    try:
        edges = sims.select("u", "v", "sim").toPandas()
    finally:
        release(table)
    idx = SCANIndex.from_similarities(g.spark, edges, g.num_vertices, measure)
    return idx, _stats(edges, g.num_vertices, thr)
