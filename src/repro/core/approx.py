"""Approximate SCAN index construction via LSH (paper §5, §6.3).

Similarity measure → scheme: (weighted) cosine → SimHash; Jaccard →
k-partition MinHash, like the paper's implementation.

The §6.3 degree heuristic: approximating a low-degree pair is slower
*and* less accurate than intersecting its neighbor lists, so only edges
whose endpoints **both** exceed a degree threshold (k for cosine, 3k/2
for Jaccard) use sketches; everything else is computed exactly with
:func:`repro.core.similarity.similarities_for_edges`. Sketches are only
built for vertices that actually have an approximated incident edge.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.index import SCANIndex, build_index
from repro.core.similarity import MEASURES, similarities_for_edges
from repro.graph.graphframe import UndirectedGraph
from repro.lsh.minhash import minhash_edge_similarities, minhash_sketches
from repro.lsh.simhash import simhash_edge_similarities, simhash_sketches


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

    The approximated edges stay cached: the returned plan reads them
    several times (sketch scope, estimates, the final join).
    """
    sims, stats, _ = _approx_similarities(g, k, measure, seed, use_degree_heuristic)
    return sims, stats


def _approx_similarities(
    g: UndirectedGraph, k: int, measure: str, seed: int, use_degree_heuristic: bool
) -> tuple[DataFrame, ApproxStats, DataFrame]:
    """:func:`approx_edge_similarities` plus the cached approximated-edge
    frame its result reads, for the caller to release."""
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")
    thr = degree_threshold(measure, k) if use_degree_heuristic else 0.0
    deg = g.degrees()
    e = g.edges.join(
        F.broadcast(deg.withColumnRenamed("v", "u").withColumnRenamed("deg", "du")),
        "u",
    ).join(F.broadcast(deg.withColumnRenamed("deg", "dv")), "v")
    is_approx = (F.col("du") > thr) & (F.col("dv") > thr)
    approx_edges = e.where(is_approx).select("u", "v", "w").persist()
    exact_edges = e.where(~is_approx).select("u", "v")
    n_approx = approx_edges.count()

    parts: list[DataFrame] = []
    n_sketched = 0
    if n_approx > 0:
        scope = (
            approx_edges.select(F.col("u").alias("v"))
            .unionByName(approx_edges.select("v"))
            .distinct()
        )
        if measure == "jaccard":
            sk = minhash_sketches(g, k, seed, scope=scope)
            est = minhash_edge_similarities(approx_edges, sk, k)
        else:  # cosine / wcosine — SimHash handles weights natively
            sk = simhash_sketches(g, k, seed, scope=scope)
            est = simhash_edge_similarities(approx_edges, sk, k)
        n_sketched = scope.count()
        parts.append(approx_edges.join(est, ["u", "v"]).select("u", "v", "w", "sim"))
    exact = similarities_for_edges(g, exact_edges, measure)
    parts.append(exact)
    sims = parts[0] if len(parts) == 1 else parts[0].unionByName(parts[1])
    stats = ApproxStats(
        n_edges_approx=n_approx,
        n_edges_exact=g.num_edges() - n_approx,
        n_vertices_sketched=n_sketched,
        degree_threshold=thr,
    )
    return sims, stats, approx_edges


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
    The cached approximated edges are the index's build cache, released
    by its persist() once NO no longer reads them.
    """
    sims, stats, approx_edges = _approx_similarities(
        g, k, measure, seed, use_degree_heuristic
    )
    idx = build_index(g, measure, similarities=sims)
    idx.build_cache = approx_edges
    return idx, stats
