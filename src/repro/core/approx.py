"""Approximate SCAN index construction via LSH (paper §5, §6.3).

Similarity measure → scheme: (weighted) cosine → SimHash; Jaccard →
k-partition MinHash, like the paper's implementation. SimHash sketches
weighted cosine with the edge weights and plain cosine with unit
weights, so each estimate targets the measure its exact side computes.

The §6.3 degree heuristic: approximating a low-degree pair is slower
*and* less accurate than intersecting its neighbor lists, so only edges
whose endpoints **both** exceed a degree threshold (k for cosine, 3k/2
for Jaccard) use sketches; everything else is computed exactly.

The build is the exact build's one stage with a second branch in its
kernel. The driver collects the CSR (:mod:`repro.graph.triangles`) and
sketches every vertex above the threshold once per build, from one
hash table per scheme (:func:`repro.lsh.simhash.simhash_matrix`,
:func:`repro.lsh.minhash.minhash_matrix`); the sketch matrix rides in
the CSR's broadcast to one ``mapInPandas`` stage over the edges. Each
task splits every batch by the endpoint degrees: an exact edge takes
the formula of :func:`repro.core.similarity.exact_kernel`, an
approximated edge the numpy estimate of its endpoints' rows of the
matrix. One collect brings the similarities to the driver, which ranks
NO (:mod:`repro.core.index`) and counts the split from the CSR degrees.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.index import SCANIndex
from repro.core.similarity import (
    SIM_SCHEMA,
    EdgeKernel,
    check_measure,
    exact_kernel,
    similarity_rows,
)
from repro.graph.graphframe import UndirectedGraph
from repro.graph.triangles import CSR, collect_csr
from repro.lsh.minhash import minhash_estimate, minhash_matrix
from repro.lsh.simhash import Estimator, simhash_estimate, simhash_matrix


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


def approx_kernel(
    csr: CSR, sketches: np.ndarray, measure: str, thr: float, estimate: Estimator
) -> EdgeKernel:
    """Similarity of edges of ``csr``: estimated where both endpoints'
    degrees exceed ``thr``, exact elsewhere. ``sketches`` holds one row
    per vertex above ``thr``, in id order."""
    exact = exact_kernel(csr, measure)
    above = csr.degrees > thr
    row = np.cumsum(above) - 1  # a vertex's row in sketches, if above

    def sims(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        approx = above[u] & above[v]
        out = np.empty(len(u))
        ex = ~approx
        out[ex] = exact(u[ex], v[ex], w[ex])
        if approx.any():
            out[approx] = estimate(sketches[row[u[approx]]], sketches[row[v[approx]]])
        return out

    return sims


def _approx_rows(
    g: UndirectedGraph, k: int, measure: str, seed: int, use_degree_heuristic: bool
) -> tuple[pd.DataFrame, ApproxStats]:
    """(u, v, w, sim) per edge, collected, and the §6.3 split."""
    check_measure(measure)
    thr = degree_threshold(measure, k) if use_degree_heuristic else 0.0
    csr = collect_csr(g)
    vs = np.flatnonzero(csr.degrees > thr)
    if measure == "jaccard":
        sketches = minhash_matrix(csr, vs, k, seed)
        estimate = partial(minhash_estimate, k=k)
    else:
        sketches = simhash_matrix(csr, vs, k, seed, weighted=measure == "wcosine")
        estimate = partial(simhash_estimate, k=k)
    kernel = partial(approx_kernel, measure=measure, thr=thr, estimate=estimate)
    rows = similarity_rows(csr, g.edges, kernel, sketches)
    return rows, _stats(csr, rows, thr)


def _stats(csr: CSR, edges: pd.DataFrame, thr: float) -> ApproxStats:
    """The §6.3 split of ``edges`` (u, v), counted from the CSR degrees."""
    above = csr.degrees > thr
    n_approx = int((above[edges["u"].to_numpy()] & above[edges["v"].to_numpy()]).sum())
    return ApproxStats(
        n_edges_approx=n_approx,
        n_edges_exact=len(edges) - n_approx,
        n_vertices_sketched=int(above.sum()),
        degree_threshold=thr,
    )


def approx_edge_similarities(
    g: UndirectedGraph,
    k: int,
    measure: str = "cosine",
    seed: int = 0,
    use_degree_heuristic: bool = True,
) -> tuple[DataFrame, ApproxStats]:
    """(u, v, w, sim) per edge with LSH-approximated similarities.

    The result is a frame of the collected rows; the call leaves no
    Spark block or broadcast stored.
    """
    rows, stats = _approx_rows(g, k, measure, seed, use_degree_heuristic)
    return g.spark.createDataFrame(rows, SIM_SCHEMA), stats


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
    """
    rows, stats = _approx_rows(g, k, measure, seed, use_degree_heuristic)
    return SCANIndex.from_similarities(g.spark, rows, g.num_vertices, measure), stats
