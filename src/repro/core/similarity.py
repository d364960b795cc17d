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

d, t and the weighted sum come from the CSR of
:mod:`repro.graph.triangles`: every edge's similarity is computed in
numpy by one task of the one ``mapInPandas`` stage of
:func:`similarity_rows`, with the CSR broadcast. The full build, the
§6.3 exact side of the approximate build and ppSCAN's undecided edges
all apply the one formula of :func:`exact_kernel`. The public frames
hold the collected rows.
"""
from __future__ import annotations

from functools import partial
from typing import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.graph.graphframe import UndirectedGraph
from repro.graph.triangles import CSR, collect_csr, common_neighbors

#: Supported similarity measures.
MEASURES = ("cosine", "jaccard", "wcosine")
#: Schema of the per-edge similarity rows.
SIM_SCHEMA = "u long, v long, w double, sim double"

#: ``sims(u, v, w)``: one similarity per edge (u[i], v[i]) of weight w[i].
EdgeKernel = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def check_measure(measure: str) -> None:
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")


def exact_kernel(csr: CSR, measure: str) -> EdgeKernel:
    """The exact similarity of edges of ``csr``: the one formula per
    measure."""
    deg = csr.degrees
    norms = csr.norms() if measure == "wcosine" else None

    def sims(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        t, cw = common_neighbors(csr, u, v)
        if measure == "wcosine":
            return (2 * w + cw) / (norms[u] * norms[v])
        shared = t + 2  # |closed ∩|
        du, dv = deg[u], deg[v]
        if measure == "cosine":
            return shared / np.sqrt((du + 1) * (dv + 1))
        return shared / (du + dv + 2 - shared)  # jaccard

    return sims


def similarity_rows(
    csr: CSR, edges: DataFrame, kernel: Callable[..., EdgeKernel], *extra: object
) -> pd.DataFrame:
    """(u, v, w, sim) for every row of ``edges`` (u, v) that is an edge
    of ``csr``, from one ``mapInPandas`` stage, collected.

    One broadcast ships ``(csr, *extra)`` (``extra`` is the sketch
    matrix of an approximate build); each task makes
    ``kernel(csr, *extra)`` once and applies it to every Arrow batch of
    its partition. The broadcast is destroyed once the rows are on the
    driver, so nothing of the stage stays stored.
    """
    bc = edges.sparkSession.sparkContext.broadcast((csr, *extra))

    def per_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        csr, *extra = bc.value
        sims = kernel(csr, *extra)
        for pdf in batches:
            u, v = pdf["u"].to_numpy(np.int64), pdf["v"].to_numpy(np.int64)
            pos = csr.find(u, v)
            keep = pos >= 0
            u, v, w = u[keep], v[keep], csr.wt[pos[keep]]
            yield pd.DataFrame({"u": u, "v": v, "w": w, "sim": sims(u, v, w)})

    try:
        return edges.select("u", "v").mapInPandas(per_partition, SIM_SCHEMA).toPandas()
    finally:
        bc.destroy()


def exact_rows(csr: CSR, edges: DataFrame, measure: str) -> pd.DataFrame:
    """(u, v, w, sim): the exact similarity of every row of ``edges``
    that is an edge of ``csr``."""
    check_measure(measure)
    return similarity_rows(csr, edges, partial(exact_kernel, measure=measure))


def edge_similarities(g: UndirectedGraph, measure: str = "cosine") -> DataFrame:
    """Similarity of every edge: (u, v, w, sim) with u < v.

    The expensive part of index construction the paper's Figure 5/8
    experiments time. The rows are computed when this is called.
    """
    return similarities_for_edges(g, g.edges, measure)


def similarities_for_edges(
    g: UndirectedGraph, subset: DataFrame, measure: str = "cosine"
) -> DataFrame:
    """Exact similarity restricted to ``subset`` (columns u, v, u < v):
    (u, v, w, sim) for each of its rows that is an edge of ``g``."""
    return g.spark.createDataFrame(exact_rows(collect_csr(g), subset, measure), SIM_SCHEMA)
