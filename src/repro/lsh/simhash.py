"""SimHash sketches and cosine-similarity estimates (paper §2.1.2, §5).

A vertex v is the vector of its *closed* neighborhood weights (diagonal
w(v, v) = 1). Sample j of its sketch is sign(Σ_x w(v,x) · r_j(x)) where
r_j(x) ~ N(0, 1) is derived deterministically from (seed, x, j)
(:func:`repro.lsh.hashing.gaussians`). The parallel "reduce per sample"
of §5 becomes one product per vertex over its closed neighborhood
``nbrs ∪ {v}``, read from the CSR of :mod:`repro.graph.triangles`.
Every vertex is sketched once per build, on the driver, by
:func:`simhash_matrix`: one table of gaussians over the ids of the
sketched closed neighborhoods, then ``w @ G[xs]`` per vertex. The
approximate build (:mod:`repro.core.approx`) ships the resulting
matrix in the CSR's broadcast, and :func:`simhash_sketches` frames it.

A sketch is ceil(k / 64) int64 words: sample j is bit 63 - (j mod 64)
of word j div 64, and the bits past k are 0. The estimate for an edge
is cos(pi · hamming(sketch_u, sketch_v) / k), the plug-in estimator of
Theorem 5.2, in numpy (:func:`simhash_estimate`): the Hamming distance
is the popcount of the XOR of the two rows of words, and it indexes a
table of the k + 1 possible cosines.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.graph.graphframe import UndirectedGraph
from repro.graph.triangles import CSR, collect_csr
from repro.lsh.hashing import gaussians

#: ``sketch(csr, vs)``: the sketches of vertices ``vs``, one row each.
Sketcher = Callable[[CSR, np.ndarray], np.ndarray]
#: ``estimate(a, b)``: one similarity per row pair of two sketch matrices.
Estimator = Callable[[np.ndarray, np.ndarray], np.ndarray]

SKETCH_SCHEMA = "v long, sketch array<long>"
#: Set bits of each byte value.
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], np.int64)


def sketch_frame(
    g: UndirectedGraph, sketch: Sketcher, scope: DataFrame | None = None
) -> DataFrame:
    """(v, sketch) of each vertex of degree ≥ 1 in ``scope`` (a (v)
    frame; every vertex if None), each sketched once on the driver by
    ``sketch``."""
    csr = collect_csr(g)
    if scope is None:
        vs = np.arange(1, g.num_vertices + 1)
    else:
        vs = np.unique(scope.select("v").toPandas()["v"].to_numpy(np.int64))
        vs = vs[(vs >= 1) & (vs <= g.num_vertices)]
    vs = vs[csr.degrees[vs] > 0]
    if not len(vs):
        return g.spark.createDataFrame([], SKETCH_SCHEMA)
    rows = pd.DataFrame({"v": vs, "sketch": list(sketch(csr, vs))})
    return g.spark.createDataFrame(rows, SKETCH_SCHEMA)


def estimate_edges(edges: DataFrame, sketches: DataFrame, estimate: Estimator) -> DataFrame:
    """(u, v, sim): ``estimate`` for each row of ``edges`` (u, v) whose
    endpoints both have a row in ``sketches`` (v, sketch), on the
    driver."""
    e = edges.select("u", "v").toPandas()
    sk = sketches.select("v", "sketch").toPandas()
    e = e[e["u"].isin(sk["v"]) & e["v"].isin(sk["v"])]
    sim = np.empty(0)
    if len(e):
        mat = np.stack(sk["sketch"].to_numpy())
        row = pd.Index(sk["v"])
        sim = estimate(mat[row.get_indexer(e["u"])], mat[row.get_indexer(e["v"])])
    return edges.sparkSession.createDataFrame(
        e.assign(sim=sim), "u long, v long, sim double"
    )


def pack_words(bits: np.ndarray) -> np.ndarray:
    """k bits (the last axis) as ceil(k / 64) int64 words, first bit
    highest, padded with 0s."""
    k = bits.shape[-1]
    padded = np.zeros(bits.shape[:-1] + (-(-k // 64) * 64,), bool)
    padded[..., :k] = bits
    return np.packbits(padded, axis=-1).view(">i8").astype(np.int64)


def simhash_matrix(csr: CSR, vs: np.ndarray, k: int, seed: int, weighted: bool) -> np.ndarray:
    """(len(vs), ceil(k / 64)) int64: the k-sample SimHash of each closed
    neighborhood of ``vs``, with the edge weights if ``weighted`` and
    unit weights otherwise.

    The gaussians are drawn once, for the ids of those neighborhoods;
    each vertex's projections are then ``w @ G[xs]`` over its own list,
    the same product, summed in the same order, as drawing its rows
    alone.
    """
    off, xs, w = csr.closed(vs, weighted)
    ids, at = np.unique(xs, return_inverse=True)
    table = gaussians(seed, ids, k)
    proj = np.empty((len(vs), k))
    for i, (lo, hi) in enumerate(zip(off[:-1], off[1:])):
        proj[i] = w[lo:hi] @ table[at[lo:hi]]
    return pack_words(proj >= 0.0)  # signs of the (k,) projections


def simhash_estimate(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """cos(pi · hamming / k) of each row pair of two (E, words) sketch
    matrices."""
    hamming = _POPCOUNT[np.bitwise_xor(a, b).view(np.uint8)].sum(axis=1)
    return np.cos(np.pi * np.arange(k + 1) / float(k))[hamming]


def simhash_sketches(
    g: UndirectedGraph, k: int, seed: int = 0, scope: DataFrame | None = None
) -> DataFrame:
    """(v, sketch) — k-sample SimHash of each closed neighborhood with
    its edge weights, as int64 words; ``scope`` (a (v) DataFrame)
    restricts which vertices get sketched (every vertex of degree ≥ 1
    if None)."""
    return sketch_frame(
        g, lambda csr, vs: simhash_matrix(csr, vs, k, seed, weighted=True), scope
    )


def simhash_edge_similarities(
    edges: DataFrame, sketches: DataFrame, k: int
) -> DataFrame:
    """(u, v, sim) — estimated cosine similarity for each edge row.

    ``edges`` needs columns (u, v); an edge whose endpoints do not both
    have a sketch gets no row.
    """
    return estimate_edges(edges, sketches, lambda a, b: simhash_estimate(a, b, k))
