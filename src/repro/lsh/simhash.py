"""SimHash sketches and cosine-similarity estimates (paper §2.1.2, §5).

A vertex v is the vector of its *closed* neighborhood weights (diagonal
w(v, v) = 1). Sample j of its sketch is sign(Σ_x w(v,x) · r_j(x)) where
r_j(x) ~ N(0, 1) is derived deterministically from (seed, x, j)
(:func:`repro.lsh.hashing.gaussians`). The parallel "reduce per sample"
of §5 becomes one ``mapInPandas`` pass over the per-vertex neighbor
lists (:func:`repro.graph.triangles.neighbor_lists`), which sketches
each row's closed neighborhood ``nbrs ∪ {v}`` in turn.

A sketch is ceil(k / 64) int64 words: sample j is bit 63 - (j mod 64)
of word j div 64, and the bits past k are 0. The estimate for an edge
is cos(pi · hamming(sketch_u, sketch_v) / k), the plug-in estimator of
Theorem 5.2, as a Spark SQL expression: the Hamming distance is the
sum of ``bit_count(x ^ y)`` over the word pairs, and it indexes a table
of the k + 1 possible cosines that numpy computes on the driver.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import ArrayType, LongType, StructField, StructType

from repro.graph.graphframe import UndirectedGraph
from repro.graph.triangles import neighbor_lists
from repro.lsh.hashing import gaussians

#: ``sketch(xs, w)`` of one closed neighborhood: its ids ``xs`` (uint64,
#: ascending) and their weights ``w``, to an int64 array.
Kernel = Callable[[np.ndarray, np.ndarray], np.ndarray]


def sketch_vertices(lists: DataFrame, sketch: Kernel, threshold: float = 0.0) -> DataFrame:
    """``lists`` with a ``sketch`` column (array<long>), in one
    ``mapInPandas`` pass row by row.

    ``lists`` has the columns of :func:`~repro.graph.triangles.neighbor_lists`,
    ``wts`` optional: without it every weight is 1. Each row with more
    than ``threshold`` neighbors gets the sketch of its closed
    neighborhood, ``nbrs`` with v inserted in id order at weight 1;
    the other rows get a null sketch. ``wts`` is dropped.
    """
    weighted = "wts" in lists.columns
    keep = [f for f in lists.schema.fields if f.name != "wts"]
    schema = StructType(keep + [StructField("sketch", ArrayType(LongType()))])

    def one(v: int, nbrs: np.ndarray, wts: np.ndarray | None):
        if len(nbrs) <= threshold:
            return None
        at = np.searchsorted(nbrs, v)
        xs = np.insert(nbrs, at, v).astype(np.uint64)
        w = np.ones(len(xs)) if wts is None else np.insert(wts, at, 1.0)
        return sketch(xs, w)

    def per_batch(batches):
        for pdf in batches:
            wts = pdf["wts"] if weighted else [None] * len(pdf)
            sketches = [one(v, n, w) for v, n, w in zip(pdf["v"], pdf["nbrs"], wts)]
            yield pdf.drop(columns="wts", errors="ignore").assign(sketch=sketches)

    return lists.mapInPandas(per_batch, schema)


def scoped_lists(g: UndirectedGraph, scope: DataFrame | None, weights: bool) -> DataFrame:
    """:func:`neighbor_lists` of the vertices in ``scope`` (all if None)."""
    lists = neighbor_lists(g, weights)
    if scope is None:
        return lists
    return lists.join(F.broadcast(scope.select("v")), "v", "left_semi")


def pack_words(bits: np.ndarray) -> np.ndarray:
    """k bits as ceil(k / 64) int64 words, first bit highest, padded with 0s."""
    padded = np.zeros(-(-len(bits) // 64) * 64, bool)
    padded[: len(bits)] = bits
    return np.packbits(padded).view(">i8").astype(np.int64)


def simhash_kernel(k: int, seed: int) -> Kernel:
    """The k-sample SimHash of one closed neighborhood, as words."""

    def sketch(xs: np.ndarray, w: np.ndarray) -> np.ndarray:
        return pack_words(w @ gaussians(seed, xs, k) >= 0.0)  # signs of (k,) projections

    return sketch


def simhash_sketches(
    g: UndirectedGraph, k: int, seed: int = 0, scope: DataFrame | None = None
) -> DataFrame:
    """(v, sketch) — k-sample SimHash of each closed neighborhood with
    its edge weights, as int64 words; ``scope`` (a (v) DataFrame)
    restricts which vertices get sketched (every vertex of degree ≥ 1
    if None)."""
    lists = scoped_lists(g, scope, weights=True)
    return sketch_vertices(lists, simhash_kernel(k, seed)).select("v", "sketch")


def with_sketches(edges: DataFrame, sketches: DataFrame, how: str = "inner") -> DataFrame:
    """``edges`` joined to both endpoints' sketches, as (sk_u, sk_v).

    With ``how="left"`` an endpoint without a sketch gets a null one.
    """
    return edges.join(
        sketches.select(F.col("v").alias("u"), F.col("sketch").alias("sk_u")), "u", how
    ).join(sketches.select("v", F.col("sketch").alias("sk_v")), "v", how)


def count_pairs(a: Column, b: Column, pair: Callable[[Column, Column], Column]) -> Column:
    """Σ_j pair(a[j], b[j]) over two equal-length array columns, as an
    int; null where either array is."""
    return F.aggregate(F.zip_with(a, b, pair), F.lit(0), lambda acc, x: acc + x)


def simhash_estimator(k: int) -> Callable[[str, str], Column]:
    """Estimated cosine of two sketch columns; null where either is."""
    cosines = F.lit(np.cos(np.pi * np.arange(k + 1) / float(k)).tolist())

    def est(a: str, b: str) -> Column:
        hamming = count_pairs(F.col(a), F.col(b), lambda x, y: F.bit_count(x.bitwiseXOR(y)))
        # get, not element_at: on a literal array element_at reads a
        # null index as 0.0 instead of null.
        return F.get(cosines, hamming)

    return est


def simhash_edge_similarities(
    edges: DataFrame, sketches: DataFrame, k: int
) -> DataFrame:
    """(u, v, sim) — estimated cosine similarity for each edge row.

    ``edges`` needs columns (u, v); every endpoint must have a sketch.
    """
    est = simhash_estimator(k)
    return with_sketches(edges.select("u", "v"), sketches).select(
        "u", "v", est("sk_u", "sk_v").alias("sim")
    )
