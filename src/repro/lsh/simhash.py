"""SimHash sketches and cosine-similarity estimates (paper §2.1.2, §5).

A vertex v is the vector of its *closed* neighborhood weights (diagonal
w(v, v) = 1). Sample j of its sketch is sign(Σ_x w(v,x) · r_j(x)) where
r_j(x) ~ N(0, 1) is derived deterministically from (seed, x, j)
(:func:`repro.lsh.hashing.gaussians`) — the parallel "reduce per
sample" of §5 becomes one ``mapInPandas`` call per partition of the
closed adjacency, hash-partitioned by vertex, which sketches each of
the partition's vertices in turn.

The estimate for an edge is cos(pi · hamming(sketch_u, sketch_v) / k),
the plug-in estimator of Theorem 5.2. Sketches are bit-packed binaries
of ceil(k / 8) bytes.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql.functions import pandas_udf

from repro.graph.graphframe import UndirectedGraph
from repro.lsh.hashing import gaussians


def _closed_adjacency(g: UndirectedGraph, scope: DataFrame | None) -> DataFrame:
    """Rows (u, v, w) of the closed neighborhoods to sketch. ``scope``
    holds at most one row per vertex, so it is broadcast."""
    self_rows = g.vertices().select(
        "v", F.col("v").alias("u"), F.lit(1.0).alias("w")
    ).select("u", "v", "w")
    adj = g.adjacency().unionByName(self_rows)
    if scope is not None:
        adj = adj.join(F.broadcast(scope.withColumnRenamed("v", "u")), "u")
    return adj


def sketch_vertices(
    g: UndirectedGraph,
    scope: DataFrame | None,
    sketch: Callable[[np.ndarray, np.ndarray], object],
    schema: str,
) -> DataFrame:
    """(v, sketch) for each vertex in ``scope`` (every vertex if None).

    ``sketch(xs, w)`` maps one vertex's closed neighborhood, its ids
    ``xs`` (uint64, ascending) and their weights ``w``, to its sketch.
    The closed adjacency is hash-partitioned by vertex and each
    partition is one Python call. The call joins all of its partition's
    Arrow batches before it sketches: a vertex's rows can straddle two
    batches, and sketching batch by batch would split that vertex.
    """

    def per_partition(batches):
        frames = [b for b in batches if not b.empty]
        if not frames:
            return
        pdf = pd.concat(frames, ignore_index=True).sort_values(["u", "v"])
        u = pdf["u"].to_numpy(np.int64)
        xs = pdf["v"].to_numpy(np.uint64)
        w = pdf["w"].to_numpy(np.float64)
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        ends = np.r_[starts[1:], len(u)]
        yield pd.DataFrame(
            {
                "v": u[starts],
                "sketch": [sketch(xs[s:e], w[s:e]) for s, e in zip(starts, ends)],
            }
        )

    return _closed_adjacency(g, scope).repartition("u").mapInPandas(per_partition, schema)


def simhash_sketches(
    g: UndirectedGraph, k: int, seed: int = 0, scope: DataFrame | None = None
) -> DataFrame:
    """(v, sketch) — bit-packed k-sample SimHash of each closed
    neighborhood; ``scope`` (a (v) DataFrame) restricts which vertices
    get sketched (the §6.3 heuristic sketches only high-degree ones)."""

    def sketch(xs: np.ndarray, w: np.ndarray) -> bytes:
        acc = w @ gaussians(seed, xs, k)  # (k,) signed projections
        return np.packbits(acc >= 0.0).tobytes()

    return sketch_vertices(g, scope, sketch, "v long, sketch binary")


def with_sketches(edges: DataFrame, sketches: DataFrame, how: str = "inner") -> DataFrame:
    """``edges`` joined to both endpoints' sketches, as (sk_u, sk_v).

    With ``how="left"`` an endpoint without a sketch gets a null one.
    """
    return edges.join(
        sketches.select(F.col("v").alias("u"), F.col("sketch").alias("sk_u")), "u", how
    ).join(sketches.select("v", F.col("sketch").alias("sk_v")), "v", how)


def _hamming(col_a: pd.Series, col_b: pd.Series, k: int) -> np.ndarray:
    a = np.vstack([np.frombuffer(x, np.uint8) for x in col_a])
    b = np.vstack([np.frombuffer(x, np.uint8) for x in col_b])
    diff = np.unpackbits(a ^ b, axis=1)[:, :k]
    return diff.sum(axis=1)


def simhash_estimator(k: int) -> Callable[[str, str], Column]:
    """Estimated cosine of two sketch columns; NaN where either is null."""

    @pandas_udf("double")
    def est(sa: pd.Series, sb: pd.Series) -> pd.Series:
        out = np.full(len(sa), np.nan)
        both = (sa.notna() & sb.notna()).to_numpy()
        if both.any():
            out[both] = np.cos(np.pi * _hamming(sa[both], sb[both], k) / float(k))
        return pd.Series(out)

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
