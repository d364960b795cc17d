"""MinHash sketches and Jaccard estimates (paper §2.1.2, §5, §6.3).

Two variants over *closed* neighborhoods (unweighted sets):

- ``standard``: sample j of v's sketch is min_x h_j(x) with an
  independent hash h_j per sample — O(k · |N̄(v)|) work per vertex, the
  variant Theorem 5.3's Hoeffding bound applies to. The estimate is the
  fraction of matching sketch coordinates.
- ``oph`` (k-partition MinHash / one-permutation hashing, Li et al.
  2012): one hash h splits the universe into k bins (h mod k) and keeps
  min(h div k) per bin — O(k + |N̄(v)|) work, the variant the paper's
  implementation uses (§6.3). The estimate is N_match / (k − N_emp)
  over bins, where N_emp counts bins empty in *both* sketches; empty
  bins are the sentinel -1.

Sketches are int64 arrays of length k (uint64 hash values reinterpreted
bit-identically; only equality is ever compared), made by the same
``mapInPandas`` pass over the neighbor lists as SimHash's
(:func:`repro.lsh.simhash.sketch_vertices`). The estimates are Spark
SQL expressions: the match and empty-bin counts are ``zip_with`` over
the two arrays, summed by ``aggregate``.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.graph.graphframe import UndirectedGraph
from repro.lsh.hashing import hash_tuple
from repro.lsh.simhash import Kernel, count_pairs, scoped_lists, sketch_vertices, with_sketches

EMPTY = -1  # OPH empty-bin sentinel (hash div k is always >= 0)
VARIANTS = ("standard", "oph")


def minhash_kernel(k: int, seed: int, variant: str = "oph") -> Kernel:
    """The k-sample MinHash of one closed set; weights are ignored."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown MinHash variant {variant!r}")

    def sketch_standard(xs: np.ndarray, w: np.ndarray) -> np.ndarray:
        j = np.arange(k, dtype=np.uint64)
        h = hash_tuple(seed, xs[:, None], j[None, :], salt=0x7A)  # (d, k)
        return h.min(axis=0).view(np.int64)

    def sketch_oph(xs: np.ndarray, w: np.ndarray) -> np.ndarray:
        h = hash_tuple(seed, xs, salt=0x7B)
        bins = (h % np.uint64(k)).astype(np.int64)
        vals = (h // np.uint64(k)).view(np.int64)  # < 2**63 for k >= 2
        # Seed with int64-max (vals are nonnegative and strictly
        # smaller), then mark untouched bins with the EMPTY sentinel.
        hi = np.iinfo(np.int64).max
        out = np.full(k, hi, dtype=np.int64)
        np.minimum.at(out, bins, vals)
        return np.where(out == hi, EMPTY, out)

    return sketch_standard if variant == "standard" else sketch_oph


def minhash_sketches(
    g: UndirectedGraph,
    k: int,
    seed: int = 0,
    variant: str = "oph",
    scope: DataFrame | None = None,
) -> DataFrame:
    """(v, sketch: array<long>) — k-sample MinHash of closed sets."""
    fn = minhash_kernel(k, seed, variant)
    return sketch_vertices(scoped_lists(g, scope, weights=False), fn).select("v", "sketch")


def minhash_estimator(k: int, variant: str = "oph") -> Callable[[str, str], Column]:
    """Estimated Jaccard of two sketch columns; null where either is."""

    def est(a: str, b: str) -> Column:
        sa, sb = F.col(a), F.col(b)
        if variant == "standard":
            return count_pairs(sa, sb, lambda x, y: (x == y).cast("int")) / F.lit(k)
        match = count_pairs(sa, sb, lambda x, y: ((x == y) & (x != EMPTY)).cast("int"))
        both_empty = count_pairs(
            sa, sb, lambda x, y: ((x == EMPTY) & (y == EMPTY)).cast("int")
        )
        return match / F.greatest(F.lit(k) - both_empty, F.lit(1))

    return est


def minhash_edge_similarities(
    edges: DataFrame, sketches: DataFrame, k: int, variant: str = "oph"
) -> DataFrame:
    """(u, v, sim) — estimated Jaccard similarity for each edge row."""
    est = minhash_estimator(k, variant)
    return with_sketches(edges.select("u", "v"), sketches).select(
        "u", "v", est("sk_u", "sk_v").alias("sim")
    )
