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
bit-identically; only equality is ever compared).
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql.functions import pandas_udf

from repro.graph.graphframe import UndirectedGraph
from repro.lsh.hashing import hash_tuple
from repro.lsh.simhash import sketch_vertices, with_sketches

EMPTY = -1  # OPH empty-bin sentinel (hash div k is always >= 0)


def minhash_sketches(
    g: UndirectedGraph,
    k: int,
    seed: int = 0,
    variant: str = "oph",
    scope: DataFrame | None = None,
) -> DataFrame:
    """(v, sketch: array<long>) — k-sample MinHash of closed sets."""
    if variant not in ("standard", "oph"):
        raise ValueError(f"unknown MinHash variant {variant!r}")

    def sketch_standard(xs: np.ndarray, w: np.ndarray) -> list[int]:
        j = np.arange(k, dtype=np.uint64)
        h = hash_tuple(seed, xs[:, None], j[None, :], salt=0x7A)  # (d, k)
        return h.min(axis=0).view(np.int64).tolist()

    def sketch_oph(xs: np.ndarray, w: np.ndarray) -> list[int]:
        h = hash_tuple(seed, xs, salt=0x7B)
        bins = (h % np.uint64(k)).astype(np.int64)
        vals = (h // np.uint64(k)).view(np.int64)  # < 2**63 for k >= 2
        # Seed with int64-max (vals are nonnegative and strictly
        # smaller), then mark untouched bins with the EMPTY sentinel.
        hi = np.iinfo(np.int64).max
        out = np.full(k, hi, dtype=np.int64)
        np.minimum.at(out, bins, vals)
        return np.where(out == hi, EMPTY, out).tolist()

    fn = sketch_standard if variant == "standard" else sketch_oph
    return sketch_vertices(g, scope, fn, "v long, sketch array<long>")


def minhash_estimator(k: int, variant: str = "oph") -> Callable[[str, str], Column]:
    """Estimated Jaccard of two sketch columns; NaN where either is null."""

    @pandas_udf("double")
    def est(sa: pd.Series, sb: pd.Series) -> pd.Series:
        out = np.full(len(sa), np.nan)
        both = (sa.notna() & sb.notna()).to_numpy()
        if both.any():
            a = np.vstack(sa[both].to_numpy())
            b = np.vstack(sb[both].to_numpy())
            if variant == "standard":
                out[both] = (a == b).mean(axis=1)
            else:
                both_empty = ((a == EMPTY) & (b == EMPTY)).sum(axis=1)
                match = ((a == b) & (a != EMPTY)).sum(axis=1)
                out[both] = match / np.maximum(k - both_empty, 1)
        return pd.Series(out)

    return est


def minhash_edge_similarities(
    edges: DataFrame, sketches: DataFrame, k: int, variant: str = "oph"
) -> DataFrame:
    """(u, v, sim) — estimated Jaccard similarity for each edge row."""
    est = minhash_estimator(k, variant)
    return with_sketches(edges.select("u", "v"), sketches).select(
        "u", "v", est("sk_u", "sk_v").alias("sim")
    )
