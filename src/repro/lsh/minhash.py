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
bit-identically; only equality is ever compared), made from the CSR's
closed neighborhoods like SimHash's (:mod:`repro.lsh.simhash`). The
estimates are numpy (:func:`minhash_estimate`): the match and
empty-bin counts are row sums of the two sketch matrices compared
elementwise.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from repro.graph.graphframe import UndirectedGraph
from repro.lsh.hashing import hash_tuple
from repro.lsh.simhash import Kernel, estimate_edges, sketch_rows

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
    return sketch_rows(g, minhash_kernel(k, seed, variant), weighted=False, scope=scope)


def minhash_estimate(a: np.ndarray, b: np.ndarray, k: int, variant: str = "oph") -> np.ndarray:
    """Estimated Jaccard of each row pair of two (E, k) sketch matrices."""
    if variant == "standard":
        return (a == b).sum(axis=1) / k
    match = ((a == b) & (a != EMPTY)).sum(axis=1)
    both_empty = ((a == EMPTY) & (b == EMPTY)).sum(axis=1)
    return match / np.maximum(k - both_empty, 1)


def minhash_edge_similarities(
    edges: DataFrame, sketches: DataFrame, k: int, variant: str = "oph"
) -> DataFrame:
    """(u, v, sim) — estimated Jaccard similarity for each edge row
    whose endpoints both have a sketch."""
    return estimate_edges(edges, sketches, lambda a, b: minhash_estimate(a, b, k, variant))
