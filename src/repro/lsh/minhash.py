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
closed neighborhoods like SimHash's (:mod:`repro.lsh.simhash`): every
vertex is sketched once per build, on the driver, by
:func:`minhash_matrix`, from one hash per id (OPH) or one ids × k hash
table (standard). The estimates are numpy (:func:`minhash_estimate`):
the match and empty-bin counts are row sums of the two sketch matrices
compared elementwise.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from repro.graph.graphframe import UndirectedGraph
from repro.graph.triangles import CSR
from repro.lsh.hashing import hash_tuple
from repro.lsh.simhash import estimate_edges, sketch_frame

EMPTY = -1  # OPH empty-bin sentinel (hash div k is always >= 0)
VARIANTS = ("standard", "oph")


def check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown MinHash variant {variant!r}")


def minhash_matrix(
    csr: CSR, vs: np.ndarray, k: int, seed: int, variant: str = "oph"
) -> np.ndarray:
    """(len(vs), k) int64: the k-sample MinHash of each closed set of
    ``vs``; weights are ignored. Each id is hashed once, whatever the
    number of sets it lies in."""
    check_variant(variant)
    off, xs, _ = csr.closed(vs, weighted=False)
    ids, at = np.unique(xs, return_inverse=True)
    ids = ids.astype(np.uint64)
    if variant == "standard":
        j = np.arange(k, dtype=np.uint64)
        table = hash_tuple(seed, ids[:, None], j[None, :], salt=0x7A)  # (ids, k)
        out = np.empty((len(vs), k), np.uint64)
        for i, (lo, hi) in enumerate(zip(off[:-1], off[1:])):
            out[i] = table[at[lo:hi]].min(axis=0)
        return out.view(np.int64)
    h = hash_tuple(seed, ids, salt=0x7B)[at]
    bins = (h % np.uint64(k)).astype(np.int64)
    row = np.repeat(np.arange(len(vs)), np.diff(off))
    # Minimum of h div k per (set, bin), seeded with the largest uint64
    # (h div k is smaller for every k >= 2); untouched bins are EMPTY.
    hi = np.iinfo(np.uint64).max
    out = np.full((len(vs), k), hi, np.uint64)
    np.minimum.at(out, (row, bins), h // np.uint64(k))
    return np.where(out == hi, EMPTY, out.view(np.int64))


def minhash_sketches(
    g: UndirectedGraph,
    k: int,
    seed: int = 0,
    variant: str = "oph",
    scope: DataFrame | None = None,
) -> DataFrame:
    """(v, sketch: array<long>) — k-sample MinHash of closed sets."""
    check_variant(variant)
    return sketch_frame(g, lambda csr, vs: minhash_matrix(csr, vs, k, seed, variant), scope)


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
