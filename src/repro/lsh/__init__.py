"""Locality-sensitive hashing substrate (paper §2.1.2, §5, §6.3).

- :mod:`repro.lsh.hashing` — splitmix64-style deterministic hashing and
  hash-seeded Box–Muller gaussians (the paper generates its normals via
  Box–Muller too).
- :mod:`repro.lsh.simhash` — SimHash sketches + cosine estimates for
  weighted or unweighted closed neighborhoods.
- :mod:`repro.lsh.minhash` — standard MinHash and k-partition MinHash
  (one-permutation hashing) + Jaccard estimates.

Each vertex is sketched once per build, on the driver, from one hash
table per scheme over the closed neighborhoods of the CSR
(:mod:`repro.graph.triangles`). Each scheme has one sketch function and
one numpy estimator, which the approximate build and the public
``*_sketches`` / ``*_edge_similarities`` frames share.
"""
from repro.lsh.minhash import minhash_edge_similarities, minhash_sketches
from repro.lsh.simhash import simhash_edge_similarities, simhash_sketches

__all__ = [
    "simhash_sketches",
    "simhash_edge_similarities",
    "minhash_sketches",
    "minhash_edge_similarities",
]
