"""Locality-sensitive hashing substrate (paper §2.1.2, §5, §6.3).

- :mod:`repro.lsh.hashing` — splitmix64-style deterministic hashing and
  hash-seeded Box–Muller gaussians (the paper generates its normals via
  Box–Muller too).
- :mod:`repro.lsh.simhash` — SimHash sketches + cosine estimates for
  weighted or unweighted closed neighborhoods.
- :mod:`repro.lsh.minhash` — standard MinHash and k-partition MinHash
  (one-permutation hashing) + Jaccard estimates.

Sketches are made in numpy from the closed neighborhoods of the CSR
(:mod:`repro.graph.triangles`), and each scheme has one numpy
estimator, which the approximate build's kernel and the public
``*_edge_similarities`` both call.
"""
from repro.lsh.minhash import minhash_edge_similarities, minhash_sketches
from repro.lsh.simhash import simhash_edge_similarities, simhash_sketches

__all__ = [
    "simhash_sketches",
    "simhash_edge_similarities",
    "minhash_sketches",
    "minhash_edge_similarities",
]
