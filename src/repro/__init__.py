"""PySpark reproduction of "Parallel Index-Based Structural Graph
Clustering and Its Approximation" (Tseng, Dhulipala, Shun; SIGMOD 2021).

Subpackages:

- ``repro.graph``     — graph substrate: DataFrame representation,
  seeded synthetic generators, common-neighbor (triangle) counting.
- ``repro.core``      — the paper's contribution: exact and approximate
  SCAN index construction and cluster queries.
- ``repro.lsh``       — locality-sensitive hashing (SimHash, MinHash).
- ``repro.cc``        — connected components (driver-side union-find).
- ``repro.baselines`` — sequential GS*-Index reference and a
  ppSCAN-style per-query SCAN baseline.
- ``repro.quality``   — modularity and adjusted Rand index.
- ``repro.experiments`` — one harness per evaluation table/figure.
"""
