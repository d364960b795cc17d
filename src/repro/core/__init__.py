"""The paper's contribution: parallel index-based SCAN.

- :mod:`repro.core.similarity` — exact per-edge structural similarity
  (cosine / Jaccard / weighted cosine) via neighbor-list intersection.
- :mod:`repro.core.index` — the GS*-Index structures (neighbor order,
  core order) built in parallel; saved and loaded with numpy.
- :mod:`repro.core.arrays` — the index's sorted NO/CO arrays on the
  driver, which queries search.
- :mod:`repro.core.query` — cluster retrieval for arbitrary (mu, eps).
- :mod:`repro.core.hubs` — hub/outlier classification.
- :mod:`repro.core.approx` — LSH-approximate index construction with
  the low-degree exactness heuristic.
"""
from repro.core.index import SCANIndex, build_index
from repro.core.query import query_clusters
from repro.core.similarity import edge_similarities

__all__ = ["SCANIndex", "build_index", "query_clusters", "edge_similarities"]
