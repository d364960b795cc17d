"""ppSCAN-style per-query SCAN in Spark (paper §7.1 comparison system).

ppSCAN (Che et al., ICPP 2018) clusters for one fixed (mu, eps) without
an index, pruning similarity computations whose outcome the endpoint
degrees already decide (the pSCAN bounds). This baseline reproduces
that algorithmic profile on the Spark substrate so the Figure 6/7
comparison is meaningful: per query it pays (pruned) similarity
computation + clustering, while the index query pays only clustering.

Degree bounds for adjacent u, v (t = common open neighbors,
t ∈ [0, min(d(u), d(v)) − 1] since u, v are mutual neighbors):

- cosine:  sigma = (t+2)/sqrt((du+1)(dv+1)) ∈ [lb, ub] with
  lb = 2/sqrt((du+1)(dv+1)), ub = (min(du,dv)+1)/sqrt((du+1)(dv+1)).
- jaccard: sigma = (t+2)/(du+dv−t) ∈ [2/(du+dv), (min+1)/(max+1)].

The endpoint degrees come from the graph's CSR (:mod:`repro.graph.triangles`),
collected once per query, and the bounds are numpy on the driver.
Edges with lb >= eps are similar without computation; edges with
ub < eps are dissimilar without computation; only the rest get an exact
intersection, in the one stage that computes every exact similarity
(:func:`repro.core.similarity.exact_rows`, behind
:func:`~repro.core.similarity.similarities_for_edges`).
Decided-similar edges carry sigma = lb as the (valid lower-bound)
similarity used only for deterministic border ordering, so border
choices may differ from the exact-index engine — the paper notes border
assignment is arbitrary among valid cores anyway (§3.1, §7.1). The
eps-edges out of cores go to the index query's driver assembly.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.query import ClusteringResult, assemble_from_edges, check_query
from repro.core.similarity import exact_rows
from repro.graph.graphframe import UndirectedGraph
from repro.graph.triangles import collect_csr


#: The measures with degree bounds.
MEASURES = ("cosine", "jaccard")


def _bounds(measure: str, du: np.ndarray, dv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lb, ub) of sigma per edge from its endpoint degrees."""
    mind, maxd = np.minimum(du, dv), np.maximum(du, dv)
    if measure == "cosine":
        s = np.sqrt((du + 1) * (dv + 1))
        return 2 / s, (mind + 1) / s
    return 2 / (du + dv), (mind + 1) / (maxd + 1)  # jaccard


def pscan_query(
    g: UndirectedGraph,
    mu: int,
    eps: float,
    measure: str = "cosine",
) -> ClusteringResult:
    """One SCAN clustering computed from scratch with pruning."""
    check_query(mu, eps)
    if measure not in MEASURES:
        raise ValueError(f"pscan baseline supports {MEASURES} only, got {measure!r}")
    csr = collect_csr(g)
    u, v = csr.edges()
    deg = csr.degrees
    lb, ub = _bounds(measure, deg[u], deg[v])
    similar = lb >= eps
    undecided = ~similar & (ub >= eps)
    todo = g.spark.createDataFrame(
        pd.DataFrame({"u": u[undecided], "v": v[undecided]}), "u long, v long"
    )
    computed = exact_rows(csr, todo, measure)
    computed = computed[computed["sim"] >= eps]
    su = np.concatenate((u[similar], computed["u"].to_numpy(np.int64)))
    sv = np.concatenate((v[similar], computed["v"].to_numpy(np.int64)))
    sim = np.concatenate((lb[similar], computed["sim"].to_numpy(np.float64)))
    # Both directions of every similar edge; a core has >= mu - 1 of
    # them (its eps-neighborhood also holds the vertex itself).
    su, sv, sim = np.concatenate((su, sv)), np.concatenate((sv, su)), np.concatenate((sim, sim))
    core = np.bincount(su, minlength=csr.num_vertices + 1) >= mu - 1
    out = core[su]
    return assemble_from_edges(su[out], sv[out], sim[out], mu, eps, g.spark)
