"""Figure 9/10 experiments: clustering quality of approximate indices.

For each graph, scheme and sample count k (several seeds each, like the
paper's five trials):

- **Figure 9**: best modularity over the parameter grid Σ, with
  unclustered vertices as singleton clusters (paper §7.3.4), against
  the (Spark) index construction time.
- **Figure 10**: ARI between the approximate clustering and the
  exact-similarity clustering at the *exact-optimal* parameters from Σ.

The expensive, timed part — similarity computation + index
construction — runs on Spark exactly as in the Figure 8 experiment.
The dense (mu, eps) grid is then answered by the persisted index's own
queries, which read its driver arrays and run no Spark job, so a
~100-point grid costs milliseconds per point.

Σ is the paper's grid (eq. 1) scaled to the lite graphs:
mu ∈ {2, 4, ..., 64} (vs 2..2^18), eps ∈ {.05, .10, ..., .95}
(vs {.01...99}).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.approx import build_approx_index
from repro.core.index import SCANIndex, build_index
from repro.core.query import query_clusters
from repro.experiments import datasets
from repro.experiments.harness import timed
from repro.quality.ari import adjusted_rand_index_pandas
from repro.quality.modularity import modularity_pandas

MU_GRID = (2, 4, 8, 16, 32, 64)
EPS_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))
DEFAULT_KS = (8, 16, 32, 64, 128)
DEFAULT_SEEDS = (0, 1, 2)
#: Quality experiments target the dense graphs where approximation is
#: viable (the paper plots all six; the sparse ones are covered by the
#: "approximation unhelpful" shape in Figure 8).
DENSE_DATASETS = ("brain_lite", "bloodvessel_lite", "cochlea_lite")


def _full_labels(index: SCANIndex, mu: int, eps: float) -> dict:
    lab = query_clusters(index, mu, eps).labels_pandas()
    return {v: lab.get(v, v) for v in range(1, index.num_vertices + 1)}


def _best_modularity(
    edges: pd.DataFrame, index: SCANIndex
) -> tuple[float, int, float]:
    """(best Q, best mu, best eps) over the Σ grid."""
    best = (-2.0, MU_GRID[0], EPS_GRID[0])
    for mu in MU_GRID:
        for eps in EPS_GRID:
            q = modularity_pandas(edges, _full_labels(index, mu, eps))
            if q > best[0]:
                best = (q, mu, eps)
    return best


def run(
    spark: SparkSession,
    dataset_names: tuple[str, ...] = DENSE_DATASETS,
    ks: tuple[int, ...] = DEFAULT_KS,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
) -> list[dict]:
    """Rows covering both Figure 9 (modularity) and Figure 10 (ARI)."""
    rows = []
    for name in dataset_names:
        g = datasets.load(spark, name)
        edges = g.to_pandas()
        exact_measure = datasets.measure_for(name)
        measures = [exact_measure] if g.weighted else ["cosine", "jaccard"]
        for measure in measures:
            scheme = "minhash" if measure == "jaccard" else "simhash"
            idx, t_exact = timed(lambda: build_index(g, measure).persist())
            best_q, best_mu, best_eps = _best_modularity(edges, idx)
            exact_labels = _full_labels(idx, best_mu, best_eps)
            idx.unpersist()
            rows.append(
                {
                    "dataset": name,
                    "scheme": scheme,
                    "k": "exact",
                    "build_s": round(t_exact, 3),
                    "best_modularity": round(best_q, 4),
                    "best_mu": best_mu,
                    "best_eps": best_eps,
                    "ari_vs_exact": 1.0,
                }
            )
            for k in ks:
                t_sum = q_sum = ari_sum = 0.0
                for seed in seeds:
                    def build():
                        ai, _ = build_approx_index(g, k, measure, seed=seed)
                        return ai.persist()
                    aidx, t_apx = timed(build)
                    q, _, _ = _best_modularity(edges, aidx)
                    ari = adjusted_rand_index_pandas(
                        _full_labels(aidx, best_mu, best_eps), exact_labels
                    )
                    aidx.unpersist()
                    t_sum += t_apx
                    q_sum += q
                    ari_sum += ari
                n = len(seeds)
                rows.append(
                    {
                        "dataset": name,
                        "scheme": scheme,
                        "k": k,
                        "build_s": round(t_sum / n, 3),
                        "best_modularity": round(q_sum / n, 4),
                        "best_mu": best_mu,
                        "best_eps": best_eps,
                        "ari_vs_exact": round(ari_sum / n, 4),
                    }
                )
        g.unpersist()
    return rows
