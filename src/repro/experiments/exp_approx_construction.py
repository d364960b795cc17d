"""Figure 8 experiment: approximate index construction time vs samples.

For each graph and each sample count k, times the LSH-approximate index
construction (SimHash for cosine on every graph; k-partition MinHash
for Jaccard on the unweighted graphs — the paper's implementation
choices, §6.3/§7.3.3) and reports it next to the exact construction
time, taken from a second exact build so that it is not timed cold.
Shapes to reproduce: approximation helps on the dense graphs and not on
the sparse ones; MinHash builds faster than SimHash; times
plateau at large k where the §6.3 degree heuristic reverts edges to
exact computation (visible in ``edges_approx``).
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.approx import build_approx_index
from repro.experiments import datasets
from repro.experiments.exp_index_construction import build_index_timed
from repro.experiments.harness import timed

KS = (8, 16, 32, 64, 128)


def run(
    spark: SparkSession,
    dataset_names: list[str] | None = None,
    ks: tuple[int, ...] = KS,
    seed: int = 0,
) -> list[dict]:
    names = dataset_names or list(datasets.REGISTRY)
    rows = []
    for name in names:
        g = datasets.load(spark, name)
        exact_measure = datasets.measure_for(name)
        # The first build of a graph is cold (first Spark jobs, Python
        # workers): time the second, warm one.
        for _ in range(2):
            idx, t_exact = build_index_timed(g, exact_measure)
            idx.unpersist()
        measures = [exact_measure] if g.weighted else ["cosine", "jaccard"]
        for measure in measures:
            scheme = "minhash" if measure == "jaccard" else "simhash"
            for k in ks:
                def build():
                    idx, stats = build_approx_index(g, k, measure, seed=seed)
                    idx.persist()
                    return idx, stats
                (idx, stats), t_apx = timed(build)
                rows.append(
                    {
                        "dataset": name,
                        "scheme": scheme,
                        "k": k,
                        "approx_build_s": round(t_apx, 3),
                        "exact_build_s": round(t_exact, 3),
                        "edges_approx": stats.n_edges_approx,
                        "edges_exact": stats.n_edges_exact,
                        "sketched": stats.n_vertices_sketched,
                    }
                )
                idx.unpersist()
        g.unpersist()
    return rows
