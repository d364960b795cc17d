"""Figure 8 experiment: approximate index construction time vs samples.

For each graph and each sample count k, times the LSH-approximate index
construction (SimHash for cosine on every graph; k-partition MinHash
for Jaccard on the unweighted graphs — the paper's implementation
choices, §6.3/§7.3.3) and reports it next to the exact construction
time, measured again right before each k. Every time is the median of
REPS warm builds, after one untimed exact build per graph (the first
build of a process is cold: first Spark jobs, Python workers).
Shapes to reproduce: approximation helps on the dense graphs and not on
the sparse ones; MinHash builds faster than SimHash; times
plateau at large k where the §6.3 degree heuristic reverts edges to
exact computation (visible in ``edges_approx``).
"""
from __future__ import annotations

import statistics

from pyspark.sql import SparkSession

from repro.core.approx import build_approx_index
from repro.core.index import build_index
from repro.experiments import datasets
from repro.experiments.harness import timed

KS = (8, 16, 32, 64, 128)
#: Timed builds per (graph, scheme, k) and for each exact build.
REPS = 3


def _median_build_s(build) -> tuple[object, float]:
    """(stats of the last build, median seconds of REPS ``build()``
    calls), each ending with its index persisted and then released."""
    times, stats = [], None
    for _ in range(REPS):
        (idx, stats), t = timed(build)
        times.append(t)
        idx.unpersist()
    return stats, statistics.median(times)


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
        build_index(g, exact_measure).unpersist()  # untimed warm-up
        measures = [exact_measure] if g.weighted else ["cosine", "jaccard"]
        for measure in measures:
            scheme = "minhash" if measure == "jaccard" else "simhash"
            for k in ks:
                # The exact side is timed right before each k, so both
                # sides of a row see the same, equally warm JVM.
                _, t_exact = _median_build_s(
                    lambda: (build_index(g, exact_measure).persist(), None)
                )
                def build():
                    idx, stats = build_approx_index(g, k, measure, seed=seed)
                    return idx.persist(), stats
                stats, t_apx = _median_build_s(build)
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
        g.unpersist()
    return rows
