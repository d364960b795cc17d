"""Figure 5 experiment: exact index construction time.

For each graph, times (a) the sequential GS*-Index reference
(single-threaded, driver-only) and (b) the parallel Spark construction
(similarities + neighbor/core order, materialized), and reports the
speedup. The paper reports 50–151x for 96 hyperthreads of C++ against
sequential C++; here the *shape* to reproduce is parallel < sequential
on every graph (see DESIGN.md §3.1 on constant factors).
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.baselines.gs_index_seq import SequentialGSIndex
from repro.core.index import build_index
from repro.experiments import datasets
from repro.experiments.harness import timed


def run(spark: SparkSession, dataset_names: list[str] | None = None) -> list[dict]:
    names = dataset_names or list(datasets.REGISTRY)
    rows = []
    for name in names:
        g = datasets.load(spark, name)
        measure = datasets.measure_for(name)
        pdf = g.to_pandas()
        _, t_seq = timed(
            lambda: SequentialGSIndex(pdf, g.num_vertices, measure).build()
        )
        # Construction ends with the index resident in memory (NO and
        # CO as arrays on the driver), as the paper defines it.
        idx, t_par = timed(lambda: build_index(g, measure).persist())
        rows.append(
            {
                "dataset": name,
                "measure": measure,
                "n": g.num_vertices,
                "m": g.num_edges(),
                "seq_gs_index_s": round(t_seq, 3),
                "spark_parallel_s": round(t_par, 3),
                "speedup": round(t_seq / t_par, 2),
            }
        )
        idx.unpersist()
        g.unpersist()
    return rows
